"""Slow, loop-based reference implementations used as independent oracles.

Nothing here shares code with the package: interval location is a linear
scan, the inverse maps use the raw coefficient form (z - e_i) / a_i, the
series is summed term by term in pure Python, and grid reads bisect for their
cell and interpolate by hand.
"""

from __future__ import annotations

import bisect
import csv

import numpy as np


def ref_coefficients(knots):
    """a_i, e_i straight from the closed form."""
    x0, xN = knots[0], knots[-1]
    span = xN - x0
    a = [(knots[i] - knots[i - 1]) / span for i in range(1, len(knots))]
    e = [(xN * knots[i - 1] - x0 * knots[i]) / span for i in range(1, len(knots))]
    return a, e


def ref_locate(x, knots):
    """Interior knots to the right interval; scan, 1-based."""
    n = len(knots) - 1
    for i in range(1, n):
        if knots[i - 1] <= x < knots[i]:
            return i
    return n


def ref_series(x, depth, knots, scaling_fns, base_fns, germ):
    """Partial sum of the self-referential expansion up to j = depth.

    scaling_fns[r-1][i-1] and base_fns[r-1] give level r data (clamped to the
    last entry beyond the end, matching the repeat-last tail).
    """
    a, e = ref_coefficients(knots)
    x0, xN = knots[0], knots[-1]
    total = float(germ(x))
    prod = 1.0
    z = float(x)
    for j in range(1, depth + 1):
        i = ref_locate(z, knots)
        z = (z - e[i - 1]) / a[i - 1]
        z = min(max(z, x0), xN)
        r = min(j, len(scaling_fns)) - 1
        prod *= float(scaling_fns[r][i - 1](z))
        total += prod * (float(germ(z)) - float(base_fns[r](z)))
    return total


def ref_rb_point(x, knots, grid, g_vals, germ, scalings, base, pert=None):
    """One RB step at x from g known only at the grid nodes:
        f(x) + [alpha_i + t_i theta_i](q) (g - b)(q) + s_i phi_i(q)
    with i the interval of x and q = (x - e_i) / a_i clamped to the domain.
    g - b is read at q by linear interpolation between the two grid nodes
    around it.  pert is None (t = s = 0) or per-interval (t, s, theta, phi).
    """
    a, e = ref_coefficients(knots)
    i = ref_locate(x, knots)
    q = min(max((x - e[i - 1]) / a[i - 1], knots[0]), knots[-1])
    k = min(max(bisect.bisect_right(grid, q) - 1, 0), len(grid) - 2)
    w = (q - grid[k]) / (grid[k + 1] - grid[k])
    d0 = g_vals[k] - float(base(grid[k]))
    d1 = g_vals[k + 1] - float(base(grid[k + 1]))
    scale = float(scalings[i - 1](q))
    bump = 0.0
    if pert is not None:
        t, s, theta, phi = pert
        scale += t[i - 1] * float(theta[i - 1](q))
        bump = s[i - 1] * float(phi[i - 1](q))
    return float(germ(x)) + scale * ((1.0 - w) * d0 + w * d1) + bump


def ref_shifted(fn, shift):
    """fn + shift, summed the way the stability campaign first wrapped its
    shifted germ and bases."""
    def shifted(x):
        return np.asarray(fn(x), dtype=float) + np.asarray(shift(x), dtype=float)
    return shifted


def ref_blend(fn, lam, domain):
    """lam * fn + (1 - lam) * chord through fn's values at the domain ends,
    with the chord written out by hand."""
    lo, hi = domain
    y_left, y_right = float(fn(lo)), float(fn(hi))

    def blended(x):
        x = np.asarray(x, dtype=float)
        chord = y_left + (y_right - y_left) * (x - lo) / (hi - lo)
        out = lam * np.asarray(fn(x), dtype=float) + (1.0 - lam) * chord
        return out if out.shape else float(out)
    return blended


def ref_lip(xs, ys, d):
    """Double-loop Holder quotient maximum."""
    worst = 0.0
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            q = abs(ys[j] - ys[i]) / abs(xs[j] - xs[i]) ** d
            worst = max(worst, q)
    return worst


def ref_lip_adjacent(xs, ys):
    """Largest |slope| between neighbours of increasing xs, one at a time;
    NaN as soon as any slope is NaN."""
    worst = 0.0
    for i in range(len(xs) - 1):
        q = abs(float(ys[i + 1]) - float(ys[i])) / abs(float(xs[i + 1]) - float(xs[i]))
        if q != q:
            return q
        worst = max(worst, q)
    return worst


def ref_lip_pairs(xs, ys, d):
    """Every i < j Holder quotient at once by fancy indexing, then one max."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    i, j = np.triu_indices(xs.size, k=1)
    return float(np.max(np.abs(ys[j] - ys[i]) / np.abs(xs[j] - xs[i]) ** d))


def ref_required_depth(rate, magnitude, eps):
    """Brute-force smallest k with rate^{k+1}/(1-rate) * magnitude <= eps."""
    if rate <= 0.0 or magnitude <= 0.0:
        return 1
    k = 1
    while rate ** (k + 1) / (1.0 - rate) * magnitude > eps:
        k += 1
        if k > 10_000:
            raise RuntimeError("tail bound does not shrink")
    return k


def ref_write_curve_csv(path, xs, f_vals, fa_vals):
    """curve.csv one row and one value at a time through csv.writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "f", "falpha"])
        for x, fv, av in zip(xs, f_vals, fa_vals):
            w.writerow(["%.17g" % float(v) for v in (x, fv, av)])


def ref_grid(partition, size):
    """The grid as the sorted union of the linspace nodes and the knots
    (np.union1d), after a node within ``node_rounding`` of a knot has given
    way to it."""
    lin = np.linspace(partition.lo, partition.hi, size)
    scale, nu = (size - 1) / partition.span, partition.node_rounding
    for x in partition.knots:
        k = min(round((x - partition.lo) * scale), size - 1)
        if abs(lin[k] - x) <= nu:
            lin[k] = x
    return np.union1d(lin, np.asarray(partition.knots, dtype=float))


def ref_matched_endpoint_coeffs(coeffs, domain, y_left, y_right):
    """The coefficients of a polynomial shifted by a linear term to take the
    values y_left, y_right at the domain's ends, its end values read with
    np.polynomial.polynomial.polyval."""
    lo, hi = float(domain[0]), float(domain[1])
    c = [float(v) for v in coeffs] + [0.0] * max(0, 2 - len(coeffs))
    p = np.polynomial.polynomial.polyval([lo, hi], np.asarray(c))
    mu = ((y_right - p[1]) - (y_left - p[0])) / (hi - lo)
    lam = (y_left - p[0]) - mu * lo
    c[0] += lam
    c[1] += mu
    return [float(v) for v in c]
