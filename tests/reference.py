"""Slow, loop-based reference implementations used as independent oracles.

Nothing here shares code with the package: interval location is a linear
scan, the inverse maps use the raw coefficient form (z - e_i) / a_i, and the
series is summed term by term in pure Python.
"""

from __future__ import annotations

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


def ref_lip(xs, ys, d):
    """Double-loop Holder quotient maximum."""
    worst = 0.0
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            q = abs(ys[j] - ys[i]) / abs(xs[j] - xs[i]) ** d
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
