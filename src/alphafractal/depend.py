"""Continuous-dependence experiments: how the interpolant moves when the base
sequence, the scaling sequence, or the partition moves.

The base map is Lipschitz with constant ||alpha||/(1 - ||alpha||); the scaling
map obeys ||alpha - beta|| ||f - b|| / (1 - s_cap)^2 under a common cap; for
the partition the quantitative handle is the per-map displacement bound
2 (1 + theta k_f) ||Delta - Delta~||_2 in the weighted metric
mu((x,y),(x',y')) = |x-x'| + theta |y-y'|, while continuity itself is
witnessed by shrinking knot perturbations.  The Lipschitz constants behind
theta are the specs' kept Lip_1 estimates, one scan per distinct spec.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .bounds import VERIFY_TOL
from .core import DEGENERATE_TOL, Partition, ProblemConfig, evaluate, group_specs, sup_abs
from .engine import backward_trajectory, pair_depth, require_valid, trajectory_interpolant
from .errors import CapViolated, ConfigError, EndpointMismatch, KnotCountMismatch
from .norms import lip_seminorm
from .report import BoundReport

BASE_RATIO_SLACK = 1e-4  # allowance on the base-map ratio check
LIP_SLACK = 0.05         # conservative inflation of estimated Lipschitz constants


def _interpolant_sup_diff(ref: ProblemConfig, other: ProblemConfig) -> tuple[float, int, float]:
    """Sup difference of the two trajectory interpolants on a shared comparison
    grid, at ``pair_depth``, with that depth and the sum of both tails.  The
    reference's trajectory is cached (a partition sweep compares one config
    with many); ``other`` is new in every caller."""
    depth, tail_ref, tail_other = pair_depth(ref, other)
    fa = trajectory_interpolant(ref, depth).values
    fb = backward_trajectory(None, depth, other).values
    common = np.union1d(fa.xs, fb.xs)
    return sup_abs([fa(common) - fb(common)]), depth, tail_ref + tail_other


# ---------------------------------------------------------------------------
# Dependence on the base sequence
# ---------------------------------------------------------------------------


def base_dependence(cfg: ProblemConfig, bases_a, bases_b) -> BoundReport:
    """Ratio ||A(b) - A(c)|| / ||b - c|| against the Lipschitz constant
    ||alpha||/(1 - ||alpha||).  Identical sequences give ratio 0; both must
    pass validation, equal or not."""
    cfgA = cfg.with_bases(tuple(bases_a))
    cfgB = cfg.with_bases(tuple(bases_b))
    for c in (cfgA, cfgB):
        require_valid(c)
    a = cfg.alpha_sup
    predicted = a / (1.0 - a)
    denom = cfgA.base_distance(cfgB)
    if denom < DEGENERATE_TOL:
        observed, depth = 0.0, 0
        trunc = 0.0
    else:
        num, depth, tails = _interpolant_sup_diff(cfgA, cfgB)
        observed = num / denom
        trunc = tails / denom
    return BoundReport(
        name="base-dependence",
        predicted=predicted,
        observed=observed,
        tolerance=BASE_RATIO_SLACK + trunc,
        inputs={"alpha_sup": a, "base_distance": denom, "depth": depth},
    )


# ---------------------------------------------------------------------------
# Dependence on the scaling sequence
# ---------------------------------------------------------------------------


def require_cap(s_cap: float) -> None:
    if not 0.0 < s_cap < 1.0:
        raise CapViolated(f"s_cap must lie in (0, 1), got {s_cap}")


def require_capped(cfg: ProblemConfig, alphas, s_cap: float, label: str) -> ProblemConfig:
    """``cfg`` with the scaling sequence ``alphas`` (per-level vectors);
    CapViolated unless its sup estimate is at most s_cap."""
    capped = cfg.with_scalings(tuple(tuple(v) for v in alphas))
    if not capped.alpha_sup <= s_cap:
        raise CapViolated(
            f"{label} scaling sequence sup estimate {capped.alpha_sup:.6g} exceeds cap {s_cap}"
        )
    return capped


def scaling_dependence(cfg: ProblemConfig, alphas_a, alphas_b,
                       s_cap: float) -> BoundReport:
    """||B(alpha) - B(beta)|| <= ||alpha - beta|| ||f - b|| / (1 - s_cap)^2 for
    sequences capped by s_cap < 1."""
    require_cap(s_cap)
    cfgA = require_capped(cfg, alphas_a, s_cap, "first")
    cfgB = require_capped(cfg, alphas_b, s_cap, "second")
    depth_levels = max(cfgA.levels.prefix_len, cfgB.levels.prefix_len)
    dist = sup_abs(evaluate(cfgA.levels.scaling(i, r), cfg.grid)
                   - evaluate(cfgB.levels.scaling(i, r), cfg.grid)
                   for r in range(1, depth_levels + 1) for i in range(1, cfg.n_intervals + 1))
    predicted = dist * cfg.base_gap_sup / (1.0 - s_cap) ** 2
    observed, depth, tails = _interpolant_sup_diff(cfgA, cfgB)
    return BoundReport(
        name="scaling-dependence",
        predicted=predicted,
        observed=observed,
        tolerance=VERIFY_TOL + tails,
        inputs={"alpha_distance": dist, "s_cap": s_cap,
                "base_gap_sup": cfg.base_gap_sup, "depth": depth},
    )


# ---------------------------------------------------------------------------
# Dependence on the partition
# ---------------------------------------------------------------------------


def admissible_theta_limit(A: float, R: float, k_f: float, k_b: float,
                           k_alpha: float, alpha_sup: float,
                           base_sup: float) -> float:
    """(1 - A) / (R k_alpha + A k_f + ||alpha|| k_b + ||b|| k_alpha); inf when
    every Lipschitz constant vanishes.  Decreasing in each constant."""
    denom = R * k_alpha + A * k_f + alpha_sup * k_b + base_sup * k_alpha
    return np.inf if denom <= 0.0 else (1.0 - A) / denom


def theta_constants(cfg: ProblemConfig) -> dict:
    """Grid-estimated Lipschitz constants (inflated by LIP_SLACK) and the
    admissible theta limit, computed once per config; k_f, k_b and k_alpha
    read each distinct spec's kept Lip_1 (``FunctionSpec.grid_estimate``)."""

    p, size, levels = cfg.partition, cfg.grid_size, cfg.levels.levels

    def k(specs):
        return (1.0 + LIP_SLACK) * sup_abs([[
            spec.grid_estimate(("lip", 1.0), p, size, lambda grid: lip_seminorm(spec, 1.0, grid))
            for spec, _ in group_specs(specs)]])

    def build():
        k_f, k_b = k([cfg.germ]), k(lv.base for lv in levels)
        k_alpha = k(spec for lv in levels for spec in lv.scalings)
        A = max(p.ratios)
        R = cfg.r_bound
        limit = admissible_theta_limit(A, R, k_f, k_b, k_alpha,
                                       cfg.alpha_sup, cfg.base_sup)
        return {"k_f": k_f, "k_b": k_b, "k_alpha": k_alpha, "A": A, "R": R,
                "theta_limit": limit}

    return dict(cfg._cached("_theta_constants", build))


def _theta(theta_limit: float) -> float:
    """Half the admissible theta limit (a valid metric weight); 1.0 when every
    estimated Lipschitz constant vanishes and the limit degenerates."""
    return 0.5 * theta_limit if np.isfinite(theta_limit) else 1.0


def require_same_interval(p: Partition, other: Partition) -> None:
    if len(other.knots) != len(p.knots):
        raise KnotCountMismatch(f"partitions carry {len(p.knots)} vs {len(other.knots)} knots")
    if other.lo != p.lo or other.hi != p.hi:
        raise EndpointMismatch("partitions must share the interval endpoints")


def partition_dependence(cfg: ProblemConfig, other: Partition) -> BoundReport:
    """Compare the IFS maps of two equal-count partitions of one interval.

    predicted/observed is the per-map displacement inequality
        max over i, x of |l_i - l_i~|(x) + theta |f(l_i(x)) - f(l_i~(x))|
            <= 2 (1 + theta k_f) ||Delta - Delta~||_2,
    which does not depend on y, r, alpha, or b (those terms cancel).  The
    interpolant sup-difference rides along in the inputs for the continuity
    witness.
    """
    p = cfg.partition
    require_same_interval(p, other)
    cfgB = replace(cfg, partition=other)
    consts = theta_constants(cfg)
    theta = _theta(consts["theta_limit"])
    k_f = consts["k_f"]
    l2 = float(np.linalg.norm(p.array()[1:-1] - other.array()[1:-1]))
    predicted = 2.0 * (1.0 + theta * k_f) * l2

    def shift(i):
        la = p.forward(i, cfg.grid)
        lb = other.forward(i, cfg.grid)
        return np.abs(la - lb) + theta * np.abs(evaluate(cfg.germ, la) - evaluate(cfg.germ, lb))

    observed = sup_abs(shift(i) for i in range(1, p.n_intervals + 1))

    sup_diff, depth, _ = _interpolant_sup_diff(cfg, cfgB)
    return BoundReport(
        name="partition-displacement",
        predicted=predicted,
        observed=observed,
        tolerance=VERIFY_TOL,
        inputs={
            "knot_l2": l2,
            "theta": theta,
            "k_f": k_f,
            "interpolant_sup_diff": sup_diff,
            "depth": depth,
        },
    )


def _halving(base: tuple, target: tuple, k: int) -> tuple[float, ...]:
    """Knots Delta + (Delta~ - Delta)/2^k, the division exact as a power of 2."""
    return tuple(b + math.ldexp(t - b, -k) for b, t in zip(base, target))


def require_halvings(p: Partition, other: Partition, halvings: int) -> None:
    """The checks ``partition_continuity`` makes before it runs: at least one
    magnitude, partitions of one interval, and no halving whose knots equal
    the previous halving's (every later row would repeat one comparison)."""
    if halvings < 1:
        raise KnotCountMismatch("need at least one magnitude")
    require_same_interval(p, other)
    # a finite shift halves to zero within 2,100 steps (2^1024 to 2^-1075),
    # so k stays a small int32 exponent whatever halvings asks for
    k, prev = 1, _halving(p.knots, other.knots, 0)
    while k < halvings and (knots := _halving(p.knots, other.knots, k)) != prev:
        k, prev = k + 1, knots
    if k < halvings:
        raise ConfigError(f"halvings {halvings} reaches halving {k}, whose knots equal "
                          f"halving {k - 1}'s; ask for at most {k}")


def partition_continuity(cfg: ProblemConfig, other: Partition,
                         halvings: int = 3) -> list[BoundReport]:
    """Reports along knot perturbations of geometrically shrinking magnitude:
    Delta + (Delta~ - Delta)/2^k for k = 0..halvings-1.  A continuity witness
    requires the interpolant sup-differences to decrease strictly."""
    require_halvings(cfg.partition, other, halvings)
    return [partition_dependence(cfg, Partition(_halving(cfg.partition.knots, other.knots, k)))
            for k in range(halvings)]
