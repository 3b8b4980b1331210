"""Grid estimation of sup-norms, Holder/Lipschitz seminorms, and the norm
||g||_d = max(||g||_inf, Lip_d(g)), plus the contraction-hypothesis check
built on them.

All estimates are one-sided: a finite grid can only underestimate a sup, so
hypothesis checks downstream apply a documented safety slack.  Lip_1 is the
maximum over every pair of grid points (up to rounding), read in O(M) off
adjacent points; only Lip_d with d < 1 scans pairs, strided beyond
LIP_PAIR_CAP points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProblemConfig, evaluate, group_specs, sup_abs
from .errors import BadExponent, EmptyGrid
from .report import BoundReport

LIP_PAIR_CAP = 2049  # d < 1: full O(M^2) pair scan up to this many grid points


def sup_norm(g, grid) -> float:
    """max over the grid of |g|; nondecreasing under grid refinement."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise EmptyGrid("sup_norm needs a non-empty grid")
    return sup_abs([evaluate(g, grid)])


def lip_seminorm(g, d: float, grid) -> float:
    """max over grid pairs of |g(x) - g(y)| / |x - y|^d.

    At d = 1 the maximum over all pairs is the largest slope between
    neighbouring points of the sorted grid (a chord's slope is a weighted
    mean of the slopes it spans), found in O(M) on the full grid.  At d < 1
    pairs are scanned one index offset at a time, O(M^2) work in O(M)
    memory; beyond LIP_PAIR_CAP points the grid is strided down (keeping the
    last point) so the pair count stays bounded, at the cost of a slightly
    weaker underestimate.
    """
    if not 0.0 < d <= 1.0:
        raise BadExponent(f"exponent d must lie in (0, 1], got {d}")
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise EmptyGrid("lip_seminorm needs at least two grid points")
    if d == 1.0:
        if not np.all(grid[1:] >= grid[:-1]):
            grid = grid[np.argsort(grid, kind="stable")]
        vals = evaluate(g, grid)
        # a NaN value or a repeated point (0/0) gives a NaN slope, and np.max keeps it
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.max(np.abs(np.diff(vals)) / np.abs(np.diff(grid))))
    if grid.size > LIP_PAIR_CAP:
        stride = int(np.ceil((grid.size - 1) / (LIP_PAIR_CAP - 1)))
        sub = grid[::stride]
        if sub[-1] != grid[-1]:
            sub = np.append(sub, grid[-1])
        grid = sub
    vals = evaluate(g, grid)
    # offset k covers the pairs (i, i + k); np.max lets a NaN quotient through
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max([np.max(np.abs(vals[k:] - vals[:-k])
                                    / np.abs(grid[k:] - grid[:-k]) ** d)
                             for k in range(1, grid.size)]))


@dataclass(frozen=True)
class NormEstimate:
    """sup-norm and Lip_d seminorm estimated on one grid; ||g||_d is their max."""

    sup_norm: float
    lip_d: float
    d: float
    grid_points: int

    @property
    def norm_d(self) -> float:
        return float(np.max([self.sup_norm, self.lip_d]))  # NaN propagates


def estimate_norms(g, d: float, grid) -> NormEstimate:
    grid = np.asarray(grid, dtype=float)
    return NormEstimate(
        sup_norm=sup_norm(g, grid),
        lip_d=lip_seminorm(g, d, grid),
        d=d,
        grid_points=int(grid.size),
    )


def lip_ratios(cfg: ProblemConfig) -> tuple[float, ...]:
    """Per prefix level r, max_i ||alpha_{i,r}||_d / a_i^d on the config grid
    (computed once per config).  Each distinct scaling's sup and Lip_d are
    estimated once per grid and d, and kept on the spec
    (``FunctionSpec.grid_estimate``), so configs that share scalings share
    them."""

    def build():
        p, size, d, n = cfg.partition, cfg.grid_size, cfg.d, cfg.n_intervals
        norm_d = {}  # per position in the flattened prefix
        for spec, ks in group_specs([spec for lv in cfg.levels.levels for spec in lv.scalings]):
            lip = spec.grid_estimate(("lip", d), p, size, lambda grid: lip_seminorm(spec, d, grid))
            norm_d.update(dict.fromkeys(ks, float(np.max([spec.grid_sup(p, size), lip]))))
        return tuple(float(np.max([norm_d[r * n + i] / p.ratios[i] ** d for i in range(n)]))
                     for r in range(cfg.levels.prefix_len))

    return cfg._cached("_lip_ratios", build)


def check_lip_hypothesis(cfg: ProblemConfig) -> BoundReport:
    """Check max over prefix levels and intervals of ||alpha_{i,r}||_d / a_i^d
    against the 1/2 threshold; the RB operator then contracts the ||.||_d norm
    with factor 2 * max(...)."""
    ratios = lip_ratios(cfg)
    observed = float(np.max(ratios))
    return BoundReport(
        name="lip-hypothesis",
        predicted=0.5,
        observed=observed,
        tolerance=0.0,
        inputs={
            "d": cfg.d,
            "per_level_ratios": ratios,
            "contraction_factor": 2.0 * observed,
            "grid_points": int(cfg.grid.size),
        },
    )
