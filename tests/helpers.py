"""Random configurations, dependence-pair campaigns and predicates that only
the tests use, built on the package's public pieces."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from alphafractal import depend
from alphafractal.campaigns import ALPHA_CAP
from alphafractal.core import (
    DepthPolicy,
    Level,
    LevelSequence,
    Partition,
    ProblemConfig,
    SampledFunction,
    build_partition,
    specs_equal,
    sup_abs,
)
from alphafractal.engine import INTERPOLATION_TOL, Interpolant, apply_rb
from alphafractal.errors import ConfigError
from alphafractal.report import BoundReport
from alphafractal.sampling import (
    matched_base_spec,
    random_alpha_vector,
    random_germ_spec,
    rng_from,
)


def random_partition(rng, domain, n_intervals: int) -> Partition:
    """Random strictly increasing knots with bounded mesh ratio."""
    lo, hi = domain
    gaps = rng.uniform(0.5, 1.5, size=n_intervals)
    knots = lo + (hi - lo) * np.concatenate(([0.0], np.cumsum(gaps))) / np.sum(gaps)
    knots[-1] = hi
    return build_partition(knots)


def random_level_sequence(rng, germ, n_intervals: int, domain,
                          n_levels: int = 2, cap: float = 0.5,
                          variable_alpha: bool = True) -> LevelSequence:
    levels = tuple(
        Level(
            scalings=random_alpha_vector(rng, n_intervals, domain, cap, variable_alpha),
            base=matched_base_spec(rng, germ, domain),
        )
        for _ in range(n_levels)
    )
    return LevelSequence(levels)


def random_config(rng, *, domain=(0.0, 1.0), n_intervals: int | None = None,
                  n_levels: int | None = None, cap: float = 0.5,
                  grid_size: int = 1025, d: float = 1.0,
                  mode: str = "continuous",
                  depth_policy: DepthPolicy | None = None,
                  variable_alpha: bool = True) -> ProblemConfig:
    """A full random configuration for acceptance-style sweeps."""
    rng = rng_from(rng)
    if n_intervals is None:
        n_intervals = int(rng.integers(2, 7))
    if n_levels is None:
        n_levels = int(rng.integers(1, 4))
    partition = random_partition(rng, domain, n_intervals)
    germ = random_germ_spec(rng, domain)
    levels = random_level_sequence(rng, germ, n_intervals, domain,
                                   n_levels=n_levels, cap=cap,
                                   variable_alpha=variable_alpha)
    return ProblemConfig(
        partition=partition,
        germ=germ,
        levels=levels,
        d=d,
        grid_size=grid_size,
        depth_policy=depth_policy if depth_policy is not None else DepthPolicy(),
        mode=mode,
    )


def base_pair_suite(template: ProblemConfig, pairs: int, seed) -> list[BoundReport]:
    """Base dependence over random pairs of endpoint-matched base sequences."""
    rng = rng_from(seed)
    out = []
    domain = template.domain
    for k in range(pairs):
        n_levels = template.levels.prefix_len
        bases_a = tuple(matched_base_spec(rng, template.germ, domain)
                        for _ in range(n_levels))
        bases_b = tuple(matched_base_spec(rng, template.germ, domain)
                        for _ in range(n_levels))
        rep = depend.base_dependence(template, bases_a, bases_b)
        out.append(replace(rep, name=f"base-dependence[{k}]"))
    return out


def scaling_pair_suite(template: ProblemConfig, pairs: int, seed,
                       s_cap: float = ALPHA_CAP) -> list[BoundReport]:
    """Scaling dependence over random pairs of scaling sequences under s_cap."""
    rng = rng_from(seed)
    out = []
    domain = template.domain
    for k in range(pairs):
        n_levels = template.levels.prefix_len
        alphas_a = tuple(
            random_alpha_vector(rng, template.n_intervals, domain, s_cap)
            for _ in range(n_levels)
        )
        alphas_b = tuple(
            random_alpha_vector(rng, template.n_intervals, domain, s_cap)
            for _ in range(n_levels)
        )
        rep = depend.scaling_dependence(template, alphas_a, alphas_b, s_cap)
        out.append(replace(rep, name=f"scaling-dependence[{k}]"))
    return out


def is_strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def satisfies_interpolation(interp: Interpolant, tol: float = INTERPOLATION_TOL) -> bool:
    """Whether the interpolant meets the data at every knot within ``tol``."""
    return bool(np.max(interp.knot_residuals()) <= tol)


def levels_constant(cfg: ProblemConfig) -> bool:
    """Whether every level repeats the first one's base and scalings."""
    first = cfg.levels.levels[0]
    return all(specs_equal(lv.base, first.base)
               and all(specs_equal(a, b) for a, b in zip(lv.scalings, first.scalings))
               for lv in cfg.levels.levels[1:])


def stationary_fixed_point(cfg: ProblemConfig, tol: float = 1e-10,
                           max_iter: int = 10_000) -> Interpolant:
    """Banach iteration of the single RB operator ``apply_rb`` of a
    constant-in-r sequence, from the germ seed, until the sup-difference of
    two iterates drops below tol: an oracle for the trajectory's limit."""
    if not levels_constant(cfg):
        raise ConfigError("stationary fixed point needs a constant-in-r level sequence")
    g = SampledFunction(cfg.grid, cfg.germ_values)
    for it in range(1, max_iter + 1):
        new = apply_rb(g, 1, cfg)
        delta = sup_abs([new.ys - g.ys])
        g = new
        if delta <= tol:
            return Interpolant(cfg=cfg, depth=it, values=g)
    raise RuntimeError(f"fixed-point iteration did not reach {tol} within {max_iter} steps")
