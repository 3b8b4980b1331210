"""Seeded random inputs for verification campaigns: polynomial germs with
coefficients uniform in [-1, 1] (degree <= 5), endpoint-corrected bases,
positive bounded scaling functions, and random partitions.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DepthPolicy,
    FunctionSpec,
    Level,
    LevelSequence,
    Partition,
    ProblemConfig,
    build_partition,
    endpoint_values,
    matched_endpoint_polynomial,
)
from .errors import ConfigError

POLY_DEGREE = 5


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        return np.random.default_rng(seed)
    except ValueError as exc:  # a negative seed
        raise ConfigError(f"seed {seed!r}: {exc}") from None


def random_polynomial_spec(rng, domain, degree: int = POLY_DEGREE,
                           scale: float = 1.0) -> FunctionSpec:
    coeffs = rng.uniform(-scale, scale, size=degree + 1)
    return FunctionSpec.polynomial(coeffs, domain)


def random_sinusoid_spec(rng, domain) -> FunctionSpec:
    amp = rng.uniform(0.2, 1.0)
    omega = rng.uniform(1.0, 2.0 * np.pi)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    offset = rng.uniform(-0.5, 0.5)
    return FunctionSpec.sinusoid(amp, omega, phase, offset, domain)


def random_germ_spec(rng, domain) -> FunctionSpec:
    if rng.random() < 0.5:
        return random_polynomial_spec(rng, domain)
    return random_sinusoid_spec(rng, domain)


def matched_base_spec(rng, germ, domain, scale: float = 1.0) -> FunctionSpec:
    """Random polynomial shifted to agree with the germ at both endpoints."""
    y0, y1 = endpoint_values(germ, domain)
    coeffs = rng.uniform(-scale, scale, size=POLY_DEGREE + 1)
    return matched_endpoint_polynomial(coeffs, domain, y0, y1)


def zero_endpoint_spec(rng, domain, scale: float = 1.0) -> FunctionSpec:
    """Random polynomial vanishing at both endpoints (phi perturbation shape)."""
    coeffs = rng.uniform(-scale, scale, size=POLY_DEGREE + 1)
    return matched_endpoint_polynomial(coeffs, domain, 0.0, 0.0)


def random_alpha_spec(rng, domain, cap: float, variable: bool = True) -> FunctionSpec:
    """Positive scaling function with values in (0, cap]: a constant, or a
    sinusoid kept strictly inside the band by construction."""
    if variable and rng.random() < 0.5:
        amp = rng.uniform(0.02, 0.45) * cap
        offset = rng.uniform(amp + 0.02 * cap, cap - amp)
        omega = rng.uniform(1.0, np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return FunctionSpec.sinusoid(amp, omega, phase, offset, domain)
    return FunctionSpec.constant(rng.uniform(0.05, 0.95) * cap, domain)


def random_alpha_vector(rng, n_intervals: int, domain, cap: float,
                        variable: bool = True) -> tuple[FunctionSpec, ...]:
    return tuple(random_alpha_spec(rng, domain, cap, variable) for _ in range(n_intervals))


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
