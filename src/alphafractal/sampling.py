"""Seeded random inputs for verification campaigns: polynomial germs with
coefficients uniform in [-1, 1] (degree <= 5), endpoint-corrected bases,
and positive bounded scaling functions.
"""

from __future__ import annotations

import numpy as np

from .core import FunctionSpec, endpoint_values, matched_endpoint_polynomial
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
