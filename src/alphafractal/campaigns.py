"""Randomized verification campaigns over the closed-form bounds.

Each suite draws fresh inputs from the seeded generator, keeps the template
configuration's partition, grid, exponent, and mode, and returns one
BoundReport per checked instance.  Deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import replace

from . import bounds
from .core import (
    FunctionSpec,
    Level,
    LevelSequence,
    ProblemConfig,
    matched_endpoint_polynomial,
)
from .errors import ConfigError
from .ifs import PerturbationLevel, PerturbationSpec
from .report import BoundReport
from .sampling import (
    POLY_DEGREE,
    matched_base_spec,
    random_alpha_vector,
    random_coefficients,
    random_germ_spec,
    random_polynomial_spec,
    rng_from,
    zero_endpoint_spec,
)

SUITES = ("error", "operator", "stability", "sensitivity", "all")
ALPHA_CAP = 0.5


def _random_operator(rng, n_levels: int) -> bounds.BaseOperatorSpec:
    kinds = tuple(
        bounds.OPERATOR_KINDS[int(rng.integers(0, len(bounds.OPERATOR_KINDS)))]
        for _ in range(n_levels)
    )
    lams = tuple(float(rng.uniform(0.0, 1.0)) for _ in range(n_levels))
    return bounds.BaseOperatorSpec(kinds=kinds, lambdas=lams)


def _random_scalings(rng, template: ProblemConfig):
    """One scaling vector honoring the template's mode: in Lipschitz mode the
    draws are constants under the per-interval cap a_i^d / 2, so the drawn
    system satisfies the contraction hypothesis by construction."""
    domain = template.domain
    if template.mode == "lipschitz":
        return tuple(
            random_alpha_vector(rng, 1, domain, 0.9 * a_i ** template.d / 2.0,
                                variable=False)[0]
            for a_i in template.partition.ratios
        )
    return random_alpha_vector(rng, template.n_intervals, domain, ALPHA_CAP)


def _random_system(rng, template: ProblemConfig, op: bounds.BaseOperatorSpec) -> ProblemConfig:
    """Template partition/grid/d/mode with a fresh germ, fresh scalings, and
    bases b_r = L_r f."""
    germ = random_germ_spec(rng, template.domain)
    levels = tuple(
        Level(
            scalings=_random_scalings(rng, template),
            base=op.apply(r, germ, template.partition),
        )
        for r in range(1, op.prefix_len + 1)
    )
    return replace(template, germ=germ, levels=LevelSequence(levels))


def error_suite(template: ProblemConfig, trials: int, seed) -> list[BoundReport]:
    """Random (f, L_r, alpha) instances of the error bound and its corollary."""
    rng = rng_from(seed)
    out = []
    for k in range(trials):
        op = _random_operator(rng, int(rng.integers(1, 4)))
        cfg = _random_system(rng, template, op)
        rep = bounds.error_bound(cfg, op)
        out.append(replace(rep, name=f"error[{k}]"))
        rep = bounds.corollary_bound(cfg, op, j=1)
        out.append(replace(rep, name=f"corollary[{k}]"))
    return out


def operator_suite(template: ProblemConfig, trials: int, seed) -> list[BoundReport]:
    """Operator Lipschitz constant and relative bound over random germ draws."""
    rng = rng_from(seed)
    op = _random_operator(rng, int(rng.integers(1, 4)))
    cfg = _random_system(rng, template, op)
    return [
        bounds.operator_lipschitz_check(cfg, op, trials=trials, seed=rng),
        bounds.relative_bound_check(cfg, op, trials=trials, seed=rng),
    ]


def _matched_system(rng, template: ProblemConfig) -> ProblemConfig:
    """Template partition/grid/d/mode with a fresh germ and one to three
    levels of fresh scalings and endpoint-matched bases."""
    domain = template.domain
    germ = random_germ_spec(rng, domain)
    levels = tuple(
        Level(
            scalings=_random_scalings(rng, template),
            base=matched_base_spec(rng, germ, domain),
        )
        for _ in range(int(rng.integers(1, 4)))
    )
    return replace(template, germ=germ, levels=LevelSequence(levels))


def _stability_pair(rng, template: ProblemConfig) -> tuple[ProblemConfig, ProblemConfig]:
    domain = template.domain
    cfgA = _matched_system(rng, template)
    # germ shift delta, base shifts matching delta at the endpoints so the
    # perturbed bases still satisfy the base conditions for the new germ
    delta = random_polynomial_spec(rng, domain, POLY_DEGREE, scale=0.1)
    d0, d1 = delta.endpoint_values()
    new_bases = []
    for lv in cfgA.levels.levels:
        bump = matched_endpoint_polynomial(random_coefficients(rng, domain, 0.1), domain, d0, d1)
        new_bases.append(FunctionSpec.weighted_sum((1.0, 1.0), (lv.base, bump)))
    germ = FunctionSpec.weighted_sum((1.0, 1.0), (cfgA.germ, delta))
    return cfgA, cfgA.with_germ(germ).with_bases(tuple(new_bases))


def stability_suite(template: ProblemConfig, trials: int, seed) -> list[BoundReport]:
    """Random germ/base perturbation pairs against the stability inequality."""
    rng = rng_from(seed)
    out = []
    for k in range(trials):
        cfgA, cfgB = _stability_pair(rng, template)
        rep = bounds.stability_bound(cfgA, cfgB)
        out.append(replace(rep, name=f"stability[{k}]"))
    return out


def random_perturbation(rng, cfg: ProblemConfig, t_scale: float = 0.1,
                        s_scale: float = 0.1) -> PerturbationSpec:
    """A perturbation that keeps both preconditions comfortably satisfied."""
    domain = cfg.domain
    n = cfg.n_intervals
    levels = []
    for _ in range(cfg.levels.prefix_len):
        theta = random_alpha_vector(rng, n, domain, 1.0)
        phi = tuple(zero_endpoint_spec(rng, domain, scale=0.5) for _ in range(n))
        t = tuple(float(rng.uniform(-t_scale, t_scale)) for _ in range(n))
        s = tuple(float(rng.uniform(-s_scale, s_scale)) for _ in range(n))
        levels.append(PerturbationLevel(t=t, s=s, theta=theta, phi=phi))
    return PerturbationSpec(tuple(levels))


def sensitivity_suite(template: ProblemConfig, trials: int, seed,
                      t_scale: float = 0.1, s_scale: float = 0.1) -> list[BoundReport]:
    """Random (t, s, theta, phi) perturbations.  Raises PerturbationTooLarge
    when a drawn perturbation breaks 1 - ||alpha|| - ||t|| ||theta|| > 0."""
    rng = rng_from(seed)
    out = []
    for k in range(trials):
        cfg = _matched_system(rng, template)
        pert = random_perturbation(rng, cfg, t_scale=t_scale, s_scale=s_scale)
        rep = bounds.sensitivity_bound(cfg, pert)
        out.append(replace(rep, name=f"sensitivity[{k}]"))
    return out


def run_suite(name: str, template: ProblemConfig, trials: int, seed,
              t_scale: float = 0.1, s_scale: float = 0.1) -> list[BoundReport]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    bounds.require_trials(trials)
    # t and s are drawn uniformly from [-scale, scale), so a scale in [0, 1)
    # is exactly what keeps every |t| and |s| below 1
    for flag, scale in (("--t-scale", t_scale), ("--s-scale", s_scale)):
        if not 0.0 <= scale < 1.0:
            raise ConfigError(f"{flag} must lie in [0, 1), got {scale}")
    rng = rng_from(seed)
    if name == "error":
        return error_suite(template, trials, rng)
    if name == "operator":
        return operator_suite(template, trials, rng)
    if name == "stability":
        return stability_suite(template, trials, rng)
    if name == "sensitivity":
        return sensitivity_suite(template, trials, rng, t_scale, s_scale)
    out = []
    for sub in ("error", "operator", "stability", "sensitivity"):
        out.extend(run_suite(sub, template, trials, rng, t_scale, s_scale))
    return out

