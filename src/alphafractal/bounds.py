"""Closed-form bound calculators and their empirical verifiers.

Every function returns a BoundReport pairing the formula value (grid-estimated
norms) with the measured quantity.  The inequalities are theorems, so a failed
report over valid inputs points at an implementation or tolerance bug, not at
the math.  Verifier tolerances add the documented truncation slack on top of
the 1e-6 absolute budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEGENERATE_TOL,
    FunctionSpec,
    ProblemConfig,
    evaluate,
    repeat_last,
    require_specs,
    sup_abs,
)
from .engine import (
    backward_trajectory,
    geometric_tail,
    pair_depth,
    resolve_depth,
    trajectory_interpolant,
    truncation_error,
)
from .errors import (
    ConfigError,
    DegeneratePair,
    PartitionMismatch,
    PerturbationTooLarge,
    ScalingMismatch,
)
from .ifs import PerturbationSpec
from .report import BoundReport
from .sampling import POLY_DEGREE, random_polynomial_spec, rng_from

VERIFY_TOL = 1e-6  # absolute budget on top of truncation slack

OPERATOR_KINDS = ("endpoint-line", "knot-piecewise-linear", "blend")


@dataclass(frozen=True)
class BaseOperatorSpec:
    """Per-level choice of the base-generating operator L_r (repeat-last tail).

    Built-in kinds, all linear in f and endpoint-preserving:
    ``endpoint-line`` (chord through the endpoint values),
    ``knot-piecewise-linear`` (broken line through the knot values), and
    ``blend`` (lambda_r * f + (1 - lambda_r) * chord).  Each has operator
    Lipschitz constant <= 1 in the sup-norm.
    """

    kinds: tuple[str, ...]
    lambdas: tuple[float, ...] = ()

    def __post_init__(self):
        kinds = tuple(self.kinds)
        if not kinds:
            raise ConfigError("operator spec needs at least one level")
        for k in kinds:
            if k not in OPERATOR_KINDS:
                raise ConfigError(f"unknown operator kind {k!r}")
        lams = tuple(float(v) for v in self.lambdas)
        if any(k == "blend" for k in kinds) and len(lams) != len(kinds):
            raise ConfigError("blend operators need one lambda per level")
        if any(not 0.0 <= v <= 1.0 for v in lams):
            raise ConfigError("blend lambda must lie in [0, 1]")
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "lambdas", lams)

    @property
    def prefix_len(self) -> int:
        return len(self.kinds)

    def kind(self, r: int) -> str:
        return repeat_last(self.kinds, r)

    def apply(self, r: int, germ: FunctionSpec, partition):
        """L_r f as a FunctionSpec on the partition's domain, the germ's."""
        kind = self.kind(r)
        require_specs([germ], "a base operator's germ", partition.domain)
        if kind == "knot-piecewise-linear":
            return FunctionSpec.sampled(
                germ.knot_values(partition), partition.domain,
                abscissas=partition.knots,
            )
        chord = FunctionSpec.linear_endpoint(*germ.endpoint_values(), partition.domain)
        if kind == "endpoint-line":
            return chord
        lam = repeat_last(self.lambdas, r)
        return FunctionSpec.weighted_sum((lam, 1.0 - lam), (germ, chord))

    def empirical_norm(self, cfg: ProblemConfig, rng, probes: int = 20) -> float:
        """Probe estimate of sup ||L_r p|| / ||p|| over random polynomials."""
        rng = rng_from(rng)
        grid = cfg.grid
        depth = max(self.prefix_len, 1)

        def ratio(p):
            p_sup = sup_abs([evaluate(p, grid)])
            if p_sup < DEGENERATE_TOL:
                return 0.0
            return sup_abs(evaluate(self.apply(r, p, cfg.partition), grid)
                           for r in range(1, depth + 1)) / p_sup

        return sup_abs([ratio(random_polynomial_spec(rng, cfg.domain, POLY_DEGREE))
                        for _ in range(probes)])


def config_with_operator_bases(cfg: ProblemConfig, op: BaseOperatorSpec) -> ProblemConfig:
    """Replace every base with b_r = L_r f (built once per config and operator)."""
    n = max(cfg.levels.prefix_len, op.prefix_len)
    return cfg._cached(f"_operator_bases {op!r}", lambda: cfg.with_bases(
        tuple(op.apply(r, cfg.germ, cfg.partition) for r in range(1, n + 1))))


# ---------------------------------------------------------------------------
# Error and operator bounds
# ---------------------------------------------------------------------------


def _against_trajectory(cfg2: ProblemConfig, name: str, predicted: float,
                        reference: np.ndarray, inputs: dict) -> BoundReport:
    """``name``'s report: the sup distance of cfg2's policy-depth trajectory
    from the grid values ``reference``, with the trajectory's tail as slack."""
    traj = trajectory_interpolant(cfg2)
    return BoundReport(
        name=name,
        predicted=predicted,
        observed=sup_abs([traj.values.ys - reference]),
        tolerance=VERIFY_TOL + truncation_error(cfg2, traj.depth),
        inputs={**inputs, "depth": traj.depth},
    )


def error_bound(cfg: ProblemConfig, op: BaseOperatorSpec) -> BoundReport:
    """||f^alpha - f||_inf <= ||alpha||/(1 - ||alpha||) * sup_r ||f - L_r f||_inf
    with bases b_r = L_r f.  Shares its operator config and policy-depth
    trajectory with ``corollary_bound`` through their caches."""
    cfg2 = config_with_operator_bases(cfg, op)
    a, gap = cfg2.alpha_sup, cfg2.base_gap_sup
    return _against_trajectory(cfg2, "error", a / (1.0 - a) * gap, cfg2.germ_values,
                               {"alpha_sup": a, "base_gap_sup": gap})


def corollary_bound(cfg: ProblemConfig, op: BaseOperatorSpec, j: int = 1) -> BoundReport:
    """||f^alpha - L_j f||_inf <= 1/(1 - ||alpha||) * sup_r ||f - L_r f||_inf."""
    cfg2 = config_with_operator_bases(cfg, op)
    a, gap = cfg2.alpha_sup, cfg2.base_gap_sup
    return _against_trajectory(cfg2, f"corollary[j={j}]", gap / (1.0 - a), cfg2.base_values(j),
                               {"alpha_sup": a, "base_gap_sup": gap, "j": j})


def require_trials(trials: int) -> None:
    """A check over random draws makes at least one."""
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")


def operator_lipschitz_check(cfg: ProblemConfig, op: BaseOperatorSpec,
                             trials: int = 100, seed=0) -> BoundReport:
    """Over random germ pairs, max ||f^alpha - g^alpha|| / ||f - g|| must stay
    under (1 + |L| ||alpha||) / (1 - ||alpha||)."""
    require_trials(trials)
    rng = rng_from(seed)
    a = cfg.alpha_sup
    l_norm = 1.0  # sup-norm operator bound of every built-in kind
    predicted = (1.0 + l_norm * a) / (1.0 - a)
    worst = 0.0
    used = 0
    skipped = 0
    trunc = 0.0
    for _ in range(trials):
        f1 = random_polynomial_spec(rng, cfg.domain, POLY_DEGREE)
        f2 = random_polynomial_spec(rng, cfg.domain, POLY_DEGREE)
        cfg1 = config_with_operator_bases(cfg.with_germ(f1), op)
        cfg2 = config_with_operator_bases(cfg.with_germ(f2), op)
        denom = sup_abs([cfg1.germ_values - cfg2.germ_values])
        if denom < DEGENERATE_TOL:
            skipped += 1
            continue
        depth, tail1, tail2 = pair_depth(cfg1, cfg2)
        diff = sup_abs([trajectory_interpolant(cfg1, depth).values.ys
                        - trajectory_interpolant(cfg2, depth).values.ys])
        trunc = max(trunc, (tail1 + tail2) / denom)
        worst = max(worst, diff / denom)
        used += 1
    if used == 0:
        raise DegeneratePair("all germ pairs were degenerate")
    return BoundReport(
        name="operator-lipschitz",
        predicted=predicted,
        observed=worst,
        tolerance=VERIFY_TOL + trunc,
        inputs={
            "alpha_sup": a,
            "operator_norm": l_norm,
            "operator_norm_empirical": op.empirical_norm(cfg, rng),
            "trials": used,
            "skipped": skipped,
        },
    )


def relative_bound_check(cfg: ProblemConfig, op: BaseOperatorSpec,
                         trials: int = 100, seed=0) -> BoundReport:
    """Per random germ, ||f^alpha|| <= ||f||/(1-||alpha||) + ||alpha||/(1-||alpha||) ||Lf||,
    where ||Lf|| = sup_r ||L_r f|| (finite max over the prefix).  The report
    carries the worst-margin trial."""
    require_trials(trials)
    rng = rng_from(seed)
    a = cfg.alpha_sup
    worst_margin = np.inf
    worst = None
    trunc = 0.0
    for k in range(trials):
        f = random_polynomial_spec(rng, cfg.domain, POLY_DEGREE)
        cfg2 = config_with_operator_bases(cfg.with_germ(f), op)
        rhs = cfg2.germ_sup / (1.0 - a) + a / (1.0 - a) * cfg2.base_sup
        traj = trajectory_interpolant(cfg2)
        lhs = sup_abs([traj.values.ys])
        trunc = max(trunc, truncation_error(cfg2, traj.depth))
        if rhs - lhs < worst_margin:
            worst_margin = rhs - lhs
            worst = (lhs, rhs, k)
    lhs, rhs, k = worst
    return BoundReport(
        name="relative-bound",
        predicted=rhs,
        observed=lhs,
        tolerance=VERIFY_TOL + trunc,
        inputs={"alpha_sup": a, "trials": trials, "worst_trial": k},
    )


# ---------------------------------------------------------------------------
# Stability (germ/base perturbation)
# ---------------------------------------------------------------------------


def _require_shared_system(cfgA: ProblemConfig, cfgB: ProblemConfig) -> None:
    if cfgA.partition.knots != cfgB.partition.knots:
        raise PartitionMismatch("stability comparison needs one shared partition")
    if not np.array_equal(cfgA.grid, cfgB.grid):
        raise PartitionMismatch("stability comparison needs one shared grid")
    depth = max(cfgA.levels.prefix_len, cfgB.levels.prefix_len)
    for r in range(1, depth + 1):
        sa = cfgA.levels.level(r).scalings
        sb = cfgB.levels.level(r).scalings
        if sa != sb:
            raise ScalingMismatch(f"scaling vectors differ at level {r}")


def stability_bound(cfgA: ProblemConfig, cfgB: ProblemConfig) -> BoundReport:
    """||f^alpha - fhat^alpha||_inf <= (||f - fhat|| + ||alpha|| sup_r ||b_r - bhat_r||)
    / (1 - ||alpha||) for configurations sharing partition and scalings."""
    _require_shared_system(cfgA, cfgB)
    a = max(cfgA.alpha_sup, cfgB.alpha_sup)
    germ_gap = sup_abs([cfgA.germ_values - cfgB.germ_values])
    base_gap = cfgA.base_distance(cfgB)
    predicted = (germ_gap + a * base_gap) / (1.0 - a)
    depth, tailA, tailB = pair_depth(cfgA, cfgB)
    observed = sup_abs([trajectory_interpolant(cfgA, depth).values.ys
                        - trajectory_interpolant(cfgB, depth).values.ys])
    return BoundReport(
        name="stability",
        predicted=predicted,
        observed=observed,
        tolerance=VERIFY_TOL + tailA + tailB,
        inputs={"alpha_sup": a, "germ_gap": germ_gap, "base_gap": base_gap,
                "depth": depth},
    )


# ---------------------------------------------------------------------------
# Sensitivity (perturbed IFS maps)
# ---------------------------------------------------------------------------


def sensitivity_predicted(alpha_sup: float, t_sup: float, s_sup: float,
                          theta_sup: float, phi_sup: float, base_gap: float) -> float:
    """The closed-form sensitivity bound; requires ||alpha|| + ||t|| ||theta|| < 1."""
    c = t_sup * theta_sup
    rate = alpha_sup + c  # rate < 1 in floats also makes denom > 0
    if not rate < 1.0:
        raise PerturbationTooLarge(f"||alpha|| + ||t||*||theta|| = {rate:.6g} is not below 1")
    denom = 1.0 - alpha_sup - c
    return (phi_sup / denom * s_sup
            + theta_sup * base_gap / ((1.0 - alpha_sup) * denom) * t_sup)


def sensitivity_bound(cfg: ProblemConfig, pert: PerturbationSpec) -> BoundReport:
    """Distance between the perturbed-map interpolant and the unperturbed one,
    against the closed-form bound in ||s|| and ||t||.  The formula's
    precondition, checked before any trajectory runs, keeps the tail rate
    ||alpha|| + ||t|| ||theta|| below 1.  Both trajectories run to
    ``resolve_depth`` at the perturbed series' rate and term magnitude
    sup_r ||f - b_r|| + ||phi||: the policy's fixed depth, or under the eps
    policy a depth no smaller than the unperturbed one's, since the depth a
    tail tolerance needs grows with both.  Each one's tail at that depth is
    slack on their sup difference."""
    # first, as the perturbation's grid pass settles cfg.alpha_sup on its way
    theta_sup, phi_sup = (sup_abs([pert.sups(cfg, name)]) for name in ("theta", "phi"))
    a = cfg.alpha_sup
    t_sup = pert.t_sup()
    s_sup = pert.s_sup()
    gap = cfg.base_gap_sup
    predicted = sensitivity_predicted(a, t_sup, s_sup, theta_sup, phi_sup, gap)
    rate = a + t_sup * theta_sup
    depth = resolve_depth(cfg, rate, gap + phi_sup)
    pert_vals = backward_trajectory(None, depth, cfg, pert).values.ys
    observed = sup_abs([pert_vals - trajectory_interpolant(cfg, depth).values.ys])
    trunc = truncation_error(cfg, depth) + geometric_tail(rate, gap + phi_sup, depth)
    return BoundReport(
        name="sensitivity",
        predicted=predicted,
        observed=observed,
        tolerance=VERIFY_TOL + trunc,
        inputs={
            "alpha_sup": a, "t_sup": t_sup, "s_sup": s_sup,
            "theta_sup": theta_sup, "phi_sup": phi_sup,
            "base_gap_sup": gap, "depth": depth,
        },
    )
