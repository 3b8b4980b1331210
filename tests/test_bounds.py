import numpy as np
import pytest

from alphafractal import (
    BaseOperatorSpec,
    FunctionSpec,
    Level,
    LevelSequence,
    PerturbationLevel,
    PerturbationSpec,
    ProblemConfig,
    build_partition,
    corollary_bound,
    error_bound,
    operator_lipschitz_check,
    relative_bound_check,
    sensitivity_bound,
    stability_bound,
)
from alphafractal import campaigns
from alphafractal.bounds import config_with_operator_bases, sensitivity_predicted
from alphafractal.errors import (
    ConfigError,
    PartitionMismatch,
    PerturbationTooLarge,
    ScalingMismatch,
)

DOM = (0.0, 1.0)

# sup|f^alpha - f| for the worked example, frozen from a depth-40 series sweep
# over the 1025 grid (the bound predicts 1/6)
RUNNING_ERROR_SUP = 0.1481448744960938
# sup|f^alpha - x^2| for the same system
RUNNING_COROLLARY_SUP = 0.3703816862514651


def _with_alpha(cfg, value):
    a = FunctionSpec.constant(value, DOM)
    return cfg.with_scalings([[a] * cfg.n_intervals])


class TestErrorBound:
    def test_zero_scaling(self, running_cfg):
        op = BaseOperatorSpec(("endpoint-line",))
        rep = error_bound(_with_alpha(running_cfg, 0.0), op)
        assert rep.predicted == 0.0
        assert rep.observed == 0.0
        assert rep.passed

    def test_linear_germ_is_its_own_chord(self, running_cfg):
        # f(x) = x equals the endpoint line, so the gap and the bound vanish
        op = BaseOperatorSpec(("endpoint-line",))
        rep = error_bound(running_cfg, op)
        assert rep.predicted == 0.0
        assert rep.observed <= 1e-12

    def test_running_example(self, running_cfg):
        # treat b = x^2 as the operator image via a blend spec is not possible;
        # check the formula pieces directly on the configured system instead
        from alphafractal.engine import backward_trajectory

        a = running_cfg.alpha_sup
        predicted = a / (1.0 - a) * running_cfg.base_gap_sup
        assert predicted == pytest.approx(1.0 / 6.0, rel=1e-12)
        traj = backward_trajectory(None, 40, running_cfg)
        observed = float(np.max(np.abs(traj.values.ys - running_cfg.germ_values)))
        assert observed == pytest.approx(RUNNING_ERROR_SUP, abs=1e-7)
        assert observed <= predicted + 1e-6

    def test_randomized_never_violates(self, running_cfg):
        from alphafractal.campaigns import error_suite

        reports = error_suite(running_cfg, trials=10, seed=101)
        assert len(reports) == 20
        assert all(r.passed for r in reports)


class TestCorollaryBound:
    def test_identity_operator_blend(self, running_cfg):
        # lambda = 1 blend keeps L f = f: corollary reduces to the error bound
        op = BaseOperatorSpec(("blend",), lambdas=(1.0,))
        rep = corollary_bound(running_cfg, op, j=1)
        assert rep.predicted == pytest.approx(0.0, abs=1e-15)
        assert rep.observed <= 1e-10

    def test_running_example(self, running_cfg):
        from alphafractal.engine import backward_trajectory

        a = running_cfg.alpha_sup
        predicted = running_cfg.base_gap_sup / (1.0 - a)
        assert predicted == pytest.approx(5.0 / 12.0, rel=1e-12)
        traj = backward_trajectory(None, 40, running_cfg)
        observed = float(np.max(np.abs(traj.values.ys - running_cfg.grid ** 2)))
        assert observed == pytest.approx(RUNNING_COROLLARY_SUP, abs=1e-7)
        assert observed <= predicted + 1e-6

    def test_zero_scaling(self, running_cfg):
        op = BaseOperatorSpec(("knot-piecewise-linear",))
        cfg = _with_alpha(running_cfg, 0.0)
        rep = corollary_bound(cfg, op, j=1)
        # f^alpha = f, so observed = ||f - L_1 f|| and predicted = sup gap
        assert rep.observed == pytest.approx(rep.inputs["base_gap_sup"], abs=1e-12)
        assert rep.passed


class TestOperatorChecks:
    def test_lipschitz_constant_formula(self, running_cfg):
        op = BaseOperatorSpec(("endpoint-line",))
        rep = operator_lipschitz_check(running_cfg, op, trials=30, seed=5)
        assert rep.predicted == pytest.approx((1 + 0.4) / 0.6, rel=1e-12)
        assert rep.passed
        assert rep.inputs["operator_norm_empirical"] <= 1.0 + 1e-9

    def test_zero_scaling_ratio_one(self, running_cfg):
        op = BaseOperatorSpec(("endpoint-line",))
        rep = operator_lipschitz_check(_with_alpha(running_cfg, 0.0), op,
                                       trials=10, seed=6)
        assert rep.predicted == pytest.approx(1.0)
        assert rep.observed <= 1.0 + 1e-9

    def test_relative_bound(self, running_cfg):
        op = BaseOperatorSpec(("blend",), lambdas=(0.5,))
        rep = relative_bound_check(running_cfg, op, trials=30, seed=7)
        assert rep.passed

    def test_relative_bound_zero_germ(self, running_cfg):
        op = BaseOperatorSpec(("endpoint-line",))
        cfg = config_with_operator_bases(
            running_cfg.with_germ(FunctionSpec.constant(0.0, DOM)), op)
        from alphafractal.engine import backward_trajectory

        assert cfg.validation().degenerate_levels == (1,)  # L f = 0 = f is degenerate
        vals = backward_trajectory(None, 5, cfg).values.ys
        assert np.array_equal(vals, np.zeros_like(vals))

    @pytest.mark.parametrize("check", [operator_lipschitz_check, relative_bound_check])
    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_is_invalid_input(self, running_cfg, check, trials):
        # rejected up front, before a draw: not a TypeError or "all pairs degenerate"
        with pytest.raises(ConfigError, match="trials must be at least 1"):
            check(running_cfg, BaseOperatorSpec(("endpoint-line",)), trials=trials, seed=1)

    def test_operator_levels_indexed_from_one(self, running_cfg):
        op = BaseOperatorSpec(("endpoint-line", "blend"), lambdas=(0.0, 0.5))
        assert op.kind(5) == "blend"
        with pytest.raises(ConfigError):
            op.kind(0)
        with pytest.raises(ConfigError):
            op.apply(0, running_cfg.germ, running_cfg.partition)


class TestStability:
    def test_identical_configs(self, running_cfg):
        rep = stability_bound(running_cfg, running_cfg)
        assert rep.predicted == 0.0
        assert rep.observed == 0.0

    def test_germ_shift(self, running_cfg):
        delta = FunctionSpec.polynomial([0.0, 0.01, -0.01], DOM)  # 0.01 x(1-x)
        shifted = FunctionSpec.weighted_sum((1.0, 1.0), (running_cfg.germ, delta))
        rep = stability_bound(running_cfg, running_cfg.with_germ(shifted))
        assert rep.predicted == pytest.approx(0.01 * 0.25 / 0.6, rel=1e-9)
        assert rep.passed

    def test_base_shift(self, running_cfg):
        bump = FunctionSpec.polynomial([0.0, 0.02, -0.02], DOM)  # 0.02 x(1-x)
        shifted = FunctionSpec.weighted_sum((1.0, 1.0), (running_cfg.levels.base(1), bump))
        rep = stability_bound(running_cfg, running_cfg.with_bases((shifted,)))
        assert rep.predicted == pytest.approx(0.4 * 0.02 * 0.25 / 0.6, rel=1e-9)
        assert rep.passed

    def test_symmetry(self, running_cfg):
        bump = FunctionSpec.polynomial([0.0, 0.05, -0.05], DOM)
        shifted = FunctionSpec.weighted_sum((1.0, 1.0), (running_cfg.levels.base(1), bump))
        other = running_cfg.with_bases((shifted,))
        ab = stability_bound(running_cfg, other)
        ba = stability_bound(other, running_cfg)
        assert ab.predicted == ba.predicted
        assert ab.observed == ba.observed

    def test_partition_must_match(self, running_cfg, germ_x, base_x2):
        p = build_partition([0.0, 0.4, 1.0])
        a = FunctionSpec.constant(0.4, DOM)
        other = ProblemConfig(p, germ_x, LevelSequence((Level((a, a), base_x2),)))
        with pytest.raises(PartitionMismatch):
            stability_bound(running_cfg, other)

    def test_scalings_must_match(self, running_cfg):
        other = _with_alpha(running_cfg, 0.3)
        with pytest.raises(ScalingMismatch):
            stability_bound(running_cfg, other)


def _make_pert(n, t=0.0, s=0.0, theta=None, phi=None):
    theta = theta if theta is not None else FunctionSpec.constant(1.0, DOM)
    phi = phi if phi is not None else FunctionSpec.constant(0.0, DOM)
    return PerturbationSpec((PerturbationLevel(
        t=(t,) * n, s=(s,) * n, theta=(theta,) * n, phi=(phi,) * n),))


class TestSensitivity:
    def test_zero_perturbation_exact_zero(self, running_cfg):
        rep = sensitivity_bound(running_cfg, PerturbationSpec.zeros(2, DOM))
        assert rep.predicted == 0.0
        assert rep.observed == 0.0

    def test_s_only(self, running_cfg):
        phi = FunctionSpec.polynomial([0.0, 1.0, -1.0], DOM)  # x(1-x), sup 0.25
        rep = sensitivity_bound(running_cfg, _make_pert(2, s=0.1, phi=phi))
        assert rep.predicted == pytest.approx((0.25 / 0.6) * 0.1, rel=1e-9)
        assert rep.passed

    def test_t_only(self, running_cfg):
        rep = sensitivity_bound(running_cfg, _make_pert(2, t=0.05))
        assert rep.predicted == pytest.approx(1.0 * 0.25 / (0.6 * 0.55) * 0.05,
                                              rel=1e-9)
        assert rep.passed

    def test_precondition(self, running_cfg):
        # 1 - 0.4 - 0.65 * 1 < 0
        with pytest.raises(PerturbationTooLarge):
            sensitivity_bound(running_cfg, _make_pert(2, t=0.65))

    def test_precondition_checked_before_any_trajectory(self, running_cfg, trajectories):
        # ||alpha + t theta|| = 0.25 passes the contractivity check, but
        # 1 - 0.4 - 0.65 * 1 < 0 fails the formula's precondition; neither
        # the perturbed run nor the cached unperturbed one may start
        with pytest.raises(PerturbationTooLarge):
            sensitivity_bound(running_cfg, _make_pert(2, t=-0.65))
        assert trajectories == []

    def test_formula_monotone_in_each_norm(self):
        base = dict(alpha_sup=0.4, t_sup=0.1, s_sup=0.1,
                    theta_sup=0.5, phi_sup=0.3, base_gap=0.25)
        v0 = sensitivity_predicted(**base)
        for key in ("t_sup", "s_sup", "theta_sup", "phi_sup"):
            for bump in (0.05, 0.1, 0.2):
                kw = dict(base)
                kw[key] = base[key] + bump
                assert sensitivity_predicted(**kw) >= v0

    def test_randomized_never_violates(self, running_cfg):
        from alphafractal.campaigns import sensitivity_suite

        reports = sensitivity_suite(running_cfg, trials=10, seed=77)
        assert all(r.passed for r in reports)


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestComputedOnce:
    """The verifiers read L_r f from the derived config, and the sensitivity
    bound leaves the contractivity check to the perturbed trajectory."""

    TWO_LEVELS = BaseOperatorSpec(("endpoint-line", "blend"), lambdas=(0.0, 0.5))

    def test_sensitivity_checks_contractivity_once(self, running_cfg, monkeypatch):
        calls = _count_calls(monkeypatch, PerturbationSpec, "check_contractive")
        assert sensitivity_bound(running_cfg, _make_pert(2, t=0.05)).passed
        assert len(calls) == 1

    def test_relative_bound_applies_each_level_once_per_trial(self, running_cfg, monkeypatch):
        calls = _count_calls(monkeypatch, BaseOperatorSpec, "apply")
        assert relative_bound_check(running_cfg, self.TWO_LEVELS, trials=5, seed=7).passed
        assert len(calls) == 10

    def test_corollary_applies_each_level_once(self, running_cfg, monkeypatch):
        cfg = running_cfg.with_germ(FunctionSpec.polynomial([0.0, 0.5, 0.5], DOM))
        calls = _count_calls(monkeypatch, BaseOperatorSpec, "apply")
        assert corollary_bound(cfg, self.TWO_LEVELS, j=1).passed
        assert len(calls) == 2

    def test_error_and_corollary_share_one_trajectory(self, running_cfg, trajectories):
        reports = campaigns.error_suite(running_cfg, trials=3, seed=7)
        assert [r.name for r in reports] == [f"{b}[{k}]" for k in range(3)
                                             for b in ("error", "corollary")]
        assert all(r.passed for r in reports)
        assert len(trajectories) == 3
        cfg = running_cfg.with_germ(FunctionSpec.polynomial([0.0, 0.5, 0.5], DOM))
        op = BaseOperatorSpec(("endpoint-line", "blend"), lambdas=(0.0, 0.5))
        assert config_with_operator_bases(cfg, op) is config_with_operator_bases(
            cfg, BaseOperatorSpec(("endpoint-line", "blend"), lambdas=(0.0, 0.5)))

    def test_germ_endpoints_evaluated_once(self, running_cfg, monkeypatch):
        # every level of L_r f and every matched random base reads the
        # germ's cached endpoint pair; a bare callable is rejected unread
        points = []
        call = FunctionSpec.__call__

        def counted(spec, x):
            if spec == running_cfg.germ:
                points.append(np.size(x))
            return call(spec, x)

        monkeypatch.setattr(FunctionSpec, "__call__", counted)
        germ, part = running_cfg.germ, running_cfg.partition
        op = BaseOperatorSpec(("endpoint-line", "blend", "endpoint-line"),
                              lambdas=(0.0, 0.5, 0.0))
        bases = [op.apply(r, germ, part) for r in (1, 2, 3, 4)]
        rng = np.random.default_rng(3)
        for _ in range(3):
            campaigns.matched_base_spec(rng, germ, part.domain)
        assert points == [1, 1]
        assert germ.endpoint_values() == (float(call(germ, 0.0)), float(call(germ, 1.0)))
        assert bases[0] == FunctionSpec.linear_endpoint(*germ.endpoint_values(), DOM)

        bare = []
        with pytest.raises(ConfigError):
            op.apply(1, lambda x: bare.append(x) or np.asarray(x) * 2.0, part)
        assert bare == []

    def test_germ_knot_values_evaluated_once(self, running_cfg, monkeypatch):
        # every knot-piecewise-linear level, and the config's interpolation
        # data, read the germ's cached values at the knots; another
        # partition is evaluated, and a bare callable is rejected unread
        points = []
        call = FunctionSpec.__call__

        def counted(spec, x):
            if spec == running_cfg.germ:
                points.append(np.size(x))
            return call(spec, x)

        monkeypatch.setattr(FunctionSpec, "__call__", counted)
        germ, part = running_cfg.germ, running_cfg.partition
        op = BaseOperatorSpec(("knot-piecewise-linear",))
        bases = [op.apply(r, germ, part) for r in (1, 2, 3)]
        assert running_cfg.knot_ordinates == bases[0].params
        assert points == [3]
        assert bases[0] == FunctionSpec.sampled(call(germ, part.array()), DOM,
                                                abscissas=part.knots)
        assert bases[1] == bases[2] == bases[0]
        other = build_partition([0.0, 0.25, 1.0])
        op.apply(1, germ, other)
        op.apply(2, germ, other)
        assert points == [3, 3]

        bare = []
        for r in (1, 2):
            with pytest.raises(ConfigError):
                op.apply(r, lambda x: bare.append(x) or np.asarray(x) * 2.0, part)
        assert bare == []
