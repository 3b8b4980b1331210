import numpy as np
import pytest

from alphafractal import (
    FunctionSpec,
    base_dependence,
    build_partition,
    depend,
    partition_continuity,
    partition_dependence,
    scaling_dependence,
    trajectory_interpolant,
)
from alphafractal.depend import (
    LIP_SLACK,
    admissible_theta_limit,
    theta_constants,
)
from alphafractal.errors import CapViolated, ConfigError, EndpointMismatch, KnotCountMismatch
from alphafractal.norms import lip_seminorm

from helpers import base_pair_suite, is_strictly_decreasing, scaling_pair_suite

DOM = (0.0, 1.0)


class TestBaseDependence:
    def test_identical_bases_ratio_zero(self, running_cfg, base_x2):
        rep = base_dependence(running_cfg, (base_x2,), (base_x2,))
        assert rep.observed == 0.0
        assert rep.passed

    def test_predicted_constant(self, running_cfg, base_x2):
        b3 = FunctionSpec.polynomial([0.0, 0.0, 0.0, 1.0], DOM)
        rep = base_dependence(running_cfg, (base_x2,), (b3,))
        assert rep.predicted == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_square_vs_cube(self, running_cfg, base_x2):
        b3 = FunctionSpec.polynomial([0.0, 0.0, 0.0, 1.0], DOM)
        rep = base_dependence(running_cfg, (base_x2,), (b3,))
        # ||x^2 - x^3||_inf = 4/27 at x = 2/3
        assert rep.inputs["base_distance"] == pytest.approx(4.0 / 27.0, abs=1e-6)
        assert rep.observed <= rep.predicted + rep.tolerance
        assert rep.passed

    @pytest.mark.parametrize("other", [(0.5, 0.0, 1.0), (0.0, 0.5, 1.0)])
    def test_base_off_the_germ_rejected(self, running_cfg, trajectories, other):
        # b(0) = 0.5 where f(0) = 0: equal sequences must not take the
        # identical-sequence shortcut, and unequal ones fail before a trajectory
        off = FunctionSpec.polynomial([0.5, 0.0, 1.0], DOM)
        with pytest.raises(EndpointMismatch):
            base_dependence(running_cfg, (off,), (FunctionSpec.polynomial(list(other), DOM),))
        assert trajectories == []

    def test_randomized_pairs(self, running_cfg):
        reports = base_pair_suite(running_cfg, pairs=15, seed=41)
        assert all(r.passed for r in reports)


class TestScalingDependence:
    def test_equal_sequences(self, running_cfg):
        a = FunctionSpec.constant(0.4, DOM)
        rep = scaling_dependence(running_cfg, ((a, a),), ((a, a),), 0.45)
        assert rep.predicted == 0.0
        assert rep.observed <= 1e-12

    def test_worked_pair(self, running_cfg):
        a4 = FunctionSpec.constant(0.4, DOM)
        a35 = FunctionSpec.constant(0.35, DOM)
        rep = scaling_dependence(running_cfg, ((a4, a4),), ((a35, a35),), 0.4)
        assert rep.predicted == pytest.approx(0.05 * 0.25 / 0.36, rel=1e-9)
        assert rep.passed

    def test_cap_violation(self, running_cfg):
        a = FunctionSpec.constant(0.45, DOM)
        b = FunctionSpec.constant(0.2, DOM)
        with pytest.raises(CapViolated):
            scaling_dependence(running_cfg, ((a, a),), ((b, b),), 0.4)

    def test_randomized_pairs(self, running_cfg):
        reports = scaling_pair_suite(running_cfg, pairs=15, seed=43)
        assert all(r.passed for r in reports)


class TestPartitionDependence:
    def test_identical_partitions(self, running_cfg):
        rep = partition_dependence(running_cfg, running_cfg.partition)
        assert rep.observed == 0.0
        assert rep.inputs["interpolant_sup_diff"] == 0.0

    def test_displacement_bound_holds(self, running_cfg):
        rep = partition_dependence(running_cfg, build_partition([0.0, 0.48, 1.0]))
        assert rep.inputs["knot_l2"] == pytest.approx(0.02)
        assert rep.passed

    def test_knot_count_mismatch(self, running_cfg):
        with pytest.raises(KnotCountMismatch):
            partition_dependence(running_cfg, build_partition([0.0, 0.3, 0.6, 1.0]))

    def test_continuity_knot_count_mismatch(self, running_cfg):
        with pytest.raises(KnotCountMismatch):
            partition_continuity(running_cfg, build_partition([0.0, 0.3, 0.6, 1.0]))

    def test_endpoints_must_match(self, running_cfg):
        with pytest.raises(EndpointMismatch):
            partition_dependence(running_cfg, build_partition([0.0, 0.5, 1.1]))

    def test_continuity_witness(self, running_cfg):
        reports = partition_continuity(running_cfg,
                                       build_partition([0.0, 0.48, 1.0]),
                                       halvings=3)
        assert len(reports) == 3
        diffs = [r.inputs["interpolant_sup_diff"] for r in reports]
        assert is_strictly_decreasing(diffs)
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("target, last", [(0.45, 52), (0.48, 49), (0.5, 1)])
    def test_halvings_end_where_the_knots_stop_moving(self, running_cfg, target, last):
        # halving `last` is the first whose knots equal the previous one's
        p, other = running_cfg.partition, build_partition([0.0, target, 1.0])
        knots = [depend._halving(p.knots, other.knots, k) for k in range(last + 1)]
        repeats = [np.array_equal(a, b) for a, b in zip(knots, knots[1:])]
        assert repeats == [False] * (last - 1) + [True]
        depend.require_halvings(p, other, last)
        for halvings in (last + 1, 10 ** 30):
            with pytest.raises(ConfigError, match=f"reaches halving {last},"):
                partition_continuity(running_cfg, other, halvings=halvings)


@pytest.mark.parametrize("knots, moved", [([0.0, 0.5, 1.0], [0.0, 0.45, 1.0]),
                                          ([0.0, 0.5, 1.0], [0.0, 1e-300, 1.0]),
                                          ([-1.0, 0.0, 1.0], [-1.0, 0.5, 1.0])])
def test_halving_shift_is_the_division(knots, moved):
    # ldexp scales by 2^-k exactly as numpy's division by 2.0 ** k rounds it,
    # into the subnormals too, and needs no 2.0 ** k, which overflows at 1024
    base, target = np.array(knots), np.array(moved)
    for k in range(1024):
        assert np.array_equal(depend._halving(tuple(knots), tuple(moved), k),
                              base + (target - base) / 2.0 ** k), k


def test_theta_constants_computed_once(make_cfg, monkeypatch):
    # P = 2 prefix levels, N = 3 intervals, each level's scalings one spec:
    # each distinct spec (the germ, two bases, two scalings) is scanned once,
    # however many intervals share it and halvings reuse the constants
    calls = []
    lip = depend.lip_seminorm

    def counted(*args, **kwargs):
        calls.append(args)
        return lip(*args, **kwargs)

    monkeypatch.setattr(depend, "lip_seminorm", counted)
    germ = FunctionSpec.polynomial([0.0, 1.0], DOM)
    bases = [FunctionSpec.polynomial([0.0, 0.0, 1.0], DOM),
             FunctionSpec.polynomial([0.0, 0.0, 0.0, 1.0], DOM)]
    alphas = [[FunctionSpec.sinusoid(0.05, 2.0, 0.0, 0.2, DOM)] * 3,
              [FunctionSpec.constant(0.3, DOM)] * 3]
    cfg = make_cfg([0.0, 0.3, 0.6, 1.0], germ, alphas, bases)
    reports = partition_continuity(cfg, build_partition([0.0, 0.32, 0.58, 1.0]),
                                   halvings=4)
    assert len(reports) == 4
    assert len(calls) == 5


def test_partition_continuity_runs_each_trajectory_once(running_cfg, trajectories):
    # four halvings compare one unperturbed config with four perturbed ones:
    # its trajectory is built once per depth, not once per halving
    reports = partition_continuity(running_cfg, build_partition([0.0, 0.48, 1.0]),
                                   halvings=4)
    depths = {r.inputs["depth"] for r in reports}
    assert len(depths) == 1
    assert len(trajectories) == 4 + 1
    # the unperturbed one was among them: reading it again builds nothing
    trajectory_interpolant(running_cfg, depths.pop())
    assert len(trajectories) == 4 + 1


def _raw_theta(cfg):
    """Half the admissible theta limit from uninflated grid constants."""
    grid = cfg.grid
    k_f = lip_seminorm(cfg.germ, 1.0, grid)
    k_b = max(lip_seminorm(lv.base, 1.0, grid) for lv in cfg.levels.levels)
    k_alpha = max(lip_seminorm(spec, 1.0, grid)
                  for lv in cfg.levels.levels for spec in lv.scalings)
    return 0.5 * admissible_theta_limit(max(cfg.partition.ratios), cfg.r_bound, k_f, k_b,
                                        k_alpha, cfg.alpha_sup, cfg.base_sup)


def _theta(cfg):
    """The metric weight theta that partition dependence reads on cfg."""
    return partition_dependence(cfg, build_partition([0.0, 0.48, 1.0])).inputs["theta"]


class TestComputeTheta:
    def test_worked_example_raw(self, running_cfg):
        # (1 - A) / (A k_f + ||alpha|| k_b) with k_f = 1, k_b ~ 2, A = 0.5
        grid = running_cfg.grid
        k_f = lip_seminorm(running_cfg.germ, 1.0, grid)
        k_b = lip_seminorm(running_cfg.levels.levels[0].base, 1.0, grid)
        assert k_f == pytest.approx(1.0)
        assert k_b == pytest.approx(2.0, abs=2e-3)
        assert _raw_theta(running_cfg) == pytest.approx(0.5 / 1.3 / 2.0, abs=2e-3)
        consts = theta_constants(running_cfg)
        assert consts["k_f"] == (1.0 + LIP_SLACK) * k_f
        assert consts["k_b"] == (1.0 + LIP_SLACK) * k_b
        assert consts["k_alpha"] == 0.0
        assert consts["R"] == pytest.approx(7.0 / 6.0, rel=1e-12)

    def test_default_slack_is_conservative(self, running_cfg):
        assert _theta(running_cfg) < _raw_theta(running_cfg)

    def test_inside_admissible_interval(self, running_cfg):
        consts = theta_constants(running_cfg)
        theta = _theta(running_cfg)
        assert 0.0 < theta < consts["theta_limit"]

    def test_degenerate_constants_default(self, make_cfg):
        c = FunctionSpec.constant(1.0, DOM)
        a = FunctionSpec.constant(0.4, DOM)
        cfg = make_cfg([0.0, 0.5, 1.0], c, [[a, a]], [c])
        assert cfg.validation().degenerate_levels == (1,)  # b = f: a degenerate interpolant
        assert _theta(cfg) == 1.0

    def test_limit_monotone_in_constants(self):
        base = dict(A=0.5, R=1.2, k_f=1.0, k_b=2.0, k_alpha=0.3,
                    alpha_sup=0.4, base_sup=1.0)
        v0 = admissible_theta_limit(**base)
        doubled = dict(base, k_f=2.0)
        assert admissible_theta_limit(**doubled) <= v0
        for key in ("k_b", "k_alpha", "R"):
            kw = dict(base)
            kw[key] = base[key] * 2
            assert admissible_theta_limit(**kw) <= v0
