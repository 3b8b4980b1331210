import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphafractal import (
    AffineMapSet,
    DepthPolicy,
    FunctionSpec,
    Level,
    LevelSequence,
    ProblemConfig,
    apply_rb,
    backward_trajectory,
    build_partition,
    eval_interpolant,
    required_depth,
    resolve_depth,
    series_eval,
    stationary_fixed_point,
    trajectory_interpolant,
)
from alphafractal.configio import config_from_dict
from alphafractal.core import SampledFunction
from alphafractal import engine
from alphafractal.errors import (
    DepthZero,
    EndpointMismatch,
    GridMismatch,
    NotValidated,
    OutOfDomain,
)
from alphafractal.ifs import PerturbationLevel, PerturbationSpec, locate_many
from alphafractal.norms import lip_seminorm
from alphafractal.sampling import random_partition

from reference import ref_coefficients, ref_rb_point, ref_required_depth, ref_series
from test_cli import README_CONFIG, c11_config

DOM = (0.0, 1.0)


class TestApplyRB:
    def test_zero_scaling_returns_germ_exactly(self, make_cfg, germ_x, base_x2):
        zero = FunctionSpec.constant(0.0, DOM)
        cfg = make_cfg([0.0, 0.5, 1.0], germ_x, [[zero, zero]], [base_x2])
        out = apply_rb(SampledFunction(cfg.grid, cfg.germ_values), 1, cfg)
        assert np.array_equal(out.ys, cfg.germ_values)

    def test_seed_equal_base_returns_germ_exactly(self, running_cfg):
        g = SampledFunction(running_cfg.grid, running_cfg.grid ** 2)
        # x^2 matches f = x at both endpoints, so it is a legal input
        out = apply_rb(g, 1, running_cfg)
        assert np.array_equal(out.ys, running_cfg.germ_values)

    def test_hand_substitution_at_quarter(self, running_cfg):
        out = apply_rb(SampledFunction(running_cfg.grid, running_cfg.germ_values), 1, running_cfg)
        k = int(np.searchsorted(running_cfg.grid, 0.25))
        assert running_cfg.grid[k] == 0.25
        assert out.ys[k] == pytest.approx(0.35, abs=1e-12)

    def test_endpoints_fixed(self, running_cfg):
        out = apply_rb(SampledFunction(running_cfg.grid, running_cfg.germ_values), 1, running_cfg)
        assert out.ys[0] == running_cfg.germ_values[0]
        assert out.ys[-1] == running_cfg.germ_values[-1]

    # both entry points that take a seed check it the same way
    @pytest.mark.parametrize("run", [apply_rb, backward_trajectory], ids=lambda f: f.__name__)
    def test_grid_mismatch(self, running_cfg, run):
        bad = SampledFunction(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
        with pytest.raises(GridMismatch):
            run(bad, 1, running_cfg)

    @pytest.mark.parametrize("run", [apply_rb, backward_trajectory], ids=lambda f: f.__name__)
    def test_endpoint_mismatch(self, running_cfg, run):
        bad = SampledFunction(running_cfg.grid, running_cfg.grid + 0.01)
        with pytest.raises(EndpointMismatch):
            run(bad, 1, running_cfg)


class TestRBStepInPlace:
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_matches_out_of_place_expression(self, make_cfg, germ_x, base_x2, perturbed):
        knots = [0.0, 0.25, 0.5, 1.0]
        alphas = [[FunctionSpec.sinusoid(0.1, 3.0, 0.2, 0.3, DOM),
                   FunctionSpec.constant(-0.4, DOM),
                   FunctionSpec.polynomial([0.2, 0.1, -0.2], DOM)],
                  [FunctionSpec.constant(0.35, DOM)] * 3]
        bases = [base_x2, FunctionSpec.polynomial([0.0, 0.5, 0.5], DOM)]
        cfg = make_cfg(knots, germ_x, alphas, bases, grid_size=4097)
        assert cfg.grid.size == 4097
        pert = None
        if perturbed:
            pert = PerturbationSpec((PerturbationLevel(
                t=(0.05, -0.1, 0.2), s=(0.3, 0.0, -0.2),
                theta=(FunctionSpec.sinusoid(1.0, 5.0, 0.0, 0.0, DOM),) * 3,
                phi=(FunctionSpec.polynomial([0.0, 1.0, -1.0], DOM),) * 3),))
        values = np.random.default_rng(5).normal(size=cfg.grid.size)
        idx, q = engine._grid_geometry(cfg)
        for r in (1, 2, 3):
            alpha_q = engine._level_terms(cfg, r)[1]
            cached = [idx, q, alpha_q, cfg.base_values(r), cfg.germ_values, cfg.grid]
            before = [a.copy() for a in cached]
            got = engine._rb_step(values, engine._stencil(cfg), cfg.germ_values,
                                  engine._level_terms(cfg, r, pert))
            diff_q = np.interp(q, cfg.grid, values - cfg.base_values(r))
            if pert is None:
                want = cfg.germ_values + alpha_q * diff_q
            else:
                lv = pert.level(r)
                per_interval = engine._per_interval
                scale = alpha_q + np.asarray(lv.t)[idx - 1] * per_interval(lv.theta, idx, q)
                bump = np.asarray(lv.s)[idx - 1] * per_interval(lv.phi, idx, q)
                want = cfg.germ_values + scale * diff_q + bump
            assert got.tobytes() == want.tobytes()
            for arr, old in zip(cached, before):
                assert not arr.flags.writeable
                assert not np.shares_memory(got, arr)
                assert arr.tobytes() == old.tobytes()
            values = got


class TestPerInterval:
    def test_shared_spec_evaluated_once_with_its_own_zeros(self, monkeypatch):
        # equal specs share one evaluation, but 0.0 == -0.0 must not merge
        # two constants whose values differ in the sign of a zero
        calls = []
        spec = FunctionSpec.sinusoid(0.1, 3.0, 0.2, 0.3, DOM)
        equal = FunctionSpec.sinusoid(0.1, 3.0, 0.2, 0.3, DOM)
        plus, minus = FunctionSpec.constant(0.0, DOM), FunctionSpec.constant(-0.0, DOM)
        fns = (spec, plus, equal, minus, spec)
        z = np.linspace(0.0, 1.0, 101)
        idx = np.repeat(np.arange(1, 6), [20, 20, 20, 20, 21])
        want = np.concatenate([fn(z[idx == i]) for i, fn in enumerate(fns, start=1)])
        evaluate = engine.evaluate

        def counted(fn, x):
            calls.append(fn)
            return evaluate(fn, x)

        monkeypatch.setattr(engine, "evaluate", counted)
        got = engine._per_interval(fns, idx, z)
        assert got.tobytes() == want.tobytes()
        assert calls == [spec, plus, minus]


class TestInterpStencil:
    """The RB step reads np.interp's own arithmetic from a cached stencil."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 9),
           size=st.integers(3, 3000), zeros=st.floats(0.0, 0.9))
    def test_read_matches_np_interp(self, seed, n, size, zeros):
        rng = np.random.default_rng(seed)
        p = random_partition(rng, DOM, n)
        grid = p.grid(size)
        q = AffineMapSet.from_partition(p).inverse_many(locate_many(grid, p), grid)
        # Q points as the RB step sees them, plus grid nodes and both ends
        q = np.concatenate([q, rng.choice(grid, 40), grid[[0, -1]], rng.uniform(0, 1, 40)])
        dy = rng.normal(size=grid.size) * 10.0 ** rng.uniform(-8, 8)
        dy[rng.random(grid.size) < zeros] = 0.0
        dy[rng.random(grid.size) < zeros / 2] = -0.0
        got = engine._interp_read(engine._interp_stencil(grid, q), dy)
        assert got.tobytes() == np.interp(q, grid, dy).tobytes()

    def test_shared_by_configs_of_one_partition(self, make_cfg, germ_x, base_x2):
        a = FunctionSpec.constant(0.4, DOM)
        # a closed grid (the Q_i map nodes onto nodes) and an open one
        for knots in ([0.0, 0.5, 1.0], [0.0, 0.3, 1.0]):
            cfg = make_cfg(knots, germ_x, [[a, a]], [base_x2])
            other = cfg.with_germ(base_x2)
            assert other.grid is cfg.grid
            assert engine._grid_geometry(other) is engine._grid_geometry(cfg)
            assert engine._stencil(other) is engine._stencil(cfg)
            coarse = replace(cfg, grid_size=513)
            assert coarse.partition is cfg.partition
            assert coarse.grid.size < cfg.grid.size
            read = engine._stencil(coarse)
            if knots[1] == 0.5:
                # only the nearest-node indices are kept
                assert isinstance(read, np.ndarray) and read.dtype.kind == "i"
                assert read.size == coarse.grid.size
            else:
                # np.interp's stencil: cells, offsets, widths and node hits
                assert [arr.size for arr in read] == [coarse.grid.size] * 4

    def test_trajectory_peak_memory(self, make_cfg):
        # Criterion-11 shape at grid 65537, a closed grid.  With warm caches
        # (b_r at the nearest nodes among them) a depth-5 trajectory peaks at
        # two grid-sized arrays, the step's input and its output; the guard
        # allows three.
        knots = [k / 6 for k in range(7)]
        germ = FunctionSpec.sinusoid(0.8, 6.0, 1.0, 0.1, DOM)
        base = FunctionSpec.linear_endpoint(*germ.endpoint_values(), DOM)
        cfg = make_cfg(knots, germ, [[FunctionSpec.constant(0.45, DOM)] * 6,
                                     [FunctionSpec.sinusoid(0.1, 3.0, 0.0, 0.3, DOM)] * 6],
                       [base, base], grid_size=65537)
        backward_trajectory(None, 5, cfg)
        tracemalloc.start()
        try:
            backward_trajectory(None, 5, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * cfg.grid.nbytes + 2 ** 20


def _closed(cfg):
    """Whether the RB step reads cfg's grid at the nearest nodes."""
    return not isinstance(engine._stencil(cfg), tuple)


def _c11_nu():
    data = c11_config()
    data["partition"] = {"knots": [0.0, 0.13, 0.3, 0.52, 0.6, 0.81, 1.0]}
    return data


def _sup_and_lip(spec, span):
    """sup |spec| and its Lipschitz constant, in closed form."""
    p = spec.params
    if spec.family == "constant":
        return abs(p[0]), 0.0
    if spec.family == "linear-endpoint":
        return max(abs(p[0]), abs(p[1])), abs(p[1] - p[0]) / span
    assert spec.family == "sinusoid"
    return abs(p[0]) + abs(p[3]), abs(p[0] * p[1])


class TestGatherStep:
    """On a grid that every Q_i maps into itself the RB step reads g - b_r at
    the nearest nodes; elsewhere it interpolates."""

    @pytest.mark.parametrize("data, grid, closed", [
        (c11_config(), 1025, True), (c11_config(), 4097, True),
        (c11_config(), 65537, True), (README_CONFIG, 1025, True),
        (_c11_nu(), 1025, False), (_c11_nu(), 4097, False)],
        ids=["c11-1025", "c11-4097", "c11-65537", "readme", "c11nu-1025", "c11nu-4097"])
    def test_closure(self, data, grid, closed):
        assert _closed(config_from_dict(data, overrides={"grid": grid})) is closed

    def test_gather_step_equals_interpolating_step(self):
        # every Q point of the README config is a node exactly, where
        # np.interp returns the node's own value
        cfg = config_from_dict(README_CONFIG)
        assert _closed(cfg)
        stencil = engine._interp_stencil(cfg.grid, engine._grid_geometry(cfg)[1])
        assert np.all(stencil[3])
        values = cfg.germ_values
        noise = np.random.default_rng(3).normal(size=cfg.grid.size)
        for r in range(1, 31):
            terms = engine._level_terms(cfg, r)
            interp_terms = (cfg.base_values(r),) + terms[1:]
            got = [engine._rb_step(v, engine._stencil(cfg), cfg.germ_values, terms)
                   for v in (values, noise)]
            want = [engine._rb_step(v, stencil, cfg.germ_values, interp_terms)
                    for v in (values, noise)]
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
            values = got[0]

    def test_trajectory_matches_reference_series_on_c11(self):
        # Both sides evaluate W_1 = T_1 o ... o T_K f at the nodes, exactly
        # the depth-K partial sum there (W_{K+1} = f).  Level j reads
        # W_{j+1} - b_j and alpha_j at a point each side gets off by delta
        # from the exact Q_i of its own input: the trajectory by the closure
        # tolerance plus the 5uX of the two-point form, the reference by its
        # raw (z - e_i) / a_i, 4uX + 6uX^2 / (span a_min) (see
        # TestRBStepOracle).  That moves level j's term by c_j delta, with
        # c_j = Lip(alpha) M + A (L_{j+1} + Lip b), where M = (|f| + |b|) /
        # (1 - A) bounds W - b; the outer levels scale it by A^{j-1}.  The
        # Lipschitz constant of W_j grows by 1 / a_min per level:
        # L_j = Lip f + c_j / a_min.  Each level also rounds a few operations
        # on values below |f| + M.
        depth = 5
        cfg = config_from_dict(c11_config(), overrides={"grid": 1025})
        assert _closed(cfg)
        knots = list(cfg.partition.knots)
        span = knots[-1] - knots[0]
        levels = cfg.levels.levels
        f_sup, f_lip = _sup_and_lip(cfg.germ, span)
        b_sup, b_lip = map(max, zip(*(_sup_and_lip(lv.base, span) for lv in levels)))
        a_sup, a_lip = map(max, zip(*(_sup_and_lip(a, span)
                                      for lv in levels for a in lv.scalings)))
        u = np.finfo(float).eps / 2
        X = max(abs(knots[0]), abs(knots[-1]))
        a_min = min(cfg.maps.a)
        delta = (engine._closure_tol(cfg) + 5 * u * X
                 + u * (4 * X + 6 * X * X / (span * a_min)))
        M = (f_sup + b_sup) / (1.0 - a_sup)
        lip, tol = f_lip, depth * 32 * u * (f_sup + M)
        for j in range(depth, 0, -1):
            c = a_lip * M + a_sup * (lip + b_lip)
            tol += a_sup ** (j - 1) * c * delta
            lip = f_lip + c / a_min
        got = backward_trajectory(None, depth, cfg).values.ys
        want = np.array([ref_series(x, depth, knots, [lv.scalings for lv in levels],
                                    [lv.base for lv in levels], cfg.germ)
                         for x in cfg.grid.tolist()])
        assert np.max(np.abs(got - want)) <= tol


def _grid_slope(vals, grid):
    """Largest |difference quotient| between neighbouring grid nodes."""
    return float(np.max(np.abs(np.diff(vals)) / np.diff(grid)))


class TestRBStepOracle:
    KNOTS = [0.0, 0.13, 0.3, 0.52, 0.6, 0.81, 1.0]

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_matches_reference(self, make_cfg, perturbed):
        germ = FunctionSpec.sinusoid(0.8, 5.0, 0.4, 0.1, DOM)
        alphas = [[FunctionSpec.sinusoid(0.1, 3.0, 0.2, 0.3, DOM),
                   FunctionSpec.constant(-0.4, DOM),
                   FunctionSpec.polynomial([0.2, 0.1, -0.2], DOM),
                   FunctionSpec.constant(0.45, DOM),
                   FunctionSpec.sinusoid(0.2, 2.0, 1.0, -0.1, DOM),
                   FunctionSpec.polynomial([-0.3, 0.4], DOM)],
                  [FunctionSpec.constant(0.35, DOM)] * 6]
        f0, f1 = germ.endpoint_values()
        bases = [FunctionSpec.linear_endpoint(f0, f1, DOM),
                 FunctionSpec.polynomial([f0, 0.5, f1 - f0 - 0.5], DOM)]
        cfg = make_cfg(self.KNOTS, germ, alphas, bases, grid_size=1025)
        pert = None
        if perturbed:
            pert = PerturbationSpec((PerturbationLevel(
                t=(0.05, -0.1, 0.2, -0.3, 0.1, 0.25),
                s=(0.3, 0.0, -0.2, 0.1, -0.4, 0.2),
                theta=(FunctionSpec.sinusoid(1.0, 5.0, 0.0, 0.0, DOM),
                       FunctionSpec.constant(0.5, DOM)) * 3,
                phi=(FunctionSpec.polynomial([0.0, 1.0, -1.0], DOM),
                     FunctionSpec.polynomial([0.0, 0.5, 0.0, -0.5], DOM)) * 3),))
            pert.check_contractive(cfg)
        grid, knots = cfg.grid, self.KNOTS
        # Unit round-off and the first-order error of each form of Q_i (every
        # point has magnitude <= X): the two-point form in the engine is off by
        # <= 5uX; the raw (z - e_i) / a_i by <= 4uX + err(e_i) / a_i, with
        # err(e_i) <= 6uX^2 / span from the closed form of e_i.
        u = np.finfo(float).eps / 2
        X = max(abs(knots[0]), abs(knots[-1]))
        a_min = min(ref_coefficients(knots)[0])
        dq = u * (9 * X + 6 * X * X / ((knots[-1] - knots[0]) * a_min))
        values = cfg.germ_values
        for r in (1, 2, 3):  # level 3 repeats level 2
            lv = cfg.levels.level(r)
            got = engine._rb_step(values, engine._stencil(cfg), cfg.germ_values,
                                  engine._level_terms(cfg, r, pert))
            diff = values - cfg.base_values(r)
            scales = [np.asarray(a(grid)) for a in lv.scalings]
            bumps = [np.zeros_like(grid)] * 6
            ref_pert = None
            if pert is not None:
                plv = pert.level(r)
                scales = [sc + t * th(grid) for sc, t, th in zip(scales, plv.t, plv.theta)]
                bumps = [s * ph(grid) for s, ph in zip(plv.s, plv.phi)]
                ref_pert = (plv.t, plv.s, plv.theta, plv.phi)
            # dq moves the read of g - b_r (grid slope), the scale and the
            # bump; each evaluation then rounds a few times per term, |scale| < 1
            tol = (dq * (_grid_slope(diff, grid)
                         + max(_grid_slope(sc, grid) for sc in scales) * np.max(np.abs(diff))
                         + max(_grid_slope(b, grid) for b in bumps))
                   + 16 * u * (np.max(np.abs(cfg.germ_values)) + np.max(np.abs(diff))
                               + max(np.max(np.abs(b)) for b in bumps)))
            grid_list, vals_list = grid.tolist(), values.tolist()
            want = np.array([ref_rb_point(x, knots, grid_list, vals_list, germ,
                                          lv.scalings, lv.base, ref_pert)
                             for x in grid_list])
            assert np.max(np.abs(got - want)) <= tol
            values = got


class TestBackwardTrajectory:
    def test_perturbed_terms_built_once_per_level(self, running_cfg):
        # one prefix level on both sides: every level of the trajectory
        # repeats level 1, and both intervals share theta and phi, so each is
        # evaluated once on the grid (the contractivity check) and once at
        # the Q points (the level terms), whatever the depth
        calls = []

        def counted(name, fn):
            def wrapped(x):
                calls.append(name)
                return fn(np.asarray(x, dtype=float))
            return wrapped

        theta = counted("theta", lambda x: np.cos(x))
        phi = counted("phi", lambda x: x * (1.0 - x))
        counts = []
        for depth in (1, 30):
            pert = PerturbationSpec((PerturbationLevel(
                t=(0.1, -0.2), s=(0.2, 0.1), theta=(theta, theta), phi=(phi, phi)),))
            calls.clear()
            backward_trajectory(None, depth, running_cfg, pert)
            counts.append((calls.count("theta"), calls.count("phi")))
        assert counts == [(2, 2), (2, 2)]
        # the grid sups are kept on the perturbation: another trajectory
        # evaluates theta and phi at the Q points only
        calls.clear()
        backward_trajectory(None, 5, running_cfg, pert)
        assert (calls.count("theta"), calls.count("phi")) == (1, 1)

    def test_depth_one_zero_scaling_any_seed(self, make_cfg, germ_x, base_x2):
        zero = FunctionSpec.constant(0.0, DOM)
        cfg = make_cfg([0.0, 0.5, 1.0], germ_x, [[zero, zero]], [base_x2])
        out = backward_trajectory(None, 1, cfg)
        assert np.array_equal(out.values.ys, cfg.germ_values)
        other = SampledFunction(cfg.grid, cfg.grid ** 2)  # matches f at both ends
        out2 = backward_trajectory(other, 1, cfg)
        assert np.array_equal(out2.values.ys, cfg.germ_values)

    def test_base_equals_germ_is_fixed(self, make_cfg, germ_x):
        a = FunctionSpec.constant(0.4, DOM)
        with pytest.warns(UserWarning):
            cfg = make_cfg([0.0, 0.5, 1.0], germ_x, [[a, a]], [germ_x])
            out = backward_trajectory(None, 25, cfg)
        assert np.array_equal(out.values.ys, cfg.germ_values)

    def test_hand_traced_values(self, running_cfg):
        out = backward_trajectory(None, 30, running_cfg)
        assert out(0.25) == pytest.approx(0.35, abs=1e-6)
        assert out(0.75) == pytest.approx(0.85, abs=1e-6)

    def test_depth_zero_rejected(self, running_cfg):
        with pytest.raises(DepthZero):
            backward_trajectory(None, 0, running_cfg)

    def test_not_validated(self, make_cfg, germ_x):
        shifted = FunctionSpec.polynomial([0.1, 0.0, 1.0], DOM)
        a = FunctionSpec.constant(0.4, DOM)
        cfg = make_cfg([0.0, 0.5, 1.0], germ_x, [[a, a]], [shifted])
        with pytest.raises(NotValidated):
            backward_trajectory(None, 5, cfg)

    def test_seed_independence(self, running_cfg):
        germ = SampledFunction(running_cfg.grid, running_cfg.germ_values)
        a = backward_trajectory(germ, 30, running_cfg)
        other = SampledFunction(running_cfg.grid, running_cfg.grid ** 2)
        b = backward_trajectory(other, 30, running_cfg)
        # limit is seed-independent; depth-30 residual is ~alpha^30 * seed gap
        assert a.values.sup_diff(b.values) < 1e-9

    def test_geometric_convergence(self, running_cfg):
        outs = [backward_trajectory(None, k, running_cfg).values.ys
                for k in range(1, 21)]
        diffs = [float(np.max(np.abs(b - a))) for a, b in zip(outs, outs[1:])]
        rate = running_cfg.alpha_sup + 0.05
        for k in range(1, len(diffs)):
            assert diffs[k] <= rate * diffs[k - 1] + 1e-13

    def test_interpolation_and_r_bound(self, running_cfg):
        out = backward_trajectory(None, 30, running_cfg)
        assert out.satisfies_interpolation()
        assert float(np.max(np.abs(out.values.ys))) <= out.r_bound + 1e-9


class TestSeries:
    def test_exact_at_knots(self, running_cfg):
        for k, y in zip(running_cfg.partition.knots, running_cfg.knot_ordinates):
            assert series_eval(k, 5, running_cfg) == y

    def test_hand_traced_partial_sum(self, running_cfg):
        assert series_eval(0.25, 2, running_cfg) == pytest.approx(0.35, abs=1e-15)

    def test_zero_scaling(self, make_cfg, germ_x, base_x2):
        zero = FunctionSpec.constant(0.0, DOM)
        cfg = make_cfg([0.0, 0.5, 1.0], germ_x, [[zero, zero]], [base_x2])
        xs = np.linspace(0, 1, 17)
        assert np.array_equal(series_eval(xs, 7, cfg), cfg.germ_values[::64])

    def test_against_reference(self, make_cfg, germ_x):
        a1 = FunctionSpec.sinusoid(0.15, 2.0, 0.3, 0.2, DOM)
        a2 = FunctionSpec.constant(0.35, DOM)
        b1 = FunctionSpec.polynomial([0.0, 0.4, 0.6], DOM)
        b2 = FunctionSpec.polynomial([0.0, 1.5, -0.5], DOM)
        cfg = make_cfg([0.0, 0.4, 1.0], germ_x, [[a1, a2], [a2, a1]], [b1, b2])
        rng = np.random.default_rng(7)
        knots = list(cfg.partition.knots)
        scalings = [[a1, a2], [a2, a1]]
        bases = [b1, b2]
        for x in rng.uniform(0, 1, size=50):
            want = ref_series(float(x), 12, knots, scalings, bases, germ_x)
            got = series_eval(float(x), 12, cfg)
            assert got == pytest.approx(want, abs=1e-12)

    def test_sign_changing_scalings_against_reference(self, make_cfg, germ_x):
        # negative and sign-flipping scaling functions exercise cancellation
        a1 = FunctionSpec.constant(-0.4, DOM)
        a2 = FunctionSpec.sinusoid(0.3, 4.0, 1.1, 0.0, DOM)  # values in [-0.3, 0.3]
        b = FunctionSpec.polynomial([0.0, 2.0, -1.0], DOM)
        cfg = make_cfg([0.0, 0.6, 1.0], germ_x, [[a1, a2]], [b])
        rng = np.random.default_rng(19)
        knots = list(cfg.partition.knots)
        for x in rng.uniform(0, 1, size=40):
            want = ref_series(float(x), 14, knots, [[a1, a2]], [b], germ_x)
            got = series_eval(float(x), 14, cfg)
            assert got == pytest.approx(want, abs=1e-12)

    def test_out_of_domain(self, running_cfg):
        for x in (1.5, float("nan"), np.array([0.25, np.nan])):
            with pytest.raises(OutOfDomain):
                series_eval(x, 3, running_cfg)
            with pytest.raises(OutOfDomain):
                eval_interpolant(x, running_cfg)

    def test_self_referential_residual(self, running_cfg):
        # f^alpha(x) = f(x) + alpha_{i,1}(Q_i x)(f^alpha - b_1)(Q_i x) within 2 eps
        eps = running_cfg.depth_policy.eps
        depth = resolve_depth(running_cfg)
        rng = np.random.default_rng(13)
        xs = rng.uniform(0, 1, size=40)
        idx = locate_many(xs, running_cfg.partition)
        for x, i, q in zip(xs, idx, running_cfg.maps.inverse_many(idx, xs)):
            lhs = series_eval(float(x), depth, running_cfg)
            rhs = (float(running_cfg.germ(x))
                   + float(running_cfg.levels.scaling(i, 1)(q))
                   * (series_eval(q, depth, running_cfg)
                      - float(running_cfg.levels.base(1)(q))))
            assert abs(lhs - rhs) <= 2 * eps


class TestDepthPolicy:
    def test_required_depth_against_brute_force(self):
        for rate, mag, eps in [(0.4, 0.25, 1e-6), (0.5, 2.0, 1e-8),
                               (0.2, 0.1, 1e-10), (0.9, 1.0, 1e-4)]:
            assert required_depth(rate, mag, eps, 200) == ref_required_depth(rate, mag, eps)

    def test_worked_instance(self):
        # 0.4^{k+1}/0.6 * 0.25 <= 1e-6 first holds at k = 14
        assert required_depth(0.4, 0.25, 1e-6, 64) == 14
        assert 0.4 ** 15 / 0.6 * 0.25 <= 1e-6
        assert 0.4 ** 14 / 0.6 * 0.25 > 1e-6

    def test_cap(self):
        assert required_depth(0.999, 1.0, 1e-12, 64) == 64

    def test_degenerate(self):
        assert required_depth(0.0, 1.0, 1e-8, 64) == 1
        assert required_depth(0.5, 0.0, 1e-8, 64) == 1


class TestEvalInterpolant:
    def test_left_endpoint(self, running_cfg):
        assert eval_interpolant(0.0, running_cfg) == float(running_cfg.germ(0.0))

    def test_hand_traced(self, running_cfg):
        assert eval_interpolant(0.75, running_cfg, "series") == pytest.approx(0.85, abs=1e-6)
        assert eval_interpolant(0.75, running_cfg, "trajectory") == pytest.approx(0.85, abs=1e-6)

    def test_strategy_agreement(self, running_cfg):
        rng = np.random.default_rng(23)
        xs = rng.uniform(0, 1, size=100)
        traj = trajectory_interpolant(running_cfg)
        eps = running_cfg.depth_policy.eps
        cell = float(np.max(np.diff(running_cfg.grid)))
        lip = lip_seminorm(traj.values, 1.0, running_cfg.grid)
        tol = eps + 2.0 * cell * lip
        for x in xs:
            s = eval_interpolant(float(x), running_cfg, "series")
            t = traj(float(x))
            assert abs(s - t) <= tol

    def test_strategy_agreement_multilevel(self, make_cfg, germ_x):
        # genuinely non-stationary: two distinct levels plus repeat-last tail
        a1 = FunctionSpec.sinusoid(0.1, 3.0, 0.2, 0.25, DOM)
        a2 = FunctionSpec.constant(0.45, DOM)
        b1 = FunctionSpec.polynomial([0.0, 0.2, 0.8], DOM)
        b2 = FunctionSpec.polynomial([0.0, 1.7, -0.7], DOM)
        cfg = make_cfg([0.0, 0.3, 0.65, 1.0], germ_x,
                       [[a1, a2, a1], [a2, a1, a2]], [b1, b2])
        traj = trajectory_interpolant(cfg)
        eps = cfg.depth_policy.eps
        cell = float(np.max(np.diff(cfg.grid)))
        lip = lip_seminorm(traj.values, 1.0, cfg.grid)
        tol = eps + 2.0 * cell * lip
        rng = np.random.default_rng(29)
        for x in rng.uniform(0, 1, size=100):
            s = eval_interpolant(float(x), cfg, "series")
            assert abs(s - traj(float(x))) <= tol


class TestStationary:
    def test_zero_scaling(self, make_cfg, germ_x, base_x2):
        zero = FunctionSpec.constant(0.0, DOM)
        cfg = make_cfg([0.0, 0.5, 1.0], germ_x, [[zero, zero]], [base_x2])
        out = stationary_fixed_point(cfg)
        assert np.array_equal(out.values.ys, cfg.germ_values)

    def test_base_equals_germ(self, make_cfg, germ_x):
        a = FunctionSpec.constant(0.4, DOM)
        with pytest.warns(UserWarning):
            cfg = make_cfg([0.0, 0.5, 1.0], germ_x, [[a, a]], [germ_x])
            out = stationary_fixed_point(cfg)
        assert np.array_equal(out.values.ys, cfg.germ_values)

    def test_agrees_with_trajectory(self, running_cfg):
        fix = stationary_fixed_point(running_cfg)
        traj = backward_trajectory(None, 30, running_cfg)
        assert fix.values.sup_diff(traj.values) < 1e-8

    def test_needs_constant_levels(self, make_cfg, germ_x, base_x2):
        a1 = FunctionSpec.constant(0.4, DOM)
        a2 = FunctionSpec.constant(0.3, DOM)
        cfg = make_cfg([0.0, 0.5, 1.0], germ_x, [[a1, a1], [a2, a2]],
                       [base_x2, base_x2])
        with pytest.raises(NotValidated):
            stationary_fixed_point(cfg)


class TestFixedDepthPolicy:
    def test_fixed_depth_used(self, germ_x, base_x2):
        p = build_partition([0.0, 0.5, 1.0])
        a = FunctionSpec.constant(0.4, DOM)
        cfg = ProblemConfig(p, germ_x, LevelSequence((Level((a, a), base_x2),)),
                            depth_policy=DepthPolicy(depth=7))
        assert resolve_depth(cfg) == 7
        assert trajectory_interpolant(cfg).depth == 7


def test_one_trajectory_cache_per_config_and_depth(running_cfg, trajectories):
    depth = resolve_depth(running_cfg)
    policy = trajectory_interpolant(running_cfg)
    assert trajectory_interpolant(running_cfg, depth).values is policy.values
    deeper = trajectory_interpolant(running_cfg, depth + 3)
    assert deeper.depth == depth + 3
    assert trajectory_interpolant(running_cfg, depth + 3).values is deeper.values
    assert trajectories == [depth, depth + 3]
    assert np.array_equal(deeper.values.ys,
                          backward_trajectory(None, depth + 3, running_cfg).values.ys)
