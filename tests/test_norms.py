import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphafractal import (
    FunctionSpec,
    Level,
    LevelSequence,
    ProblemConfig,
    apply_rb,
    build_partition,
    check_lip_hypothesis,
    estimate_norms,
    lip_seminorm,
    norms,
    sup_norm,
)
from alphafractal.core import SampledFunction, matched_endpoint_polynomial
from alphafractal.errors import BadExponent, EmptyGrid

from reference import ref_lip, ref_lip_adjacent, ref_lip_pairs

DOM = (0.0, 1.0)


class TestSupNorm:
    def test_zero(self):
        assert sup_norm(FunctionSpec.constant(0.0, DOM), np.linspace(0, 1, 9)) == 0.0

    def test_identity(self):
        assert sup_norm(lambda x: x, np.linspace(0, 1, 9)) == 1.0

    def test_parabola_on_grid(self):
        # maximum of x - x^2 is 0.25 at x = 0.5, which lies on the 1025 grid
        grid = np.linspace(0, 1, 1025)
        assert sup_norm(lambda x: x - x ** 2, grid) == 0.25

    def test_empty(self):
        with pytest.raises(EmptyGrid):
            sup_norm(lambda x: x, np.array([]))

    def test_refinement_monotone(self):
        g = FunctionSpec.sinusoid(1.0, 7.0, 0.3, 0.0, DOM)
        coarse = sup_norm(g, np.linspace(0, 1, 65))
        fine = sup_norm(g, np.linspace(0, 1, 129))  # nested refinement
        assert fine >= coarse


class TestLipSeminorm:
    def test_constant(self):
        assert lip_seminorm(FunctionSpec.constant(3.0, DOM), 1.0,
                            np.linspace(0, 1, 33)) == 0.0

    def test_identity_d1(self):
        assert lip_seminorm(lambda x: x, 1.0, np.linspace(0, 1, 33)) == pytest.approx(1.0)

    def test_identity_d_half(self):
        # |x - y| / |x - y|^{1/2} maximized at the endpoint pair
        assert lip_seminorm(lambda x: x, 0.5, np.linspace(0, 1, 33)) == pytest.approx(1.0)

    def test_against_brute_force(self):
        rng = np.random.default_rng(2)
        xs = np.sort(rng.uniform(0, 1, size=40))
        ys = rng.normal(size=40)
        g = SampledFunction(xs, ys)
        for d in (1.0, 0.7, 0.3):
            want = ref_lip(xs, ys, d)
            assert lip_seminorm(g, d, xs) == pytest.approx(want, rel=1e-12)

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            lip_seminorm(lambda x: x, 1.5, np.linspace(0, 1, 9))

    def test_empty(self):
        with pytest.raises(EmptyGrid):
            lip_seminorm(lambda x: x, 1.0, np.array([0.5]))

    def test_subsampling_cap(self):
        # the estimate on a grid above LIP_PAIR_CAP stays close for a smooth function
        g = FunctionSpec.sinusoid(1.0, np.pi, 0.0, 0.0, DOM)
        big = lip_seminorm(g, 1.0, np.linspace(0, 1, 5001))
        assert big == pytest.approx(np.pi, rel=1e-3)

    def test_refinement_monotone(self):
        g = FunctionSpec.sinusoid(1.0, 5.0, 0.1, 0.0, DOM)
        coarse = lip_seminorm(g, 1.0, np.linspace(0, 1, 65))
        fine = lip_seminorm(g, 1.0, np.linspace(0, 1, 129))
        assert fine >= coarse

    def test_nan_reaches_the_estimate(self):
        # a NaN quotient must not hide the finite slope 1 left of x = 0.5
        g = lambda x: np.where(x > 0.5, np.nan, x)  # noqa: E731
        grid = np.linspace(0, 1, 11)
        assert np.isnan(lip_seminorm(g, 1.0, grid))
        assert np.isnan(estimate_norms(g, 1.0, grid).lip_d)
        # a repeated grid point gives a 0/0 quotient; norm_d must not drop it
        est = estimate_norms(lambda x: x, 1.0, np.array([0, 0.5, 0.5, 1]))
        assert np.isnan(est.lip_d) and np.isnan(est.norm_d)

    def test_strided_grid_matches_pair_oracle(self):
        # d < 1: 3000 points stride by 2 down to 1500, plus the last point;
        # d = 1 reads every point
        xs = np.linspace(0, 1, 3000)
        g = FunctionSpec.sinusoid(1.0, 9.0, 0.4, 0.0, DOM)
        sub = np.append(xs[::2], xs[-1])
        assert lip_seminorm(g, 0.5, xs) == ref_lip_pairs(sub, g(sub), 0.5)
        assert lip_seminorm(g, 1.0, xs) == ref_lip_adjacent(xs, g(xs))

    def test_d1_finds_a_steep_cell_between_strided_points(self):
        # 5001 points stride by 3 at d < 1; a spike at index 1001 lies between
        # the strided points 999 and 1002, which both read 0
        xs = np.linspace(0, 1, 5001)
        ys = np.zeros_like(xs)
        ys[1001] = 1.0
        g = SampledFunction(xs, ys)
        sub = np.append(xs[::3], xs[-1])
        assert ref_lip_pairs(sub, g(sub), 1.0) == 0.0
        steep = max(1.0 / (xs[1001] - xs[1000]), 1.0 / (xs[1002] - xs[1001]))
        assert lip_seminorm(g, 1.0, xs) == steep

    def test_shuffled_grid_gives_the_sorted_value(self):
        rng = np.random.default_rng(4)
        xs = np.sort(rng.uniform(0, 1, size=500))
        g = SampledFunction(xs, rng.normal(size=500))
        want = lip_seminorm(g, 1.0, xs)
        assert want == ref_lip_adjacent(xs, g(xs))
        assert lip_seminorm(g, 1.0, rng.permutation(xs)) == want
        assert lip_seminorm(g, 1.0, xs[::-1]) == want
        # a repeated point still meets its twin once sorted: 0/0 is NaN
        assert np.isnan(lip_seminorm(g, 1.0, rng.permutation(np.append(xs, xs[7]))))

    def test_peak_memory_stays_linear(self):
        g = FunctionSpec.sinusoid(1.0, 5.0, 0.1, 0.0, DOM)
        grid = np.linspace(0, 1, 2049)
        tracemalloc.start()
        try:
            lip_seminorm(g, 0.5, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_d1_peak_memory_above_the_cap(self):
        # g's values and their evaluation temporary, the two differences and
        # the quotient: never more than five grid-sized arrays at once
        g = FunctionSpec.sinusoid(1.0, 5.0, 0.1, 0.0, DOM)
        grid = np.linspace(0, 1, 1_048_577)
        tracemalloc.start()
        try:
            lip_seminorm(g, 1.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * grid.nbytes

    def test_triangle_inequality_on_shared_grid(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0, 1, 80)
        g = SampledFunction(grid, rng.normal(size=80))
        h = SampledFunction(grid, rng.normal(size=80))
        gh = SampledFunction(grid, g.ys + h.ys)
        assert lip_seminorm(gh, 0.6, grid) <= (
            lip_seminorm(g, 0.6, grid) + lip_seminorm(h, 0.6, grid) + 1e-12)


GRIDS = st.lists(st.floats(-100, 100), min_size=2, max_size=300, unique=True).map(sorted)
KNOTS = st.lists(st.tuples(st.floats(-100, 100), st.floats(-1e3, 1e3)),
                 min_size=1, max_size=8).map(sorted)

# Relative error of one correctly rounded operation (round to nearest).
U = Fraction(1, 2 ** 53)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(xs=GRIDS, d=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), knots=KNOTS)
def test_lip_seminorm_equals_pair_oracle(xs, d, knots):
    """d < 1: bit for bit against the all-pairs oracle, on piecewise-linear g."""
    kx, ky = np.array(knots).T
    g = lambda x: np.interp(x, kx, ky)  # noqa: E731
    xs = np.array(xs)
    assert lip_seminorm(g, d, xs) == ref_lip_pairs(xs, g(xs), d)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(xs=GRIDS, knots=KNOTS)
def test_lip_seminorm_d1_brackets_pair_oracle(xs, knots):
    """d = 1: bit for bit the largest adjacent slope, and within rounding of
    the all-pairs maximum.

    Adjacent pairs are among all pairs and their quotients are computed by
    the same operations, so the estimate never exceeds the pair oracle.  In
    exact arithmetic a chord's slope (y_j - y_i) / (x_j - x_i) is a weighted
    mean of the adjacent slopes it spans, so the exact pair maximum P equals
    the exact adjacent maximum S.  Each computed quotient is three correctly
    rounded operations (two differences, one division; |.| is exact), each
    with relative error at most u = 2^-53, so a computed pair quotient is at
    most P (1 + u)^2 / (1 - u) and the computed adjacent slope that attains
    S is at least S (1 - u)^2 / (1 + u).  Hence pairs <= lip (1 + u)^3 / (1 - u)^3
    = lip (1 + 6u + O(u^2)), compared here in exact rational arithmetic.  The
    model assumes the quotients neither overflow nor underflow; an infinite
    pair maximum must be matched by an infinite estimate.
    """
    kx, ky = np.array(knots).T
    g = lambda x: np.interp(x, kx, ky)  # noqa: E731
    xs = np.array(xs)
    lip = lip_seminorm(g, 1.0, xs)
    pairs = ref_lip_pairs(xs, g(xs), 1.0)
    assert lip == ref_lip_adjacent(xs, g(xs))
    assert lip <= pairs
    if np.isinf(pairs):
        assert np.isinf(lip)
    else:
        assert Fraction(pairs) <= Fraction(lip) * ((1 + U) / (1 - U)) ** 3


class TestNormEstimate:
    def test_norm_d_is_max(self):
        est = estimate_norms(FunctionSpec.sinusoid(0.1, np.pi, 0.0, 0.15, DOM),
                             1.0, np.linspace(0, 1, 1025))
        assert est.sup_norm == pytest.approx(0.25)
        assert est.lip_d == pytest.approx(0.1 * np.pi, rel=1e-4)
        assert est.norm_d == max(est.sup_norm, est.lip_d)


def _cfg(alpha_specs, mode="lipschitz", d=1.0, grid_size=1025):
    p = build_partition([0.0, 0.5, 1.0])
    f = FunctionSpec.polynomial([0.0, 1.0], DOM)
    b = FunctionSpec.polynomial([0.0, 0.0, 1.0], DOM)
    return ProblemConfig(p, f, LevelSequence((Level(tuple(alpha_specs), b),)),
                         mode=mode, d=d, grid_size=grid_size)


class TestLipHypothesis:
    def test_point_two_passes(self):
        a = FunctionSpec.constant(0.2, DOM)
        rep = check_lip_hypothesis(_cfg([a, a]))
        assert rep.observed == pytest.approx(0.4)
        assert rep.inputs["contraction_factor"] == pytest.approx(0.8)
        assert rep.passed

    def test_point_three_fails(self):
        a = FunctionSpec.constant(0.3, DOM)
        rep = check_lip_hypothesis(_cfg([a, a]))
        assert rep.observed == pytest.approx(0.6)
        assert not rep.passed

    def test_sine_ratio_uses_norm_d(self):
        # ||0.1 sin(pi x) + 0.15||_d = max(0.25, 0.1 pi) = 0.1 pi; ratio vs a^d = 0.5
        a = FunctionSpec.sinusoid(0.1, np.pi, 0.0, 0.15, DOM)
        rep = check_lip_hypothesis(_cfg([a, a]))
        assert rep.observed == pytest.approx(0.1 * np.pi / 0.5, rel=1e-4)
        assert not rep.passed


def test_validation_and_hypothesis_share_ratios(monkeypatch):
    # P = 2 prefix levels, N = 3 intervals, one scaling spec per level: one
    # Lip_d estimate per distinct scaling
    calls = []
    est = norms.lip_seminorm

    def counted(*args, **kwargs):
        calls.append(args)
        return est(*args, **kwargs)

    monkeypatch.setattr(norms, "lip_seminorm", counted)
    b = FunctionSpec.polynomial([0.0, 0.0, 1.0], DOM)
    levels = (Level((FunctionSpec.constant(0.1, DOM),) * 3, b),
              Level((FunctionSpec.constant(0.05, DOM),) * 3, b))
    cfg = ProblemConfig(build_partition([0.0, 1 / 3, 2 / 3, 1.0]),
                        FunctionSpec.polynomial([0.0, 1.0], DOM),
                        LevelSequence(levels), mode="lipschitz")
    assert cfg.validation().ok
    rep = check_lip_hypothesis(cfg)
    assert rep.inputs["per_level_ratios"] == norms.lip_ratios(cfg)
    assert rep.passed
    assert len(calls) == 2


class TestContractionCertificate:
    def test_rb_contracts_norm_d(self):
        a = FunctionSpec.constant(0.2, DOM)
        cfg = _cfg([a, a], grid_size=513)
        rep = check_lip_hypothesis(cfg)
        assert rep.passed
        factor = rep.inputs["contraction_factor"] + 0.05
        rng = np.random.default_rng(31)
        grid = cfg.grid
        f0, f1 = float(cfg.germ(0.0)), float(cfg.germ(1.0))
        for _ in range(25):
            g1 = matched_endpoint_polynomial(rng.uniform(-1, 1, 6), DOM, f0, f1)
            g2 = matched_endpoint_polynomial(rng.uniform(-1, 1, 6), DOM, f0, f1)
            s1 = SampledFunction(grid, np.asarray(g1(grid)))
            s2 = SampledFunction(grid, np.asarray(g2(grid)))
            t1 = apply_rb(s1, 1, cfg)
            t2 = apply_rb(s2, 1, cfg)
            num = estimate_norms(SampledFunction(grid, t1.ys - t2.ys), cfg.d, grid).norm_d
            den = estimate_norms(SampledFunction(grid, s1.ys - s2.ys), cfg.d, grid).norm_d
            assert num <= factor * den + 1e-12
