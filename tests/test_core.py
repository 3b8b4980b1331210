import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphafractal import (
    AffineMapSet,
    DepthPolicy,
    FunctionSpec,
    Level,
    LevelSequence,
    ProblemConfig,
    build_partition,
    trajectory_interpolant,
    validate_level_sequence,
)
from alphafractal.core import SampledFunction, sup_abs
from alphafractal.errors import (
    BadExponent,
    ConfigError,
    EndpointMismatch,
    LipConditionViolated,
    NonMonotoneKnots,
    NotValidated,
    ScalingNotContractive,
    TooFewKnots,
)
from alphafractal.norms import lip_ratios

DOM = (0.0, 1.0)


class TestPartition:
    def test_basic(self):
        p = build_partition([0.0, 0.5, 1.0])
        assert p.n_intervals == 2
        assert p.domain == (0.0, 1.0)

    def test_two_knots_rejected(self):
        with pytest.raises(TooFewKnots):
            build_partition([0.0, 1.0])

    def test_intervals(self):
        p = build_partition([0.0, 0.25, 1.0])
        assert p.n_intervals == 2
        assert p.interval(1) == (0.0, 0.25)
        assert p.interval(2) == (0.25, 1.0)

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneKnots):
            build_partition([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(NonMonotoneKnots):
            build_partition([0.0, 0.6, 0.5])


def _offsets(m):
    """e_i = l_i(0), the offset of l_i(x) = a_i x + e_i."""
    return tuple(float(m.forward(i, 0.0)) for i in range(1, len(m.a) + 1))


class TestAffineMaps:
    def test_uniform(self):
        m = AffineMapSet.from_partition(build_partition([0.0, 0.5, 1.0]))
        assert m.a == (0.5, 0.5)
        assert _offsets(m) == (0.0, 0.5)

    def test_nonuniform(self):
        m = AffineMapSet.from_partition(build_partition([0.0, 0.25, 1.0]))
        assert m.a == (0.25, 0.75)
        assert _offsets(m) == (0.0, 0.25)

    def test_shifted(self):
        m = AffineMapSet.from_partition(build_partition([-1.0, 0.0, 1.0]))
        assert m.a == (0.5, 0.5)
        assert _offsets(m) == (-0.5, 0.5)

    def test_endpoints_map_to_knots_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            knots = np.sort(rng.uniform(-2.0, 3.0, size=5))
            knots += np.arange(5) * 1e-3  # enforce strict increase
            p = build_partition(knots)
            m = AffineMapSet.from_partition(p)
            for i in range(1, p.n_intervals + 1):
                assert float(m.forward(i, p.lo)) == p.knots[i - 1]
                assert float(m.forward(i, p.hi)) == p.knots[i]
                ends = m.inverse_many(np.array([i, i]), np.array(p.interval(i)))
                assert ends.tolist() == [p.lo, p.hi]

    def test_coefficient_sum_and_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            knots = np.cumsum(rng.uniform(0.1, 1.0, size=6))
            p = build_partition(knots)
            m = AffineMapSet.from_partition(p)
            assert all(0.0 < a < 1.0 for a in m.a)
            assert sum(m.a) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        p = build_partition([0.0, 0.3, 0.45, 0.9, 1.0])
        m = AffineMapSet.from_partition(p)
        xs = rng.uniform(0.0, 1.0, size=200)
        for i in range(1, p.n_intervals + 1):
            back = m.inverse_many(np.full(xs.size, i), m.forward(i, xs))
            assert np.max(np.abs(back - xs)) < 1e-12
        # forward o inverse on points of I_i
        zs = rng.uniform(0.3, 0.45, size=100)
        fwd = m.forward(2, m.inverse_many(np.full(zs.size, 2), zs))
        assert np.max(np.abs(fwd - zs)) < 1e-12


class TestFunctionSpec:
    def test_families_evaluate(self):
        x = np.linspace(0.0, 1.0, 11)
        assert np.all(FunctionSpec.constant(2.5, DOM)(x) == 2.5)
        lin = FunctionSpec.linear_endpoint(1.0, 3.0, DOM)
        assert lin(0.0) == 1.0 and lin(1.0) == 3.0 and lin(0.5) == 2.0
        poly = FunctionSpec.polynomial([1.0, 0.0, 2.0], DOM)
        assert poly(0.5) == pytest.approx(1.5)
        sin = FunctionSpec.sinusoid(0.1, np.pi, 0.0, 0.15, DOM)
        assert sin(0.5) == pytest.approx(0.25)
        samp = FunctionSpec.sampled([0.0, 1.0, 0.0], DOM)
        assert samp(0.25) == pytest.approx(0.5)

    def test_deterministic_bit_for_bit(self):
        spec = FunctionSpec.sinusoid(0.3, 2.1, 0.7, 0.05, DOM)
        x = np.random.default_rng(0).uniform(0, 1, 100)
        a = spec(x)
        b = spec(x)
        assert np.array_equal(a, b)

    def test_scalar_in_scalar_out(self):
        spec = FunctionSpec.polynomial([0.0, 1.0], DOM)
        assert isinstance(spec(0.3), float)

    @pytest.mark.parametrize("make", [
        lambda: FunctionSpec.constant(float("nan"), DOM),
        lambda: FunctionSpec.polynomial([0.0, 1.0, float("inf")], DOM),
        lambda: FunctionSpec.sinusoid(1.0, -float("inf"), 0.0, 0.0, DOM),
        lambda: FunctionSpec.sampled([0.0, 1.0, 0.0], DOM,
                                     abscissas=[0.0, float("nan"), 1.0]),
    ], ids=["nan-constant", "inf-coefficient", "inf-frequency", "nan-abscissa"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ConfigError, match="finite"):
            make()


# both signed zeros, often: a result can differ from the formula's in the
# sign of a zero alone
_PARAM = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@st.composite
def _spec_and_formula(draw):
    """A FunctionSpec of any family and its textbook formula as a function
    of the points."""
    lo = draw(st.floats(-10.0, 10.0))
    hi = lo + draw(st.sampled_from([1e-3, 0.5, 1.0, 7.25, 20.0]))
    domain = (lo, hi)
    family = draw(st.sampled_from(["constant", "linear-endpoint", "polynomial",
                                   "sinusoid", "sampled"]))
    if family == "constant":
        c = draw(_PARAM)
        return FunctionSpec.constant(c, domain), lambda x: np.full(np.shape(x), c)
    if family == "linear-endpoint":
        yl, yr = draw(_PARAM), draw(_PARAM)
        return (FunctionSpec.linear_endpoint(yl, yr, domain),
                lambda x: yl + (yr - yl) * (x - lo) / (hi - lo))
    if family == "polynomial":
        c = draw(st.lists(_PARAM, min_size=1, max_size=7))
        return (FunctionSpec.polynomial(c, domain),
                lambda x: np.polynomial.polynomial.polyval(x, np.asarray(c)))
    if family == "sinusoid":
        a, w, phase, offset = (draw(_PARAM) for _ in range(4))
        return (FunctionSpec.sinusoid(a, w, phase, offset, domain),
                lambda x: a * np.sin(w * x + phase) + offset)
    ys = draw(st.lists(_PARAM, min_size=2, max_size=9))
    xs = np.linspace(lo, hi, len(ys))
    if draw(st.booleans()):
        inner = sorted(set(draw(st.lists(st.floats(lo, hi, exclude_min=True, exclude_max=True),
                                         min_size=len(ys) - 2, max_size=len(ys) - 2,
                                         unique=True))))
        if len(inner) == len(ys) - 2:
            xs = np.array([lo, *inner, hi])
            return (FunctionSpec.sampled(ys, domain, abscissas=xs),
                    lambda x: np.interp(x, xs, ys))
    return FunctionSpec.sampled(ys, domain), lambda x: np.interp(x, xs, ys)


class TestFamilyFormulas:
    """Every family evaluates to the bytes of its textbook formula, on arrays,
    0-d arrays and Python scalars, at the domain ends and at both zeros."""

    @settings(max_examples=300, deadline=None)
    @given(case=_spec_and_formula(), data=st.data())
    def test_same_bytes_as_the_formula(self, case, data):
        spec, formula = case
        lo, hi = spec.domain
        inside = st.floats(lo, hi)
        points = data.draw(st.lists(inside, max_size=40))
        points += [lo, hi] + [z for z in (0.0, -0.0) if lo <= z <= hi]
        x = np.array(data.draw(st.permutations(points)), dtype=float)
        want = np.asarray(formula(x), dtype=float)
        got = spec(x)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        for v in points[-4:]:
            for scalar in (v, np.asarray(v)):
                out = spec(scalar)
                assert type(out) is float
                assert np.float64(out).tobytes() == np.asarray(
                    formula(np.asarray(scalar, dtype=float)), dtype=float).tobytes()


def _cfg(alpha_value, base, mode="continuous", d=1.0):
    p = build_partition([0.0, 0.5, 1.0])
    f = FunctionSpec.polynomial([0.0, 1.0], DOM)
    a = FunctionSpec.constant(alpha_value, DOM)
    return ProblemConfig(p, f, LevelSequence((Level((a, a), base),)),
                         mode=mode, d=d)


class TestValidation:
    def test_ratio_08_fails_lip_passes_continuous(self, base_x2):
        cfg = _cfg(0.4, base_x2, mode="lip")
        rep = validate_level_sequence(cfg)
        assert not rep.ok
        assert rep.problems[0][0] is LipConditionViolated
        assert lip_ratios(cfg)[0] == pytest.approx(0.8)
        rep2 = validate_level_sequence(_cfg(0.4, base_x2, mode="cont"))
        assert rep2.ok

    def test_ratio_04_passes_both(self, base_x2):
        assert validate_level_sequence(_cfg(0.2, base_x2, mode="lip")).ok
        assert validate_level_sequence(_cfg(0.2, base_x2, mode="cont")).ok

    def test_endpoint_mismatch(self):
        shifted = FunctionSpec.polynomial([0.1, 0.0, 1.0], DOM)  # x^2 + 0.1
        rep = validate_level_sequence(_cfg(0.4, shifted))
        assert not rep.ok
        assert rep.problems[0][0] is EndpointMismatch
        with pytest.raises(EndpointMismatch):
            rep.raise_if_failed()

    def test_scaling_not_contractive_reported_by_validation(self, germ_x):
        # construction checks only the shape; the grid estimate is the one check
        seq = LevelSequence((Level(
            (FunctionSpec.constant(1.2, DOM), FunctionSpec.constant(0.5, DOM)),
            FunctionSpec.polynomial([0.0, 0.0, 1.0], DOM),
        ),))
        cfg = ProblemConfig(build_partition([0.0, 0.5, 1.0]), germ_x, seq)
        rep = cfg.validation()
        assert cfg.alpha_sup == 1.2
        assert [cls for cls, _ in rep.problems] == [ScalingNotContractive]
        with pytest.raises(ScalingNotContractive):
            rep.raise_if_failed()

    def test_degenerate_base_warns(self, germ_x):
        cfg = _cfg(0.4, germ_x)
        with pytest.warns(UserWarning, match="degenerates"):
            rep = validate_level_sequence(cfg)
        assert rep.ok
        assert rep.degenerate_levels == (1,)


class TestLevelSequence:
    def test_repeat_last_tail(self, base_x2, germ_x):
        a1 = FunctionSpec.constant(0.3, DOM)
        a2 = FunctionSpec.constant(0.2, DOM)
        seq = LevelSequence((
            Level((a1, a1), base_x2),
            Level((a2, a2), germ_x),
        ))
        assert seq.level(1).scalings[0] is a1
        assert seq.level(2).scalings[0] is a2
        assert seq.level(7).scalings[0] is a2
        assert seq.base(7) is germ_x

    def test_alpha_sup_over_prefix(self, base_x2):
        a1 = FunctionSpec.constant(0.3, DOM)
        a2 = FunctionSpec.constant(-0.45, DOM)
        seq = LevelSequence((Level((a1, a1), base_x2), Level((a2, a2), base_x2)))
        grid = np.linspace(0, 1, 100)
        assert seq.alpha_sup(grid) == pytest.approx(0.45)

    def test_nan_scaling_propagates_and_fails_validation(self, base_x2, germ_x):
        a = FunctionSpec.constant(0.3, DOM)

        def nan_scaling(x):
            return np.full(np.shape(x), np.nan)

        seq = LevelSequence((Level((a, nan_scaling), base_x2),))
        assert np.isnan(seq.alpha_sup(np.linspace(0, 1, 9)))
        cfg = ProblemConfig(build_partition([0.0, 0.5, 1.0]), germ_x, seq)
        rep = validate_level_sequence(cfg)
        assert rep.problems[0][0] is ScalingNotContractive


    @pytest.mark.parametrize("where, error", [
        (lambda x: (x > 0.4) & (x < 0.6), ConfigError),
        (lambda x: x == 1.0, EndpointMismatch),
    ], ids=["interior", "right-end"])
    def test_nan_base_fails_validation(self, germ_x, where, error):
        # Knots 0, 1/2, 1 on a 65-point grid; b = x^2 except for NaN at `where`.
        def nan_base(x):
            x = np.asarray(x, dtype=float)
            return np.where(where(x), np.nan, x * x)

        a = FunctionSpec.constant(0.4, DOM)
        cfg = ProblemConfig(build_partition([0.0, 0.5, 1.0]), germ_x,
                            LevelSequence((Level((a, a), nan_base),)), grid_size=65)
        rep = validate_level_sequence(cfg)
        assert not rep.ok
        assert error in [cls for cls, _ in rep.problems]
        assert np.isnan(cfg.base_gap_sup) and np.isnan(cfg.base_sup)
        with pytest.raises(NotValidated):
            trajectory_interpolant(cfg)


class TestProblemConfig:
    def test_grid_contains_knots(self, germ_x, base_x2):
        p = build_partition([0.0, 0.31, 0.77, 1.0])
        a = FunctionSpec.constant(0.4, DOM)
        cfg = ProblemConfig(p, germ_x, LevelSequence((Level((a,) * 3, base_x2),)),
                            grid_size=257)
        for k in p.knots:
            assert k in cfg.grid

    def test_bad_exponent(self, germ_x, base_x2):
        with pytest.raises(BadExponent):
            _cfg(0.4, base_x2, d=0.0)
        with pytest.raises(BadExponent):
            _cfg(0.4, base_x2, d=1.5)

    def test_mode_must_be_a_known_name(self, germ_x, base_x2):
        p = build_partition([0.0, 0.5, 1.0])
        a = FunctionSpec.constant(0.4, DOM)
        levels = LevelSequence((Level((a, a), base_x2),))
        for mode in ("nope", ["lip"], None):
            with pytest.raises(ConfigError):
                ProblemConfig(p, germ_x, levels, mode=mode)

    def test_depth_policy_validation(self):
        with pytest.raises(Exception):
            DepthPolicy(depth=0)
        with pytest.raises(Exception):
            DepthPolicy(eps=-1.0)
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                DepthPolicy(eps=eps)

    def test_base_distance_propagates_nan(self, germ_x, base_x2):
        # the second of two levels has a base that is NaN right of 0.5
        def nan_base(x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 0.5, np.nan, x * x)

        a = FunctionSpec.constant(0.4, DOM)
        p = build_partition([0.0, 0.5, 1.0])
        clean = ProblemConfig(p, germ_x, LevelSequence((Level((a, a), base_x2),)), grid_size=65)
        dirty = clean.with_bases((base_x2, nan_base))
        assert clean.base_distance(clean.with_bases((base_x2, germ_x))) > 0.0
        assert np.isnan(clean.base_distance(dirty))
        assert np.isnan(dirty.base_distance(clean))


class TestSupAbs:
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_nan_anywhere_gives_nan(self, where):
        family = [np.array([0.5, -2.0]), np.array([3.0]), np.array([-1.0, 0.25])]
        family[where] = np.append(family[where], np.nan)
        assert np.isnan(sup_abs(family))
        assert np.isnan(sup_abs(iter(family)))

    def test_empty_family_gives_zero(self):
        assert sup_abs([]) == 0.0
        assert sup_abs(iter(())) == 0.0

    def test_matches_python_max(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            family = [rng.normal(scale=10.0, size=rng.integers(1, 40))
                      for _ in range(rng.integers(1, 6))]
            want = max(abs(float(v)) for a in family for v in a)
            got = sup_abs(family)
            assert type(got) is float
            assert got == want


class TestSampledFunction:
    def test_copies_what_a_caller_can_write(self):
        xs = np.linspace(0.0, 1.0, 5)
        ys = xs ** 2
        view = ys[:]
        view.setflags(write=False)
        for f in (SampledFunction(xs, ys), SampledFunction(xs, view)):
            assert not np.shares_memory(f.xs, xs) and not np.shares_memory(f.ys, ys)
        f = SampledFunction(xs, ys)
        g = SampledFunction(xs, view)
        xs[1] = 0.3
        ys[:] = 7.0
        for h in (f, g):
            assert h.xs.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
            assert h.ys.tolist() == [0.0, 0.0625, 0.25, 0.5625, 1.0]
            assert not h.xs.flags.writeable and not h.ys.flags.writeable

    def test_shares_what_nothing_can_write(self, running_cfg):
        ys = running_cfg.grid ** 2
        ys.setflags(write=False)
        f = SampledFunction(running_cfg.grid, ys)
        assert f.xs is running_cfg.grid and f.ys is ys
        traj = trajectory_interpolant(running_cfg)
        assert traj.values.xs is running_cfg.grid
        assert not traj.values.ys.flags.writeable
