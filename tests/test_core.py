import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphafractal import (
    BaseOperatorSpec,
    DepthPolicy,
    FunctionSpec,
    Level,
    LevelSequence,
    ProblemConfig,
    build_partition,
    trajectory_interpolant,
    validate_level_sequence,
)
from alphafractal import core
from alphafractal.core import (
    DEFAULT_EPS,
    DEPTH_CAP,
    SampledFunction,
    group_specs,
    matched_endpoint_polynomial,
    sup_abs,
)
from alphafractal.ifs import locate_many
from alphafractal.errors import (
    BadExponent,
    ConfigError,
    EndpointMismatch,
    LipConditionViolated,
    NonMonotoneKnots,
    ScalingNotContractive,
    TooFewKnots,
)
from alphafractal.norms import lip_ratios

from helpers import nan_where
from reference import ref_blend, ref_matched_endpoint_coeffs, ref_shifted

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

    @pytest.mark.parametrize("a", [7e153, 1e200, 1.7e308])
    def test_knots_whose_maps_overflow_rejected(self, a):
        # 2 max(|x_0|, |x_N|) (x_N - x_0) = 4 a^2 overflows from about
        # a = 6.7e153; at 1.7e308 the span x_N - x_0 overflows too
        with pytest.raises(ConfigError, match="too large"):
            build_partition([-a, 0.0, a])

    @pytest.mark.parametrize("knots", [[-6e153, 0.0, 6e153], [1e150, 2e150, 3e150]])
    def test_large_knots_give_finite_maps(self, knots):
        p = build_partition(knots)
        grid = p.grid(65)
        assert np.all(np.isfinite(grid))
        for i in (1, 2):
            assert np.all(np.isfinite(p.forward(i, grid)))
        assert np.all(np.isfinite(p.inverse_many(locate_many(grid, p), grid)))

    @pytest.mark.parametrize("size, near", [(7777, 3), (46657, 2), (279937, 1),
                                            (1025, 0), (4097, 0), (65537, 0)])
    def test_grid_drops_linspace_nodes_within_rounding_of_a_knot(self, size, near):
        # On grids 6^j + 1 of [0, 1] every knot k/6 is a linspace node in
        # exact arithmetic; np.linspace and the knots round apart, and at
        # `near` of the knots by less than nu but not to 0.  The knot stays,
        # its twin goes, and grids 2^j + 1 (no such twins) do not move.
        p = build_partition([0.0, 1 / 6, 1 / 3, 0.5, 2 / 3, 5 / 6, 1.0])
        lin = np.linspace(0.0, 1.0, size)
        grid = p.grid(size)
        assert np.all(np.isin(p.array(), grid))
        assert grid.size == np.union1d(lin, p.array()).size - near
        assert np.all(np.diff(grid) > p.node_rounding)
        dropped = np.setdiff1d(lin, grid)
        assert dropped.size == near
        assert all(np.min(np.abs(p.array() - x)) <= p.node_rounding for x in dropped)


def _offsets(p):
    """e_i = l_i(0), the offset of l_i(x) = a_i x + e_i."""
    return tuple(float(p.forward(i, 0.0)) for i in range(1, len(p.ratios) + 1))


class TestAffineMaps:
    def test_uniform(self):
        p = build_partition([0.0, 0.5, 1.0])
        assert p.ratios == (0.5, 0.5)
        assert _offsets(p) == (0.0, 0.5)

    def test_nonuniform(self):
        p = build_partition([0.0, 0.25, 1.0])
        assert p.ratios == (0.25, 0.75)
        assert _offsets(p) == (0.0, 0.25)

    def test_shifted(self):
        p = build_partition([-1.0, 0.0, 1.0])
        assert p.ratios == (0.5, 0.5)
        assert _offsets(p) == (-0.5, 0.5)

    def test_endpoints_map_to_knots_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            knots = np.sort(rng.uniform(-2.0, 3.0, size=5))
            knots += np.arange(5) * 1e-3  # enforce strict increase
            p = build_partition(knots)
            for i in range(1, p.n_intervals + 1):
                assert float(p.forward(i, p.lo)) == p.knots[i - 1]
                assert float(p.forward(i, p.hi)) == p.knots[i]
                ends = p.inverse_many(np.array([i, i]), np.array(p.interval(i)))
                assert ends.tolist() == [p.lo, p.hi]

    def test_coefficient_sum_and_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            knots = np.cumsum(rng.uniform(0.1, 1.0, size=6))
            p = build_partition(knots)
            assert all(0.0 < a < 1.0 for a in p.ratios)
            assert sum(p.ratios) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        p = build_partition([0.0, 0.3, 0.45, 0.9, 1.0])
        xs = rng.uniform(0.0, 1.0, size=200)
        for i in range(1, p.n_intervals + 1):
            back = p.inverse_many(np.full(xs.size, i), p.forward(i, xs))
            assert np.max(np.abs(back - xs)) < 1e-12
        # forward o inverse on points of I_i
        zs = rng.uniform(0.3, 0.45, size=100)
        fwd = p.forward(2, p.inverse_many(np.full(zs.size, 2), zs))
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
def _domain(draw):
    lo = draw(st.floats(-10.0, 10.0))
    return (lo, lo + draw(st.sampled_from([1e-3, 0.5, 1.0, 7.25, 20.0])))


@st.composite
def _spec_and_formula(draw, domain=None):
    """A FunctionSpec of any family (on ``domain``, or on a drawn one) and its
    textbook formula as a function of the points."""
    domain = domain or draw(_domain())
    lo, hi = domain
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


def _points(data, domain):
    """Drawn points of ``domain``, its ends and the zeros inside it."""
    lo, hi = domain
    points = data.draw(st.lists(st.floats(lo, hi), max_size=40))
    return points + [lo, hi] + [z for z in (0.0, -0.0) if lo <= z <= hi]


def _same_bytes(got, want, points):
    """``got`` gives the bytes of ``want`` on the points as an array, and on
    each of the last four as a Python float and as a 0-d array."""
    x = np.array(points, dtype=float)
    assert got(x).tobytes() == np.asarray(want(x), dtype=float).tobytes()
    for v in points[-4:]:
        for scalar in (v, np.asarray(v)):
            out = got(scalar)
            assert type(out) is float
            assert np.float64(out).tobytes() == np.asarray(
                want(np.asarray(scalar, dtype=float)), dtype=float).tobytes()


# the whole double range: values far outside a domain overflow to inf
_WIDE = st.one_of(_PARAM, st.floats(allow_nan=False, allow_infinity=False))


def _same_double(got, want) -> bool:
    """Equal bytes, or both NaN: IEEE leaves a NaN's sign and payload to the
    hardware and the operands' order, which Python and numpy may differ in."""
    got, want = np.float64(got), np.float64(want)
    return got.tobytes() == want.tobytes() or (np.isnan(got) and np.isnan(want))


class TestPointEvaluation:
    """A constant, linear-endpoint or polynomial spec at a float (np.float64
    included) is computed in Python floats, and gives the double of the
    array path."""

    @settings(max_examples=400, deadline=None)
    @given(domain=_domain(), data=st.data())
    def test_point_equals_the_array_path(self, domain, data):
        family = data.draw(st.sampled_from(["constant", "linear-endpoint", "polynomial"]))
        count = {"constant": 1, "linear-endpoint": 2}.get(family)
        params = data.draw(st.lists(_WIDE, min_size=count or 1, max_size=count or 8))
        spec = FunctionSpec(family, params, domain)
        lo, hi = domain
        points = data.draw(st.lists(_WIDE, max_size=10))
        points += [lo, hi, 0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
        for v in points:
            want = spec(np.array([v]))[0]
            for x in (v, np.float64(v)):
                got = spec(x)
                assert type(got) is float
                assert _same_double(got, want)

    def test_overflow_and_nan_reach_the_point_path(self):
        poly = FunctionSpec.polynomial([1.0, 1e300, 1e300], DOM)
        assert poly(1e200) == np.inf and poly(-1e10) == np.inf
        assert np.isnan(poly(np.inf))  # inf * 0 in Horner's first step
        chord = FunctionSpec.linear_endpoint(-1e308, 1e308, DOM)
        assert np.isnan(chord(0.0))  # (yr - yl) overflows, times x - lo = 0
        assert chord(np.float64(0.5)) == chord(np.array([0.5]))[0]

    @settings(max_examples=200, deadline=None)
    @given(domain=_domain(), seed=st.integers(0, 2 ** 32 - 1),
           degree=st.integers(0, 7))
    def test_matched_endpoint_polynomial_keeps_polyval_coefficients(self, domain, seed,
                                                                     degree):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, degree + 1)
        y_left, y_right = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        got = matched_endpoint_polynomial(coeffs, domain, y_left, y_right)
        want = ref_matched_endpoint_coeffs(coeffs, domain, y_left, y_right)
        assert np.array(got.params).tobytes() == np.array(want).tobytes()


class TestSpecHash:
    def test_hash_is_the_field_hash_kept(self):
        term = FunctionSpec.polynomial([0.0, 1.0], DOM)
        spec = FunctionSpec.weighted_sum((0.5, 0.5), (term, FunctionSpec.constant(-0.0, DOM)))
        want = hash((spec.family, spec.params, spec.domain, spec.abscissas, spec.terms))
        assert hash(spec) == want and hash(spec) == want
        assert hash(FunctionSpec.constant(0.0, DOM)) == hash(FunctionSpec.constant(-0.0, DOM))

    def test_a_copy_hashes_anew(self):
        spec = FunctionSpec.sinusoid(0.1, 3.0, 0.2, 0.3, DOM)
        hash(spec)
        copy = pickle.loads(pickle.dumps(spec))
        assert "_hash" not in vars(copy)
        assert copy == spec and hash(copy) == hash(spec)


_POLY = FunctionSpec.polynomial([0.0, 1.0], DOM)


class TestSpecErrors:
    """Every ConfigError of FunctionSpec's checks, with its message."""

    @pytest.mark.parametrize("make, message", [
        (lambda: FunctionSpec("cubic", (1.0,), DOM), "unknown function family 'cubic'"),
        (lambda: FunctionSpec("constant", ("a",), DOM),
         "constant spec parameters must be numbers (could not convert string to float: 'a')"),
        (lambda: FunctionSpec("polynomial", 1.0, DOM),
         "polynomial spec parameters must be numbers ('float' object is not iterable)"),
        (lambda: FunctionSpec.constant(float("nan"), DOM), "constant spec parameters must be finite"),
        (lambda: FunctionSpec.sinusoid(1.0, float("inf"), 0.0, 0.0, DOM),
         "sinusoid spec parameters must be finite"),
        (lambda: FunctionSpec("constant", (1.0, 2.0), DOM), "constant spec takes 1 parameters, got 2"),
        (lambda: FunctionSpec("linear-endpoint", (1.0,), DOM),
         "linear-endpoint spec takes 2 parameters, got 1"),
        (lambda: FunctionSpec("sinusoid", (1.0, 2.0, 3.0), DOM),
         "sinusoid spec takes 4 parameters, got 3"),
        (lambda: FunctionSpec.polynomial([], DOM), "polynomial spec needs at least one coefficient"),
        (lambda: FunctionSpec("sum", (), DOM), "sum spec needs at least one term"),
        (lambda: FunctionSpec.weighted_sum((1.0,), (_POLY, _POLY)), "sum spec has 1 weights for 2 terms"),
        (lambda: FunctionSpec.weighted_sum((1.0, 1.0), (_POLY, lambda x: x)),
         "sum spec terms must be FunctionSpecs"),
        (lambda: FunctionSpec.weighted_sum((1.0, 1.0), (_POLY, FunctionSpec.constant(1.0, (0.0, 2.0)))),
         "sum spec terms must share its domain"),
        (lambda: FunctionSpec("constant", (1.0,), DOM, terms=(_POLY,)),
         "terms only apply to the sum family"),
        (lambda: FunctionSpec.constant(1.0, (1.0, 1.0)), "function domain must satisfy lo < hi"),
        (lambda: FunctionSpec.constant(1.0, (2.0, 1.0)), "function domain must satisfy lo < hi"),
        (lambda: FunctionSpec.sampled([1.0], DOM), "sampled spec needs at least 2 sample values"),
        (lambda: FunctionSpec.sampled([0.0, 1.0], DOM, abscissas=[0.0, float("inf")]),
         "sampled spec abscissas must be finite"),
        (lambda: FunctionSpec.sampled([0.0, 1.0], DOM, abscissas=[0.0, 0.5, 1.0]),
         "sampled spec abscissas/values length mismatch"),
        (lambda: FunctionSpec.sampled([0.0, 1.0, 2.0], DOM, abscissas=[0.0, 0.0, 1.0]),
         "sampled spec abscissas must be strictly increasing"),
        (lambda: FunctionSpec.sampled([0.0, 1.0], DOM, abscissas=[0.0, 0.5]),
         "sampled spec abscissas must span the domain"),
        (lambda: FunctionSpec("constant", (1.0,), DOM, abscissas=(0.0, 1.0)),
         "abscissas only apply to the sampled family"),
    ], ids=["family", "non-numeric", "not-iterable", "nan", "inf", "constant-count",
            "linear-count", "sinusoid-count", "empty-polynomial", "sum-no-terms",
            "sum-count", "sum-non-spec", "sum-domain", "terms-not-sum", "lo-equals-hi",
            "lo-above-hi", "sampled-one-value", "abscissas-finite", "abscissas-length",
            "abscissas-increasing", "abscissas-span", "abscissas-not-sampled"])
    def test_message(self, make, message):
        with pytest.raises(ConfigError) as exc:
            make()
        assert str(exc.value) == message


class TestWeightedSum:
    """The sum family: w_1 t_1 + w_2 t_2 + ... over specs on one domain."""

    @settings(max_examples=150, deadline=None)
    @given(domain=_domain(), data=st.data())
    def test_unit_weights_give_the_shifted_bytes(self, domain, data):
        fn, _ = data.draw(_spec_and_formula(domain))
        shift, _ = data.draw(_spec_and_formula(domain))
        _same_bytes(FunctionSpec.weighted_sum((1.0, 1.0), (fn, shift)),
                    ref_shifted(fn, shift), _points(data, domain))

    @settings(max_examples=150, deadline=None)
    @given(domain=_domain(), lam=st.floats(0.0, 1.0), data=st.data())
    def test_blend_gives_the_hand_chord_bytes(self, domain, lam, data):
        fn, _ = data.draw(_spec_and_formula(domain))
        lo, hi = domain
        partition = build_partition([lo, lo + (hi - lo) / 3.0, hi])
        blend = BaseOperatorSpec(("blend",), (lam,)).apply(1, fn, partition)
        assert blend.family == "sum"
        _same_bytes(blend, ref_blend(fn, lam, domain), _points(data, domain))

    def test_weights_apply_in_order(self):
        x = np.linspace(0.0, 1.0, 5)
        terms = (FunctionSpec.polynomial([0.0, 1.0], DOM), FunctionSpec.constant(2.0, DOM))
        assert np.array_equal(FunctionSpec.weighted_sum((3.0, -0.5), terms)(x), 3.0 * x - 1.0)

    @pytest.mark.parametrize("make", [
        lambda a: FunctionSpec.weighted_sum((), ()),
        lambda a: FunctionSpec("sum", (), DOM),
        lambda a: FunctionSpec.weighted_sum((1.0,), (a, a)),
        lambda a: FunctionSpec.weighted_sum((1.0, 1.0, 1.0), (a, a)),
        lambda a: FunctionSpec.weighted_sum((1.0,), (lambda x: x,)),
        lambda a: FunctionSpec.weighted_sum((1.0, 1.0), (a, lambda x: x)),
        lambda a: FunctionSpec.weighted_sum((1.0, 1.0), (a, FunctionSpec.constant(1.0, (0.0, 2.0)))),
        lambda a: FunctionSpec("constant", (1.0,), DOM, terms=(a,)),
        lambda a: FunctionSpec.weighted_sum((float("nan"),), (a,)),
    ], ids=["no-terms", "no-terms-raw", "fewer-weights", "more-weights", "callable-first",
            "callable-term", "other-domain", "terms-on-constant", "nan-weight"])
    def test_rejected(self, make):
        with pytest.raises(ConfigError):
            make(FunctionSpec.constant(0.5, DOM))

    def test_blend_of_a_bare_callable_is_rejected(self):
        op = BaseOperatorSpec(("blend",), (0.5,))
        with pytest.raises(ConfigError):
            op.apply(1, lambda x: x, build_partition([0.0, 0.5, 1.0]))

    def test_equal_sums_form_one_group(self):
        def make(weight):
            return FunctionSpec.weighted_sum(
                (weight, 1.0), (FunctionSpec.polynomial([0.0, 1.0], DOM),
                                FunctionSpec.linear_endpoint(0.0, 1.0, DOM)))

        first, second, other = make(0.25), make(0.25), make(0.5)
        assert first is not second
        assert group_specs([first, other, second]) == [(first, [0, 2]), (other, [1])]

    def test_signed_zero_twins_group_by_repr(self):
        # equal specs whose zeros differ in sign are evaluated apart, and
        # each sign's specs together
        plus, minus, minus_too = (FunctionSpec.constant(z, DOM) for z in (0.0, -0.0, -0.0))
        groups = group_specs([plus, minus, minus_too, plus])
        assert [(repr(spec), ks) for spec, ks in groups] == [(repr(plus), [0, 3]),
                                                            (repr(minus), [1, 2])]


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

    def test_degenerate_base_reported(self, germ_x):
        cfg = _cfg(0.4, germ_x)
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

    def test_alpha_sup_over_prefix(self, base_x2, germ_x):
        a1 = FunctionSpec.constant(0.3, DOM)
        a2 = FunctionSpec.constant(-0.45, DOM)
        seq = LevelSequence((Level((a1, a1), base_x2), Level((a2, a2), base_x2)))
        cfg = ProblemConfig(build_partition([0.0, 0.5, 1.0]), germ_x, seq, grid_size=100)
        assert cfg.alpha_sup == pytest.approx(0.45)

    def test_nan_scaling_propagates_and_fails_validation(self, base_x2, germ_x):
        a = FunctionSpec.constant(0.3, DOM)
        nan_scaling = nan_where(FunctionSpec.constant(0.0, DOM), DOM, (2.0, 2.0))
        seq = LevelSequence((Level((a, nan_scaling), base_x2),))
        cfg = ProblemConfig(build_partition([0.0, 0.5, 1.0]), germ_x, seq, grid_size=9)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(cfg.alpha_sup)
            rep = validate_level_sequence(cfg)
        assert rep.problems[0][0] is ScalingNotContractive


    @pytest.mark.parametrize("abscissas, marks, error", [
        ((0.0, 0.4, 0.4 + 1e-6, 0.6 - 1e-6, 0.6, 1.0), (0, 0, 2, 2, 0, 0), ConfigError),
        ((0.0, 1.0 - 1e-6, 1.0), (0, 0, 2), EndpointMismatch),
    ], ids=["interior", "right-end"])
    def test_nan_base_fails_validation(self, germ_x, base_x2, abscissas, marks, error):
        # Knots 0, 1/2, 1 on a 65-point grid; b = x^2 except for NaN at the
        # grid points inside (0.4, 0.6), or at x = 1.
        nan_base = nan_where(base_x2, abscissas, marks)
        a = FunctionSpec.constant(0.4, DOM)
        cfg = ProblemConfig(build_partition([0.0, 0.5, 1.0]), germ_x,
                            LevelSequence((Level((a, a), nan_base),)), grid_size=65)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = validate_level_sequence(cfg)
            assert not rep.ok
            assert error in [cls for cls, _ in rep.problems]
            assert np.isnan(cfg.base_gap_sup) and np.isnan(cfg.base_sup)
            with pytest.raises(ConfigError):  # the first problem: non-finite base values
                trajectory_interpolant(cfg)


class TestOneFunctionType:
    """A config holds FunctionSpecs on the partition's domain (compared by
    repr, so a signed zero counts), and nothing else; test_ifs checks the
    perturbations."""

    @staticmethod
    def _config(germ, scaling, base, other=None):
        a = FunctionSpec.constant(0.4, DOM)
        levels = (Level((a, scaling), base),) + ((other,) if other else ())
        return ProblemConfig(build_partition([0.0, 0.5, 1.0]), germ, LevelSequence(levels))

    @pytest.mark.parametrize("role", ["germ", "scaling", "base"])
    def test_bare_callable_is_rejected(self, germ_x, base_x2, role):
        specs = {"germ": germ_x, "scaling": FunctionSpec.constant(0.3, DOM), "base": base_x2}
        specs[role] = lambda x: np.asarray(x, dtype=float)
        with pytest.raises(ConfigError, match="FunctionSpecs"):
            self._config(**specs)

    def test_bare_callable_germ_is_rejected_by_with_germ(self, running_cfg):
        with pytest.raises(ConfigError, match="FunctionSpecs"):
            running_cfg.with_germ(lambda x: x)

    @pytest.mark.parametrize("domain", [(0.0, 2.0), (-0.0, 1.0)], ids=["wider", "signed-zero"])
    @pytest.mark.parametrize("role, checker", [
        ("germ", "the germ"), ("scaling", "a level's"), ("base", "a level's"),
        ("level", "the germ"), ("later-level", "the levels'"),
    ])
    def test_spec_on_another_domain_is_rejected(self, germ_x, base_x2, domain, role, checker):
        # a level checks its own specs, a sequence that its levels share one
        # domain, and the config that the germ and the levels lie on its own
        a, x2 = FunctionSpec.constant(0.3, domain), FunctionSpec.polynomial([0.0, 0.0, 1.0], domain)
        with pytest.raises(ConfigError, match=f"{checker}.* must lie on the domain"):
            if role == "germ":
                self._config(a, FunctionSpec.constant(0.3, DOM), base_x2)
            elif role == "scaling":
                self._config(germ_x, a, base_x2)
            elif role == "base":
                self._config(germ_x, FunctionSpec.constant(0.3, DOM), x2)
            elif role == "level":
                ProblemConfig(build_partition([0.0, 0.5, 1.0]), germ_x,
                              LevelSequence((Level((a, a), x2),)))
            else:
                self._config(germ_x, FunctionSpec.constant(0.3, DOM), base_x2,
                             Level((a, a), x2))

    @pytest.mark.parametrize("alpha, problems", [(0.9, [ConfigError]),
                                                 (1.5, [ScalingNotContractive])])
    def test_overflowing_uniform_bound_is_reported(self, alpha, problems):
        # every value is finite, but R = ||f|| + ||alpha||/(1 - ||alpha||)
        # sup_r ||f - b_r|| overflows; R is only tested where ||alpha|| < 1
        germ = FunctionSpec.sinusoid(1.5e308, 6.0, 0.0, 0.0, DOM)
        base = FunctionSpec.linear_endpoint(0.0, germ(1.0), DOM)
        a = FunctionSpec.constant(alpha, DOM)
        cfg = ProblemConfig(build_partition([0.0, 0.5, 1.0]), germ,
                            LevelSequence((Level((a, a), base),)), grid_size=65)
        assert [cls for cls, _ in cfg.validation().problems] == problems


class TestProblemConfig:
    def test_each_distinct_base_reduced_once(self, monkeypatch, germ_x, base_x2):
        # both levels share one base array: its gap |f - b| and its sup are
        # one reduction of the 65 grid points each
        reduced = []
        sup = core.sup_abs

        def counted(arrays):
            arrays = list(arrays)
            reduced.extend(np.size(a) for a in arrays)
            return sup(arrays)

        monkeypatch.setattr(core, "sup_abs", counted)
        a, b = FunctionSpec.constant(0.4, DOM), FunctionSpec.constant(0.3, DOM)
        cfg = ProblemConfig(build_partition([0.0, 0.5, 1.0]), germ_x, LevelSequence(
            (Level((a, a), base_x2), Level((b, b), base_x2))), grid_size=65)
        assert cfg.base_gaps == (0.25, 0.25)
        assert cfg.base_sup == 1.0
        assert reduced == [65, 65]

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

    def test_depth_policy_holds_one_rule(self):
        # a fixed depth in 1..DEPTH_CAP, or an eps (DEFAULT_EPS when neither is given)
        with pytest.raises(ConfigError, match="not both"):
            DepthPolicy(depth=3, eps=1e-3)
        with pytest.raises(ConfigError):
            DepthPolicy(depth=DEPTH_CAP + 1)
        assert DepthPolicy(depth=DEPTH_CAP).eps is None
        assert DepthPolicy().eps == DEFAULT_EPS and DepthPolicy().depth is None

    def test_base_distance_propagates_nan(self, germ_x, base_x2):
        # the second of two levels has a base that is NaN right of 0.5
        nan_base = nan_where(base_x2, (0.0, 0.5, 0.5 + 1e-6, 1.0), (0, 0, 2, 2))
        a = FunctionSpec.constant(0.4, DOM)
        p = build_partition([0.0, 0.5, 1.0])
        clean = ProblemConfig(p, germ_x, LevelSequence((Level((a, a), base_x2),)), grid_size=65)
        dirty = clean.with_bases((base_x2, nan_base))
        assert clean.base_distance(clean.with_bases((base_x2, germ_x))) > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
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
    @pytest.mark.parametrize("xs", [[0.0, np.nan, 1.0], [np.nan, np.nan], [0.0, 1.0, np.inf],
                                    [-np.inf, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.5]])
    def test_rejects_grids_that_are_not_finite_and_increasing(self, xs):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            SampledFunction(np.array(xs), np.zeros(len(xs)))

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

    def test_two_point_call_on_a_big_grid_copies_nothing(self):
        xs = np.linspace(0.0, 1.0, 2 ** 20)
        f = SampledFunction(xs, np.sin(xs))
        x = np.array([0.25, 0.75])
        f(x)
        tracemalloc.start()
        try:
            f(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40),
           domain=st.sampled_from([DOM, (-3.0, 7.5), (-1e6, -2.0)]))
    def test_same_bytes_as_np_interp(self, seed, n, domain):
        # at the nodes, between them, at both ends, outside the grid
        # (np.interp's end values), at +-inf and at NaN
        rng = np.random.default_rng(seed)
        lo, hi = domain
        xs = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, n - 2)]))
        ys = rng.normal(size=xs.size) * rng.choice([1e-3, 1.0, 1e6])
        ys[rng.random(xs.size) < 0.2] = rng.choice([0.0, -0.0])
        f = SampledFunction(xs, ys)
        width = hi - lo
        x = np.concatenate([xs, rng.uniform(lo, hi, 50), [lo - width, hi + width, -np.inf,
                                                          np.inf, np.nan, -0.0, 0.0]])
        rng.shuffle(x)
        want = np.interp(x, xs, ys)
        assert f(x).tobytes() == want.tobytes()
        assert f(x.reshape(-1, 1)).shape == (x.size, 1)
        for v in x[:5]:
            got = f(v)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.interp(v, xs, ys).tobytes()
