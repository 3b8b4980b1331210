import numpy as np
import pytest

from alphafractal import (
    FunctionSpec,
    PerturbationLevel,
    PerturbationSpec,
    apply_F,
    backward_trajectory,
    build_partition,
    sensitivity_bound,
    series_eval,
)
from alphafractal.engine import _level_terms, _rb_step, _stencil
from alphafractal.errors import ConfigError, EndpointMismatch, OutOfDomain, PerturbationTooLarge
from alphafractal.ifs import locate_many

from helpers import nan_where
from reference import ref_coefficients, ref_locate

# abscissas of nan_where marks (0, 0, 2, 2): NaN at the grid points right of 0.5
RIGHT_HALF = (0.0, 0.5, 0.5 + 1e-6, 1.0)

DOM = (0.0, 1.0)


def _address(xs, p, depth):
    """Backward address of each point through locate_many and inverse_many:
    z_0 = x, i_j = interval of z_{j-1}, z_j = Q_{i_j}(z_{j-1}).  Returns the
    indices, shape (depth, n), and the points z_0 .. z_depth, (depth + 1, n)."""
    z = np.atleast_1d(np.asarray(xs, dtype=float))
    indices, points = [], [z]
    for _ in range(depth):
        idx = locate_many(z, p)
        z = p.inverse_many(idx, z)
        indices.append(idx)
        points.append(z)
    return np.array(indices), np.array(points)


class TestLocate:
    def test_interior_knot_goes_right(self):
        p = build_partition([0.0, 0.5, 1.0])
        assert locate_many(np.array([0.5]), p).tolist() == [2]

    def test_right_endpoint_closed(self):
        p = build_partition([0.0, 0.5, 1.0])
        assert locate_many(np.array([1.0]), p).tolist() == [2]

    def test_containment(self):
        p = build_partition([0.0, 0.25, 1.0])
        assert locate_many(np.array([0.1]), p).tolist() == [1]
        knots = [0.0, 0.13, 0.3, 0.52, 0.6, 0.81, 1.0]
        xs = np.concatenate([knots, np.random.default_rng(2).uniform(0, 1, 500)])
        got = locate_many(xs, build_partition(knots))
        assert got.tolist() == [ref_locate(float(x), knots) for x in xs]

    def test_out_of_domain(self, running_cfg):
        # locate_many trusts its input; the public evaluator checks the domain
        for x in (-0.1, 1.1, float("nan")):
            with pytest.raises(OutOfDomain):
                series_eval(x, 3, running_cfg)


class TestAddress:
    def test_hand_traced_quarter(self):
        p = build_partition([0.0, 0.5, 1.0])
        idx, z = _address(0.25, p, 2)
        assert idx[:, 0].tolist() == [1, 2]
        assert z[:, 0].tolist() == [0.25, 0.5, 0.0]

    def test_left_endpoint_fixed(self):
        p = build_partition([0.0, 0.3, 0.7, 1.0])
        idx, z = _address(0.0, p, 4)
        assert idx[:, 0].tolist() == [1, 1, 1, 1]
        assert z[:, 0].tolist() == [0.0] * 5

    def test_hand_traced_three_quarters(self):
        p = build_partition([0.0, 0.5, 1.0])
        idx, z = _address(0.75, p, 3)
        assert idx[:, 0].tolist() == [2, 2, 1]
        assert z[:, 0].tolist() == [0.75, 0.5, 0.0, 0.0]

    def test_round_trip_recompose(self):
        rng = np.random.default_rng(11)
        knots = [0.0, 0.2, 0.55, 0.8, 1.0]
        p = build_partition(knots)
        xs = rng.uniform(0.0, 1.0, size=50)
        idx, z = _address(xs, p, 6)
        # the raw inverse (z - e_i) / a_i of the closed-form coefficients
        a, e = ref_coefficients(knots)
        for j in range(6):
            raw = [(zz - e[i - 1]) / a[i - 1] for i, zz in zip(idx[j], z[j])]
            assert np.max(np.abs(z[j + 1] - raw)) < 1e-12
        # l_{i_1}(l_{i_2}(... l_{i_6}(z_6))) returns to x
        back = z[-1]
        for j in reversed(range(6)):
            back = np.array([p.forward(int(i), zz) for i, zz in zip(idx[j], back)])
        assert np.max(np.abs(back - xs)) < 1e-12

    def test_knots_reach_the_ends_within_n_steps(self):
        p = build_partition([0.0, 0.2, 0.55, 0.8, 1.0])
        n = p.n_intervals
        _, z = _address(p.knots, p, n + 3)
        assert set(z[n].tolist()) <= {p.lo, p.hi}
        # and the ends are fixed from there on
        assert np.array_equal(z[n:], np.broadcast_to(z[n], z[n:].shape))


@pytest.fixture
def cfg(running_cfg):
    return running_cfg


class TestApplyF:
    def test_zero_scaling_gives_germ_composition(self, make_cfg, germ_x, base_x2):
        zero = FunctionSpec.constant(0.0, DOM)
        c = make_cfg([0.0, 0.5, 1.0], germ_x, [[zero, zero]], [base_x2])
        for x, y in [(0.0, 3.0), (0.5, -1.0), (1.0, 0.2)]:
            assert apply_F(1, 1, x, y, c) == float(germ_x(c.partition.forward(1, x)))

    def test_y_equals_base_kills_scaling_term(self, cfg):
        for x in (0.0, 0.3, 0.9):
            y = float(cfg.levels.base(1)(x))
            got = apply_F(2, 1, x, y, cfg)
            assert got == pytest.approx(float(cfg.germ(cfg.partition.forward(2, x))), abs=1e-15)

    def test_hand_substitution(self, cfg):
        # alpha*y + f(l_1(x)) - alpha*b(x) at x = 0.5, y = 0.5
        assert apply_F(1, 1, 0.5, 0.5, cfg) == pytest.approx(0.35, abs=1e-15)

    def test_join_conditions(self, cfg):
        f = cfg.germ
        y0, yN = float(f(0.0)), float(f(1.0))
        for i in (1, 2):
            left = apply_F(i, 1, 0.0, y0, cfg)
            right = apply_F(i, 1, 1.0, yN, cfg)
            assert left == pytest.approx(float(f(cfg.partition.knots[i - 1])), abs=1e-9)
            assert right == pytest.approx(float(f(cfg.partition.knots[i])), abs=1e-9)

    def test_out_of_domain(self, cfg):
        for x in (1.5, float("nan"), [0.5, float("nan")]):
            with pytest.raises(OutOfDomain):
                apply_F(1, 1, x, 0.0, cfg)


def _step(values, r, cfg, pert=None):
    """One RB step of level r on grid samples, perturbed or not."""
    return _rb_step(values, _stencil(cfg), cfg.germ_values, _level_terms(cfg, r, pert))


def _pert(t, s, theta_val=1.0, n=2, phi_spec=None):
    theta = (FunctionSpec.constant(theta_val, DOM),) * n
    phi = (phi_spec if phi_spec is not None else FunctionSpec.constant(0.0, DOM),) * n
    return PerturbationSpec((PerturbationLevel(
        t=(t,) * n, s=(s,) * n, theta=theta, phi=phi),))


class TestApplyT:
    """The perturbed maps T_{i,r}, applied on the whole grid by the RB step."""

    def _values(self, cfg):
        return cfg.germ_values + 0.1 * np.random.default_rng(17).normal(size=cfg.grid.size)

    def test_zero_perturbation_matches_integrand(self, cfg):
        pert = PerturbationSpec.zeros(2, DOM)
        values = self._values(cfg)
        for r in (1, 2):
            assert np.array_equal(_step(values, r, cfg, pert), _step(values, r, cfg))

    def test_zero_perturbation_exact_on_full_grid(self, cfg):
        pert = PerturbationSpec.zeros(2, DOM)
        got = backward_trajectory(None, 12, cfg, pert).values.ys
        want = backward_trajectory(None, 12, cfg).values.ys
        assert np.array_equal(got, want)

    def test_additive_phi_term(self, cfg):
        phi = FunctionSpec.polynomial([0.0, 1.0, -1.0], DOM)  # x(1-x)
        pert = _pert(0.0, 0.5, phi_spec=phi)
        values = cfg.germ_values
        added = _step(values, 1, cfg, pert) - _step(values, 1, cfg)
        a, e = ref_coefficients(list(cfg.partition.knots))
        for k in range(0, cfg.grid.size, 37):
            x = float(cfg.grid[k])
            i = ref_locate(x, cfg.partition.knots)
            q = (x - e[i - 1]) / a[i - 1]
            assert added[k] == pytest.approx(0.5 * q * (1 - q), abs=1e-15)

    def test_scaling_shift_equivalence(self, cfg, make_cfg, germ_x, base_x2):
        # alpha=0.4 with t=0.1, theta=1 is the same map as alpha=0.5 unperturbed
        shifted = make_cfg([0.0, 0.5, 1.0], germ_x,
                           [[FunctionSpec.constant(0.5, DOM)] * 2], [base_x2])
        pert = _pert(0.1, 0.0)
        values = self._values(cfg)
        got = _step(values, 1, cfg, pert)
        want = _step(values, 1, shifted)
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_too_large_perturbation(self, cfg):
        pert = _pert(0.7, 0.0)  # alpha + t*theta = 1.1
        with pytest.raises(PerturbationTooLarge):
            backward_trajectory(None, 1, cfg, pert)


class TestPerturbationSpec:
    def test_phi_must_vanish_at_ends(self):
        bad = FunctionSpec.polynomial([0.5, 1.0], DOM)
        with pytest.raises(EndpointMismatch):
            _pert(0.0, 0.1, phi_spec=bad)

    def test_bare_callable_or_foreign_domain_phi_is_rejected(self, running_cfg):
        # a callable has no domain to check phi's ends on, and is rejected
        # as theta too; a spec has one, and it must be the config's, so phi
        # vanishes at the config's ends: x (2 - x) vanishes at 0 and 2, not
        # at 1, where it would leave f(1) = 1 for 1.5
        zero = FunctionSpec.constant(0.0, DOM)
        bare = lambda x: 0.3 + 0 * x  # noqa: E731
        for theta, phi in ((zero, bare), (bare, zero)):
            with pytest.raises(ConfigError, match="FunctionSpecs"):
                PerturbationLevel(t=(0.1, 0.1), s=(0.5, 0.5), theta=(theta, theta),
                                  phi=(phi, phi))
        wide = (0.0, 2.0)
        phi = FunctionSpec.polynomial([0.0, 2.0, -1.0], wide)
        with pytest.raises(ConfigError, match="domain"):  # theta and phi on two domains
            PerturbationLevel(t=(0.1, 0.1), s=(0.5, 0.5), theta=(zero, zero), phi=(phi, phi))
        zero = FunctionSpec.constant(0.0, wide)
        pert = PerturbationSpec((PerturbationLevel(
            t=(0.1, 0.1), s=(0.5, 0.5), theta=(zero, zero), phi=(phi, phi)),))
        with pytest.raises(ConfigError, match="domain"):
            pert.check_contractive(running_cfg)
        with pytest.raises(ConfigError):
            backward_trajectory(None, 20, running_cfg, pert)
        with pytest.raises(ConfigError):
            sensitivity_bound(running_cfg, pert)

    def test_parameter_range(self):
        with pytest.raises(PerturbationTooLarge):
            _pert(1.0, 0.0)
        with pytest.raises(PerturbationTooLarge):
            _pert(0.0, -1.2)
        with pytest.raises(PerturbationTooLarge):
            _pert(float("nan"), 0.0)
        with pytest.raises(PerturbationTooLarge):
            _pert(0.0, float("nan"))

    def test_norm_helpers(self, running_cfg):
        phi = FunctionSpec.polynomial([0.0, 1.0, -1.0], DOM)
        pert = _pert(0.25, -0.5, theta_val=0.8, phi_spec=phi)
        assert pert.t_sup() == 0.25
        assert pert.s_sup() == 0.5
        rates = pert.rates(running_cfg)
        assert rates == (pytest.approx(0.4 + 0.25 * 0.8),)
        assert pert.sups(running_cfg, "theta") == (pytest.approx(0.8),)
        assert pert.sups(running_cfg, "phi") == (pytest.approx(0.25, abs=1e-6),)
        # kept per config scalings and grid: a config that shares them reads
        # the same scalars, one with other scalings gets its own
        assert pert.rates(running_cfg.with_germ(phi)) is rates
        half = FunctionSpec.constant(0.5, DOM)
        other = running_cfg.with_scalings([(half, half)])
        assert pert.rates(other) == (pytest.approx(0.5 + 0.25 * 0.8),)
        # a NaN in the second interval only must not be dropped by the sup;
        # the constructor rejects a NaN t or s, so plant them past it
        lv = pert.levels[0]
        object.__setattr__(lv, "t", (0.25, float("nan")))
        object.__setattr__(lv, "s", (-0.5, float("nan")))
        assert np.isnan(pert.t_sup())
        assert np.isnan(pert.s_sup())
        nan_fn = nan_where(FunctionSpec.constant(0.0, DOM), DOM, (2.0, 2.0))
        with np.errstate(over="ignore", invalid="ignore"):
            nan_pert = PerturbationSpec((PerturbationLevel(
                t=(0.25, 0.25), s=(0.5, 0.5), theta=(lv.theta[0], nan_fn),
                phi=(lv.phi[0], nan_fn)),))
            rates = nan_pert.rates(running_cfg)
        assert np.isnan(nan_pert.sups(running_cfg, "theta")[0])
        assert np.isnan(nan_pert.sups(running_cfg, "phi")[0])
        assert np.isnan(rates[0])

    def test_sups_read_what_the_rates_kept(self, running_cfg, monkeypatch):
        # once the rates are known, reading theta's and phi's sups (and the
        # contractivity check) evaluates no spec: the rates' pass kept them
        theta = FunctionSpec.sinusoid(0.3, 5.0, 0.1, 0.2, DOM)
        phi = FunctionSpec.polynomial([0.0, 1.0, -1.0], DOM)
        pert = PerturbationSpec((PerturbationLevel(
            t=(0.25, 0.5), s=(0.5, -0.5), theta=(theta, theta), phi=(phi, phi)),))
        rates = pert.rates(running_cfg)
        calls = []
        call = FunctionSpec.__call__
        monkeypatch.setattr(FunctionSpec, "__call__",
                            lambda spec, x: calls.append(spec) or call(spec, x))
        theta_sup, phi_sup = pert.sups(running_cfg, "theta"), pert.sups(running_cfg, "phi")
        pert.check_contractive(running_cfg)
        assert pert.rates(running_cfg) is rates
        assert calls == []
        grid = running_cfg.grid
        assert theta_sup == (np.max(np.abs(call(theta, grid))),)
        assert phi_sup == (np.max(np.abs(call(phi, grid))),)

    def test_nan_theta_is_not_contractive(self, running_cfg):
        # theta is 0.2 left of 0.5 and NaN right of it; with t = 0.5 the
        # estimate of ||alpha + t theta|| is NaN, which is not below 1
        theta = nan_where(FunctionSpec.constant(0.2, DOM), RIGHT_HALF, (0, 0, 2, 2))
        zero = FunctionSpec.constant(0.0, DOM)
        pert = PerturbationSpec((PerturbationLevel(
            t=(0.5, 0.5), s=(0.0, 0.0), theta=(theta, theta), phi=(zero, zero)),))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PerturbationTooLarge):
                pert.check_contractive(running_cfg)
            with pytest.raises(PerturbationTooLarge):
                backward_trajectory(None, 3, running_cfg, pert)

    def test_nan_phi_is_rejected(self, running_cfg):
        # phi is NaN right of 0.5; alpha + t theta is fine, so only the phi
        # check stands between it and a non-finite trajectory
        zero = FunctionSpec.constant(0.0, DOM)
        phi = nan_where(zero, RIGHT_HALF, (0, 0, 2, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            pert = PerturbationSpec((PerturbationLevel(
                t=(0.1, 0.1), s=(0.1, 0.1), theta=(zero, zero), phi=(phi, phi)),))
            with pytest.raises(PerturbationTooLarge, match="level 1: phi"):
                pert.check_contractive(running_cfg)
            with pytest.raises(PerturbationTooLarge, match="phi"):
                backward_trajectory(None, 3, running_cfg, pert)
            with pytest.raises(PerturbationTooLarge, match="phi"):
                sensitivity_bound(running_cfg, pert)
