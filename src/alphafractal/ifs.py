"""IFS map data: interval location, the per-interval maps
F_{i,r}(x, y) = alpha_{i,r}(x) y + f(l_i(x)) - alpha_{i,r}(x) b_r(x),
and the perturbation data t, s, theta, phi of the perturbed maps T_{i,r},
which ``engine`` applies on the grid.

Interior knots belong to the right interval.  The join conditions make both
conventions agree on interpolant values at knots; fixing one keeps the
address chains of the series evaluator deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ENDPOINT_TOL,
    FunctionSpec,
    Partition,
    ProblemConfig,
    evaluate,
    group_specs,
    in_domain,
    repeat_last,
    require_specs,
    run_blocks,
    sup_abs,
)
from .errors import ConfigError, EndpointMismatch, PerturbationTooLarge


def locate_many(x: np.ndarray, p: Partition) -> np.ndarray:
    """1-based index i with x in [x_{i-1}, x_i) for each point; x_N belongs to
    interval N (inputs assumed inside the domain)."""
    x, knots = np.asarray(x, dtype=float), p.array()
    out = np.empty(x.shape, dtype=np.intp)
    run_blocks(lambda o, xs: np.minimum(np.searchsorted(knots, xs, side="right"),
                                        p.n_intervals, out=o), out, x)
    return out


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationLevel:
    """Per-interval perturbation data for one level: scalars t_i, s_i and
    specs theta_i, phi_i, all on one domain."""

    t: tuple[float, ...]
    s: tuple[float, ...]
    theta: tuple
    phi: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(float(v) for v in self.t))
        object.__setattr__(self, "s", tuple(float(v) for v in self.s))
        object.__setattr__(self, "theta", tuple(self.theta))
        object.__setattr__(self, "phi", tuple(self.phi))
        n = len(self.t)
        if not (len(self.s) == len(self.theta) == len(self.phi) == n):
            raise ConfigError("perturbation level needs t, s, theta, phi per interval")
        if not all(abs(v) < 1.0 for v in self.t + self.s):
            raise PerturbationTooLarge("perturbation parameters must satisfy |t|, |s| < 1")
        require_specs(self.theta + self.phi, "a perturbation level's theta and phi")


@dataclass(frozen=True)
class PerturbationSpec:
    """Prefix of perturbation levels; repeat-last beyond, like LevelSequence.

    Every level lies on one domain, and each phi vanishes at both ends of it
    (the perturbed maps must keep the interpolation data); ``grid_sups``
    checks once per config that the domain is the config's.
    """

    levels: tuple[PerturbationLevel, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels:
            raise ConfigError("perturbation needs at least one level")
        n = len(levels[0].t)
        if any(len(lv.t) != n for lv in levels):
            raise ConfigError("all perturbation levels must cover the same intervals")
        object.__setattr__(self, "levels", levels)
        require_specs([lv.phi[0] for lv in levels], "the perturbation levels' functions")
        for r, lv in enumerate(levels, start=1):
            for i, phi in enumerate(lv.phi, start=1):
                v0, v1 = phi.endpoint_values()
                if abs(v0) > ENDPOINT_TOL or abs(v1) > ENDPOINT_TOL:
                    raise EndpointMismatch(f"phi_{i},{r} must vanish at both endpoints "
                                           f"(values {v0:.3g}, {v1:.3g})")

    @classmethod
    def zeros(cls, n_intervals: int, domain) -> "PerturbationSpec":
        """The trivial perturbation t = s = 0 (theta, phi identically zero)."""
        zero = FunctionSpec.constant(0.0, domain)
        lv = PerturbationLevel(
            t=(0.0,) * n_intervals,
            s=(0.0,) * n_intervals,
            theta=(zero,) * n_intervals,
            phi=(zero,) * n_intervals,
        )
        return cls((lv,))

    @property
    def prefix_len(self) -> int:
        return len(self.levels)

    @property
    def n_intervals(self) -> int:
        return len(self.levels[0].t)

    def level(self, r: int) -> PerturbationLevel:
        return repeat_last(self.levels, r)

    def t_sup(self) -> float:
        return sup_abs(lv.t for lv in self.levels)

    def s_sup(self) -> float:
        return sup_abs(lv.s for lv in self.levels)

    def grid_sups(self, cfg: ProblemConfig) -> GridSups:
        """This perturbation's scalars on the config's grid, computed once per
        config scalings and grid (``cfg.scaling_cache``), after checking that
        it lies on the config's domain.  Only the scalars are kept, never the
        grid values."""
        held = self.__dict__.get("_grid_sups")
        if held is None or held[0] is not cfg.scaling_cache:
            require_specs(self.levels[0].phi, "the perturbation's functions", cfg.domain)
            held = (cfg.scaling_cache, self._measure(cfg))
            object.__setattr__(self, "_grid_sups", held)
        return held[1]

    def _measure(self, cfg: ProblemConfig) -> GridSups:
        """One pass over the grid that evaluates each distinct alpha and
        theta of a level once, for the rates.  It records their sups on the
        specs (``FunctionSpec.grid_sup``), which settles ``cfg.alpha_sup``
        when that is not yet known; phi's sups are read from there."""
        p, size, grid = cfg.partition, cfg.grid_size, cfg.grid
        thetas, rates = [], []
        for r in range(1, max(self.prefix_len, cfg.levels.prefix_len) + 1):
            lv = self.level(r)
            level = []
            for alpha, ii in group_specs(cfg.levels.level(r).scalings):
                a = evaluate(alpha, grid)
                alpha.grid_sup(p, size, a)
                for theta, jj in group_specs([lv.theta[i] for i in ii]):
                    th = evaluate(theta, grid)
                    thetas.append(theta.grid_sup(p, size, th))
                    level += [sup_abs([a + lv.t[ii[j]] * th]) for j in jj]
            rates.append(sup_abs([level]))
        phis = [sup_abs([[phi.grid_sup(p, size) for phi, _ in group_specs(lv.phi)]])
                for lv in self.levels]
        return GridSups(theta_sup=sup_abs([thetas]), phi_sup=sup_abs([phis]),
                        rates=tuple(rates),
                        phi_finite=tuple(bool(np.isfinite(v)) for v in phis))

    def check_contractive(self, cfg: ProblemConfig) -> None:
        """Require max_i ||alpha_{i,r} + t_{i,r} theta_{i,r}||_inf < 1 and finite phi per level."""
        sups = self.grid_sups(cfg)
        for r, worst in enumerate(sups.rates, start=1):
            if not worst < 1.0:
                raise PerturbationTooLarge(
                    f"level {r}: ||alpha + t*theta||_inf estimate {worst:.6g} is not below 1"
                )
            if not repeat_last(sups.phi_finite, r):
                raise PerturbationTooLarge(f"level {r}: phi takes non-finite values on the grid")


@dataclass(frozen=True)
class GridSups:
    """A perturbation's grid estimates on one config: sup |theta| and
    sup |phi| over its levels, and per level r (up to the longer prefix)
    max_i ||alpha_{i,r} + t_{i,r} theta_{i,r}||_inf; per perturbation level,
    whether every phi is finite."""

    theta_sup: float
    phi_sup: float
    rates: tuple[float, ...]
    phi_finite: tuple[bool, ...]


# ---------------------------------------------------------------------------
# Map evaluation
# ---------------------------------------------------------------------------


def apply_F(i: int, r: int, x, y, cfg: ProblemConfig):
    """F_{i,r}(x, y) = alpha_{i,r}(x) y + f(l_i(x)) - alpha_{i,r}(x) b_r(x) for x in I."""
    xa = in_domain(x, cfg.domain)
    if not 1 <= i <= cfg.n_intervals:
        raise ConfigError(f"interval index {i} outside 1..{cfg.n_intervals}")
    alpha = evaluate(cfg.levels.scaling(i, r), xa)
    f_at = evaluate(cfg.germ, cfg.partition.forward(i, xa))
    b_at = evaluate(cfg.levels.base(r), xa)
    out = alpha * np.asarray(y, dtype=float) + f_at - alpha * b_at
    return out if out.shape else float(out)

