"""IFS map data: interval location, the per-interval maps
F_{i,r}(x, y) = alpha_{i,r}(x) y + f(l_i(x)) - alpha_{i,r}(x) b_r(x),
and the perturbation data t, s, theta, phi of the perturbed maps T_{i,r},
which ``engine`` applies on the grid.  A perturbation keeps only its
per-level rates ||alpha + t theta||_inf; the sups of theta and phi are
kept on the specs, like every spec norm (``FunctionSpec.grid_sup``).

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


def _on_grid(fn: FunctionSpec, grid: np.ndarray):
    """fn on the grid, or a constant's value as a float: numpy broadcasts it
    to the same doubles in every sum and product below."""
    return fn.params[0] if fn.family == "constant" else evaluate(fn, grid)


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
    (the perturbed maps must keep the interpolation data); ``rates``
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

    def level(self, r: int) -> PerturbationLevel:
        return repeat_last(self.levels, r)

    def t_sup(self) -> float:
        return sup_abs(lv.t for lv in self.levels)

    def s_sup(self) -> float:
        return sup_abs(lv.s for lv in self.levels)

    def rates(self, cfg: ProblemConfig) -> tuple[float, ...]:
        """Per level r up to the longer prefix, max_i ||alpha_{i,r} + t_{i,r}
        theta_{i,r}||_inf on the config's grid, kept per config scalings and
        grid (``cfg.scaling_cache``).  After a domain check, one pass
        evaluates each distinct alpha and theta of a level once and keeps
        their sups, and each phi's, on the specs (``grid_sup``)."""
        held = self.__dict__.get("_rates")
        if held is not None and held[0] is cfg.scaling_cache:
            return held[1]
        require_specs(self.levels[0].phi, "the perturbation's functions", cfg.domain)
        p, size, grid = cfg.partition, cfg.grid_size, cfg.grid
        rates = []
        for r in range(1, max(self.prefix_len, cfg.levels.prefix_len) + 1):
            lv = self.level(r)
            level = []
            for alpha, ii in group_specs(cfg.levels.level(r).scalings):
                a = _on_grid(alpha, grid)
                alpha.grid_sup(p, size, a)
                for theta, jj in group_specs([lv.theta[i] for i in ii]):
                    th = _on_grid(theta, grid)
                    theta.grid_sup(p, size, th)
                    level += [sup_abs([a + lv.t[ii[j]] * th]) for j in jj]
            rates.append(sup_abs([level]))
        for lv in self.levels:
            for phi, _ in group_specs(lv.phi):
                phi.grid_sup(p, size)
        rates = tuple(rates)
        object.__setattr__(self, "_rates", (cfg.scaling_cache, rates))
        return rates

    def sups(self, cfg: ProblemConfig, name: str) -> tuple[float, ...]:
        """Per perturbation level, max_i sup |theta_{i,r}| (``name`` "theta")
        or sup |phi_{i,r}| ("phi") on the config's grid: the sups that the
        rates' pass keeps on the specs, so no spec is evaluated again."""
        self.rates(cfg)
        p, size = cfg.partition, cfg.grid_size
        return tuple(sup_abs([[fn.grid_sup(p, size) for fn, _ in group_specs(getattr(lv, name))]])
                     for lv in self.levels)

    def check_contractive(self, cfg: ProblemConfig) -> None:
        """Require max_i ||alpha_{i,r} + t_{i,r} theta_{i,r}||_inf < 1 and finite phi per level."""
        phi = self.sups(cfg, "phi")
        for r, worst in enumerate(self.rates(cfg), start=1):
            if not worst < 1.0:
                raise PerturbationTooLarge(
                    f"level {r}: ||alpha + t*theta||_inf estimate {worst:.6g} is not below 1"
                )
            if not np.isfinite(repeat_last(phi, r)):
                raise PerturbationTooLarge(f"level {r}: phi takes non-finite values on the grid")


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

