"""IFS map algebra: interval location, inverse-map address chains, the
per-interval maps F_{i,r}(x, y) = alpha_{i,r}(x) y + f(l_i(x)) - alpha_{i,r}(x) b_r(x),
and their perturbed variants T_{i,r}.

Interior knots belong to the right interval.  The join conditions make both
conventions agree on interpolant values at knots; fixing one keeps address
chains deterministic.
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
    repeat_last,
)
from .errors import ConfigError, EndpointMismatch, OutOfDomain, PerturbationTooLarge


def locate_interval(x: float, p: Partition) -> int:
    """1-based index i with x in [x_{i-1}, x_i); x_N belongs to interval N."""
    if not p.lo <= x <= p.hi:
        raise OutOfDomain(f"{x} outside [{p.lo}, {p.hi}]")
    idx = int(np.searchsorted(p.array(), x, side="right"))
    return min(idx, p.n_intervals)


def locate_many(x: np.ndarray, p: Partition) -> np.ndarray:
    """Vectorized locate_interval (inputs assumed inside the domain)."""
    idx = np.searchsorted(p.array(), np.asarray(x, dtype=float), side="right")
    return np.minimum(idx, p.n_intervals)


@dataclass(frozen=True)
class AddressChain:
    """Backward address of a point: z_0 = x, i_j = interval of z_{j-1},
    z_j = Q_{i_j}(z_{j-1}).  Recomposing the forward maps along the chain
    returns to x up to accumulated round-off."""

    x: float
    indices: tuple[int, ...]
    points: tuple[float, ...]  # z_0 .. z_k

    @property
    def depth(self) -> int:
        return len(self.indices)

    @property
    def terminal(self) -> float:
        return self.points[-1]

    def recompose(self, maps) -> float:
        """l_{i_1}(l_{i_2}(... l_{i_k}(z_k))) for the round-trip check."""
        z = self.points[-1]
        for i in reversed(self.indices):
            z = float(maps.forward(i, z))
        return z


def decompose_address(x: float, p: Partition, depth: int) -> AddressChain:
    """Chain of depth applications of locate-then-invert starting at x."""
    if depth < 0:
        raise ConfigError("address depth must be >= 0")
    if not p.lo <= x <= p.hi:
        raise OutOfDomain(f"{x} outside [{p.lo}, {p.hi}]")
    from .core import derive_affine_maps

    maps = derive_affine_maps(p)
    z = float(x)
    indices = []
    points = [z]
    for _ in range(depth):
        i = locate_interval(z, p)
        z = float(np.clip(maps.inverse(i, z), p.lo, p.hi))
        indices.append(i)
        points.append(z)
    return AddressChain(x=float(x), indices=tuple(indices), points=tuple(points))


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationLevel:
    """Per-interval perturbation data for one level: scalars t_i, s_i and
    functions theta_i, phi_i."""

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
        if any(abs(v) >= 1.0 for v in self.t) or any(abs(v) >= 1.0 for v in self.s):
            raise PerturbationTooLarge("perturbation parameters must satisfy |t|, |s| < 1")


@dataclass(frozen=True)
class PerturbationSpec:
    """Prefix of perturbation levels; repeat-last beyond, like LevelSequence.

    phi functions must vanish at both ends of their domain (the perturbed maps
    must keep the interpolation data), checked here for FunctionSpec entries.
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
        for r, lv in enumerate(levels, start=1):
            for i, phi in enumerate(lv.phi, start=1):
                if isinstance(phi, FunctionSpec):
                    v0, v1 = phi.endpoint_values()
                    if abs(v0) > ENDPOINT_TOL or abs(v1) > ENDPOINT_TOL:
                        raise EndpointMismatch(
                            f"phi_{i},{r} must vanish at both endpoints "
                            f"(values {v0:.3g}, {v1:.3g})"
                        )

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
        return max(max(abs(v) for v in lv.t) for lv in self.levels)

    def s_sup(self) -> float:
        return max(max(abs(v) for v in lv.s) for lv in self.levels)

    def theta_sup(self, grid: np.ndarray) -> float:
        return max(
            float(np.max(np.abs(evaluate(th, grid))))
            for lv in self.levels for th in lv.theta
        )

    def phi_sup(self, grid: np.ndarray) -> float:
        return max(
            float(np.max(np.abs(evaluate(ph, grid))))
            for lv in self.levels for ph in lv.phi
        )

    def check_contractive(self, cfg: ProblemConfig) -> None:
        """Require max_i ||alpha_{i,r} + t_{i,r} theta_{i,r}||_inf < 1 per level."""
        grid = cfg.grid
        depth = max(self.prefix_len, cfg.levels.prefix_len)
        for r in range(1, depth + 1):
            lv = self.level(r)
            worst = 0.0
            for i in range(1, cfg.n_intervals + 1):
                av = evaluate(cfg.levels.scaling(i, r), grid)
                tv = lv.t[i - 1] * evaluate(lv.theta[i - 1], grid)
                worst = max(worst, float(np.max(np.abs(av + tv))))
            if worst >= 1.0:
                raise PerturbationTooLarge(
                    f"level {r}: ||alpha + t*theta||_inf estimate {worst:.6g} >= 1"
                )


# ---------------------------------------------------------------------------
# Map evaluation
# ---------------------------------------------------------------------------


def apply_F(i: int, r: int, x, y, cfg: ProblemConfig):
    """F_{i,r}(x, y) = alpha_{i,r}(x) y + f(l_i(x)) - alpha_{i,r}(x) b_r(x) for x in I."""
    xa = np.asarray(x, dtype=float)
    lo, hi = cfg.domain
    if np.any(xa < lo) or np.any(xa > hi):
        raise OutOfDomain(f"x outside [{lo}, {hi}]")
    if not 1 <= i <= cfg.n_intervals:
        raise ConfigError(f"interval index {i} outside 1..{cfg.n_intervals}")
    alpha = evaluate(cfg.levels.scaling(i, r), xa)
    f_at = evaluate(cfg.germ, cfg.maps.forward(i, xa))
    b_at = evaluate(cfg.levels.base(r), xa)
    out = alpha * np.asarray(y, dtype=float) + f_at - alpha * b_at
    return out if out.shape else float(out)


def rb_composed(i: int, r: int, x, y, cfg: ProblemConfig,
                pert: PerturbationSpec | None = None):
    """The RB integrand on the image interval:
        f(x) + [alpha_{i,r} + t_{i,r} theta_{i,r}](Q_i(x)) * (y - b_r(Q_i(x)))
             + s_{i,r} phi_{i,r}(Q_i(x))
    with y standing for g(Q_i(x)).  With pert None (or all zeros) this is the
    unperturbed composed form F_{i,r}(Q_i(x), y)."""
    xa = np.asarray(x, dtype=float)
    q = np.clip(cfg.maps.inverse(i, xa), cfg.domain[0], cfg.domain[1])
    alpha = evaluate(cfg.levels.scaling(i, r), q)
    b_at = evaluate(cfg.levels.base(r), q)
    f_at = evaluate(cfg.germ, xa)
    if pert is None:
        out = f_at + alpha * (np.asarray(y, dtype=float) - b_at)
    else:
        lv = pert.level(r)
        scale = alpha + lv.t[i - 1] * evaluate(lv.theta[i - 1], q)
        out = (f_at + scale * (np.asarray(y, dtype=float) - b_at)
               + lv.s[i - 1] * evaluate(lv.phi[i - 1], q))
    return out if out.shape else float(out)


def apply_T(i: int, r: int, x, y, cfg: ProblemConfig, pert: PerturbationSpec):
    """Perturbed map T_{i,r} evaluated on the image interval I_i.

    With t = s = 0 this reduces bit-for-bit to the unperturbed composed form.
    Raises PerturbationTooLarge when the perturbed scaling loses contractivity.
    """
    xl, xr = cfg.partition.interval(i)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < xl) or np.any(xa > xr):
        raise OutOfDomain(f"x outside I_{i} = [{xl}, {xr}]")
    pert.check_contractive(cfg)
    return rb_composed(i, r, xa, y, cfg, pert)
