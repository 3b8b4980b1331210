"""The two interchangeable evaluators of the non-stationary interpolant.

Backward trajectories compose the level operators innermost-first,
    T^{alpha_1} o T^{alpha_2} o ... o T^{alpha_R} applied to a seed,
on sampled functions over the configured grid.  The series evaluator sums the
self-referential expansion
    f(x) + sum_j alpha_{i,1}(z_1) ... alpha_{i,j}(z_j) (f - b_j)(z_j)
along the address chain z_j of the evaluation point.  Both approximate the
same limit; truncation error obeys the geometric tail bound
    ||alpha||^{k+1} / (1 - ||alpha||) * sup_r ||f - b_r||.

An RB step reads the sampled difference g - b_r at the points Q_i(x);
reading the difference (rather than g alone) makes the degenerate identities
b_r = f and alpha = 0 exact on the grid.  How it reads is decided once per
partition and grid size, from one search of the Q points (``_stencil``):

- on a closed grid, one that every Q_i maps into itself (every Q point lies
  within a derived round-off distance of a node), the step gathers g and b_r
  at the nearest nodes: ``g[j] - b_r[j]``, exact up to that distance;
- on any other grid it interpolates linearly with np.interp's own
  arithmetic from a cached stencil (``_interp_stencil``), so it matches
  np.interp bit for bit without its per-point search.

Both reads give the same doubles wherever a Q point is a node exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEPTH_CAP,
    ENDPOINT_TOL,
    ProblemConfig,
    SampledFunction,
    evaluate,
    frozen,
    group_specs,
    in_domain,
    specs_equal,
    sup_abs,
)
from .errors import DepthZero, GridMismatch, EndpointMismatch, NotValidated
from .ifs import PerturbationSpec, locate_many

INTERPOLATION_TOL = 1e-8  # default |f^alpha(x_i) - y_i| tolerance at knots


def require_valid(cfg: ProblemConfig) -> None:
    rep = cfg.validation()
    if not rep.ok:
        raise NotValidated(rep.summary())


def _grid_geometry(cfg: ProblemConfig):
    """Interval index and Q_i(x) for every grid point (cached per partition
    and grid size)."""

    def build():
        idx = locate_many(cfg.grid, cfg.partition)
        return frozen(idx), frozen(cfg.maps.inverse_many(idx, cfg.grid))

    return cfg.partition._cached(f"_rb_geometry_{cfg.grid_size}", build)


def _interp_stencil(grid: np.ndarray, q: np.ndarray, j: np.ndarray | None = None):
    """np.interp's stencil at points q inside [grid[0], grid[-1]]: the cell j
    with grid[j] <= q (searched for unless given), the offset q - grid[j],
    the width of cell j (of the last cell where j is the right end), and the
    exact node hits (off == 0, the right end among them).  j stays writable:
    np.take copies a read-only index array on every call."""
    # Each grid-sized temporary is freed just before an array of its size is
    # kept, which can take its place: a freed block left between kept ones
    # stays resident (a 1M-point build's peak RSS rose by 7 MiB that way).
    if j is None:
        j = np.searchsorted(grid, q, side="right")
        j -= 1
    dxj = grid[1:].take(j, mode="clip")
    dxj -= grid[:-1].take(j, mode="clip")
    off = grid.take(j)
    np.subtract(q, off, out=off)
    return j, frozen(off), frozen(dxj), frozen(off == 0.0)


def _interp_read(stencil, dy: np.ndarray) -> np.ndarray:
    """np.interp(q, grid, dy) bit for bit, for finite slopes: s * off + dy[j]
    with the slope s = (dy[j+1] - dy[j]) / (grid[j+1] - grid[j]), and dy[j]
    itself at node hits.  The slopes are taken at j only; at the right end j
    is the last node, a hit, whose clipped slope is never read.  At most
    three grid-sized arrays are alive at once, dy included."""
    j, off, dxj, hit = stencil
    at = dy.take(j)
    out = dy[1:].take(j, mode="clip")
    out -= at
    out /= dxj
    out *= off
    out += at
    np.copyto(out, at, where=hit)
    return out


def _closure_tol(cfg: ProblemConfig) -> float:
    """How far a computed Q point may lie from a grid node on a grid that
    the Q_i map into themselves, from rounding alone.

    Let u be the unit round-off, X = max(|x_0|, |x_N|) and a_min the
    smallest ratio a_i.  The nodes of a closed grid stand for real points
    that Q_i maps onto one another exactly; each stored node is off by
    nu = u (X + 2 span) at most (np.linspace rounds the step, its product
    with k, and the sum with x_0; a knot is off by uX).  The computed
    Q_i(x) then misses the real image of x by
    - at most 5uX from the two-point form in ``AffineMapSet.inverse_many``,
    - plus nu / a_i from the node x, which Q_i stretches by 1 / a_i,
    - plus nu / a_i from the cell's two knots, whose sensitivities add up
      to 1 / a_i as well,
    and that image is a stored node up to a further nu.  The result
    bounds the gap absolutely: dividing by a cell width would blow up at
    grids such as 6^k + 1, where ``Partition.grid`` keeps knots and
    linspace nodes that differ in the last bit.  A gap within it moves a
    read by at most Lip(g) times the tolerance, the order of the rounding
    that the Q point already carries, so even a grid wrongly called closed
    is never read far off."""
    u = np.finfo(float).eps / 2
    lo, hi = cfg.domain
    big = max(abs(lo), abs(hi))
    nu = u * (big + 2.0 * (hi - lo))
    return 5.0 * u * big + nu * (1.0 + 2.0 / min(cfg.maps.a))


def _node_read(grid: np.ndarray, q: np.ndarray, tol: float):
    """How the RB step reads a function on ``grid`` at the points q, from one
    search: the index of the nearest node of each q where every q lies
    within ``tol`` of a node (a closed grid), else np.interp's stencil."""
    j = np.searchsorted(grid, q, side="right")
    j -= 1
    below = grid.take(j)
    np.subtract(q, below, out=below)       # q - grid[j] >= 0
    above = grid[1:].take(j, mode="clip")  # grid[j + 1]; q itself at the right end
    above -= q
    nearer_above = above < below
    np.minimum(below, above, out=above)
    closed = bool(np.max(above) <= tol)
    del below, above
    if not closed:
        del nearer_above
        return _interp_stencil(grid, q, j)
    j += nearer_above
    return j


def _stencil(cfg: ProblemConfig):
    """The RB step's read of the Q points (cached per partition and grid
    size): nearest-node indices on a closed grid, else the interpolation
    stencil, a tuple."""
    return cfg.partition._cached(
        f"_rb_stencil_{cfg.grid_size}",
        lambda: _node_read(cfg.grid, _grid_geometry(cfg)[1], _closure_tol(cfg)))


def _per_interval(fns, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """fns[i-1] evaluated at the points of z whose 1-based interval index is
    i; a function that several intervals share is evaluated once, over all
    of their points."""
    out = np.empty_like(z)
    groups = group_specs(fns)
    if len(groups) == 1:
        out[...] = evaluate(fns[0], z)
        return out
    for fn, positions in groups:
        mask = idx == positions[0] + 1
        for k in positions[1:]:
            mask |= idx == k + 1
        if np.any(mask):
            out[mask] = evaluate(fn, z[mask])
    return out


def _base_read(cfg: ProblemConfig, r: int):
    """b_r as ``_rb_step`` subtracts it: on a closed grid at the nearest
    nodes of the Q points (one gather per distinct base, cached per config),
    else on the grid."""
    base, j = cfg.base_values(r), _stencil(cfg)
    if isinstance(j, tuple):
        return base
    # the config keeps its base arrays, so their ids stay theirs
    return cfg._cached(f"_rb_base_read_{id(base)}", lambda: frozen(base.take(j)))


def _level_terms(cfg: ProblemConfig, r: int, pert: PerturbationSpec | None = None):
    """Level r's (base, scale, bump) for ``_rb_step``: ``_base_read``,
    alpha_{i,r}(Q_i x) and None, or with a perturbation alpha + t theta and
    s phi.  The alphas are cached per prefix level in the config's
    ``scaling_cache``, which configs with the same scalings share; the
    perturbed terms are built fresh, and callers keep them for the
    trajectory."""
    r_eff = min(r, cfg.levels.prefix_len)
    idx, q = _grid_geometry(cfg)
    alpha_q = cfg.scaling_cache._cached(f"rb_alphas_{r_eff}", lambda: frozen(
        _per_interval(cfg.levels.level(r_eff).scalings, idx, q)))
    base = _base_read(cfg, r)
    if pert is None:
        return base, alpha_q, None
    lv = pert.level(r)
    return (base,
            alpha_q + np.asarray(lv.t)[idx - 1] * _per_interval(lv.theta, idx, q),
            np.asarray(lv.s)[idx - 1] * _per_interval(lv.phi, idx, q))


def _rb_step(values: np.ndarray, stencil, germ: np.ndarray, terms) -> np.ndarray:
    """One RB application to grid samples, given the config's ``_stencil``,
    its germ values and level r's ``_level_terms``."""
    base, scale, bump = terms
    # The read returns a fresh array, so the step finishes in it.  IEEE
    # products and sums commute: this is f + scale * diff (+ bump) bit for bit.
    if isinstance(stencil, tuple):
        out = _interp_read(stencil, values - base)
    else:  # a closed grid: values[j] - b_r[j], as np.interp reads a node hit
        out = values.take(stencil)
        out -= base
    out *= scale
    out += germ
    if bump is not None:
        out += bump
    return out


def _check_seed(g: SampledFunction, cfg: ProblemConfig) -> None:
    """An RB operator acts on functions on the configured grid that match the
    germ at both endpoints (within ENDPOINT_TOL)."""
    if not np.array_equal(g.xs, cfg.grid):
        raise GridMismatch("seed is not sampled on the configured grid")
    res = sup_abs([g.ys[[0, -1]] - cfg.germ_values[[0, -1]]])
    if not res <= ENDPOINT_TOL:
        raise EndpointMismatch(f"seed endpoint residual {res:.3g} exceeds {ENDPOINT_TOL}")


def apply_rb(g: SampledFunction, r: int, cfg: ProblemConfig) -> SampledFunction:
    """One Read-Bajraktarevic application
        (T^{alpha_r} g)(x) = f(x) + alpha_{i,r}(Q_i(x)) (g - b_r)(Q_i(x))
    on the configured grid, to a seed that passes ``_check_seed``."""
    require_valid(cfg)
    _check_seed(g, cfg)
    return g.with_values(_rb_step(g.ys, _stencil(cfg), cfg.germ_values, _level_terms(cfg, r)))


# ---------------------------------------------------------------------------
# Depth policy
# ---------------------------------------------------------------------------


def geometric_tail(rate: float, magnitude: float, depth: int) -> float:
    """Upper bound on the total weight of series terms beyond ``depth``."""
    if rate <= 0.0 or magnitude <= 0.0:
        return 0.0
    return rate ** (depth + 1) / (1.0 - rate) * magnitude


def required_depth(rate: float, magnitude: float, eps: float, cap: int) -> int:
    """Smallest depth whose geometric tail bound is <= eps (capped)."""
    if rate <= 0.0 or magnitude <= 0.0:
        return 1
    k = 1
    tail = rate * rate / (1.0 - rate) * magnitude
    while k < cap and tail > eps:
        k += 1
        tail *= rate
    return k


def resolve_depth(cfg: ProblemConfig) -> int:
    """Depth dictated by the configured policy (fixed, or tail tolerance)."""
    pol = cfg.depth_policy
    if pol.depth is not None:
        return pol.depth
    return required_depth(cfg.alpha_sup, cfg.base_gap_sup, pol.eps, DEPTH_CAP)


def truncation_error(cfg: ProblemConfig, depth: int) -> float:
    return geometric_tail(cfg.alpha_sup, cfg.base_gap_sup, depth)


def pair_depth(a: ProblemConfig, b: ProblemConfig) -> tuple[int, float, float]:
    """The one rule for comparing two configs' trajectories: both run to the
    deeper of their policy depths, and each one's tail bound at that depth
    is slack on their sup difference.  Returns (depth, tail_a, tail_b).
    Both configs are validated first, as their trajectories would be: the
    depth and tails divide by 1 - ||alpha||."""
    require_valid(a)
    require_valid(b)
    depth = max(resolve_depth(a), resolve_depth(b))
    return depth, truncation_error(a, depth), truncation_error(b, depth)


# ---------------------------------------------------------------------------
# Interpolant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interpolant:
    """A backward trajectory's final sampled function, evaluated by linear
    interpolation between grid points."""

    cfg: ProblemConfig
    depth: int
    values: SampledFunction

    def __call__(self, x):
        return self.values(x)

    @property
    def r_bound(self) -> float:
        return self.cfg.r_bound

    def knot_residuals(self) -> np.ndarray:
        knots = self.cfg.partition.array()
        target = np.asarray(self.cfg.knot_ordinates, dtype=float)
        got = evaluate(self, knots)
        return np.abs(got - target)

    def satisfies_interpolation(self, tol: float = INTERPOLATION_TOL) -> bool:
        return bool(np.max(self.knot_residuals()) <= tol)


def backward_trajectory(g: SampledFunction | None, depth: int,
                        cfg: ProblemConfig,
                        pert: PerturbationSpec | None = None) -> Interpolant:
    """T^{alpha_1} o T^{alpha_2} o ... o T^{alpha_depth} applied to the seed g
    (defaults to the sampled germ; any other seed must pass ``_check_seed``).
    Applications run innermost-first, so the level-depth operator hits the
    seed.  The result shares the grid and its own frozen values."""
    require_valid(cfg)
    if depth < 1:
        raise DepthZero("backward trajectory needs depth >= 1")
    if g is not None:
        _check_seed(g, cfg)
    if pert is not None:
        pert.check_contractive(cfg)
    # Levels past both prefixes repeat the last: one set of terms per level.
    top = max(cfg.levels.prefix_len, pert.prefix_len if pert else 1)
    terms = [_level_terms(cfg, r, pert) for r in range(1, min(depth, top) + 1)]
    stencil, germ = _stencil(cfg), cfg.germ_values
    vals = germ if g is None else g.ys
    for r in range(depth, 0, -1):
        vals = _rb_step(vals, stencil, germ, terms[min(r, len(terms)) - 1])
    return Interpolant(cfg=cfg, depth=depth, values=SampledFunction(cfg.grid, frozen(vals)))


def trajectory_interpolant(cfg: ProblemConfig, depth: int | None = None) -> Interpolant:
    """The germ-seeded trajectory at ``depth`` (default: the policy depth),
    built once per config and depth.  The cache holds its values, not an
    Interpolant, which would refer back to the config and keep both alive
    until the cycle collector runs."""
    depth = resolve_depth(cfg) if depth is None else depth
    values = cfg._cached(f"_trajectory_{depth}",
                         lambda: backward_trajectory(None, depth, cfg).values)
    return Interpolant(cfg=cfg, depth=depth, values=values)


# ---------------------------------------------------------------------------
# Series evaluation
# ---------------------------------------------------------------------------


def _series_values(xs: np.ndarray, depth: int, cfg: ProblemConfig) -> np.ndarray:
    """Partial sums of the self-referential series at each point, up to j = depth."""
    z = np.array(xs, dtype=float)
    total = evaluate(cfg.germ, z)
    prod = np.ones_like(z)
    for j in range(1, depth + 1):
        idx = locate_many(z, cfg.partition)
        z = cfg.maps.inverse_many(idx, z)
        lv = cfg.levels.level(j)
        prod = prod * _per_interval(lv.scalings, idx, z)
        total = total + prod * (evaluate(cfg.germ, z) - evaluate(lv.base, z))
    return total


def series_eval(x, depth: int, cfg: ProblemConfig):
    """Truncated self-referential series at x; truncation error is bounded by
    the geometric tail ||alpha||^{depth+1}/(1-||alpha||) sup_r||f - b_r||."""
    require_valid(cfg)
    xa = in_domain(x, cfg.domain)
    out = _series_values(np.atleast_1d(xa), depth, cfg)
    return float(out[0]) if xa.shape == () else out


def eval_interpolant(x, cfg: ProblemConfig, strategy: str = "series"):
    """Evaluate the interpolant under the configured depth policy."""
    if strategy == "series":
        return series_eval(x, resolve_depth(cfg), cfg)
    if strategy == "trajectory":
        return trajectory_interpolant(cfg)(x)
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Stationary cross-check
# ---------------------------------------------------------------------------


def _levels_constant(cfg: ProblemConfig) -> bool:
    first = cfg.levels.levels[0]
    for lv in cfg.levels.levels[1:]:
        if not specs_equal(lv.base, first.base):
            return False
        if not all(specs_equal(a, b) for a, b in zip(lv.scalings, first.scalings)):
            return False
    return True


def stationary_fixed_point(cfg: ProblemConfig, tol: float = 1e-10,
                           max_iter: int = 10_000) -> Interpolant:
    """Banach iteration of the single RB operator of a constant-in-r sequence,
    from the germ seed, until the sup-difference drops below tol."""
    require_valid(cfg)
    if not _levels_constant(cfg):
        raise NotValidated("stationary fixed point needs a constant-in-r level sequence")
    stencil, germ = _stencil(cfg), cfg.germ_values
    vals = germ.copy()
    terms = _level_terms(cfg, 1)
    for it in range(1, max_iter + 1):
        new = _rb_step(vals, stencil, germ, terms)
        delta = sup_abs([new - vals])
        vals = new
        if delta <= tol:
            return Interpolant(cfg=cfg, depth=it, values=SampledFunction(cfg.grid, vals))
    raise RuntimeError(
        f"fixed-point iteration did not reach {tol} within {max_iter} steps"
    )
