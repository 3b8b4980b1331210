"""The grid and point evaluators of the non-stationary interpolant.

The grid evaluator, a backward trajectory, composes the level operators
innermost-first,
    T^{alpha_1} o T^{alpha_2} o ... o T^{alpha_R} applied to a seed,
on sampled functions over the configured grid; ``trajectory_interpolant``
caches it per config and depth.  The point evaluator, ``series_eval``, sums
the self-referential expansion
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

The grid-sized kernels here (the step, the nearest-node read, the stencil,
the gather of b_r) each fill their blocks of arrays that the caller
allocated, and ``core.run_blocks`` runs them: whole on the calling thread
up to ``core.BLOCK_POINTS`` points, else in blocks of that size shared with
helper threads that each call starts and joins.  A kernel calls numpy only;
``evaluate`` and ``locate_many``, which a tracer may wrap, are called on the
calling thread, once per array.
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
    run_blocks,
    sup_abs,
)
from .errors import DepthZero, GridMismatch, EndpointMismatch
from .ifs import PerturbationSpec, locate_many

INTERPOLATION_TOL = 1e-8  # default |f^alpha(x_i) - y_i| tolerance at knots


def require_valid(cfg: ProblemConfig) -> None:
    """The one validity gate: the config's first validation problem, raised
    with every problem in its message, as ``build``, ``verify`` and ``sweep``
    report it."""
    cfg.validation().raise_if_failed()


def _require_depth(depth: int) -> None:
    """Both evaluators apply at least one level."""
    if depth < 1:
        raise DepthZero(f"evaluation depth must be >= 1, got {depth}")


def _grid_geometry(cfg: ProblemConfig):
    """Interval index and Q_i(x) for every grid point (cached per partition
    and grid size)."""

    def build():
        idx = locate_many(cfg.grid, cfg.partition)
        return frozen(idx), frozen(cfg.maps.inverse_many(idx, cfg.grid))

    return cfg.partition._cached(f"_rb_geometry_{cfg.grid_size}", build)


def _cells(grid: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.interp's cell of each q into ``out``: the j with grid[j] <= q, the
    last node at the right end."""
    np.subtract(np.searchsorted(grid, q, side="right"), 1, out=out)
    return out


def _interp_stencil(grid: np.ndarray, q: np.ndarray, j: np.ndarray | None = None):
    """np.interp's stencil at points q inside [grid[0], grid[-1]]: the cell j
    (``_cells``, searched for unless given), the offset q - grid[j], the
    width of cell j (of the last cell where j is the right end), and the
    exact node hits (off == 0, the right end among them).  j stays writable:
    np.take copies a read-only index array on every call."""
    n = q.size
    if j is None:
        j = np.empty(n, dtype=np.intp)
        run_blocks(lambda js, qs: _cells(grid, qs, js), j, q)
    off, dxj, hit = np.empty(n), np.empty(n), np.empty(n, dtype=bool)

    def fill(js, qs, offset, width, hits):
        grid[1:].take(js, out=width, mode="clip")
        width -= grid[:-1].take(js, mode="clip")
        grid.take(js, out=offset, mode="clip")
        np.subtract(qs, offset, out=offset)
        np.equal(offset, 0.0, out=hits)

    run_blocks(fill, j, q, off, dxj, hit)
    return j, frozen(off), frozen(dxj), frozen(hit)


def _interp_read(stencil, dy: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.interp(q, grid, dy) bit for bit, for finite slopes, at the points
    q of a stencil (or of a block of one), into ``out`` (a new array if
    None): s * off + dy[j] with the slope s = (dy[j+1] - dy[j]) /
    (grid[j+1] - grid[j]), and dy[j] itself at node hits.  The slopes are
    taken at j only; at the right end j is the last node, a hit, whose
    clipped slope is never read.  The one temporary is the size of q."""
    j, off, dxj, hit = stencil
    at = dy.take(j, mode="clip")
    out = dy[1:].take(j, out=out, mode="clip")
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
    nu = ``Partition.node_rounding`` at most.  The computed Q_i(x) then
    misses the real image of x by
    - at most 5uX from the two-point form in ``AffineMapSet.inverse_many``,
    - plus nu / a_i from the node x, which Q_i stretches by 1 / a_i,
    - plus nu / a_i from the cell's two knots, whose sensitivities add up
      to 1 / a_i as well,
    and that image is a stored node up to a further nu.  The result
    bounds the gap absolutely, without dividing by a cell width, which
    carries rounding of its own.  (``Partition.grid`` drops a linspace node
    within nu of a knot, so grids such as 6^k + 1 hold no cells of 1e-17.)
    A gap within the tolerance moves a read by at most Lip(g) times it,
    the order of the rounding that the Q point already carries, so even a
    grid wrongly called closed is never read far off."""
    u = np.finfo(float).eps / 2
    lo, hi = cfg.domain
    nu = cfg.partition.node_rounding
    return 5.0 * u * max(abs(lo), abs(hi)) + nu * (1.0 + 2.0 / min(cfg.maps.a))


def _node_read(grid: np.ndarray, q: np.ndarray, tol: float):
    """How the RB step reads a function on ``grid`` at the points q, from one
    search: the index of the nearest node of each q where every q lies
    within ``tol`` of a node (a closed grid), else np.interp's stencil."""
    n = q.size
    j, nearer_above = np.empty(n, dtype=np.intp), np.empty(n, dtype=bool)

    def fill(js, qs, nearer):
        _cells(grid, qs, js)
        below = grid.take(js)
        np.subtract(qs, below, out=below)       # q - grid[j] >= 0
        above = grid[1:].take(js, mode="clip")  # grid[j + 1]; q itself at the right end
        above -= qs
        np.less(above, below, out=nearer)
        np.minimum(below, above, out=above)
        return np.max(above)

    # a NaN gap (a NaN Q point) fails the test, as np.max over all would
    if not all(gap <= tol for gap in run_blocks(fill, j, q, nearer_above)):
        del nearer_above
        return _interp_stencil(grid, q, j)
    run_blocks(np.add, j, nearer_above, j)
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

    def build():
        out = np.empty(j.shape)
        run_blocks(lambda o, js: base.take(js, out=o, mode="clip"), out, j)
        return frozen(out)

    # the config keeps its base arrays, so their ids stay theirs
    return cfg._cached(f"_rb_base_read_{id(base)}", build)


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
    closed = not isinstance(stencil, tuple)
    out = np.empty(values.shape)
    if not closed:
        dy = np.empty(values.shape)
        run_blocks(np.subtract, values, base, dy)

    def fill(block, a, f, p, *read):
        if closed:  # values[j] - b_r[j], as np.interp reads a node hit
            j, b = read
            # j is in range; with ``out``, the default mode="raise" would
            # gather into a buffer and copy it
            values.take(j, out=block, mode="clip")
            block -= b
        else:
            _interp_read(read, dy, block)
        # IEEE products and sums commute: this is f + scale * diff (+ bump)
        # bit for bit.
        block *= a
        block += f
        if p is not None:
            block += p

    run_blocks(fill, out, scale, germ, bump, *((stencil, base) if closed else stencil))
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


def resolve_depth(cfg: ProblemConfig, rate: float | None = None,
                  magnitude: float | None = None) -> int:
    """The one depth rule: the policy's fixed depth, or ``required_depth`` at
    the policy's eps for a series with tail ``rate`` and term ``magnitude``,
    by default ||alpha|| and sup_r ||f - b_r||.  A check whose series
    converges more slowly (the sensitivity bound's perturbed one) passes
    its own; a fixed depth holds for every check."""
    pol = cfg.depth_policy
    if pol.depth is not None:
        return pol.depth
    return required_depth(cfg.alpha_sup if rate is None else rate,
                          cfg.base_gap_sup if magnitude is None else magnitude,
                          pol.eps, DEPTH_CAP)


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
    interpolation between grid points of the domain (OutOfDomain elsewhere,
    as ``series_eval``)."""

    cfg: ProblemConfig
    depth: int
    values: SampledFunction

    def __call__(self, x):
        return self.values(in_domain(x, self.cfg.domain))

    def knot_residuals(self) -> np.ndarray:
        knots = self.cfg.partition.array()
        target = np.asarray(self.cfg.knot_ordinates, dtype=float)
        got = evaluate(self, knots)
        return np.abs(got - target)


def backward_trajectory(g: SampledFunction | None, depth: int,
                        cfg: ProblemConfig,
                        pert: PerturbationSpec | None = None) -> Interpolant:
    """T^{alpha_1} o T^{alpha_2} o ... o T^{alpha_depth} applied to the seed g
    (defaults to the sampled germ; any other seed must pass ``_check_seed``).
    Applications run innermost-first, so the level-depth operator hits the
    seed.  The result shares the grid and its own frozen values."""
    require_valid(cfg)
    _require_depth(depth)
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
    _require_depth(depth)
    xa = in_domain(x, cfg.domain)
    out = _series_values(np.atleast_1d(xa), depth, cfg)
    return float(out[0]) if xa.shape == () else out


def eval_interpolant(x, cfg: ProblemConfig, strategy: str = "series"):
    """``series_eval`` at the configured policy depth; "series" is the one
    strategy (the grid evaluator is ``trajectory_interpolant``)."""
    if strategy != "series":
        raise ValueError(f"unknown strategy {strategy!r}")
    return series_eval(x, resolve_depth(cfg), cfg)
