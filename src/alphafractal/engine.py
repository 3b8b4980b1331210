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

The caches keep only what the steps read.  The grid is sorted, so each
interval's points form one run of it, and the partition keeps the N + 1
offsets of those runs (``_grid_geometry``), not an index per point.  The Q
points are built run by run where the stencil or a level's alphas need
them; a grid of one block keeps them on the partition, and a larger one
builds them at most once per trajectory and drops them before the steps
(``_q_provider``).  A level whose scalings are one constant spec keeps the
constant as a scalar, and a constant among other specs fills its run.  A
trajectory makes its step kernel once and alternates between two buffers
(``_step``).

Both evaluators share their per-interval arithmetic.  The one Q_i kernel,
``Partition.inverse_into``, takes each run's knots as scalars for the
trajectory and each point's knots for the series.  The one per-interval
evaluator, ``_per_interval``, takes a selector per interval (the grid's run
slices, or the series' masks from its one ``locate_many`` per level).
Vectors that share a spec among some intervals but not all are evaluated
per interval, not grouped: no workload has one, since the configs' levels
are each one spec and the campaigns draw a distinct spec per interval.

The grid-sized kernels here (the step, the Q points, the nearest-node read,
the stencil, the gather of b_r) each fill their blocks of arrays that the
caller allocated, and ``core.run_blocks`` runs them: whole on the calling
thread up to ``core.BLOCK_POINTS`` points, else in blocks of that size
shared with helper threads that each call starts and joins.  A kernel calls
numpy only; ``evaluate`` and ``locate_many``, which a tracer may wrap, are
called on the calling thread, once per array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK_POINTS,
    DEPTH_CAP,
    ENDPOINT_TOL,
    ProblemConfig,
    SampledFunction,
    _cells,
    _interp_read,
    _interp_stencil,
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


def _grid_geometry(cfg: ProblemConfig) -> tuple[slice, ...]:
    """Where each interval's points lie on the sorted grid (cached per
    partition and grid size): interval i holds the run grid[runs[i - 1]],
    N slices cut at N + 1 offsets, from one interval search of the grid."""

    def build():
        idx = locate_many(cfg.grid, cfg.partition)
        ends = np.searchsorted(idx, np.arange(cfg.n_intervals + 1), side="right").tolist()
        return tuple(slice(a, b) for a, b in zip(ends, ends[1:]))

    return cfg.partition._cached(f"_rb_runs_{cfg.grid_size}", build)


def _q_points(cfg: ProblemConfig) -> np.ndarray:
    """Q_i(x) at every grid point x, i its interval, computed run by run with
    the interval's knots as scalars: the same doubles as
    ``Partition.inverse_many`` on the grid."""
    grid, knots, inverse = cfg.grid, cfg.partition.knots, cfg.partition.inverse_into
    q = np.empty(grid.shape)
    for i, run in enumerate(_grid_geometry(cfg), start=1):
        run_blocks(inverse, q[run], grid[run], knots[i - 1], knots[i])
    return q


def _q_provider(cfg: ProblemConfig):
    """A callable that gives the grid's Q points, built on its first call.
    On a grid of one block (``core.BLOCK_POINTS`` points at most, where the
    campaigns run) the partition keeps them beside its stencil, since every
    config on it reads them again; on a larger grid the callable alone keeps
    them: a trajectory holds one while it gathers its stencil and terms, and
    drops it before its steps."""
    if cfg.grid.size <= BLOCK_POINTS:
        return lambda: cfg.partition._cached(f"_rb_q_{cfg.grid_size}",
                                             lambda: frozen(_q_points(cfg)))
    return functools.cache(lambda: _q_points(cfg))


def _closure_tol(cfg: ProblemConfig) -> float:
    """How far a computed Q point may lie from a grid node on a grid that
    the Q_i map into themselves, from rounding alone.

    Let u be the unit round-off, X = max(|x_0|, |x_N|) and a_min the
    smallest ratio a_i.  The nodes of a closed grid stand for real points
    that Q_i maps onto one another exactly; each stored node is off by
    nu = ``Partition.node_rounding`` at most.  The computed Q_i(x) then
    misses the real image of x by
    - at most 5uX from the two-point form in ``Partition.inverse_many``,
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
    return 5.0 * u * max(abs(lo), abs(hi)) + nu * (1.0 + 2.0 / min(cfg.partition.ratios))


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


def _stencil(cfg: ProblemConfig, q=None):
    """The RB step's read of the Q points (cached per partition and grid
    size): nearest-node indices on a closed grid, else the interpolation
    stencil, a tuple.  ``q`` gives the Q points (``_q_provider``)."""
    return cfg.partition._cached(
        f"_rb_stencil_{cfg.grid_size}",
        lambda: _node_read(cfg.grid, (q or _q_provider(cfg))(), _closure_tol(cfg)))


def _per_interval(fns, z: np.ndarray, parts) -> np.ndarray:
    """fns[i-1] at the points of z that parts[i-1] selects: a run slice of
    the sorted grid (``_grid_geometry``) or, for the series, a mask.  A
    vector of one spec (``group_specs``, whose signed-zero rule keeps the
    constants 0.0 and -0.0 apart) is one call over all of z, and ``parts``
    is not read; any other vector is one call per interval.  A constant is
    never called: its value fills its points, signed zero and all."""
    if len(group_specs(fns)) == 1:
        fn = fns[0]
        return np.full(z.shape, fn.params[0]) if fn.family == "constant" else evaluate(fn, z)
    out = np.empty_like(z)
    for fn, at in zip(fns, parts):
        if fn.family == "constant":
            out[at] = fn.params[0]
            continue
        points = z[at]
        if points.size:
            out[at] = evaluate(fn, points)
    return out


def _base_read(cfg: ProblemConfig, r: int, q=None):
    """b_r as the RB step subtracts it: on a closed grid at the nearest
    nodes of the Q points (one gather per distinct base, cached per config),
    else on the grid."""
    base, j = cfg.base_values(r), _stencil(cfg, q)
    if isinstance(j, tuple):
        return base

    def build():
        out = np.empty(j.shape)
        run_blocks(lambda o, js: base.take(js, out=o, mode="clip"), out, j)
        return frozen(out)

    # the config keeps its base arrays, so their ids stay theirs
    return cfg._cached(f"_rb_base_read_{id(base)}", build)


def _alphas(cfg: ProblemConfig, r: int, q):
    """alpha_{i,r}(Q_i x) on the grid; where level r's scalings are one
    constant spec, its value as a scalar, the spec evaluated at one point."""
    scalings = cfg.levels.level(r).scalings
    if len(group_specs(scalings)) == 1 and scalings[0].family == "constant":
        return float(evaluate(scalings[0], cfg.domain[0]))
    return frozen(_per_interval(scalings, q(), _grid_geometry(cfg)))


def _level_terms(cfg: ProblemConfig, r: int, pert: PerturbationSpec | None = None, q=None):
    """Level r's (base, scale, bump) for the RB step: ``_base_read``,
    alpha_{i,r}(Q_i x) and None, or with a perturbation alpha + t_i theta_i
    and s_i phi_i, with t_i and s_i applied run by run.  The alphas are
    cached per prefix level in the config's ``scaling_cache``, which
    configs with the same scalings share; the perturbed terms are built
    fresh, and callers keep them for the trajectory.  ``q`` gives the Q
    points (``_q_provider``), which only a missing cache entry or a
    perturbation reads."""
    q = q or _q_provider(cfg)
    r_eff = min(r, cfg.levels.prefix_len)
    alpha = cfg.scaling_cache._cached(f"rb_alphas_{r_eff}", lambda: _alphas(cfg, r_eff, q))
    base = _base_read(cfg, r, q)
    if pert is None:
        return base, alpha, None
    lv, runs = pert.level(r), _grid_geometry(cfg)
    scale = _per_interval(lv.theta, q(), runs)
    bump = _per_interval(lv.phi, q(), runs)
    for i, run in enumerate(runs):
        scale[run] *= lv.t[i]
        scale[run] += alpha if isinstance(alpha, float) else alpha[run]
        bump[run] *= lv.s[i]
    return base, scale, bump


def _step(stencil, germ: np.ndarray):
    """The RB step on one config's ``_stencil`` and germ values, made once
    per trajectory: ``step(values, terms, out)`` writes T_r applied to
    ``values`` into ``out`` (a buffer other than ``values``) for level r's
    ``_level_terms``, and returns it.  Its block kernel is made here; a
    step only points it at the array it reads."""
    closed = not isinstance(stencil, tuple)
    diff = None if closed else np.empty(germ.shape)
    read = None  # what the blocks read: the values on a closed grid, else values - b_r

    def fill(block, f, a, p, *at):
        if closed:  # values[j] - b_r[j], as np.interp reads a node hit
            j, b = at
            # j is in range; with ``out``, the default mode="raise" would
            # gather into a buffer and copy it
            read.take(j, out=block, mode="clip")
            block -= b
        else:
            _interp_read(at, read, block)
        # IEEE products and sums commute: this is f + scale * diff (+ bump)
        # bit for bit.
        block *= a
        block += f
        if p is not None:
            block += p

    def step(values: np.ndarray, terms, out: np.ndarray) -> np.ndarray:
        nonlocal read
        base, scale, bump = terms
        if closed:
            read = values
            run_blocks(fill, out, germ, scale, bump, stencil, base)
        else:
            run_blocks(np.subtract, values, base, diff)
            read = diff
            run_blocks(fill, out, germ, scale, bump, *stencil)
        return out

    return step


def _rb_step(values: np.ndarray, stencil, germ: np.ndarray, terms) -> np.ndarray:
    """One RB application to grid samples into a new array, given the
    config's ``_stencil``, its germ values and level r's ``_level_terms``."""
    return _step(stencil, germ)(values, terms, np.empty(values.shape))


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
    q = _q_provider(cfg)
    return g.with_values(_rb_step(g.ys, _stencil(cfg, q), cfg.germ_values,
                                  _level_terms(cfg, r, None, q)))


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
        """np.interp on the grid, bit for bit (the values are finite), read
        by ``SampledFunction``, through the RB step's own stencil.  A float
        for a scalar x, else an array of x's shape."""
        return self.values(in_domain(x, self.cfg.domain))

    def knot_residuals(self) -> np.ndarray:
        """|f^alpha(x_k) - y_k| at the knots, which are grid nodes: there
        the interpolant reads the node's value."""
        return np.abs(self(self.cfg.partition.array()) - self.cfg.knot_ordinates)


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
    q = _q_provider(cfg)
    terms = [_level_terms(cfg, r, pert, q) for r in range(1, min(depth, top) + 1)]
    step = _step(_stencil(cfg, q), cfg.germ_values)
    del q  # the Q points, if built, go before the step buffers come
    vals = cfg.germ_values if g is None else g.ys
    # the steps alternate between two buffers; none writes the array it reads
    buffers = [np.empty(vals.shape) for _ in range(min(depth, 2))]
    for k, r in enumerate(range(depth, 0, -1)):
        vals = step(vals, terms[min(r, len(terms)) - 1], buffers[k % 2])
    del buffers, step  # the step holds the buffer it read last
    return Interpolant(cfg=cfg, depth=depth,
                       values=SampledFunction._on_grid(cfg.grid, frozen(vals)))


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
    intervals = range(1, cfg.n_intervals + 1)
    for j in range(1, depth + 1):
        idx = locate_many(z, cfg.partition)
        z = cfg.partition.inverse_many(idx, z)
        lv = cfg.levels.level(j)
        # the masks are made only where the scalings differ by interval
        prod = prod * _per_interval(lv.scalings, z, (idx == i for i in intervals))
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
