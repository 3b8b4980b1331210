"""Core domain types: partitions, affine maps, function specs, level sequences,
sampled functions, and the problem configuration.

The construction lives on a compact interval I = [x_0, x_N] carved by a knot
vector into N subintervals I_i = [x_{i-1}, x_i].  Per level r the data are a
vector of scaling functions (alpha_{1,r}, ..., alpha_{N,r}) with sup-norm < 1
and a base function b_r that agrees with the germ f at both endpoints.
Infinite level sequences are represented as a finite explicit prefix plus a
repeat-last tail, which turns every sup over r into a finite max over the
prefix.
"""

from __future__ import annotations

import contextvars
import os
import threading
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AlphaFractalError,
    BadExponent,
    ConfigError,
    DepthZero,
    EndpointMismatch,
    LipConditionViolated,
    NonMonotoneKnots,
    OutOfDomain,
    ScalingNotContractive,
    TooFewKnots,
)

ENDPOINT_TOL = 1e-9       # how closely knot data and base endpoints must match the germ
DEGENERATE_TOL = 1e-12    # "function is identically zero on the grid" threshold
DEFAULT_GRID_SIZE = 1025  # power of two plus one: nests under midpoint refinement
DEFAULT_EPS = 1e-8        # default tail tolerance for the truncation depth
DEPTH_CAP = 64            # hard cap guarding pathological near-1 scaling norms
GRID_LIMIT = 2 ** 24 + 1  # largest grid_size: 16x the 1,048,577 points of a 1M build

FunctionLike = Callable[[np.ndarray], np.ndarray]


def repeat_last(seq: Sequence, r: int):
    """Entry r >= 1 of a finite prefix whose tail repeats its last entry."""
    if r < 1:
        raise ConfigError("levels are indexed from 1")
    return seq[min(r, len(seq)) - 1]


def evaluate(fn: FunctionLike, x) -> np.ndarray:
    """Evaluate ``fn`` at ``x`` (scalar or array), broadcasting scalar results."""
    x = np.asarray(x, dtype=float)
    out = np.asarray(fn(x), dtype=float)
    if out.shape != x.shape:
        out = np.broadcast_to(out, x.shape).copy()
    return out


def sup_abs(arrays) -> float:
    """Largest |value| over a family of arrays: NaN when any value is NaN,
    0.0 for an empty family."""
    return float(np.max([np.max(np.abs(a), initial=0.0) for a in arrays], initial=0.0))


def frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only and returned, for arrays that callers share."""
    a.setflags(write=False)
    return a


class _Cached:
    """Derived data of a frozen dataclass, built once and kept in its __dict__."""

    def _cached(self, key: str, build):
        val = self.__dict__.get(key)
        if val is None:
            val = build()
            object.__setattr__(self, key, val)
        return val


# ---------------------------------------------------------------------------
# Block scheduler for the big-grid kernels
# ---------------------------------------------------------------------------

# Points per block of a big-grid kernel.  Arrays of at most this many points
# (verify's grid of 4097 and sweep's 2049 among them) run as one block on the
# calling thread.  On a 2-core x86-64 VM one gather RB step on 1,048,581
# points took 7.6 ms whole, 5.7 ms in blocks of 2^16 on one core (a block's
# few arrays stay in cache) and about 3 ms on two threads.
BLOCK_POINTS = 1 << 15


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot tell."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def run_blocks(kernel, *arrays) -> list:
    """kernel(*blocks) for each run of BLOCK_POINTS consecutive elements of
    the equally long 1-d ``arrays`` (None stands for no array), and the
    results in order.  The kernel fills its blocks of outputs its caller
    allocated, so it allocates nothing larger than a block, and the blocks
    do not depend on one another.  Kernels call numpy only, never a
    function that a tracer may have wrapped: its span stack belongs to the
    calling thread.

    Arrays of at most BLOCK_POINTS elements go to the kernel whole, on the
    calling thread.  Longer ones are cut into blocks, which the calling
    thread shares with helper threads started for this call: one per
    further usable core, but no more than leave each thread two blocks.
    Starting and joining a thread took about 60 us on a 2-core VM, the
    work of one RB-step block or of a few element-wise ones, so a call of
    three blocks (grid 65537) was faster with no helper.  Each helper runs
    under a copy of the caller's context, where numpy's error state lives.
    Every helper is joined before this returns or raises, and the first
    error a block raised is raised here."""
    n = len(arrays[0])
    if n <= BLOCK_POINTS:
        return [kernel(*arrays)]
    slices = [slice(k, min(k + BLOCK_POINTS, n)) for k in range(0, n, BLOCK_POINTS)]
    results, errors = [None] * len(slices), []
    todo, take = iter(range(len(slices))), threading.Lock()

    def work():
        try:
            while True:
                with take:
                    k = next(todo, None)
                if k is None:
                    return
                results[k] = kernel(*[a if a is None else a[slices[k]] for a in arrays])
        except BaseException as exc:  # raised by the calling thread, below
            errors.append(exc)

    helpers = []
    try:
        for k in range(min(_usable_cores(), len(slices) // 2) - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work,),
                                      name=f"alphafractal-block-{k}")
            thread.start()
            helpers.append(thread)
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return results


def in_domain(x, domain) -> np.ndarray:
    """``x`` as a float array; OutOfDomain unless every point (never NaN) lies in it."""
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= domain[0]) & (xa <= domain[1])):
        raise OutOfDomain(f"x outside [{domain[0]}, {domain[1]}]")
    return xa


# ---------------------------------------------------------------------------
# Function specifications
# ---------------------------------------------------------------------------

_FAMILIES = ("constant", "linear-endpoint", "polynomial", "sinusoid", "sampled", "sum")


@dataclass(frozen=True)
class FunctionSpec(_Cached):
    """Evaluable real function on an interval, drawn from a closed family.

    Families and their ``params`` layout:

    - ``constant``:        (c,)                      -> c
    - ``linear-endpoint``: (y_left, y_right)         -> chord through the
                            domain endpoints
    - ``polynomial``:      (c0, c1, ..., ck)         -> sum c_j x^j
    - ``sinusoid``:        (a, w, phase, offset)     -> a*sin(w*x + phase) + offset
    - ``sampled``:         (v_1, ..., v_M)           -> piecewise-linear through
                            the sample points; ``abscissas`` gives the sample
                            grid (defaults to a uniform grid over the domain)
    - ``sum``:             (w_1, ..., w_k)           -> w_1 t_1(x) + ... + w_k t_k(x),
                            summed in that order; ``terms`` gives the specs
                            t_k, each on this spec's domain (library only:
                            config files cannot name it)

    Instances are immutable and evaluate deterministically; the same spec at
    the same point always yields the identical double.
    """

    family: str
    params: tuple[float, ...]
    domain: tuple[float, float]
    abscissas: tuple[float, ...] | None = None
    terms: tuple["FunctionSpec", ...] = ()

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown function family {self.family!r}")
        try:
            params = tuple(float(p) for p in self.params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.family} spec parameters must be numbers ({exc})") from None
        object.__setattr__(self, "params", params)
        if not all(np.isfinite(self.params)):
            raise ConfigError(f"{self.family} spec parameters must be finite")
        terms = tuple(self.terms)
        if self.family == "sum":
            if not terms:
                raise ConfigError("sum spec needs at least one term")
            if len(terms) != len(params):
                raise ConfigError(f"sum spec has {len(params)} weights for {len(terms)} terms")
            if not all(isinstance(t, FunctionSpec) for t in terms):
                raise ConfigError("sum spec terms must be FunctionSpecs")
        elif terms:
            raise ConfigError("terms only apply to the sum family")
        object.__setattr__(self, "terms", terms)
        lo, hi = (float(self.domain[0]), float(self.domain[1]))
        if not lo < hi:
            raise ConfigError("function domain must satisfy lo < hi")
        object.__setattr__(self, "domain", (lo, hi))
        if any(t.domain != (lo, hi) for t in terms):
            raise ConfigError("sum spec terms must share its domain")
        n_expected = {"constant": 1, "linear-endpoint": 2, "sinusoid": 4}
        if self.family in n_expected and len(self.params) != n_expected[self.family]:
            raise ConfigError(
                f"{self.family} spec takes {n_expected[self.family]} parameters, "
                f"got {len(self.params)}"
            )
        if self.family == "polynomial" and not self.params:
            raise ConfigError("polynomial spec needs at least one coefficient")
        if self.family == "sampled":
            if len(self.params) < 2:
                raise ConfigError("sampled spec needs at least 2 sample values")
            if self.abscissas is not None:
                xs = tuple(float(x) for x in self.abscissas)
                if not all(np.isfinite(xs)):
                    raise ConfigError("sampled spec abscissas must be finite")
                if len(xs) != len(self.params):
                    raise ConfigError("sampled spec abscissas/values length mismatch")
                if any(b <= a for a, b in zip(xs, xs[1:])):
                    raise ConfigError("sampled spec abscissas must be strictly increasing")
                if xs[0] != lo or xs[-1] != hi:
                    raise ConfigError("sampled spec abscissas must span the domain")
                object.__setattr__(self, "abscissas", xs)
        elif self.abscissas is not None:
            raise ConfigError("abscissas only apply to the sampled family")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: float, domain) -> "FunctionSpec":
        return cls("constant", (value,), tuple(domain))

    @classmethod
    def linear_endpoint(cls, y_left: float, y_right: float, domain) -> "FunctionSpec":
        return cls("linear-endpoint", (y_left, y_right), tuple(domain))

    @classmethod
    def polynomial(cls, coeffs: Sequence[float], domain) -> "FunctionSpec":
        return cls("polynomial", coeffs, tuple(domain))

    @classmethod
    def sinusoid(cls, amplitude: float, omega: float, phase: float, offset: float,
                 domain) -> "FunctionSpec":
        return cls("sinusoid", (amplitude, omega, phase, offset), tuple(domain))

    @classmethod
    def sampled(cls, values: Sequence[float], domain,
                abscissas: Sequence[float] | None = None) -> "FunctionSpec":
        return cls("sampled", values, tuple(domain), abscissas)

    @classmethod
    def weighted_sum(cls, weights: Sequence[float], terms: Sequence["FunctionSpec"]
                     ) -> "FunctionSpec":
        """w_1 t_1 + w_2 t_2 + ... on the terms' domain."""
        terms = tuple(terms)
        domain = getattr(terms[0], "domain", None) if terms else None
        return cls("sum", weights, domain, terms=terms)

    # -- evaluation ---------------------------------------------------------

    def _sample_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        def build():
            lo, hi = self.domain
            if self.abscissas is None:
                xs = np.linspace(lo, hi, len(self.params))
            else:
                xs = np.asarray(self.abscissas, dtype=float)
            return xs, np.asarray(self.params, dtype=float)

        return self._cached("_samples", build)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        if self.family == "constant":
            out = np.full(x.shape, self.params[0])
        elif self.family == "linear-endpoint":
            yl, yr = self.params
            out = yl + (yr - yl) * (x - lo) / (hi - lo)
        elif self.family == "polynomial":
            # Horner's rule in place, in polyval's own order: x*0 + c[-1],
            # then c[i] + out*x (IEEE sums and products commute)
            out = np.multiply(x, 0.0, out=np.empty_like(x))
            out += self.params[-1]
            for c in self.params[-2::-1]:
                out *= x
                out += c
        elif self.family == "sinusoid":
            a, w, phase, offset = self.params
            out = np.multiply(w, x, out=np.empty_like(x))
            out += phase
            np.sin(out, out=out)
            out *= a
            out += offset
        elif self.family == "sampled":
            xs, ys = self._sample_arrays()
            out = np.interp(x, xs, ys)
        else:
            out = self.params[0] * np.asarray(self.terms[0](x), dtype=float)
            for w, term in zip(self.params[1:], self.terms[1:]):
                out += w * np.asarray(term(x), dtype=float)
        out = np.asarray(out, dtype=float)
        return out if out.shape else float(out)

    def endpoint_values(self) -> tuple[float, float]:
        """The spec at both ends of its domain, evaluated once per spec."""
        lo, hi = self.domain
        return self._cached("_endpoints", lambda: (float(self(lo)), float(self(hi))))

    def knot_values(self, partition: "Partition") -> np.ndarray:
        """The spec at the knots of ``partition``, evaluated once per spec and
        knot vector (signed zeros apart)."""
        cache = self._cached("_knot_values", dict)
        knots = partition.array()
        key = knots.tobytes()
        if key not in cache:
            cache[key] = frozen(evaluate(self, knots))
        return cache[key]


def knot_values(fn: FunctionLike, partition: "Partition") -> np.ndarray:
    """``fn`` at the knots of ``partition``: a spec reads its cached values,
    anything else is evaluated."""
    if isinstance(fn, FunctionSpec):
        return fn.knot_values(partition)
    return evaluate(fn, partition.array())


def endpoint_values(fn: FunctionLike, domain) -> tuple[float, float]:
    """``fn`` at both ends of ``domain``: a spec on that very domain (signed
    zeros included) reads its cached pair, anything else is evaluated."""
    lo, hi = float(domain[0]), float(domain[1])
    if isinstance(fn, FunctionSpec) and repr(fn.domain) == repr((lo, hi)):
        return fn.endpoint_values()
    return float(evaluate(fn, lo)), float(evaluate(fn, hi))


def group_specs(fns) -> list[tuple[object, list[int]]]:
    """Each distinct function of ``fns`` with the 0-based positions it takes,
    in first-seen order: FunctionSpecs grouped by equality, any other
    callable (hashable or not) by identity."""
    groups: dict = {}
    for k, fn in enumerate(fns):
        key = fn if isinstance(fn, FunctionSpec) else id(fn)
        first = groups.get(key, (fn,))[0]
        if first is not fn and repr(first) != repr(fn):
            # equal, but a number is a zero of the other sign (0.0 == -0.0),
            # which can flip the sign of a zero value: evaluated apart
            key = (key, k)
        groups.setdefault(key, (fn, []))[1].append(k)
    return list(groups.values())


def specs_equal(a, b) -> bool:
    """Equality usable for both FunctionSpec instances and plain callables."""
    if a is b:
        return True
    if isinstance(a, FunctionSpec) and isinstance(b, FunctionSpec):
        return a == b
    return False


def matched_endpoint_polynomial(coeffs: Sequence[float], domain,
                                y_left: float, y_right: float) -> FunctionSpec:
    """Shift a polynomial by a linear term so it hits the prescribed endpoint values."""
    lo, hi = float(domain[0]), float(domain[1])
    c = list(float(v) for v in coeffs)
    while len(c) < 2:
        c.append(0.0)
    p = np.polynomial.polynomial.polyval([lo, hi], np.asarray(c))
    mu = ((y_right - p[1]) - (y_left - p[0])) / (hi - lo)
    lam = (y_left - p[0]) - mu * lo
    c[0] += lam
    c[1] += mu
    return FunctionSpec.polynomial(c, (lo, hi))


# ---------------------------------------------------------------------------
# Partition and affine maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition(_Cached):
    """Strictly increasing knot vector x_0 < x_1 < ... < x_N with N >= 2.

    N = 1 is rejected: it would force a_1 = 1, so the affine map l_1 would
    not contract.  Everything derived from the knots and a grid size alone
    (the grid, and the RB step's geometry in ``engine``) is cached here, so
    every config derived from one partition shares it.
    """

    knots: tuple[float, ...]

    def __post_init__(self):
        knots = tuple(float(k) for k in self.knots)
        if len(knots) < 3:
            raise TooFewKnots(
                f"need at least 3 knots (got {len(knots)}): a single interval is not contractive"
            )
        if not all(np.isfinite(knots)):
            raise NonMonotoneKnots("knots must be finite")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise NonMonotoneKnots(f"knots must be strictly increasing, got {knots}")
        # The maps' two-point forms (AffineMapSet.forward, inverse_many) sum
        # two products of a knot or an end, at most M = max(|x_0|, |x_N|) in
        # size, with a distance between points of [x_0, x_N], at most
        # x_N - x_0.  Both sums are thus at most 2 M (x_N - x_0) (up to
        # rounding); where that overflows, inf - inf would give NaN, and where
        # the span itself does, the grid's step is already infinite.
        if not np.isfinite(2.0 * max(abs(knots[0]), abs(knots[-1])) * (knots[-1] - knots[0])):
            raise ConfigError(f"knots {knots[0]} .. {knots[-1]} are too large: "
                              "2 max(|x_0|, |x_N|) (x_N - x_0) overflows")
        object.__setattr__(self, "knots", knots)

    @property
    def n_intervals(self) -> int:
        return len(self.knots) - 1

    @property
    def lo(self) -> float:
        return self.knots[0]

    @property
    def hi(self) -> float:
        return self.knots[-1]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.knots[0], self.knots[-1])

    @property
    def span(self) -> float:
        return self.knots[-1] - self.knots[0]

    @property
    def node_rounding(self) -> float:
        """nu = u (X + 2 span), with u the unit round-off and X = max(|x_0|,
        |x_N|): how far a stored grid node may lie from the real point it
        stands for.  np.linspace rounds its step, the step's product with k
        and the sum with x_0; a knot is off by uX."""
        return np.finfo(float).eps / 2 * (max(abs(self.lo), abs(self.hi)) + 2.0 * self.span)

    def array(self) -> np.ndarray:
        return self._cached("_array", lambda: frozen(np.asarray(self.knots, dtype=float)))

    def grid(self, size: int) -> np.ndarray:
        """Uniform grid of ``size`` points with every knot inserted (cached per
        size).  A linspace node within ``node_rounding`` of a knot stands for
        the knot itself and gives way to it, so a knot and its rounded twin
        never make a cell of rounding width."""
        def build():
            lin = np.linspace(self.lo, self.hi, size)
            scale, nu = (size - 1) / self.span, self.node_rounding
            for x in self.knots:
                k = min(round((x - self.lo) * scale), size - 1)  # the only node that can be a twin
                if abs(lin[k] - x) <= nu:
                    lin[k] = x
            knots = self.array()
            # Each node lies within nu of its real point x_0 + k h, h the
            # step, so where h > 3 nu the nodes, twins replaced, strictly
            # increase, and a knot equal to a node is that node's twin, bit
            # for bit.  The knots that are no node then go in at their
            # sorted places: the sorted union of both, without union1d's
            # sort and its copies.
            if not 1.0 > 4.0 * nu * scale:
                return frozen(np.union1d(lin, knots))  # nodes rounding can merge
            at = np.searchsorted(lin, knots)
            new = lin.take(at) != knots
            return frozen(np.insert(lin, at[new], knots[new]))
        return self._cached(f"_grid_{size}", build)

    def interval(self, i: int) -> tuple[float, float]:
        """Endpoints of I_i for i in 1..N."""
        return (self.knots[i - 1], self.knots[i])


def build_partition(knots: Sequence[float]) -> Partition:
    """Build a partition from a knot vector (>= 3 strictly increasing values)."""
    return Partition(tuple(knots))


@dataclass(frozen=True)
class AffineMapSet:
    """The contractive maps l_i : I -> I_i and their inverses Q_i = l_i^{-1}.

    l_i(x) = a_i x + e_i with the closed-form coefficients
        a_i = (x_i - x_{i-1}) / (x_N - x_0)
        e_i = (x_N x_{i-1} - x_0 x_i) / (x_N - x_0)
    so l_i(x_0) = x_{i-1} and l_i(x_N) = x_i.  Evaluation uses the equivalent
    two-point form, which maps the interval endpoints onto the knots exactly
    in floating point (no residual at the joins); only the ratios a_i are
    stored.
    """

    partition: Partition
    a: tuple[float, ...]

    @classmethod
    def from_partition(cls, p: Partition) -> "AffineMapSet":
        k = p.array()
        return cls(p, tuple(float(v) for v in (k[1:] - k[:-1]) / p.span))

    @property
    def A(self) -> float:
        """Largest contraction ratio max_i a_i."""
        return max(self.a)

    def forward(self, i: int, x):
        """l_i(x) for x in I (two-point form; the interval endpoints land on
        the knots bit-exactly)."""
        lo, hi = self.partition.domain
        xl, xr = self.partition.interval(i)
        x = np.asarray(x, dtype=float)
        out = (xl * (hi - x) + xr * (x - lo)) / (hi - lo)
        return np.where(x == lo, xl, np.where(x == hi, xr, out))

    def inverse_many(self, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Q_i(z) = l_i^{-1}(z) per point, i taken from the 1-based indices idx;
        the knots land on the domain ends bit-exactly, and the result is
        clipped into the domain."""
        k = self.partition.array()
        k_left = np.roll(k, 1)  # k_left[i] = k[i - 1] for i >= 1
        lo, hi = self.partition.domain
        z = np.asarray(z, dtype=float)
        out = np.empty(z.shape)

        def fill(q, zs, i):
            # (lo (xr - z) + hi (z - xl)) / (xr - xl), each product and sum
            # as IEEE rounds it in either order, in two temporaries
            xl, xr = k_left.take(i), k.take(i)
            at_left, at_right = zs == xl, zs == xr
            np.subtract(xr, zs, out=q)
            q *= lo
            xr -= xl
            np.subtract(zs, xl, out=xl)
            xl *= hi
            q += xl
            q /= xr
            np.copyto(q, hi, where=at_right)
            np.copyto(q, lo, where=at_left)
            np.clip(q, lo, hi, out=q)

        run_blocks(fill, out, z, idx)
        return out


# ---------------------------------------------------------------------------
# Level sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Level:
    """One level of the sequence: per-interval scaling functions + base function."""

    scalings: tuple
    base: object

    def __post_init__(self):
        object.__setattr__(self, "scalings", tuple(self.scalings))
        if not self.scalings:
            raise ConfigError("a level needs one scaling function per interval")


@dataclass(frozen=True)
class LevelSequence:
    """Explicit prefix of levels r = 1..R; levels beyond the prefix repeat the last.

    Construction checks only the shape.  The contraction hypothesis
    ||alpha||_inf < 1 needs a grid, so ``validate_level_sequence`` checks it
    once per config, for FunctionSpec scalings and plain callables alike.
    """

    levels: tuple[Level, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels:
            raise ConfigError("level sequence needs at least one explicit level")
        n = len(levels[0].scalings)
        if any(len(lv.scalings) != n for lv in levels):
            raise ConfigError("all levels must carry the same number of scaling functions")
        object.__setattr__(self, "levels", levels)

    @property
    def prefix_len(self) -> int:
        return len(self.levels)

    @property
    def n_intervals(self) -> int:
        return len(self.levels[0].scalings)

    def level(self, r: int) -> Level:
        """Level r >= 1 with the repeat-last tail rule."""
        return repeat_last(self.levels, r)

    def scaling(self, i: int, r: int):
        """alpha_{i,r} for interval i in 1..N."""
        return self.level(r).scalings[i - 1]

    def base(self, r: int):
        """b_r."""
        return self.level(r).base

    def alpha_sup(self, grid: np.ndarray) -> float:
        """Grid estimate of sup_r max_i ||alpha_{i,r}||_inf (finite max over the
        prefix, each distinct scaling evaluated once); NaN when any scaling
        value is NaN."""
        return sup_abs(evaluate(spec, grid) for spec, _ in
                       group_specs([spec for lv in self.levels for spec in lv.scalings]))


# ---------------------------------------------------------------------------
# Sampled functions
# ---------------------------------------------------------------------------


def _shared(a: np.ndarray) -> np.ndarray:
    """``a`` itself when nothing can write to it (read-only down to the array
    that owns its memory), else a read-only copy."""
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    return a if base is None else frozen(a.copy())


@dataclass(frozen=True)
class SampledFunction:
    """Function known through samples on a sorted grid; piecewise linear in between.

    Both arrays are read-only.  An array nothing can write to (read-only and
    owning its memory, like ``ProblemConfig.grid`` or a trajectory's frozen
    values) is shared; any other array, including a read-only view of a
    writable one, is copied, so a caller's later writes never reach the
    function.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if xs.size < 2:
            raise ValueError("a sampled function needs at least two points")
        # a NaN fails every comparison; between finite ends, all are finite
        if not (np.all(xs[1:] > xs[:-1]) and np.isfinite(xs[0]) and np.isfinite(xs[-1])):
            raise ValueError("sample grid must be finite and strictly increasing")
        if not np.all(np.isfinite(ys)):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "xs", _shared(xs))
        object.__setattr__(self, "ys", _shared(ys))

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.xs, self.ys)
        out = np.asarray(out, dtype=float)
        return out if out.shape else float(out)

    def with_values(self, ys: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.xs, ys)


# ---------------------------------------------------------------------------
# Problem configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DepthPolicy:
    """Truncation policy: a fixed depth in 1..DEPTH_CAP, or the smallest depth
    whose geometric tail bound ||alpha||^{k+1}/(1-||alpha||) * sup_r||f - b_r||
    drops below eps (at most DEPTH_CAP).  It holds exactly one of the two;
    with neither given, eps is DEFAULT_EPS."""

    depth: int | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.depth is not None:
            if self.eps is not None:
                raise ConfigError("give a depth or an eps, not both")
            if self.depth < 1:
                raise DepthZero("fixed depth must be >= 1")
            if self.depth > DEPTH_CAP:
                raise ConfigError(f"fixed depth must be at most {DEPTH_CAP}, got {self.depth}")
            return
        if self.eps is None:
            object.__setattr__(self, "eps", DEFAULT_EPS)
        if not 0.0 < self.eps < np.inf:
            raise ConfigError(f"tail tolerance eps must be finite and > 0, got {self.eps}")


_MODES = {"continuous": "continuous", "cont": "continuous",
          "lipschitz": "lipschitz", "lip": "lipschitz"}


@dataclass(frozen=True)
class ProblemConfig(_Cached):
    """Everything needed to build and evaluate the interpolant.

    ``germ`` may be a FunctionSpec or any vectorized callable on I.  The
    interpolation data are (x_i, f(x_i)).
    """

    partition: Partition
    germ: FunctionLike
    levels: LevelSequence
    d: float = 1.0
    grid_size: int = DEFAULT_GRID_SIZE
    depth_policy: DepthPolicy = field(default_factory=DepthPolicy)
    mode: str = "continuous"

    def __post_init__(self):
        if not isinstance(self.mode, str) or self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {sorted(set(_MODES))}, got {self.mode!r}")
        object.__setattr__(self, "mode", _MODES[self.mode])
        if not 0.0 < self.d <= 1.0:
            raise BadExponent(f"Holder exponent d must lie in (0, 1], got {self.d}")
        n = self.partition.n_intervals
        if self.levels.n_intervals != n:
            raise ConfigError(
                f"level sequence carries {self.levels.n_intervals} scaling functions "
                f"per level but the partition has {n} intervals"
            )
        if self.grid_size < n + 1:
            raise ConfigError("grid_size must be at least the knot count")
        if self.grid_size > GRID_LIMIT:
            raise ConfigError(f"grid_size must be at most {GRID_LIMIT}, got {self.grid_size}")

    # -- cached derived data ------------------------------------------------

    @property
    def n_intervals(self) -> int:
        return self.partition.n_intervals

    @property
    def domain(self) -> tuple[float, float]:
        return self.partition.domain

    @property
    def grid(self) -> np.ndarray:
        """Evaluation grid: uniform grid_size points with every knot inserted."""
        return self.partition.grid(self.grid_size)

    @property
    def maps(self) -> AffineMapSet:
        return self._cached("_maps", lambda: AffineMapSet.from_partition(self.partition))

    @property
    def germ_values(self) -> np.ndarray:
        return self._cached("_germ_values", lambda: frozen(evaluate(self.germ, self.grid)))

    @property
    def knot_ordinates(self) -> tuple[float, ...]:
        """The interpolation data f(x_i) at the knots."""
        return tuple(float(v) for v in knot_values(self.germ, self.partition))

    @property
    def scaling_cache(self) -> _Cached:
        """Holder of what the scalings give on the grid: ``alpha_sup`` (key
        "alpha_sup") and the RB step's alphas at the Q points (``engine``).
        Configs made with ``with_germ`` or ``with_bases`` keep the scalings,
        partition and grid size, so they share this one object; every other
        config starts its own."""
        return self._cached("_scaling_cache", _Cached)

    @property
    def alpha_sup(self) -> float:
        """Grid estimate of ||alpha||_inf."""
        return self.scaling_cache._cached("alpha_sup",
                                          lambda: self.levels.alpha_sup(self.grid))

    @property
    def germ_sup(self) -> float:
        return self._cached("_germ_sup", lambda: sup_abs([self.germ_values]))

    def base_values(self, r: int) -> np.ndarray:
        """b_r on the grid (repeat-last beyond the prefix).  Each distinct
        base of the prefix is evaluated once, and the levels that share it
        share its array."""

        def build():
            arrays = [None] * self.levels.prefix_len
            for base, positions in group_specs([lv.base for lv in self.levels.levels]):
                values = frozen(evaluate(base, self.grid))
                for k in positions:
                    arrays[k] = values
            return tuple(arrays)

        return repeat_last(self._cached("_base_values", build), r)

    @property
    def base_gap_sup(self) -> float:
        """Grid estimate of sup_r ||f - b_r||_inf (finite max over the prefix);
        NaN when any base value is NaN."""
        return self._cached("_base_gap_sup", lambda: sup_abs(
            self.germ_values - self.base_values(r)
            for r in range(1, self.levels.prefix_len + 1)))

    @property
    def base_sup(self) -> float:
        """Grid estimate of sup_r ||b_r||_inf; NaN when any base value is NaN."""
        return self._cached("_base_sup", lambda: sup_abs(
            self.base_values(r) for r in range(1, self.levels.prefix_len + 1)))

    def base_distance(self, other: "ProblemConfig") -> float:
        """sup_r ||b_r - bhat_r||_inf on a shared grid, over the longer prefix;
        NaN when any base value is NaN."""
        n = max(self.levels.prefix_len, other.levels.prefix_len)
        return sup_abs(self.base_values(r) - other.base_values(r) for r in range(1, n + 1))

    @property
    def r_bound(self) -> float:
        """Uniform bound R = ||f|| + ||alpha||/(1-||alpha||) sup_r||f-b_r|| on the interpolant."""
        a = self.alpha_sup
        return self.germ_sup + a / (1.0 - a) * self.base_gap_sup

    def validation(self) -> "ValidationReport":
        return self._cached("_validation", lambda: validate_level_sequence(self))

    # -- derived configurations ---------------------------------------------

    def with_levels(self, levels: LevelSequence) -> "ProblemConfig":
        return replace(self, levels=levels)

    def with_bases(self, bases: Sequence) -> "ProblemConfig":
        """Same scalings, new base per level.  ``bases`` is aligned with the prefix
        (repeat-last applies beyond its end)."""
        n = max(self.levels.prefix_len, len(bases))
        new = tuple(
            Level(self.levels.level(r).scalings, repeat_last(bases, r))
            for r in range(1, n + 1)
        )
        return self._sharing_scalings(replace(self, levels=LevelSequence(new)))

    def with_scalings(self, scalings_per_level: Sequence[Sequence]) -> "ProblemConfig":
        """Same bases, new scaling vectors per level."""
        n = max(self.levels.prefix_len, len(scalings_per_level))
        new = tuple(
            Level(tuple(repeat_last(scalings_per_level, r)), self.levels.level(r).base)
            for r in range(1, n + 1)
        )
        return replace(self, levels=LevelSequence(new))

    def with_germ(self, germ: FunctionLike) -> "ProblemConfig":
        return self._sharing_scalings(replace(self, germ=germ))

    def _sharing_scalings(self, other: "ProblemConfig") -> "ProblemConfig":
        object.__setattr__(other, "_scaling_cache", self.scaling_cache)
        return other

    def with_partition(self, partition: Partition) -> "ProblemConfig":
        return replace(self, partition=partition)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_level_sequence: endpoint residuals, degenerate
    levels, and every problem found as an (error class, message) pair."""

    endpoint_residuals: tuple[tuple[float, float], ...]
    degenerate_levels: tuple[int, ...]
    problems: tuple[tuple[type[AlphaFractalError], str], ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_failed(self) -> None:
        """Raise the first problem's class with every problem in the message."""
        if self.problems:
            raise self.problems[0][0](self.summary())

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{cls.__name__}: {msg}" for cls, msg in self.problems)


def validate_level_sequence(cfg: ProblemConfig) -> ValidationReport:
    """Check the convergence hypotheses on a configuration.

    Continuous mode needs ||alpha||_inf < 1 and endpoint-matched bases; the
    Lipschitz mode additionally needs max_i ||alpha_{i,r}||_d / a_i^d < 1/2
    on every level.  Norms are grid estimates.  A base equal to the germ is
    legal but degenerate (the interpolant collapses to the germ), so it is
    warned about, not rejected.
    """
    from . import norms  # local import: norms imports core.evaluate at module level

    f_vals = cfg.germ_values
    f0, fN = float(f_vals[0]), float(f_vals[-1])
    problems: list[tuple[type[AlphaFractalError], str]] = []
    if not np.all(np.isfinite(f_vals)):
        problems.append((ConfigError, "germ takes non-finite values on the grid"))

    alpha_sup = cfg.alpha_sup
    if not alpha_sup < 1.0:
        problems.append((
            ScalingNotContractive,
            f"||alpha||_inf estimate {alpha_sup:.6g} is not below 1",
        ))

    residuals = []
    degenerate = []
    for r in range(1, cfg.levels.prefix_len + 1):
        b_vals = cfg.base_values(r)
        if not np.all(np.isfinite(b_vals)):
            problems.append((ConfigError, f"base b_{r} takes non-finite values on the grid"))
        res = (abs(float(b_vals[0]) - f0), abs(float(b_vals[-1]) - fN))
        residuals.append(res)
        if not np.max(res) <= ENDPOINT_TOL:
            problems.append((
                EndpointMismatch,
                f"base b_{r} endpoint residuals {res[0]:.3g}, {res[1]:.3g} exceed {ENDPOINT_TOL}",
            ))
        if sup_abs([b_vals - f_vals]) < DEGENERATE_TOL:
            degenerate.append(r)
    if degenerate:
        warnings.warn(
            f"base function equals the germ on levels {degenerate}; "
            "the interpolant degenerates to the germ",
            stacklevel=2,
        )

    if cfg.mode == "lipschitz":
        worst = float(np.max(norms.lip_ratios(cfg)))
        if not worst < 0.5:
            problems.append((
                LipConditionViolated,
                f"max ||alpha_i||_d / a_i^d = {worst:.6g} is not below 1/2",
            ))

    return ValidationReport(
        endpoint_residuals=tuple(residuals),
        degenerate_levels=tuple(degenerate),
        problems=tuple(problems),
    )
