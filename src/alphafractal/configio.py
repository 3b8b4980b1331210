"""Config, manifest, and data-file handling for the CLI.

Config files are JSON with sections partition, germ, levels[], and optional
d / grid / depth / mode / ordinates.  Knot and ordinate data can come from a
two-column CSV with header ``x,y``.  Ordinates are checked against the germ at
the knots, the interpolation data f(x_i) of the construction.  All numeric
output is written with 17 significant digits so doubles round-trip.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import depend
from .core import (
    DEFAULT_GRID_SIZE,
    ENDPOINT_TOL,
    DepthPolicy,
    FunctionSpec,
    Level,
    LevelSequence,
    Partition,
    ProblemConfig,
    _usable_cores,
    build_partition,
)
from .errors import AlphaFractalError, ConfigError, EndpointMismatch, OutputError
from .report import BoundReport

FMT = "%.17g"
CURVE_ROW = ",".join([FMT] * 3) + "\r\n"  # csv.writer's row terminator
# Rows stacked, formatted and written at a time in write_curve_csv, the unit
# its ranges are cut in.  On a 2-core x86-64 VM one process wrote a 1M-point
# curve in 0.64 s with pieces of 4,096 rows, as with pieces of 16,384, and
# the formatter's arrays peaked at 3.6 MiB instead of 13.2 (tracemalloc).
CURVE_PIECE_ROWS = 4096
# write_curve_csv forks at most one export worker per usable core, and at
# most CURVE_MAX_WORKERS processes in all, the parent included.
CURVE_MAX_WORKERS = 8
# Each worker formats at least this many pieces, so curves of up to fifteen
# pieces (the default grid among them) are written by the parent alone.  In
# a grid-1048577 build on a 2-core x86-64 VM, forking and reaping a worker
# took about 3 ms and appending its part about 0.9 ms per 16,384 rows,
# against 7-9 ms to format them.
CURVE_WORKER_MIN_PIECES = 8


# ---------------------------------------------------------------------------
# JSON values
# ---------------------------------------------------------------------------


def _number(value, what: str) -> float:
    """A JSON number (not a boolean) as a float.  Finiteness and range are
    checked by the type the value configures."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is out of range") from None


def _integer(value, what: str) -> int:
    """A JSON number with an integral value, as an int."""
    if not _number(value, what).is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _list(value, what: str, item=_number) -> tuple:
    """A non-empty JSON list, each entry read by ``item(entry, what)``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list, got {value!r}")
    return tuple(item(v, f"{what}[{k}]") for k, v in enumerate(value))


def _resolve(ref, base_dir: Path | None) -> Path:
    """A file reference from a config, relative to the config's directory."""
    if not isinstance(ref, str):
        raise ConfigError(f"file reference must be a path string, got {ref!r}")
    path = Path(ref)
    return path if base_dir is None or path.is_absolute() else base_dir / path


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or bad JSON
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV data
# ---------------------------------------------------------------------------


def load_xy_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column CSV with header ``x,y``; returns (x, y) arrays."""
    path = Path(path)
    try:
        reader = csv.reader(path.read_text().splitlines())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 text
        raise ConfigError(f"{path}: {exc}") from exc
    header = next(reader, [])
    if [h.strip().lower() for h in header[:2]] != ["x", "y"]:
        raise ConfigError(f"{path}: expected header 'x,y', got {header!r}")
    xs, ys = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad row {row!r}") from exc
    if len(xs) < 2:
        raise ConfigError(f"{path}: need at least two data rows")
    return np.asarray(xs), np.asarray(ys)


# ---------------------------------------------------------------------------
# Function specs
# ---------------------------------------------------------------------------


def funcspec_from_dict(d: dict, domain, base_dir: Path | None = None) -> FunctionSpec:
    if not isinstance(d, dict) or "family" not in d:
        raise ConfigError(f"function spec must be an object with a 'family', got {d!r}")
    fam = d["family"]

    def num(key, default=None):
        return _number(d[key] if default is None else d.get(key, default), f"{fam} {key}")

    try:
        if fam == "constant":
            return FunctionSpec.constant(num("value"), domain)
        if fam == "linear-endpoint":
            return FunctionSpec.linear_endpoint(num("left"), num("right"), domain)
        if fam == "polynomial":
            return FunctionSpec.polynomial(_list(d["coeffs"], f"{fam} coeffs"), domain)
        if fam == "sinusoid":
            return FunctionSpec.sinusoid(
                num("amplitude", 1.0), num("omega", np.pi),
                num("phase", 0.0), num("offset", 0.0), domain,
            )
        if fam == "sampled":
            if "csv" not in d:
                return FunctionSpec.sampled(_list(d["values"], f"{fam} values"), domain)
            xs, ys = load_xy_csv(_resolve(d["csv"], base_dir))
            steps = np.diff(xs)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise ConfigError("sampled spec at the config surface needs a uniform grid")
            return FunctionSpec.sampled(ys, domain, abscissas=tuple(xs))
    except KeyError as exc:
        raise ConfigError(f"{fam} spec missing parameter {exc}") from None
    raise ConfigError(f"unknown function family {fam!r}")


# ---------------------------------------------------------------------------
# Problem configuration
# ---------------------------------------------------------------------------


def _check_knot_data(germ, partition: Partition, source: str, values) -> None:
    """The construction interpolates (x_i, f(x_i)), so values supplied at the
    knots must be the germ's: EndpointMismatch at the first knot where they
    differ by more than ENDPOINT_TOL (or either is NaN)."""
    values = np.asarray(values, dtype=float)
    if values.size != len(partition.knots):
        raise ConfigError(f"{source} must supply one value per knot "
                          f"({len(partition.knots)}), got {values.size}")
    germ_values = germ.knot_values(partition)
    bad = np.flatnonzero(~(np.abs(values - germ_values) <= ENDPOINT_TOL))
    if bad.size:
        k = int(bad[0])
        raise EndpointMismatch(
            f"{source} at knot x_{k} = {partition.knots[k]} is {float(values[k])}, "
            f"not the germ value {float(germ_values[k])} (tolerance {ENDPOINT_TOL})")


def config_from_dict(d: dict, base_dir: Path | None = None,
                     overrides: dict | None = None) -> ProblemConfig:
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    overrides = overrides or {}

    part = d.get("partition")
    if not isinstance(part, dict):
        raise ConfigError("config needs a 'partition' section")
    knot_data = []  # (source, values at the knots) pairs
    if "csv" in part:
        path = _resolve(part["csv"], base_dir)
        xs, ys = load_xy_csv(path)
        partition = build_partition(xs)
        knot_data.append((f"{path} column y", ys))
    elif "knots" in part:
        partition = build_partition(_list(part["knots"], "knots"))
    else:
        raise ConfigError("partition section needs 'knots' or 'csv'")
    if d.get("ordinates") is not None:
        knot_data.append(("ordinates", _list(d["ordinates"], "ordinates")))
    domain = partition.domain

    if "germ" not in d:
        raise ConfigError("config needs a 'germ' section")
    germ = funcspec_from_dict(d["germ"], domain, base_dir)
    for source, values in knot_data:
        _check_knot_data(germ, partition, source, values)

    def level(entry, what) -> Level:
        if not isinstance(entry, dict) or "scaling" not in entry or "base" not in entry:
            raise ConfigError(f"{what} needs 'scaling' and 'base'")
        raw_scaling = entry["scaling"]
        if isinstance(raw_scaling, dict):
            raw_scaling = [raw_scaling] * partition.n_intervals
        if not isinstance(raw_scaling, list) or len(raw_scaling) != partition.n_intervals:
            raise ConfigError(
                f"{what}: expected one scaling spec or a list of "
                f"{partition.n_intervals}, got {raw_scaling!r}"
            )
        scalings = tuple(funcspec_from_dict(s, domain, base_dir) for s in raw_scaling)
        return Level(scalings=scalings, base=funcspec_from_dict(entry["base"], domain, base_dir))

    levels = _list(d.get("levels"), "levels", level)

    grid = overrides.get("grid")
    grid_size = _integer(d.get("grid", DEFAULT_GRID_SIZE) if grid is None else grid, "grid")
    mode = overrides.get("mode") or d.get("mode", "continuous")
    dep = d.get("depth")
    if isinstance(dep, dict):
        if "k" not in dep and "eps" not in dep:
            raise ConfigError("depth section needs 'k' or 'eps'")
        policy = DepthPolicy(depth=_integer(dep["k"], "depth k") if "k" in dep else None,
                             eps=_number(dep["eps"], "depth eps") if "eps" in dep else None)
    else:
        policy = DepthPolicy(depth=None if dep is None else _integer(dep, "depth"))
    if overrides.get("depth") is not None or overrides.get("eps") is not None:
        policy = DepthPolicy(depth=overrides.get("depth"), eps=overrides.get("eps"))

    return ProblemConfig(
        partition=partition,
        germ=germ,
        levels=LevelSequence(levels),
        d=_number(d.get("d", 1.0), "d"),
        grid_size=grid_size,
        depth_policy=policy,
        mode=mode,
    )


def load_config(path, overrides: dict | None = None) -> ProblemConfig:
    path = Path(path)
    return config_from_dict(_read_json(path), base_dir=path.parent, overrides=overrides)


# ---------------------------------------------------------------------------
# Manifests (dependence sweeps)
# ---------------------------------------------------------------------------


# A parsed sweep experiment: the call that runs it and gives its reports.
SweepRun = Callable[[], list[BoundReport]]


def experiment_from_dict(d: dict, cfg: ProblemConfig,
                         base_dir: Path | None = None) -> SweepRun:
    """One experiment on ``cfg``, parsed and put through the range checks its
    ``depend`` function makes before it runs."""
    partition = cfg.partition
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind not in ("base", "scaling", "partition"):
        raise ConfigError("needs kind base | scaling | partition")

    def specs(raw, what):
        return _list(raw, what, lambda s, _: funcspec_from_dict(s, partition.domain, base_dir))

    try:
        if kind == "base":
            a, b = specs(d["bases_a"], "bases_a"), specs(d["bases_b"], "bases_b")
            return lambda: [depend.base_dependence(cfg, a, b)]
        if kind == "scaling":
            a, b = (_list(d[name], name, specs) for name in ("alphas_a", "alphas_b"))
            s_cap = _number(d.get("s_cap", 0.99), "s_cap")
            depend.require_cap(s_cap)
            depend.require_capped(cfg, a, s_cap, "first")
            depend.require_capped(cfg, b, s_cap, "second")
            return lambda: [depend.scaling_dependence(cfg, a, b, s_cap)]
        other = build_partition(_list(d["knots"], "knots"))
        halvings = _integer(d.get("halvings", 3), "halvings")
        depend.require_halvings(partition, other, halvings)
        return lambda: depend.partition_continuity(cfg, other, halvings=halvings)
    except KeyError as exc:
        raise ConfigError(f"{kind} experiment missing field {exc}") from None


def load_manifest(path, overrides: dict | None = None) -> tuple[ProblemConfig, list[SweepRun]]:
    """The manifest's config and the run of each experiment, every experiment
    parsed and range-checked before any of them runs."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: manifest root must be an object")
    if "config_path" in data:
        cfg = load_config(_resolve(data["config_path"], path.parent), overrides=overrides)
    elif "config" in data:
        cfg = config_from_dict(data["config"], base_dir=path.parent, overrides=overrides)
    else:
        raise ConfigError(f"{path}: manifest needs 'config' or 'config_path'")
    raw = data.get("experiments", [])
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: 'experiments' must be a list")
    runs = []
    for k, exp in enumerate(raw):
        try:
            runs.append(experiment_from_dict(exp, cfg, path.parent))
        except AlphaFractalError as exc:
            raise type(exc)(f"{path}: experiment {k}: {exc}") from None
    return cfg, runs


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


@contextmanager
def _writing(path):
    """Report an OSError raised while writing ``path`` as an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _curve_ranges(n: int) -> list[tuple[int, int]]:
    """Contiguous row ranges of an n-row curve, cut at piece edges, one per
    export worker; the first is the parent's."""
    pieces = -(-n // CURVE_PIECE_ROWS)
    cores = _usable_cores() if hasattr(os, "fork") else 1
    workers = max(1, min(cores, CURVE_MAX_WORKERS, pieces // CURVE_WORKER_MIN_PIECES))
    edges = [min(n, k * pieces // workers * CURVE_PIECE_ROWS) for k in range(workers + 1)]
    return list(zip(edges, edges[1:]))


def _write_rows(fh, cols, start: int, stop: int) -> None:
    """Rows start..stop-1 of the curve to a binary file, a piece at a time."""
    from .curvetext import curve_text  # loaded with the first curve written
    for s in range(start, stop, CURVE_PIECE_ROWS):
        fh.write(curve_text(np.column_stack([c[s:min(s + CURVE_PIECE_ROWS, stop)]
                                             for c in cols])))


def _fork_part(part: Path, cols, start: int, stop: int) -> int:
    """Fork a worker that writes rows start..stop-1 to ``part``; its pid.
    The worker exits 0 once the part is complete and closed, else 1."""
    with warnings.catch_warnings():
        # Python 3.12 warns when a process with threads forks: numpy's
        # OpenBLAS has started its pool by now.  The worker is safe.  No
        # kernel thread exists at fork time (core.run_blocks joins its
        # helpers before it returns), and the worker only formats: numpy
        # element-wise arithmetic on pieces far below core.BLOCK_POINTS,
        # slicing, tolist, % formatting and writes to its own file.  It
        # makes no BLAS call and leaves through os._exit.
        warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        with part.open("wb") as fh:
            _write_rows(fh, cols, start, stop)
        status = 0
    finally:
        os._exit(status)


def write_curve_csv(path, xs, f_vals, fa_vals) -> None:
    """Header ``x,f,falpha``, then one row per grid point, each value as %.17g
    and each row ended by CRLF, as csv.writer writes them.  Rows are
    formatted a piece at a time, so the full three-column table is never
    stacked in memory.

    A long curve is cut into contiguous piece ranges, one per usable core:
    forked workers each write their range to ``<path>.part<k>`` while the
    parent writes the first range, then the parent appends the parts in
    order.  The bytes do not depend on the number of workers.  If anything
    fails, every worker is reaped and no part and no partial ``path`` is
    left; an OSError or a failed worker is raised as OutputError."""
    from . import curvetext  # noqa: F401  (loaded before the workers fork, so each inherits it)
    path = Path(path)
    cols = [np.asarray(v, dtype=float) for v in (xs, f_vals, fa_vals)]
    (start, stop), *rest = _curve_ranges(cols[0].size)
    parts = [path.with_name(f"{path.name}.part{k}") for k in range(1, len(rest) + 1)]
    pids = []
    opened = done = False
    try:
        with _writing(path):
            for part, rows in zip(parts, rest):
                pids.append(_fork_part(part, cols, *rows))
            with path.open("wb") as fh:
                opened = True
                fh.write(b"x,f,falpha\r\n")
                _write_rows(fh, cols, start, stop)
                for part, rows in zip(parts, rest):
                    status = os.waitpid(pids[0], 0)[1]
                    del pids[0]
                    if status:
                        raise OutputError(
                            f"cannot write {path}: the worker for rows {rows[0]}..{rows[1]} "
                            f"exited with status {os.waitstatus_to_exitcode(status)}")
                    with part.open("rb") as src:
                        shutil.copyfileobj(src, fh)
                    part.unlink()
            done = True
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for part in parts:
            part.unlink(missing_ok=True)
        if opened and not done:
            path.unlink(missing_ok=True)


def write_report_csv(path, reports) -> None:
    path = Path(path)
    with _writing(path), path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bound", "predicted", "observed", "margin", "pass"])
        for r in reports:
            name, pred, obs, margin, ok = r.to_row()
            w.writerow([name, FMT % pred, FMT % obs, FMT % margin,
                        "true" if ok else "false"])


def write_reports_json(path, reports) -> None:
    write_json(path, [r.to_json_dict() for r in reports])


def write_json(path, data) -> None:
    text = json.dumps(data, indent=2, default=_json_default) + "\n"
    with _writing(path):
        Path(path).write_text(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
