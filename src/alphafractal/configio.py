"""Config, manifest, and data-file handling for the CLI.

Config files are JSON with sections partition, germ, levels[], and optional
d / grid / depth / mode / ordinates.  Knot and ordinate data can come from a
two-column CSV with header ``x,y``.  All numeric output is written with 17
significant digits so doubles round-trip.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .core import (
    DepthPolicy,
    FunctionSpec,
    Level,
    LevelSequence,
    ProblemConfig,
    build_partition,
)
from .errors import ConfigError

FMT = "%.17g"
CURVE_ROW = ",".join([FMT] * 3) + "\r\n"  # csv.writer's row terminator
# Rows formatted per string in write_curve_csv.  16,384 rows run within about
# 10% of the speed of 65,536 and hold a quarter of the transient memory.
CURVE_BLOCK_ROWS = 16384


def fmt(v: float) -> str:
    return FMT % float(v)


# ---------------------------------------------------------------------------
# CSV data
# ---------------------------------------------------------------------------


def load_xy_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column CSV with header ``x,y``; returns (x, y) arrays."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty CSV") from None
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
    try:
        if fam == "constant":
            return FunctionSpec.constant(d["value"], domain)
        if fam == "linear-endpoint":
            return FunctionSpec.linear_endpoint(d["left"], d["right"], domain)
        if fam == "polynomial":
            return FunctionSpec.polynomial(d["coeffs"], domain)
        if fam == "sinusoid":
            return FunctionSpec.sinusoid(
                d.get("amplitude", 1.0), d.get("omega", np.pi),
                d.get("phase", 0.0), d.get("offset", 0.0), domain,
            )
        if fam == "sampled":
            if "csv" not in d:
                return FunctionSpec.sampled(d["values"], domain)
            ref = Path(d["csv"])
            if base_dir is not None and not ref.is_absolute():
                ref = base_dir / ref
            xs, ys = load_xy_csv(ref)
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


def config_from_dict(d: dict, base_dir: Path | None = None,
                     overrides: dict | None = None) -> ProblemConfig:
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    overrides = overrides or {}

    part = d.get("partition")
    ordinates = d.get("ordinates")
    if not isinstance(part, dict):
        raise ConfigError("config needs a 'partition' section")
    if "csv" in part:
        ref = Path(part["csv"])
        if base_dir is not None and not ref.is_absolute():
            ref = base_dir / ref
        xs, ys = load_xy_csv(ref)
        partition = build_partition(xs)
        ordinates = list(ys)
    elif "knots" in part:
        partition = build_partition(part["knots"])
    else:
        raise ConfigError("partition section needs 'knots' or 'csv'")
    domain = partition.domain

    if "germ" not in d:
        raise ConfigError("config needs a 'germ' section")
    germ = funcspec_from_dict(d["germ"], domain, base_dir)

    raw_levels = d.get("levels")
    if not raw_levels or not isinstance(raw_levels, list):
        raise ConfigError("config needs a non-empty 'levels' list")
    levels = []
    for k, entry in enumerate(raw_levels, start=1):
        if not isinstance(entry, dict) or "scaling" not in entry or "base" not in entry:
            raise ConfigError(f"level {k} needs 'scaling' and 'base'")
        raw_scaling = entry["scaling"]
        if isinstance(raw_scaling, dict):
            raw_scaling = [raw_scaling] * partition.n_intervals
        if len(raw_scaling) != partition.n_intervals:
            raise ConfigError(
                f"level {k}: expected {partition.n_intervals} scaling specs, "
                f"got {len(raw_scaling)}"
            )
        scalings = tuple(funcspec_from_dict(s, domain, base_dir) for s in raw_scaling)
        base = funcspec_from_dict(entry["base"], domain, base_dir)
        levels.append(Level(scalings=scalings, base=base))

    grid_size = int(overrides.get("grid") or d.get("grid", 1025))
    mode = overrides.get("mode") or d.get("mode", "continuous")
    dep = d.get("depth")
    policy = DepthPolicy()
    if isinstance(dep, dict):
        if "k" in dep:
            policy = DepthPolicy(depth=int(dep["k"]))
        elif "eps" in dep:
            policy = DepthPolicy(eps=float(dep["eps"]))
        else:
            raise ConfigError("depth section needs 'k' or 'eps'")
    elif isinstance(dep, (int, float)) and dep is not None:
        policy = DepthPolicy(depth=int(dep))
    if overrides.get("depth") is not None:
        policy = DepthPolicy(depth=int(overrides["depth"]))
    elif overrides.get("eps") is not None:
        policy = DepthPolicy(eps=float(overrides["eps"]))

    return ProblemConfig(
        partition=partition,
        germ=germ,
        levels=LevelSequence(tuple(levels)),
        ordinates=tuple(ordinates) if ordinates is not None else None,
        d=float(d.get("d", 1.0)),
        grid_size=grid_size,
        depth_policy=policy,
        mode=mode,
    )


def load_config(path, overrides: dict | None = None) -> ProblemConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(data, base_dir=path.parent, overrides=overrides)


# ---------------------------------------------------------------------------
# Manifests (dependence sweeps)
# ---------------------------------------------------------------------------


def load_manifest(path, overrides: dict | None = None) -> tuple[ProblemConfig, list[dict]]:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: manifest root must be an object")
    if "config_path" in data:
        ref = Path(data["config_path"])
        if not ref.is_absolute():
            ref = path.parent / ref
        cfg = load_config(ref, overrides=overrides)
    elif "config" in data:
        cfg = config_from_dict(data["config"], base_dir=path.parent, overrides=overrides)
    else:
        raise ConfigError(f"{path}: manifest needs 'config' or 'config_path'")
    experiments = data.get("experiments", [])
    if not isinstance(experiments, list):
        raise ConfigError(f"{path}: 'experiments' must be a list")
    for k, exp in enumerate(experiments):
        if not isinstance(exp, dict) or exp.get("kind") not in ("base", "scaling", "partition"):
            raise ConfigError(
                f"{path}: experiment {k} needs kind base | scaling | partition"
            )
    return cfg, experiments


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def write_curve_csv(path, xs, f_vals, fa_vals) -> None:
    """Header ``x,f,falpha``, then one row per grid point, each value as %.17g
    and each row ended by CRLF, as csv.writer writes them.  Rows are
    formatted a block at a time, so the full three-column table is never
    stacked in memory."""
    cols = [np.asarray(v, dtype=float) for v in (xs, f_vals, fa_vals)]
    with Path(path).open("w", newline="") as fh:
        fh.write("x,f,falpha\r\n")
        for s in range(0, cols[0].size, CURVE_BLOCK_ROWS):
            block = np.column_stack([c[s:s + CURVE_BLOCK_ROWS] for c in cols])
            fh.write(CURVE_ROW * block.shape[0] % tuple(block.ravel().tolist()))


def write_report_csv(path, reports) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bound", "predicted", "observed", "margin", "pass"])
        for r in reports:
            name, pred, obs, margin, ok = r.to_row()
            w.writerow([name, fmt(pred), fmt(obs), fmt(margin),
                        "true" if ok else "false"])


def write_reports_json(path, reports) -> None:
    Path(path).write_text(
        json.dumps([r.to_json_dict() for r in reports], indent=2, default=_json_default)
        + "\n"
    )


def write_summary_json(path, summary: dict) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
