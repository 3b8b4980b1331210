"""The benchmark's four workloads: seeded inputs, one timed operation, and the
checks that decide whether an operation's output is correct.

Each workload drives alphafractal only through its public entry points
(``cli.main`` for the three CLI workloads, ``engine.eval_interpolant`` for
series-eval).  Inputs are generated from the benchmark seed and written under
the work directory; the program sees only those files and arrays.

``run`` performs one timed call and returns an ``Outcome``: its wall time,
how many operations it stands for (a build call and a series call are one
operation each; every bound report and every sweep row is one), and the
SHA-256 of each output.  ``check`` then inspects that output, outside the
timed region and with tracing removed, and counts the failed operations.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from alphafractal import cli, configio, engine
from alphafractal.core import evaluate

# Acceptance-criterion-11 shape: six equal intervals, a two-level prefix, a
# sinusoid germ and endpoint-matched linear bases.  The seed picks the germ
# phase; the bases follow it so the base conditions keep holding.
KNOTS_6 = [0.0, 1 / 6, 1 / 3, 0.5, 2 / 3, 5 / 6, 1.0]
GERM_AMPLITUDE, GERM_OMEGA, GERM_OFFSET = 0.8, 6.0, 0.1

CONFIG_GRID = 4097       # the config file's grid; build-1m overrides it
BUILD_GRID = 1048577
VERIFY_TRIALS = 20
EPS = 1e-10
SERIES_POINTS = 262144
SERIES_SUBSAMPLE = 4096
SERIES_EXTRA_LEVELS = 5
SWEEP_GRID = 2049
SWEEP_HALVINGS = 4


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=2) + "\n")
    return sha256_file(path)


def criterion11_config(rng: np.random.Generator) -> dict:
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    left = GERM_AMPLITUDE * np.sin(phase) + GERM_OFFSET
    right = GERM_AMPLITUDE * np.sin(GERM_OMEGA + phase) + GERM_OFFSET
    base = {"family": "linear-endpoint", "left": left, "right": right}
    return {
        "partition": {"knots": KNOTS_6},
        "germ": {"family": "sinusoid", "amplitude": GERM_AMPLITUDE,
                 "omega": GERM_OMEGA, "phase": phase, "offset": GERM_OFFSET},
        "levels": [
            {"scaling": {"family": "constant", "value": 0.45}, "base": base},
            {"scaling": {"family": "sinusoid", "amplitude": 0.1, "omega": 3.0,
                         "phase": 0.0, "offset": 0.3},
             "base": base},
        ],
        "grid": CONFIG_GRID,
        "depth": {"eps": EPS},
    }


@dataclass
class Outcome:
    seconds: float
    attempted: int
    rc: int = 0
    items: int = 0                                 # throughput units produced
    outputs: dict = field(default_factory=dict)    # output name -> sha256
    failed: int = 0
    problems: list = field(default_factory=list)


def _run_cli(argv: list[str]) -> tuple[int, float]:
    """cli.main under a wall clock, its progress lines kept off our stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        t0 = perf_counter()
        rc = cli.main(argv)
        elapsed = perf_counter() - t0
    return rc, elapsed


def _digests(out: Path, names) -> dict:
    return {n: sha256_file(out / n) for n in names}


class Workload:
    """One named workload.  ``prepare`` writes the seeded inputs and returns
    their digests; ``run(k)`` times operation k; ``check`` judges its output
    before the next call overwrites it."""

    name = ""
    item = ""            # what one unit of throughput is
    metric = ""          # the workload-specific name of items_per_s
    predicted_sites: tuple[str, ...] = ()
    expected = 1         # operations one call stands for

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng(seed)
        work.mkdir(parents=True, exist_ok=True)
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)

    def prepare(self) -> dict:
        raise NotImplementedError

    def run(self, k: int, vary: bool) -> Outcome:
        """Run operation k.  With ``vary`` the workload may draw a fresh
        instance per call (verify-all does); otherwise every call repeats
        the seed's reference inputs exactly."""
        raise NotImplementedError

    def check(self, res: Outcome) -> None:
        raise NotImplementedError

    def final_check(self, calls: list[Outcome]) -> list[str]:
        """Checks deferred until every call of the run is done."""
        return []


class Build1M(Workload):
    name = "build-1m"
    item = "curve points"
    metric = "points_per_s"
    predicted_sites = (
        "cli.main", "configio.load_config", "configio.write_curve_csv",
        "core.validate_level_sequence", "engine.backward_trajectory",
        "engine.evaluate", "engine.locate_many",
    )

    def prepare(self) -> dict:
        self.config = self.work / "config.json"
        digest = _write_json(self.config, criterion11_config(self.rng))
        return {"config.json": digest}

    def run(self, k: int, vary: bool) -> Outcome:
        rc, elapsed = _run_cli(["build", "--config", str(self.config),
                                "--grid", str(BUILD_GRID), "--eps", repr(EPS),
                                "--out", str(self.out)])
        res = Outcome(seconds=elapsed, attempted=1, rc=rc)
        if rc == 0:
            res.outputs = _digests(self.out, ("curve.csv", "summary.json"))
        return res

    def check(self, res: Outcome) -> None:
        if res.rc != 0:
            res.failed, res.problems = 1, [f"build exited {res.rc}"]
            return
        res.items = json.loads((self.out / "summary.json").read_text())["grid_points"]

    def final_check(self, calls: list[Outcome]) -> list[str]:
        # Parsing 64 MB of CSV would raise the peak memory the run reports, so
        # only the last curve on disk is parsed, after the timed calls; every
        # other call must have written byte-identical files.
        done = [r for r in calls if r.rc == 0]
        if not done:
            return []
        summary = json.loads((self.out / "summary.json").read_text())
        problems = self._check_curve(summary)
        for res in done:
            if problems:
                res.failed, res.problems = 1, problems
            elif res.outputs != done[-1].outputs:
                res.failed, res.problems = 1, ["output differs from the verified curve"]
        return []

    def _check_curve(self, summary: dict) -> list[str]:
        """curve.csv must parse back bit-for-bit to the grid, the germ values
        and the trajectory the public API computes for the same config."""
        cfg = configio.load_config(self.config, overrides={"grid": BUILD_GRID, "eps": EPS})
        depth = engine.resolve_depth(cfg)
        problems = []
        if summary["depth_used"] != depth:
            problems.append(f"depth_used {summary['depth_used']} != resolve_depth {depth}")
        if not summary["knot_residual_max"] <= engine.INTERPOLATION_TOL:
            problems.append(f"knot_residual_max {summary['knot_residual_max']} "
                            f"> {engine.INTERPOLATION_TOL}")
        with open(self.out / "curve.csv") as fh:
            header = fh.readline().strip()
            table = np.loadtxt(fh, delimiter=",", dtype=float)
        if header != "x,f,falpha":
            problems.append(f"curve.csv header {header!r}")
        expected = (cfg.grid, cfg.germ_values,
                    engine.backward_trajectory(None, depth, cfg).values.ys)
        if table.shape != (cfg.grid.size, 3):
            problems.append(f"curve.csv shape {table.shape}, grid {cfg.grid.size}")
        else:
            for col, (label, want) in enumerate(zip(("x", "f", "falpha"), expected)):
                if not np.array_equal(table[:, col], want):
                    problems.append(f"curve.csv column {label} differs from the API values")
        return problems


class VerifyAll(Workload):
    name = "verify-all"
    item = "bound reports"
    metric = "checks_per_s"
    predicted_sites = (
        "cli.main", "configio.load_config", "configio.write_report_csv",
        "configio.write_reports_json", "core.validate_level_sequence",
        "engine.evaluate", "engine.locate_many", "bounds.backward_trajectory",
        "bounds.error_bound", "bounds.corollary_bound",
        "bounds.operator_lipschitz_check", "bounds.relative_bound_check",
        "bounds.stability_bound", "bounds.sensitivity_bound",
        "campaigns.error_suite", "campaigns.operator_suite",
        "campaigns.stability_suite", "campaigns.sensitivity_suite",
        "campaigns.random_germ_spec", "campaigns.matched_base_spec",
        "campaigns.random_alpha_vector", "campaigns.zero_endpoint_spec",
        "campaigns.random_polynomial_spec", "bounds.random_polynomial_spec",
        "ifs.PerturbationSpec.check_contractive",
    )
    expected = 4 * VERIFY_TRIALS + 2

    def prepare(self) -> dict:
        self.config = self.work / "config.json"
        digest = _write_json(self.config, criterion11_config(self.rng))
        return {"config.json": digest}

    def campaign_seed(self, k: int, vary: bool) -> int:
        # The work in one campaign depends on its draws (level counts, depth),
        # so a timed run spreads its calls over many campaign seeds derived
        # from the benchmark seed.  Call 0 always uses the seed itself.
        return self.seed * 1000 + k if vary and k else self.seed

    def run(self, k: int, vary: bool) -> Outcome:
        rc, elapsed = _run_cli([
            "verify", "--config", str(self.config), "--suite", "all",
            "--trials", str(VERIFY_TRIALS), "--seed", str(self.campaign_seed(k, vary)),
            "--grid", str(CONFIG_GRID), "--eps", repr(EPS), "--out", str(self.out)])
        res = Outcome(seconds=elapsed, attempted=self.expected, rc=rc)
        if rc == 0:
            res.outputs = _digests(self.out, ("report.json", "report.csv"))
        return res

    def check(self, res: Outcome) -> None:
        if res.rc != 0:
            res.failed, res.problems = res.attempted, [f"verify exited {res.rc}"]
            return
        reports = json.loads((self.out / "report.json").read_text())
        res.items = len(reports)
        res.attempted = max(self.expected, len(reports))
        if len(reports) != self.expected:
            res.problems.append(f"{len(reports)} reports, expected {self.expected}")
        bad = [r["bound"] for r in reports if r["pass"] is not True]
        if bad:
            res.problems.append(f"failing reports: {bad[:5]}")
        res.failed = len(bad) + abs(self.expected - len(reports))


class SweepDependence(Workload):
    name = "sweep-dependence"
    item = "result rows"
    metric = "rows_per_s"
    predicted_sites = (
        "cli.main", "configio.load_manifest", "configio.write_report_csv",
        "core.validate_level_sequence", "depend.theta_constants",
        "depend.base_dependence", "depend.scaling_dependence",
        "depend.partition_dependence", "depend.lip_seminorm",
        "depend.backward_trajectory", "engine.evaluate", "engine.locate_many",
    )
    expected = 2 + SWEEP_HALVINGS

    def prepare(self) -> dict:
        # README running example: knots 0, 1/2, 1; f = x; b = x^2; alpha = 0.4.
        # The seed moves the partition experiment's target interior knot.
        # `sweep` ignores --grid, so the grid is set inside the config.
        offset = float(self.rng.uniform(0.05, 0.2)) * (1 if self.rng.random() < 0.5 else -1)
        poly = lambda *c: {"family": "polynomial", "coeffs": list(c)}  # noqa: E731
        const = lambda v: {"family": "constant", "value": v}  # noqa: E731
        manifest = {
            "config": {
                "partition": {"knots": [0.0, 0.5, 1.0]},
                "germ": poly(0.0, 1.0),
                "levels": [{"scaling": const(0.4), "base": poly(0.0, 0.0, 1.0)}],
                "d": 1.0,
                "grid": SWEEP_GRID,
                "depth": {"eps": 1e-8},
                "mode": "cont",
            },
            "experiments": [
                {"kind": "base", "bases_a": [poly(0.0, 0.0, 1.0)],
                 "bases_b": [poly(0.0, 0.0, 0.0, 1.0)]},
                {"kind": "scaling", "alphas_a": [[const(0.4), const(0.4)]],
                 "alphas_b": [[const(0.35), const(0.35)]], "s_cap": 0.4},
                {"kind": "partition", "knots": [0.0, 0.5 + offset, 1.0],
                 "halvings": SWEEP_HALVINGS},
            ],
        }
        self.manifest = self.work / "manifest.json"
        return {"manifest.json": _write_json(self.manifest, manifest)}

    def run(self, k: int, vary: bool) -> Outcome:
        rc, elapsed = _run_cli(["sweep", "--manifest", str(self.manifest),
                                "--out", str(self.out)])
        res = Outcome(seconds=elapsed, attempted=self.expected, rc=rc)
        if rc == 0:
            res.outputs = _digests(self.out, ("results.csv",))
        return res

    def check(self, res: Outcome) -> None:
        if res.rc != 0:
            res.failed, res.problems = res.attempted, [f"sweep exited {res.rc}"]
            return
        with open(self.out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        res.items = len(rows)
        res.attempted = max(self.expected, len(rows))
        bad = {k for k, r in enumerate(rows) if r["pass"] != "true"}
        if len(rows) != self.expected:
            res.problems.append(f"{len(rows)} rows, expected {self.expected}")
        if bad:
            res.problems.append(f"failing rows: {[rows[k]['bound'] for k in sorted(bad)]}")
        partition = [k for k, r in enumerate(rows)
                     if r["bound"].startswith("partition-displacement")]
        shifts = [float(rows[k]["observed"]) for k in partition]
        if len(shifts) != SWEEP_HALVINGS or not all(b < a for a, b in zip(shifts, shifts[1:])):
            res.problems.append(f"partition displacements do not shrink strictly: {shifts}")
            bad.update(partition)
        res.failed = len(bad) + abs(self.expected - len(rows))


class SeriesEval(Workload):
    name = "series-eval"
    item = "evaluated points"
    metric = "evals_per_s"
    predicted_sites = (
        "configio.load_config", "engine.eval_interpolant", "engine.series_eval",
        "engine.evaluate", "engine.locate_many", "core.validate_level_sequence",
    )

    def prepare(self) -> dict:
        self.config = self.work / "config.json"
        digest = _write_json(self.config, criterion11_config(self.rng))
        self.xs = self.rng.uniform(0.0, 1.0, SERIES_POINTS)
        self.sub = np.sort(self.rng.choice(SERIES_POINTS, SERIES_SUBSAMPLE, replace=False))
        self.verified = None   # digest of the last values that passed the full check
        return {"config.json": digest, "points.f64": sha256_bytes(self.xs.tobytes())}

    def run(self, k: int, vary: bool) -> Outcome:
        # Each call loads a fresh config, so no cached validation or geometry
        # carries over from the previous call.
        self.cfg = configio.load_config(self.config, overrides={"eps": EPS})
        t0 = perf_counter()
        self.vals = engine.eval_interpolant(self.xs, self.cfg, "series")
        res = Outcome(seconds=perf_counter() - t0, attempted=1, items=int(self.vals.size))
        res.outputs = {"series.f64": sha256_bytes(np.ascontiguousarray(self.vals).tobytes())}
        return res

    def check(self, res: Outcome) -> None:
        if res.outputs != self.verified:
            res.problems = self._check_values(self.cfg, self.vals)
            if not res.problems:
                self.verified = res.outputs
        res.failed = int(bool(res.problems))

    def _check_values(self, cfg, vals: np.ndarray) -> list[str]:
        """Knot values hit f(x_i); five more levels move a seeded subsample by
        no more than the geometric tail at the depth used."""
        if vals.shape != self.xs.shape or not np.all(np.isfinite(vals)):
            return [f"series values: shape {vals.shape}, not all finite or misshaped"]
        problems = []
        knots = cfg.partition.array()
        at_knots = engine.eval_interpolant(knots, cfg, "series")
        knot_err = float(np.max(np.abs(at_knots - evaluate(cfg.germ, knots))))
        if not knot_err <= engine.INTERPOLATION_TOL:
            problems.append(f"knot residual {knot_err:.3g} > {engine.INTERPOLATION_TOL}")
        depth = engine.resolve_depth(cfg)
        deeper = engine.series_eval(self.xs[self.sub], depth + SERIES_EXTRA_LEVELS, cfg)
        move = float(np.max(np.abs(deeper - vals[self.sub])))
        tail = engine.geometric_tail(cfg.alpha_sup, cfg.base_gap_sup, depth)
        if not move <= tail:
            problems.append(f"{SERIES_EXTRA_LEVELS} more levels moved values by "
                            f"{move:.3g} > tail bound {tail:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (Build1M, VerifyAll, SweepDependence, SeriesEval)}
