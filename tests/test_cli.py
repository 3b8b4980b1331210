import contextlib
import copy
import csv
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import alphafractal
from alphafractal import (
    FunctionSpec,
    PerturbationSpec,
    ProblemConfig,
    bounds,
    configio,
    depend,
    engine,
)
from alphafractal.cli import main
from test_span_sites import PERFBENCH, SMALL_RUNS

RUNNING_CONFIG = {
    "partition": {"knots": [0.0, 0.5, 1.0]},
    "germ": {"family": "polynomial", "coeffs": [0.0, 1.0]},
    "levels": [{
        "scaling": {"family": "constant", "value": 0.4},
        "base": {"family": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
    }],
    "grid": 1025,
}


CONST_04 = {"family": "constant", "value": 0.4}
CONST_035 = {"family": "constant", "value": 0.35}
SQUARE = {"family": "polynomial", "coeffs": [0.0, 0.0, 1.0]}
CUBE = {"family": "polynomial", "coeffs": [0.0, 0.0, 0.0, 1.0]}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def c11_config():
    """The criterion-11 shape at seed 1: six equal intervals, a sinusoid germ
    whose phase the seed draws, two scaling levels and endpoint-matched
    bases."""
    phase = float(np.random.default_rng(1).uniform(0.0, 2.0 * np.pi))
    base = {"family": "linear-endpoint", "left": 0.8 * np.sin(phase) + 0.1,
            "right": 0.8 * np.sin(6.0 + phase) + 0.1}
    return {
        "partition": {"knots": [0.0, 1 / 6, 1 / 3, 0.5, 2 / 3, 5 / 6, 1.0]},
        "germ": {"family": "sinusoid", "amplitude": 0.8, "omega": 6.0,
                 "phase": phase, "offset": 0.1},
        "levels": [
            {"scaling": {"family": "constant", "value": 0.45}, "base": base},
            {"scaling": {"family": "sinusoid", "amplitude": 0.1, "omega": 3.0,
                         "phase": 0.0, "offset": 0.3}, "base": base},
        ],
    }


@pytest.fixture
def evaluations(monkeypatch):
    """Every FunctionSpec evaluation as (repeat, callers): whether the same
    spec was evaluated on the same points before, and the names of the
    functions on the stack."""
    seen, log = set(), []
    call = FunctionSpec.__call__

    def counted(self, x):
        xa = np.asarray(x, dtype=float)
        key = (self, xa.shape, hashlib.sha256(xa.tobytes()).digest())
        callers, frame = set(), sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        log.append((key in seen, callers))
        seen.add(key)
        return call(self, x)

    monkeypatch.setattr(FunctionSpec, "__call__", counted)
    return log


def assert_one_diagnostic(capsys, error):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == error


class TestBuild:
    def test_running_example_curve(self, tmp_path):
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "curve.csv")
        row = next(r for r in rows if float(r["x"]) == 0.25)
        assert float(row["falpha"]) == pytest.approx(0.35, abs=1e-6)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["alpha_sup"] == pytest.approx(0.4)
        assert summary["r_bound"] == pytest.approx(7.0 / 6.0)
        assert summary["knot_residual_max"] <= 1e-8
        assert summary["validation"]["ok"] is True

    def test_zero_scaling_curve_equals_germ(self, tmp_path):
        data = json.loads(json.dumps(RUNNING_CONFIG))
        data["levels"][0]["scaling"]["value"] = 0.0
        cfg = write_config(tmp_path, data)
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        for row in read_csv(tmp_path / "curve.csv"):
            assert row["falpha"] == row["f"]

    def test_non_contractive_exits_2(self, tmp_path, capsys, trajectories):
        data = json.loads(json.dumps(RUNNING_CONFIG))
        data["levels"][0]["scaling"]["value"] = 1.2
        cfg = write_config(tmp_path, data)
        man = write_config(tmp_path, {"config": data, "experiments": [
            {"kind": "base", "bases_a": [SQUARE], "bases_b": [CUBE]}]}, "manifest.json")
        for argv in (["build", "--config", str(cfg)],
                     ["verify", "--config", str(cfg), "--trials", "1"],
                     ["sweep", "--manifest", str(man)]):
            assert main(argv + ["--out", str(tmp_path)]) == 2
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "ScalingNotContractive"
        assert trajectories == []

    @pytest.mark.parametrize("section, spec", [
        ("scaling", {"family": "constant", "value": float("nan")}),
        ("germ", {"family": "polynomial", "coeffs": [0, 1, float("inf")]}),
        ("scaling", {"family": "constant", "value": "abc"}),
        ("scaling", {"family": "constant", "value": None}),
        ("germ", {"family": "polynomial", "coeffs": None}),
        ("germ", {"family": "sampled", "values": None}),
        ("germ", {"family": "sampled", "csv": "missing.csv"}),
        ("config", {"grid": "abc"}),
        ("config", {"grid": [1]}),
        ("config", {"grid": 1025.5}),
        ("config", {"d": "x"}),
        ("config", {"depth": {"k": "x"}}),
        ("config", {"depth": {"eps": "x"}}),
        ("config", {"depth": {"eps": float("nan")}}),
        ("config", {"depth": True}),
        ("config", {"ordinates": ["a", 0.5, 1]}),
        ("config", {"ordinates": 5}),
        ("partition", {"knots": [0, "a", 1]}),
        ("partition", {"knots": 5}),
        ("level", {"scaling": 5}),
        ("flags", ["--eps", "nan"]),
        ("flags", ["--eps", "inf"]),
        ("flags", ["--grid", "0"]),
        ("config", {"grid": 10 ** 12}),
        ("flags", ["--grid", str(10 ** 12)]),
        ("config", {"depth": {"k": 3, "eps": 1e-3}}),
        ("flags", ["--depth", "3", "--eps", "1e-3"]),
        ("flags", ["--grid", "abc"]),
        # every spec parameter is read as a JSON number, never a string or boolean
        ("scaling", {"family": "constant", "value": "0.4"}),
        ("scaling", {"family": "constant", "value": True}),
        ("germ", {"family": "polynomial", "coeffs": ["0", True]}),
        ("germ", {"family": "polynomial", "coeffs": [0, 1, "2"]}),
        ("level", {"base": {"family": "linear-endpoint", "left": 0, "right": "1"}}),
        ("level", {"base": {"family": "linear-endpoint", "left": False, "right": 1}}),
        ("germ", {"family": "sinusoid", "amplitude": True}),
        ("germ", {"family": "sinusoid", "omega": "3"}),
        ("germ", {"family": "sinusoid", "phase": None}),
        ("germ", {"family": "sinusoid", "offset": [0.0]}),
        ("germ", {"family": "sampled", "values": [0.0, "0.5", 1.0]}),
        ("germ", {"family": "sampled", "values": [0.0, True, 1.0]}),
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, section, spec):
        data = json.loads(json.dumps(RUNNING_CONFIG))
        flags = []
        if section == "germ":
            data["germ"] = spec
        elif section == "scaling":
            data["levels"][0]["scaling"] = spec
        elif section == "flags":
            flags = spec
        else:
            {"config": data, "partition": data["partition"],
             "level": data["levels"][0]}[section].update(spec)
        cfg = write_config(tmp_path, data)
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)] + flags) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert "Traceback" not in err_lines[0]
        assert json.loads(err_lines[0])["error"] == "ConfigError"

    def test_verify_locates_the_grid_once(self, tmp_path, monkeypatch):
        # Every config a verify run derives keeps the template's partition,
        # which caches the grid, its interval indices and the RB stencil.
        sizes = []
        locate = engine.locate_many

        def counted(x, p):
            sizes.append(np.size(x))
            return locate(x, p)

        monkeypatch.setattr(engine, "locate_many", counted)
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        assert main(["verify", "--config", str(cfg), "--suite", "all", "--trials", "2",
                     "--out", str(tmp_path)]) == 0
        assert sizes == [1025]

    def test_each_base_evaluated_once(self, tmp_path, monkeypatch):
        # Validation, the base-gap estimate and the RB steps share one
        # evaluation of each distinct base on the grid: both levels here
        # share one base, so it is evaluated once.
        sizes = []
        call = FunctionSpec.__call__

        def counted(self, x):
            if self.family == "linear-endpoint":
                sizes.append(np.size(x))
            return call(self, x)

        monkeypatch.setattr(FunctionSpec, "__call__", counted)
        base = {"family": "linear-endpoint", "left": 0.0, "right": 1.5}
        data = {
            "partition": {"knots": [0.0, 0.5, 1.0]},
            "germ": {"family": "polynomial", "coeffs": [0.0, 1.0, 0.5]},
            "levels": [{"scaling": {"family": "constant", "value": 0.4}, "base": base},
                       {"scaling": {"family": "constant", "value": 0.3}, "base": base}],
            "grid": 257,
        }
        cfg = write_config(tmp_path, data)
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert sizes == [257]

    def test_each_scaling_evaluated_once(self, tmp_path, evaluations):
        # c11 repeats one scaling spec per level over all six intervals: the
        # sup estimate evaluates it once on the grid, the RB terms once at
        # the Q points
        cfg = write_config(tmp_path, c11_config())
        assert main(["build", "--config", str(cfg), "--grid", "4097", "--eps", "1e-10",
                     "--out", str(tmp_path)]) == 0
        assert sum("alpha_sup" in callers for _, callers in evaluations) == 2
        assert sum("_level_terms" in callers for _, callers in evaluations) == 2

    def test_missing_section_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"partition": {"knots": [0, 0.5, 1]}})
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["build", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["build", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()

    def test_lip_mode_summary(self, tmp_path):
        data = json.loads(json.dumps(RUNNING_CONFIG))
        data["levels"][0]["scaling"]["value"] = 0.2
        data["mode"] = "lip"
        cfg = write_config(tmp_path, data)
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["lip_hypothesis"]["pass"] is True

    def test_csv_partition_ingestion(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x,y\n0.0,0.0\n0.5,0.5\n1.0,1.0\n")
        data = json.loads(json.dumps(RUNNING_CONFIG))
        data["partition"] = {"csv": "data.csv"}
        cfg = write_config(tmp_path, data)
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["knot_residual_max"] <= 1e-8

    def test_blank_csv_row_is_skipped(self, tmp_path):
        data = json.loads(json.dumps(RUNNING_CONFIG))
        data["partition"] = {"csv": "data.csv"}
        (tmp_path / "data.csv").write_text("x,y\n0.0,0.0\n\n0.5,0.5\n1.0,1.0\n")
        assert main(["build", "--config", str(write_config(tmp_path, data)),
                     "--out", str(tmp_path / "csv")]) == 0
        assert main(["build", "--config", str(write_config(tmp_path, RUNNING_CONFIG, "knots.json")),
                     "--out", str(tmp_path / "knots")]) == 0
        assert ((tmp_path / "csv" / "curve.csv").read_bytes()
                == (tmp_path / "knots" / "curve.csv").read_bytes())

    def test_depth_flag_overrides_the_eps_policy(self, tmp_path):
        cfg = write_config(tmp_path, {**RUNNING_CONFIG, "depth": {"eps": 1e-8}})
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "eps")]) == 0
        assert json.loads((tmp_path / "eps" / "summary.json").read_text())["depth_used"] != 5
        assert main(["build", "--config", str(cfg), "--depth", "5",
                     "--out", str(tmp_path / "k")]) == 0
        assert json.loads((tmp_path / "k" / "summary.json").read_text())["depth_used"] == 5

    def test_csv_sampled_germ(self, tmp_path, capsys):
        # a sampled spec read from an x,y file beside the config, which must
        # sample the domain uniformly
        data = {**RUNNING_CONFIG, "germ": {"family": "sampled", "csv": "germ.csv"}}
        cfg = write_config(tmp_path, data)
        (tmp_path / "germ.csv").write_text("x,y\n0,0\n0.25,0.3\n0.5,0.5\n0.75,0.6\n1,1\n")
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "uniform")]) == 0
        curve = read_csv(tmp_path / "uniform" / "curve.csv")
        assert float(curve[len(curve) // 4]["f"]) == 0.3
        (tmp_path / "germ.csv").write_text("x,y\n0,0\n0.2,0.3\n0.5,0.5\n1,1\n")
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "non-uniform")]) == 2
        assert_one_diagnostic(capsys, "ConfigError")

    def test_curve_bytes_do_not_depend_on_workers(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, c11_config())
        forks = []
        fork_part = configio._fork_part
        monkeypatch.setattr(configio, "_fork_part",
                            lambda *args: forks.append(args) or fork_part(*args))
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(configio, "_usable_cores", lambda: workers)
            out = tmp_path / f"workers{workers}"
            assert main(["build", "--config", str(cfg), "--grid", "65537",
                         "--eps", "1e-10", "--out", str(out)]) == 0
            assert sorted(os.listdir(out)) == ["curve.csv", "summary.json"]
            outputs.append([(out / name).read_bytes() for name in ("curve.csv", "summary.json")])
        assert len(forks) == 1
        assert outputs[0] == outputs[1]

    def test_unwritable_curve_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        out = tmp_path / "out"
        (out / "curve.csv").mkdir(parents=True)
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 2
        assert_one_diagnostic(capsys, "OutputError")
        assert (out / "curve.csv").is_dir() and os.listdir(out) == ["curve.csv"]

    def test_unwritable_summary_leaves_no_curve(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 2
        assert_one_diagnostic(capsys, "OutputError")
        assert os.listdir(out) == ["summary.json"]

    def test_failing_export_worker_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(configio, "CURVE_PIECE_ROWS", 64)
        monkeypatch.setattr(configio, "_usable_cores", lambda: 2)
        write_rows = configio._write_rows

        def fail_in_worker(fh, cols, start, stop):
            if start:
                raise RuntimeError("worker fails")
            write_rows(fh, cols, start, stop)
        monkeypatch.setattr(configio, "_write_rows", fail_in_worker)
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        out = tmp_path / "out"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 2
        assert_one_diagnostic(capsys, "OutputError")
        assert os.listdir(out) == []


class TestVerify:
    def test_all_suites_pass(self, tmp_path):
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        rc = main(["verify", "--config", str(cfg), "--suite", "all",
                   "--trials", "5", "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "report.csv")
        assert rows
        assert all(r["pass"] == "true" for r in rows)
        detail = json.loads((tmp_path / "report.json").read_text())
        assert len(detail) == len(rows)

    def test_depth_flag_holds_for_every_suite(self, tmp_path):
        cfg = write_config(tmp_path, README_CONFIG)
        assert main(["verify", "--config", str(cfg), "--suite", "all", "--trials", "1",
                     "--depth", "2", "--out", str(tmp_path)]) == 0
        depths = {r["bound"]: r["inputs"]["depth"]
                  for r in json.loads((tmp_path / "report.json").read_text())
                  if "depth" in r["inputs"]}
        assert "sensitivity[0]" in depths and set(depths.values()) == {2}

    def test_bound_violation_exits_1(self, tmp_path, capsys, monkeypatch):
        # the first stability report fails; both reports are still written
        real, calls = bounds.stability_bound, []

        def first_fails(*args):
            rep = real(*args)
            calls.append(rep)
            return rep if len(calls) > 1 else replace(rep, observed=rep.predicted + 1.0)

        monkeypatch.setattr(bounds, "stability_bound", first_fails)
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        assert main(["verify", "--config", str(cfg), "--suite", "stability",
                     "--trials", "2", "--seed", "3", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1/2 bound checks passed (suite stability, trials 2, seed 3)"
        assert out[1].startswith("[FAIL] stability[0]: observed ")
        assert len(out) == 2
        assert [r["pass"] for r in read_csv(tmp_path / "report.csv")] == ["false", "true"]
        detail = json.loads((tmp_path / "report.json").read_text())
        assert [r["pass"] for r in detail] == [False, True]

    def test_error_suite_zero_scaling(self, tmp_path):
        data = json.loads(json.dumps(RUNNING_CONFIG))
        data["levels"][0]["scaling"]["value"] = 0.0
        cfg = write_config(tmp_path, data)
        rc = main(["verify", "--config", str(cfg), "--suite", "error",
                   "--trials", "3", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0

    def test_grid_values_evaluated_once(self, tmp_path, evaluations):
        # the sup estimates (shared by configs that keep the scalings), the
        # perturbation's grid sups behind the contractivity check, and the
        # RB terms never evaluate a spec again on points it has seen
        cfg = write_config(tmp_path, c11_config())
        assert main(["verify", "--config", str(cfg), "--suite", "all", "--trials", "2",
                     "--seed", "1", "--grid", "1025", "--out", str(tmp_path)]) == 0
        watched = {"alpha_sup", "grid_sups", "check_contractive", "_level_terms"}
        assert {site for _, callers in evaluations for site in callers & watched} == {
            "alpha_sup", "grid_sups", "_level_terms"}
        assert [callers & watched for repeat, callers in evaluations
                if repeat and callers & watched] == []

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        data = json.loads(json.dumps(RUNNING_CONFIG))
        data["levels"][0]["base"] = {"family": "polynomial", "coeffs": [0.1, 0.0, 1.0]}
        cfg = write_config(tmp_path, data)
        rc = main(["verify", "--config", str(cfg), "--suite", "error",
                   "--trials", "2", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "EndpointMismatch"

    def test_lip_mode_suites_draw_admissible_scalings(self, tmp_path):
        data = json.loads(json.dumps(RUNNING_CONFIG))
        data["levels"][0]["scaling"]["value"] = 0.2
        data["mode"] = "lip"
        cfg = write_config(tmp_path, data)
        rc = main(["verify", "--config", str(cfg), "--suite", "all",
                   "--trials", "3", "--seed", "11", "--out", str(tmp_path)])
        assert rc == 0

    def test_sensitivity_precondition_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        rc = main(["verify", "--config", str(cfg), "--suite", "sensitivity",
                   "--trials", "5", "--seed", "3", "--t-scale", "0.9",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "PerturbationTooLarge"

    def test_deterministic_reports(self, tmp_path):
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["verify", "--config", str(cfg), "--suite", "stability",
                         "--trials", "4", "--seed", "3", "--out", str(out)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        out = tmp_path / "out"
        (out / "report.csv").mkdir(parents=True)
        assert main(["verify", "--config", str(cfg), "--suite", "error",
                     "--trials", "2", "--out", str(out)]) == 2
        assert_one_diagnostic(capsys, "OutputError")

    def test_unwritable_report_json_leaves_no_report_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUNNING_CONFIG)
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert main(["verify", "--config", str(cfg), "--suite", "error",
                     "--trials", "2", "--out", str(out)]) == 2
        assert_one_diagnostic(capsys, "OutputError")
        assert os.listdir(out) == ["report.json"]


class TestSweep:
    def _manifest(self, tmp_path, experiments):
        man = {"config": RUNNING_CONFIG, "experiments": experiments}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(man))
        return path

    def test_base_pair(self, tmp_path):
        man = self._manifest(tmp_path, [{
            "kind": "base",
            "bases_a": [{"family": "polynomial", "coeffs": [0.0, 0.0, 1.0]}],
            "bases_b": [{"family": "polynomial", "coeffs": [0.0, 0.0, 0.0, 1.0]}],
        }])
        assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "results.csv")
        assert len(rows) == 1
        assert float(rows[0]["observed"]) <= 2.0 / 3.0 + 1e-4

    def test_bound_violation_exits_1(self, tmp_path, capsys, monkeypatch):
        # the run looks the dependence check up when it runs
        real = depend.base_dependence
        monkeypatch.setattr(depend, "base_dependence", lambda *args: replace(
            real(*args), observed=2.0, predicted=1.0, tolerance=0.0))
        man = write_config(tmp_path, README_MANIFEST, "manifest.json")
        assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "4/5 sweep rows passed",
            "[FAIL] base-dependence[exp=0]: observed 2 vs predicted 1 (margin -1)"]
        rows = read_csv(tmp_path / "results.csv")
        assert [r["pass"] for r in rows] == ["false"] + ["true"] * 4

    def test_partition_that_breaks_contraction_exits_2(self, tmp_path, capsys, trajectories):
        # sin(pi x) stays below 1 on this grid, but moving the knot to 0.5
        # puts x = 0.5 on the compared config's grid, where ||alpha|| = 1
        man = write_config(tmp_path, {"config": {
            **README_CONFIG, "partition": {"knots": [0.0, 0.4, 1.0]}, "grid": 4,
            "levels": [{"scaling": {"family": "sinusoid", "amplitude": 1.0,
                                    "omega": math.pi}, "base": SQUARE}],
        }, "experiments": [{"kind": "partition", "knots": [0.0, 0.5, 1.0], "halvings": 1}]},
            "manifest.json")
        assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path / "out")]) == 2
        assert_one_diagnostic(capsys, "ScalingNotContractive")
        assert trajectories == []

    def test_config_path_is_read_beside_the_manifest(self, tmp_path):
        inline = write_config(tmp_path, README_MANIFEST, "inline.json")
        assert main(["sweep", "--manifest", str(inline), "--out", str(tmp_path / "inline")]) == 0
        sub = tmp_path / "sub"
        sub.mkdir()
        write_config(sub, README_CONFIG, "cfg.json")
        by_path = write_config(sub, {"config_path": "cfg.json",
                                     "experiments": README_MANIFEST["experiments"]},
                               "manifest.json")
        assert main(["sweep", "--manifest", str(by_path), "--out", str(tmp_path / "path")]) == 0
        assert ((tmp_path / "path" / "results.csv").read_bytes()
                == (tmp_path / "inline" / "results.csv").read_bytes())

    def test_empty_manifest(self, tmp_path):
        man = self._manifest(tmp_path, [])
        assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path)]) == 0
        assert read_csv(tmp_path / "results.csv") == []

    def test_partition_triplet_decreasing(self, tmp_path):
        man = self._manifest(tmp_path, [{
            "kind": "partition", "knots": [0.0, 0.48, 1.0], "halvings": 3,
        }])
        assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "results.csv")
        assert len(rows) == 3

    def test_scaling_pair(self, tmp_path):
        man = self._manifest(tmp_path, [{
            "kind": "scaling",
            "alphas_a": [[{"family": "constant", "value": 0.4},
                          {"family": "constant", "value": 0.4}]],
            "alphas_b": [[{"family": "constant", "value": 0.35},
                          {"family": "constant", "value": 0.35}]],
            "s_cap": 0.4,
        }])
        assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "results.csv")
        assert rows[0]["pass"] == "true"

    def test_grid_override_changes_rows(self, tmp_path):
        man = self._manifest(tmp_path, [{
            "kind": "base",
            "bases_a": [{"family": "polynomial", "coeffs": [0.0, 0.0, 1.0]}],
            "bases_b": [{"family": "polynomial", "coeffs": [0.0, 0.0, 0.0, 1.0]}],
        }])
        rows = {}
        for grid in (None, "33", "1025"):
            out = tmp_path / f"grid-{grid}"
            flags = [] if grid is None else ["--grid", grid]
            assert main(["sweep", "--manifest", str(man), "--out", str(out)] + flags) == 0
            rows[grid] = read_csv(out / "results.csv")
        assert rows["33"][0]["observed"] != rows["1025"][0]["observed"]
        assert rows[None] == rows["1025"]  # the config's own grid

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        man = self._manifest(tmp_path, [{"kind": "nonsense"}])
        assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"

    def test_missing_field_exits_2(self, tmp_path, capsys):
        man = self._manifest(tmp_path, [{"kind": "base", "bases_a": []}])
        assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("experiment", [
        {"kind": "partition", "knots": [0, "a", 1]},
        {"kind": "partition", "knots": [0.0, 0.48, 1.0], "halvings": "x"},
        {"kind": "scaling", "alphas_a": [[CONST_04, CONST_04]],
         "alphas_b": [[CONST_04, CONST_04]], "s_cap": "x"},
        {"kind": "base", "bases_a": 5, "bases_b": [SQUARE]},
        {"kind": "base", "bases_a": [], "bases_b": [SQUARE]},
        {"kind": "scaling", "alphas_a": [], "alphas_b": [[CONST_04, CONST_04]]},
    ])
    def test_malformed_experiment_exits_2(self, tmp_path, capsys, experiment):
        man = self._manifest(tmp_path, [experiment])
        assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path)]) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert json.loads(err_lines[0])["error"] == "ConfigError"

    def test_experiments_checked_before_any_runs(self, tmp_path, capsys, trajectories):
        # a valid experiment first, then one that is malformed or that its
        # depend function would reject: the sweep fails before either runs
        first = {"kind": "partition", "knots": [0.0, 0.48, 1.0], "halvings": 3}
        cases = [
            ({"kind": "partition"}, "ConfigError"),
            (dict(first, halvings=0), "KnotCountMismatch"),
            ({"kind": "scaling", "alphas_a": [[CONST_04, CONST_04]],
              "alphas_b": [[CONST_035, CONST_035]], "s_cap": 1.5}, "CapViolated"),
            ({"kind": "scaling", "alphas_a": [[CONST_04, CONST_04]],
              "alphas_b": [[CONST_035, CONST_035]], "s_cap": 0.3}, "CapViolated"),
            (dict(first, knots=[0.0, 0.3, 0.6, 1.0]), "KnotCountMismatch"),
            (dict(first, knots=[0.0, 0.5, 2.0]), "EndpointMismatch"),
        ]
        for bad, error in cases:
            man = self._manifest(tmp_path, [first, bad])
            assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert (err["error"], "experiment 1" in err["detail"]) == (error, True), bad
            assert trajectories == []
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("other", [[0.5, 0.0, 1.0], [0.0, 0.5, 1.0]])
    def test_base_off_the_germ_exits_2(self, tmp_path, capsys, other):
        # b(0) = 0.5 where f(0) = 0, paired with itself or another base off the germ
        off = {"family": "polynomial", "coeffs": [0.5, 0.0, 1.0]}
        man = self._manifest(tmp_path, [{"kind": "base", "bases_a": [off], "bases_b": [
            {"family": "polynomial", "coeffs": other}]}])
        assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path)]) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert json.loads(err_lines[0])["error"] == "EndpointMismatch"
        assert not (tmp_path / "results.csv").exists()


# {cfg} is the running example's config file, {manifest} a valid manifest on
# it, {file} an existing plain file.
BAD_ARGUMENTS = [
    ["build"],
    ["build", "--config", "{cfg}", "--out", "{file}"],
    ["verify", "--config", "{cfg}", "--suite", "bogus"],
    ["verify", "--config", "{cfg}", "--trials", "2", "--seed", "-1"],
    ["verify", "--config", "{cfg}", "--trials", "2", "--t-scale", "nan"],
    ["verify", "--config", "{cfg}", "--trials", "2", "--t-scale", "inf"],
    ["verify", "--config", "{cfg}", "--trials", "2", "--t-scale", "-0.5"],
    ["verify", "--config", "{cfg}", "--trials", "2", "--s-scale", "nan"],
    ["verify", "--config", "{cfg}", "--suite", "error", "--trials", "0"],
    ["verify", "--config", "{cfg}", "--suite", "stability", "--trials", "-3"],
    ["verify", "--config", "{cfg}", "--trials", "2", "--out", "{file}"],
    ["sweep", "--manifest", "{manifest}", "--out", "{file}"],
    ["verify", "--config", "{cfg}", "--trials", "2", "--t-scale", "5"],
    ["verify", "--config", "{cfg}", "--trials", "2", "--s-scale", "1"],
]


def _bad_argv(tmp_path, argv):
    cfg = write_config(tmp_path, RUNNING_CONFIG)
    manifest = write_config(tmp_path, {"config": RUNNING_CONFIG, "experiments": [
        {"kind": "base", "bases_a": [SQUARE], "bases_b": [CUBE]}]}, "manifest.json")
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    argv = [a.format(cfg=cfg, manifest=manifest, file=plain) for a in argv]
    return argv if "--out" in argv else argv + ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS)
def test_bad_arguments_exit_2(tmp_path, capsys, trajectories, argv):
    """Every flag is honoured or rejected: a rejected one exits 2 with one
    JSON line on stderr, argparse's usage text included, before any
    trajectory runs."""
    assert main(_bad_argv(tmp_path, argv)) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "ConfigError"
    assert trajectories == []


@pytest.mark.parametrize("argv", [BAD_ARGUMENTS[0], BAD_ARGUMENTS[3]])
def test_bad_arguments_exit_2_as_a_process(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(alphafractal.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "alphafractal.cli"] + _bad_argv(tmp_path, argv),
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    err_lines = proc.stderr.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "ConfigError"


@pytest.mark.parametrize("flags, changes", [
    (["--depth", "65"], {}),
    ([], {"depth": 65}),
    (["--depth", "99999999999999999999999"], {}),
], ids=["flag", "config", "flag-huge"])
def test_depth_above_the_cap_exits_2(tmp_path, flags, changes):
    """A fixed depth lies in 1..DEPTH_CAP = 64, as the eps policy's does.  Run
    as a process under a timeout: an unbounded depth would never end."""
    cfg = write_config(tmp_path, {**README_CONFIG, **changes})
    env = {**os.environ, "PYTHONPATH": str(Path(alphafractal.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "alphafractal.cli", "build", "--config",
                           str(cfg), "--out", str(tmp_path / "out")] + flags,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    err_lines = proc.stderr.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "ConfigError"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "-h"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


# The README running example and a manifest with one experiment of each kind.
README_CONFIG = {**RUNNING_CONFIG, "d": 1.0, "depth": {"eps": 1e-8}, "mode": "cont"}
README_MANIFEST = {"config": README_CONFIG, "experiments": [
    {"kind": "base", "bases_a": [SQUARE], "bases_b": [CUBE]},
    {"kind": "scaling", "alphas_a": [[CONST_04, CONST_04]],
     "alphas_b": [[CONST_035, CONST_035]], "s_cap": 0.4},
    {"kind": "partition", "knots": [0.0, 0.48, 1.0], "halvings": 3},
]}

MATCHING_CSV = "x,y\n0,0\n0.5,0.5\n1,1\n"
# Changes to the README config, the partition CSV beside it, and the error.
INVALID_CONFIGS = {
    "scaling-and-base": ({"levels": [{
        "scaling": {"family": "constant", "value": 1.2},
        "base": {"family": "polynomial", "coeffs": [0.5, 0.0, 1.0]},  # off by 0.5 at both ends
    }]}, None, "ScalingNotContractive"),
    "ordinates-interior": ({"ordinates": [0, 0.9, 1]}, None, "EndpointMismatch"),
    "csv-interior": ({"partition": {"csv": "data.csv"}}, "x,y\n0,0\n0.5,0.9\n1,1\n",
                     "EndpointMismatch"),
    "ordinates-beside-csv": ({"partition": {"csv": "data.csv"}, "ordinates": [0, 0.9, 1]},
                             MATCHING_CSV, "EndpointMismatch"),
}


@pytest.mark.parametrize("changes, csv_text, error", INVALID_CONFIGS.values(),
                         ids=list(INVALID_CONFIGS))
def test_one_diagnostic_from_every_command(tmp_path, capsys, trajectories,
                                           changes, csv_text, error):
    """build, verify and sweep reject one invalid config with the same JSON
    line on stderr, which names every problem, and run and write nothing."""
    data = {**README_CONFIG, **changes}
    if csv_text is not None:
        (tmp_path / "data.csv").write_text(csv_text)
    cfg = write_config(tmp_path, data)
    man = write_config(tmp_path, {**README_MANIFEST, "config": data}, "manifest.json")
    lines = []
    for argv in (["build", "--config", str(cfg)],
                 ["verify", "--config", str(cfg), "--trials", "1"],
                 ["sweep", "--manifest", str(man)]):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 2
        lines.append(capsys.readouterr().err)
        assert os.listdir(out) == []
    assert lines[0] == lines[1] == lines[2]
    assert lines[0].count("\n") == 1
    diagnostic = json.loads(lines[0])
    assert diagnostic["error"] == error
    if error == "ScalingNotContractive":
        assert "EndpointMismatch: base b_1" in diagnostic["detail"]
    assert trajectories == []


def test_oversized_knots_exit_2(tmp_path, capsys, trajectories):
    """Knots whose maps' two-point forms overflow are invalid input for
    every command, a sweep's partition experiment included."""
    knots = [-1e200, 0.0, 1e200]
    cfg = write_config(tmp_path, {**README_CONFIG, "partition": {"knots": knots}})
    man = write_config(tmp_path, {**README_MANIFEST, "experiments": [
        {"kind": "partition", "knots": knots}]}, "manifest.json")
    for argv in (["build", "--config", str(cfg)],
                 ["verify", "--config", str(cfg), "--trials", "1"],
                 ["sweep", "--manifest", str(man)]):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "ConfigError"
        assert "too large" in json.loads(err)["detail"]
        assert os.listdir(out) == []
    assert trajectories == []


def test_large_knots_still_build(tmp_path):
    cfg = write_config(tmp_path, {
        "partition": {"knots": [1e150, 2e150, 3e150]},
        "germ": {"family": "constant", "value": 1.0},
        "levels": [{"scaling": {"family": "constant", "value": 0.3},
                    "base": {"family": "sampled", "values": [1.0, 2.0, 1.0]}}],
        "grid": 65,
    })
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "curve.csv")
    assert len(rows) == json.loads((tmp_path / "summary.json").read_text())["grid_points"]
    assert all(math.isfinite(float(v)) for row in rows for v in row.values())


def test_sum_family_is_library_only(tmp_path, capsys):
    term = {"family": "constant", "value": 0.0}
    cfg = write_config(tmp_path, {**README_CONFIG, "germ": {
        "family": "sum", "weights": [1.0], "terms": [term]}})
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert_one_diagnostic(capsys, "ConfigError")


def test_verify_and_sweep_build_only_specs(tmp_path, monkeypatch):
    """Every germ, base, scaling, theta and phi of every config and
    perturbation that verify and sweep build is a FunctionSpec, sums of
    specs (the stability shifts, blend bases) included."""
    made = []
    for cls in (ProblemConfig, PerturbationSpec):
        def recorded(self, _check=cls.__post_init__):
            _check(self)
            made.append(self)
        monkeypatch.setattr(cls, "__post_init__", recorded)
    cfg = write_config(tmp_path, c11_config())
    man = write_config(tmp_path, README_MANIFEST, "manifest.json")
    assert main(["verify", "--config", str(cfg), "--suite", "all", "--trials", "5",
                 "--seed", "1", "--grid", "257", "--out", str(tmp_path / "v")]) == 0
    assert main(["sweep", "--manifest", str(man), "--out", str(tmp_path / "s")]) == 0
    functions = []
    for obj in made:
        if isinstance(obj, ProblemConfig):
            functions.append(obj.germ)
            for lv in obj.levels.levels:
                functions.extend([lv.base, *lv.scalings])
        else:
            for lv in obj.levels:
                functions.extend([*lv.theta, *lv.phi])
    assert {type(fn) for fn in functions} == {FunctionSpec}
    sums = [fn for fn in functions if fn.family == "sum"]
    assert {t.family for fn in sums for t in fn.terms} >= {"linear-endpoint", "polynomial"}
    assert {type(obj) for obj in made} == {ProblemConfig, PerturbationSpec}


@pytest.mark.parametrize("command", ["build", "verify", "sweep", "build-c11"])
def test_success_is_quiet_on_stderr(tmp_path, command):
    """A run that succeeds exits 0 and writes nothing to stderr, with the
    interpreter's default warning filters: no warning leaks out."""
    cfg = write_config(tmp_path, README_CONFIG)
    argv = {
        "build": ["build", "--config", str(cfg)],
        "verify": ["verify", "--config", str(cfg), "--suite", "all", "--trials", "2"],
        "sweep": ["sweep", "--manifest",
                  str(write_config(tmp_path, README_MANIFEST, "manifest.json"))],
        "build-c11": ["build", "--config", str(write_config(tmp_path, c11_config(), "c11.json")),
                      "--grid", "4097"],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(alphafractal.__file__).parents[1])}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "alphafractal.cli", *argv,
                           "--out", str(tmp_path / "out")], capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == b""

# Small magnitudes keep every drawn grid, depth and halving count cheap.
SCALARS = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-3, 64), st.floats(-10, 10),
)
JSON_VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=4),
    st.dictionaries(st.text(max_size=8), SCALARS, max_size=3),
)


def _leaves(node, path=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in _leaves(child, path + (key,))]


def _replaced(doc, draw):
    doc = copy.deepcopy(doc)
    paths = draw(st.lists(st.sampled_from(_leaves(doc)), min_size=1, max_size=3, unique=True))
    for path in paths:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_contract_holds_for_any_leaf_values(data):
    """Exit 0, 1 or 2 and no escaping exception, whatever values replace up
    to three leaves of a valid config or manifest; exit 2 writes exactly
    one JSON line to stderr."""
    for command, flag, doc in (("build", "--config", README_CONFIG),
                               ("sweep", "--manifest", README_MANIFEST)):
        doc = _replaced(doc, data.draw)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = main([command, flag, str(path), "--out", tmp])
        assert rc in (0, 1, 2)
        if rc == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "detail"}


# Depths of the trajectories each small benchmark run builds, in order.  verify
# runs one trial per suite: the error bound and its corollary share one; the
# operator check compares two germs and the relative bound reads one; the
# stability pair is two; the sensitivity bound runs a perturbed and an
# unperturbed trajectory at one depth.
SMALL_RUN_TRAJECTORIES = {
    "build-1m": [29],
    "verify-all": [26, 30, 30, 29, 30, 30, 43, 43],
    "sweep-dependence": [19] * 9,
}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_small_benchmark_runs_build_pinned_trajectories(tmp_path, monkeypatch,
                                                        trajectories, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads").WORKLOADS[name](1, tmp_path)
    wl.prepare()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(SMALL_RUNS[name](wl) + ["--out", str(tmp_path / "out")]) == 0
    assert trajectories == SMALL_RUN_TRAJECTORIES[name]
