"""alphafractal benchmark: one workload per call, or all four in turn.

    python3 perfbench/run.py --workload build-1m|verify-all|sweep-dependence|series-eval|all
                             --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve against the checkout that holds this file,
and the package is imported from its ``src`` directory.  The workload runs
in a child process (worker.py) with BLAS/OpenMP threads capped at nproc, so
its peak memory is its own.  Set-up time is the median wall time of fresh
interpreters spend importing ``alphafractal.cli``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Each run also
writes a record with provenance, input and output digests and quartiles to
``perfbench/work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import COMPUTED, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
WORKLOAD_NAMES = ("build-1m", "verify-all", "sweep-dependence", "series-eval")
SETUP_REPEATS = 5   # fresh interpreters before and again after the workloads
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import alphafractal.cli; "
                "print(time.perf_counter() - t0)")
CHILD_TIMEOUT_S = 160   # a run must end within 180 s, set-up included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"   # same string hashing, hence set order, in every run
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def import_times(repeats: int) -> list[float]:
    """Seconds fresh interpreters spend importing alphafractal.cli (numpy
    included).  Interpreter start-up itself is left out: it does not depend on
    this repository."""
    env = child_env()
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             check=True, timeout=60, capture_output=True, text=True)
        times.append(float(out.stdout))
    return times


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "alphafractal").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def baseline_digests(workload: str, seed: int) -> dict | None:
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get("outputs_sha256", {}).get(workload, {}).get(str(seed))


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "worker.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work", str(work), "--result", str(result)]
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    rec = json.loads(result.read_text())
    # Keep the spans but drop the bulky outputs of this run.
    shutil.rmtree(work / "out", ignore_errors=True)
    return rec


def end_to_end(rec: dict, setup: dict) -> dict:
    rates = [c["items"] / c["seconds"] for c in rec["timed_calls"] if not c["failed"]]
    return {
        "items_per_s": {**quartiles(rates or [0.0]), "unit": "items/s"},
        "setup_s": {**setup, "unit": "s"},
        "peak_rss_mb": {"median": rec["peak_rss_kb"] / 1024.0, "n": 1, "unit": "MiB"},
    }


def finish(rec: dict, setup: dict | None) -> dict:
    """Add provenance, the baseline digest comparison and the metrics to a
    worker record, and write it to the results directory."""
    workload, seed, seconds, trace = (rec["workload"], rec["seed"], rec["seconds"],
                                      rec["trace"])
    base = baseline_digests(workload, seed)
    rec["provenance"] = {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": rec["versions"]["numpy"],
        "nproc": nproc(),
        "seed": seed,
        "run_seconds": seconds,
    }
    rec["outputs_vs_baseline"] = (
        "no baseline for this seed" if base is None
        else "same" if base == rec["outputs_sha256"]
        else f"changed: {sorted(k for k in base if base.get(k) != rec['outputs_sha256'].get(k))}"
    )
    if trace:
        rec["metrics"] = {name: {"value": rec["per_layer"][name], "unit": unit}
                          for name, unit, _ in PER_LAYER}
    else:
        stats = end_to_end(rec, setup)
        rec["stats"] = stats
        rec["metrics"] = {name: {"value": s["median"], "unit": s["unit"]}
                          for name, s in stats.items()}
    rec["correct"] = not rec["problems"] and rec["failed"] == 0
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(rec, indent=2) + "\n")
    return rec


def report(rec: dict) -> None:
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"correct {rec['correct']}  failed {rec['failed']}/{rec['attempted']} "
          f"(fail_ratio {rec['failed'] / rec['attempted']:.6g} ratio)")
    if rec["trace"]:
        for name, m in rec["metrics"].items():
            tag = "  (computed)" if name in COMPUTED else ""
            print(f"   {name:<36} {m['value']:.6g} {m['unit']}{tag}")
    else:
        for name, s in rec["stats"].items():
            label = name
            if name == "items_per_s":
                label = f"{rec['metric']} ({rec['item']})"
            spread = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}" if "q1" in s else ""
            print(f"   {label:<36} {s['median']:.6g} {s['unit']}  (median{spread}  n={s['n']})")
    print(f"   outputs vs baseline: {rec['outputs_vs_baseline']}")
    for p in rec["problems"][:10]:
        print(f"   PROBLEM: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "alphafractal" / "cli.py").is_file():
        print(f"error: no alphafractal sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.trace:
        recs = [finish(run_worker(n, args.seed, args.seconds, 1), None) for n in names]
    else:
        # The first interpreter may compile bytecode; it is not counted.  The
        # rest straddle the workloads, so a slow spell of the machine weighs
        # on fewer of them.
        before = import_times(SETUP_REPEATS + 1)[1:]
        recs = [run_worker(n, args.seed, args.seconds, 0) for n in names]
        setup = quartiles(before + import_times(SETUP_REPEATS))
        recs = [finish(rec, setup) for rec in recs]
    for rec in recs:
        report(rec)
    metrics = (recs[0]["metrics"] if len(recs) == 1 else
               {f"{r['workload']}.{k}": v for r in recs for k, v in r["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in recs),
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
