"""Repeat the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py --workloads build-1m,verify-all --seeds 1-10 [--seconds S]
                               [--traced] [--write-baseline]

For every workload it runs ``run.py`` once per seed (trace off), then prints,
for each end-to-end metric, the values' median and the distance between
their first and third quartiles (``statistics.quantiles(n=4)``) as a share
of the median, next to a third of the metric's bound.  It also checks that
BENCHMARK.json lists exactly the metrics ``metrics.py`` defines.

With ``--traced`` it also makes two traced runs of each workload on the
first seed, in separate processes, and checks that every exact count
repeats.  ``--seeds ""`` skips the untraced runs.

With ``--write-baseline`` what was measured (medians and quartiles, per-seed
output digests, per-layer metrics, provenance) is merged into
``perfbench/baseline.json``; ``run.py`` compares later outputs against
those digests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from metrics import COUNTS, END_TO_END, PER_LAYER
from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "work" / "results"


def check_spec() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, ours in (("end_to_end", [(n, u, b) for n, u, b, _ in END_TO_END]),
                      ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(ours):
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if bounds != {n: b for n, _, _, b in END_TO_END}:
        problems.append("BENCHMARK.json bounds differ from metrics.py")
    return problems


def parse_seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, str]:
    """One run.py invocation: its contract result and its results record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{workload} seed {seed}: exit {proc.returncode} {proc.stderr[-300:]}"
    res = json.loads(lines[-1])
    rec = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    problem = "" if res["correct"] and not res["failed"] else \
        f"{workload} seed {seed} trace {trace}: not correct {rec['problems'][:3]}"
    return rec, problem


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()

    problems = check_spec()
    bounds = {n: b for n, _, _, b in END_TO_END}
    seeds = parse_seeds(args.seeds)
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workloads.split(","):
        recs, walls = [], []
        for seed in seeds:
            t0 = perf_counter()
            rec, problem = run(workload, seed, args.seconds, 0)
            walls.append(perf_counter() - t0)
            if problem:
                problems.append(problem)
            if rec is not None:
                recs.append(rec)
                baseline.setdefault("outputs_sha256", {}).setdefault(workload, {})[str(seed)] = \
                    rec["outputs_sha256"]
        if recs:
            print(f"== {workload}: {len(recs)} runs, wall per run "
                  f"{min(walls):.1f}-{max(walls):.1f} s (median {statistics.median(walls):.1f})")
            baseline["provenance"] = recs[0]["provenance"]
            baseline.setdefault("run_wall_s", {})[workload] = statistics.median(walls)
        if len(recs) >= 2:
            stats = {}
            for name, unit, _, _ in END_TO_END:
                q = quartiles([r["metrics"][name]["value"] for r in recs])
                sp = (q["q3"] - q["q1"]) / q["median"]
                stats[name] = {**q, "spread": sp, "unit": unit}
                steady = "ok" if sp < bounds[name] / 3 else "WIDE"
                print(f"   {name:<14} median {q['median']:<12.6g} {unit:<8} spread {sp:.4f}  "
                      f"(bound/3 {bounds[name] / 3:.4f}) {steady}")
            baseline.setdefault("end_to_end", {})[workload] = stats
            baseline["seeds"], baseline["run_seconds"] = seeds, args.seconds
        if args.traced:
            seed = seeds[0] if seeds else 1
            first, problem = run(workload, seed, args.seconds, 1)
            second, problem2 = run(workload, seed, args.seconds, 1)
            problems += [p for p in (problem, problem2) if p]
            if first and second:
                moved = [c for c in COUNTS if first["per_layer"][c] != second["per_layer"][c]]
                if moved:
                    problems.append(f"{workload}: counts differ between two traced runs: {moved}")
                print(f"== {workload} traced twice (seed {seed}): counts "
                      f"{'repeat exactly' if not moved else 'DIFFER'}; overhead ratio "
                      f"{first['per_layer']['trace.overhead_ratio']:.3f}")
                baseline.setdefault("per_layer", {})[workload] = {"seed": seed,
                                                                  **first["per_layer"]}
    for p in problems:
        print(f"PROBLEM: {p}")
    if args.write_baseline and not problems:
        path.write_text(json.dumps(baseline, indent=2) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
