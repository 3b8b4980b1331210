"""Runs one workload in its own process and writes what it measured as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --work DIR --result FILE

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS/OpenMP thread variables capped, so the peak resident memory read
here belongs to this workload alone.

Untraced (--trace 0): calls repeat while the next one, as long as the
median call so far, would end within ``--seconds`` (at least MIN_CALLS);
call 0 uses the seed's reference inputs.  Peak memory is read before the
final output check.

Traced (--trace 1): an untraced reference call, then traced/untraced pairs
on the same inputs under the same rule (at least MIN_PAIRS).
Every traced call must fire each site the workload is predicted to use,
repeat the exact counts of the first traced call, and write outputs
byte-identical to the untraced calls.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import alphafractal
import spans
from metrics import COUNTS
from workloads import WORKLOADS, Outcome

MIN_CALLS = 4
MIN_PAIRS = 2

try:
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc
    _LIBC = None


def _release_memory() -> None:
    """Start each call from the memory a fresh CLI process has.  A config
    holds a reference cycle through its cached trajectory, so the previous
    call's arrays wait for the cyclic collector; glibc then keeps the freed
    heap, and how much of it the next call reuses varies from run to run."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _raised(stage: str) -> str:
    return f"{stage} raised: {traceback.format_exc(limit=-2).strip()}"


def _call(wl, k: int, vary: bool, tracer: spans.Tracer | None = None) -> Outcome:
    _release_memory()
    if tracer is not None:
        tracer.install()
    try:
        res = wl.run(k, vary)
    except Exception:  # a raising operation is a failed operation
        res = Outcome(seconds=0.0, attempted=wl.expected, rc=-1, problems=[_raised("call")])
    finally:
        if tracer is not None:
            tracer.uninstall()
    if res.rc == -1:
        res.failed = res.attempted
        return res
    try:
        wl.check(res)
    except Exception:  # unreadable output fails the operation, not the run
        res.failed, res.problems = res.attempted, [_raised("output check")]
    return res


def _final_check(wl, calls: list[Outcome]) -> list[str]:
    try:
        return wl.final_check(calls)
    except Exception:
        for res in calls:
            res.failed = res.attempted
        return [_raised("final output check")]


def _summary(res: Outcome, k: int) -> dict:
    return {"k": k, "seconds": res.seconds, "items": res.items,
            "attempted": res.attempted, "failed": res.failed,
            "outputs": res.outputs, "problems": res.problems}


def _another(done: int, minimum: int, spent: list[float], deadline: float) -> bool:
    """Whether to start another call (or pair): at least ``minimum``, then
    only while one as long as the median so far would end by the deadline,
    so a run lasts about ``--seconds`` whatever the length of one call."""
    return done < minimum or perf_counter() + statistics.median(spent) <= deadline


def untraced(wl, seconds: float) -> dict:
    # No separate warm-up: every CLI invocation is a fresh process, so the
    # first call's costs are ones users pay too.
    timed, spent = [], []
    deadline = perf_counter() + seconds
    while _another(len(timed), MIN_CALLS, spent, deadline):
        t0 = perf_counter()
        timed.append(_call(wl, len(timed), vary=True))
        spent.append(perf_counter() - t0)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = _final_check(wl, timed)
    return {"reference": timed[0], "timed": timed, "calls": timed,
            "peak_rss_kb": peak_kb, "problems": problems}


def traced(wl, seconds: float, spans_path: Path) -> dict:
    deadline = perf_counter() + seconds
    ref = _call(wl, 0, vary=False)
    plain, tracers, traced_calls, spent = [], [], [], []
    while _another(len(traced_calls), MIN_PAIRS, spent, deadline):
        t0 = perf_counter()
        tr = spans.Tracer(run_id=f"{wl.name}-seed{wl.seed}-traced{len(tracers)}")
        traced_calls.append(_call(wl, 0, vary=False, tracer=tr))
        tracers.append(tr)
        plain.append(_call(wl, 0, vary=False))
        spent.append(perf_counter() - t0)
    problems = _final_check(wl, [ref, *plain, *traced_calls])

    for site in wl.predicted_sites:
        silent = [tr.run_id for tr in tracers if tr.fired[site] == 0]
        if silent:
            problems.append(f"wrapper {site} never fired in {silent}")
    per_call = [spans.layer_metrics(tr) for tr in tracers]
    for m, tr in zip(per_call[1:], tracers[1:]):
        moved = [c for c in COUNTS if m[c] != per_call[0][c]]
        if moved or tr.fired != tracers[0].fired:
            problems.append(f"exact counts differ between traced calls: {moved}")
    for res in traced_calls:
        if res.outputs != ref.outputs:
            problems.append("traced outputs are not byte-identical to untraced outputs")

    # Counts repeat exactly (checked above); times and rates take the median.
    layer = {name: per_call[0][name] if name in COUNTS
             else statistics.median(m[name] for m in per_call) for name in per_call[0]}
    layer["trace.overhead_ratio"] = (statistics.median(r.seconds for r in traced_calls)
                                     / statistics.median(r.seconds for r in plain))
    with open(spans_path, "w") as fh:
        for tr in tracers:
            tr.dump(fh)
    return {"reference": ref, "timed": plain, "calls": [ref, *plain, *traced_calls],
            "per_layer": layer, "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.work)
    inputs = wl.prepare()
    if args.trace:
        out = traced(wl, args.seconds, args.work / "spans.jsonl")
    else:
        out = untraced(wl, args.seconds)
    calls = out["calls"]
    record = {
        "workload": wl.name,
        "metric": wl.metric,
        "item": wl.item,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "alphafractal": getattr(alphafractal, "__version__", "unknown")},
        "inputs_sha256": inputs,
        "outputs_sha256": out["reference"].outputs,
        "timed_calls": [_summary(r, k) for k, r in enumerate(out["timed"])],
        "attempted": sum(r.attempted for r in calls),
        "failed": sum(r.failed for r in calls),
        "problems": out["problems"] + [p for r in calls for p in r.problems],
        "peak_rss_kb": out.get("peak_rss_kb"),
        "per_layer": out.get("per_layer"),
    }
    args.result.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
