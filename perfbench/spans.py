"""Span tracing installed from outside the program.

alphafractal binds many names with ``from .x import y``, so a function is
looked up in the module that calls it, not in the module that defines it.
Each wrapper below is therefore installed at the lookup site (for example
``bounds.backward_trajectory`` and ``depend.backward_trajectory`` next to
``engine.backward_trajectory``); a wrapper installed only on the defining
module never fires.  ``SITES`` maps every site to the layer span it feeds.

A span records its name, site, start, end, parent span and run id.  Spans
stay in memory and are written out when the run ends.  A layer's self time
is its spans' duration minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from metrics import BOUNDS, MODULES, SUITES

from alphafractal import bounds, campaigns, cli, configio, core, depend, engine, ifs, norms

# site "<module>.<attribute>" (or "<module>.<Class>.<method>") -> layer span
SITES = {
    "cli.main": "cli.main",
    "configio.load_config": "configio.load",
    "configio.load_manifest": "configio.load",
    "configio.write_curve_csv": "configio.write_curve_csv",
    "configio.write_report_csv": "configio.write_reports",
    "configio.write_reports_json": "configio.write_reports",
    "core.validate_level_sequence": "core.validate",
    "engine.evaluate": "core.evaluate",
    "engine.backward_trajectory": "engine.trajectory",
    "bounds.backward_trajectory": "engine.trajectory",
    "depend.backward_trajectory": "engine.trajectory",
    "engine.eval_interpolant": "engine.series",
    "engine.series_eval": "engine.series",
    "engine.locate_many": "ifs.locate",
    "ifs.PerturbationSpec.check_contractive": "ifs.check_contractive",
    "norms.lip_seminorm": "norms.lip",
    "depend.lip_seminorm": "norms.lip",
    "depend.theta_constants": "depend.theta",
    "depend.base_dependence": "depend.base",
    "depend.scaling_dependence": "depend.scaling",
    "depend.partition_dependence": "depend.partition",
    "bounds.error_bound": "bounds.error",
    "bounds.corollary_bound": "bounds.corollary",
    "bounds.operator_lipschitz_check": "bounds.operator_lipschitz",
    "bounds.relative_bound_check": "bounds.relative",
    "bounds.stability_bound": "bounds.stability",
    "bounds.sensitivity_bound": "bounds.sensitivity",
    "campaigns.error_suite": "campaigns.error_suite",
    "campaigns.operator_suite": "campaigns.operator_suite",
    "campaigns.stability_suite": "campaigns.stability_suite",
    "campaigns.sensitivity_suite": "campaigns.sensitivity_suite",
    "campaigns.random_germ_spec": "sampling.draw",
    "campaigns.matched_base_spec": "sampling.draw",
    "campaigns.random_alpha_vector": "sampling.draw",
    "campaigns.random_polynomial_spec": "sampling.draw",
    "campaigns.zero_endpoint_spec": "sampling.draw",
    "bounds.random_polynomial_spec": "sampling.draw",
}

# Counted without a span: every ProblemConfig.validation() lookup, hit or miss.
VALIDATION_SITE = "core.ProblemConfig.validation"

_OWNERS = {
    "cli": cli, "configio": configio, "core": core, "engine": engine, "ifs": ifs,
    "norms": norms, "depend": depend, "bounds": bounds, "campaigns": campaigns,
    "core.ProblemConfig": core.ProblemConfig,
    "ifs.PerturbationSpec": ifs.PerturbationSpec,
}


@dataclass
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int | None
    run: str


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _strided_points(size: int) -> int:
    """Points lip_seminorm scans after its striding rule (norms.LIP_PAIR_CAP)."""
    cap = getattr(norms, "LIP_PAIR_CAP", None)
    if cap is None or size <= cap:
        return size
    stride = -(-(size - 1) // (cap - 1))
    kept = len(range(0, size, stride))
    return kept + (0 if (size - 1) % stride == 0 else 1)


class Tracer:
    """Wraps every site in SITES while installed; one instance per traced call."""

    def __init__(self, run_id: str):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.fired: Counter = Counter()     # site -> calls
        self.errors: Counter = Counter()    # module -> exceptions raised through it
        self.quantities: Counter = Counter()
        self.run_id = run_id
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for site in SITES:
            self._patch(site, self._span_wrapper)
        self._patch(VALIDATION_SITE, self._count_wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, site: str, make) -> None:
        owner_name, attr = site.rsplit(".", 1)
        owner = _OWNERS[owner_name]
        original = getattr(owner, attr)
        setattr(owner, attr, make(site, original))
        self._patches.append((owner, attr, original))

    # -- wrappers -------------------------------------------------------------

    def _count_wrapper(self, site: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fired[site] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, site: str, fn):
        name = SITES[site]
        layer_module = name.split(".", 1)[0]
        on_exit = _QUANTITIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fired[site] += 1
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer_module] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(name, site, start, end, parent, self.run_id)
            if on_exit is not None:
                on_exit(self.quantities, site, args, kwargs, result)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per layer span name: total duration minus what direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for sid, span in enumerate(self.spans):
            out[span.name] += span.end - span.start - child_time[sid]
        return dict(out)

    def dump(self, fh) -> None:
        for sid, span in enumerate(self.spans):
            fh.write(json.dumps({"id": sid, **asdict(span)}) + "\n")


# -- computed quantities, gathered on exit from a span -------------------------

def _trajectory(q: Counter, site, args, kwargs, result) -> None:
    depth = _arg(args, kwargs, 1, "depth")
    q["rb_steps"] += depth
    q["rb_point_steps"] += depth * _arg(args, kwargs, 2, "cfg").grid.size


def _series(q: Counter, site, args, kwargs, result) -> None:
    if site == "engine.series_eval":
        points = getattr(result, "size", 1)
        q["series_point_levels"] += points * _arg(args, kwargs, 1, "depth")


def _lip(q: Counter, site, args, kwargs, result) -> None:
    n = _strided_points(len(_arg(args, kwargs, 2, "grid")))
    q["lip_pairs"] += n * (n - 1) // 2


def _curve(q: Counter, site, args, kwargs, result) -> None:
    q["curve_bytes"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


_QUANTITIES = {
    "engine.trajectory": _trajectory,
    "engine.series": _series,
    "norms.lip": _lip,
    "configio.write_curve_csv": _curve,
}


# -- per-layer metrics ---------------------------------------------------------


def _ratio(amount: float, per: float) -> float:
    return amount / per if per > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_ratio, for one traced call."""
    t = defaultdict(float, tr.self_times())
    fired, q = tr.fired, tr.quantities

    def calls(*sites):
        return sum(fired[s] for s in sites)

    validations = fired[VALIDATION_SITE]
    validates = fired["core.validate_level_sequence"]
    m = {
        "cli.self_s": t["cli.main"],
        "configio.load_s": t["configio.load"],
        "configio.write_curve_csv_s": t["configio.write_curve_csv"],
        "configio.curve_mb_per_s": _ratio(q["curve_bytes"] / 1e6, t["configio.write_curve_csv"]),
        "configio.write_reports_s": t["configio.write_reports"],
        "core.validate_calls": validates,
        "core.validate_s": t["core.validate"],
        "core.validation_hit_ratio": _ratio(validations - validates, validations),
        "core.evaluate_calls": calls("engine.evaluate"),
        "core.evaluate_s": t["core.evaluate"],
        "engine.trajectory_calls": calls("engine.backward_trajectory", "bounds.backward_trajectory",
                                         "depend.backward_trajectory"),
        "engine.trajectory_s": t["engine.trajectory"],
        "engine.rb_steps": q["rb_steps"],
        "engine.rb_point_steps_per_s": _ratio(q["rb_point_steps"], t["engine.trajectory"]),
        "engine.series_s": t["engine.series"],
        "engine.series_point_levels_per_s": _ratio(q["series_point_levels"], t["engine.series"]),
        "ifs.locate_calls": calls("engine.locate_many"),
        "ifs.locate_s": t["ifs.locate"],
        "ifs.check_contractive_s": t["ifs.check_contractive"],
        "norms.lip_calls": calls("norms.lip_seminorm", "depend.lip_seminorm"),
        "norms.lip_s": t["norms.lip"],
        "norms.lip_pairs": q["lip_pairs"],
        "depend.theta_calls": calls("depend.theta_constants"),
        "depend.theta_s": t["depend.theta"],
        "depend.base_s": t["depend.base"],
        "depend.scaling_s": t["depend.scaling"],
        "depend.partition_s": t["depend.partition"],
        "sampling.draw_s": t["sampling.draw"],
    }
    for b in BOUNDS:
        m[f"bounds.{b}_calls"] = sum(n for s, n in fired.items() if SITES.get(s) == f"bounds.{b}")
        m[f"bounds.{b}_s"] = t[f"bounds.{b}"]
    for s in SUITES:
        m[f"campaigns.{s}_suite_s"] = t[f"campaigns.{s}_suite"]
    for mod in MODULES:
        m[f"{mod}.errors"] = tr.errors[mod]
    return m
