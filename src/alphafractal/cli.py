"""Command-line surface.

    alphafractal build  --config cfg.json [--grid M] [--depth K | --eps E]
                        [--mode cont|lip] [--out DIR]
    alphafractal verify --config cfg.json --suite error|stability|sensitivity|operator|all
                        [--trials T] [--seed S] [--out DIR] [overrides]
    alphafractal sweep  --manifest manifest.json [--out DIR] [overrides]

The overrides --grid, --depth/--eps and --mode replace the config's values on
every command.

Exit codes: 0 success, 1 bound violation, 2 invalid input.  Invalid input
produces one machine-readable JSON diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import campaigns, configio, norms
from .engine import trajectory_interpolant
from .errors import AlphaFractalError, ConfigError


def _overrides(args) -> dict:
    return {key: getattr(args, key) for key in ("grid", "depth", "eps", "mode")}


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise ConfigError(f"--out {out}: {exc}") from None
    return out


@contextmanager
def _removed_on_failure(*written: Path):
    """Remove the ``written`` outputs of this run if the block raises, so a
    command that fails leaves no output behind."""
    try:
        yield
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _tally(reports, passed_what: str) -> int:
    """Print the pass count and every failing report; exit 1 if any failed."""
    failing = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failing)}/{len(reports)} {passed_what}")
    for r in failing:
        print(str(r))
    return 1 if failing else 0


def cmd_build(args) -> int:
    cfg = configio.load_config(args.config, overrides=_overrides(args))
    report = cfg.validation()
    report.raise_if_failed()
    interp = trajectory_interpolant(cfg)
    summary = {
        "grid_points": int(cfg.grid.size),
        "depth_used": interp.depth,
        "alpha_sup": cfg.alpha_sup,
        "germ_sup": cfg.germ_sup,
        "base_gap_sup": cfg.base_gap_sup,
        "r_bound": cfg.r_bound,
        "interpolant_sup": float(np.max(np.abs(interp.values.ys))),
        "knot_residual_max": float(np.max(interp.knot_residuals())),
        "validation": {
            "ok": report.ok,
            "alpha_sup": cfg.alpha_sup,
            "endpoint_residuals": [list(r) for r in report.endpoint_residuals],
            "degenerate_levels": list(report.degenerate_levels),
        },
    }
    if cfg.mode == "lipschitz":
        lip = norms.check_lip_hypothesis(cfg)
        summary["lip_hypothesis"] = lip.to_json_dict()
    curve = args.out / "curve.csv"
    configio.write_curve_csv(curve, cfg.grid, cfg.germ_values, interp.values.ys)
    with _removed_on_failure(curve):
        configio.write_json(args.out / "summary.json", summary)
    print(f"wrote {curve} and {args.out / 'summary.json'} "
          f"(depth {interp.depth}, grid {cfg.grid.size})")
    return 0


def cmd_verify(args) -> int:
    cfg = configio.load_config(args.config, overrides=_overrides(args))
    cfg.validation().raise_if_failed()
    reports = campaigns.run_suite(args.suite, cfg, args.trials, args.seed,
                                  t_scale=args.t_scale, s_scale=args.s_scale)
    table = args.out / "report.csv"
    configio.write_report_csv(table, reports)
    with _removed_on_failure(table):
        configio.write_reports_json(args.out / "report.json", reports)
    return _tally(reports, f"bound checks passed (suite {args.suite}, "
                           f"trials {args.trials}, seed {args.seed})")


def cmd_sweep(args) -> int:
    cfg, runs = configio.load_manifest(args.manifest, overrides=_overrides(args))
    cfg.validation().raise_if_failed()
    reports = [replace(rep, name=f"{rep.name}[exp={k}]")
               for k, run in enumerate(runs) for rep in run()]
    configio.write_report_csv(args.out / "results.csv", reports)
    return _tally(reports, "sweep rows passed")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ConfigError, for main's one exit-2 boundary."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="alphafractal",
        description="Non-stationary fractal interpolation: build curves, "
                    "verify closed-form bounds, run dependence sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--grid", type=int, default=None, help="grid size override")
        p.add_argument("--depth", type=int, default=None, help="fixed truncation depth")
        p.add_argument("--eps", type=float, default=None, help="tail tolerance")
        p.add_argument("--mode", choices=["cont", "lip", "continuous", "lipschitz"],
                       default=None)
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("build", help="build the interpolant and export the curve")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="run a randomized bound-verification suite")
    p.add_argument("--config", required=True)
    p.add_argument("--suite", choices=list(campaigns.SUITES), default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-scale", type=float, default=0.1,
                   help="sensitivity suite: scaling-jitter magnitude")
    p.add_argument("--s-scale", type=float, default=0.1,
                   help="sensitivity suite: additive-term magnitude")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="run dependence experiments from a manifest")
    p.add_argument("--manifest", required=True)
    common(p)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.out = _out_dir(args.out)  # before any work, for every command
        return args.fn(args)
    except AlphaFractalError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
