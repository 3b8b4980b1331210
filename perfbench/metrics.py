"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; ``prove.py`` checks that they agree.
"""

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("items_per_s", "items/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]


BOUNDS = ("error", "corollary", "operator_lipschitz", "relative", "stability", "sensitivity")
SUITES = ("error", "operator", "stability", "sensitivity")
MODULES = ("cli", "configio", "core", "engine", "ifs", "norms", "depend", "bounds",
           "campaigns", "sampling")

# (name, unit, better); "computed" quantities are derived from counts and
# sizes rather than read off one boundary.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("configio.load_s", "s", "lower"),
    ("configio.write_curve_csv_s", "s", "lower"),
    ("configio.curve_mb_per_s", "MB/s", "higher"),            # computed
    ("configio.write_reports_s", "s", "lower"),
    ("core.validate_calls", "count", "lower"),
    ("core.validate_s", "s", "lower"),
    ("core.validation_hit_ratio", "ratio", "higher"),
    ("core.evaluate_calls", "count", "lower"),
    ("core.evaluate_s", "s", "lower"),
    ("engine.trajectory_calls", "count", "lower"),
    ("engine.trajectory_s", "s", "lower"),
    ("engine.rb_steps", "count", "lower"),
    ("engine.rb_point_steps_per_s", "point-steps/s", "higher"),
    ("engine.series_s", "s", "lower"),
    ("engine.series_point_levels_per_s", "point-levels/s", "higher"),
    ("ifs.locate_calls", "count", "lower"),
    ("ifs.locate_s", "s", "lower"),
    ("ifs.check_contractive_s", "s", "lower"),
    ("norms.lip_calls", "count", "lower"),
    ("norms.lip_s", "s", "lower"),
    ("norms.lip_pairs", "count", "lower"),                     # computed
    ("depend.theta_calls", "count", "lower"),
    ("depend.theta_s", "s", "lower"),
    ("depend.base_s", "s", "lower"),
    ("depend.scaling_s", "s", "lower"),
    ("depend.partition_s", "s", "lower"),
    *[(f"bounds.{b}_{kind}", unit, "lower")
      for b in BOUNDS for kind, unit in (("calls", "count"), ("s", "s"))],
    *[(f"campaigns.{s}_suite_s", "s", "lower") for s in SUITES],
    ("sampling.draw_s", "s", "lower"),
    *[(f"{m}.errors", "count", "lower") for m in MODULES],
    ("trace.overhead_ratio", "ratio", "lower"),
]

COMPUTED = ("configio.curve_mb_per_s", "norms.lip_pairs")

COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]   # must repeat exactly
