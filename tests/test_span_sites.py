"""The benchmark's tracer (perfbench/spans.py) wraps functions by the name of
the module attribute a caller looks them up through.  A site renamed in the
package would silently stop firing, so every named site must resolve, and
every site a workload is predicted to use must fire on a small run of it."""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from alphafractal import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Each CLI workload on its own prepared inputs, at a size that runs in well
# under a second: build at grid 4097, verify with one trial per suite.
SMALL_RUNS = {
    "build-1m": lambda wl: ["build", "--config", str(wl.config),
                            "--grid", "4097", "--eps", "1e-10"],
    "verify-all": lambda wl: ["verify", "--config", str(wl.config), "--suite", "all",
                              "--trials", "1", "--seed", "1", "--eps", "1e-10"],
    "sweep-dependence": lambda wl: ["sweep", "--manifest", str(wl.manifest)],
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_every_span_site_resolves(perfbench):
    spans, _ = perfbench
    for site in [*spans.SITES, spans.VALIDATION_SITE]:
        owner, attr = site.rsplit(".", 1)
        assert callable(getattr(spans._OWNERS[owner], attr, None)), site


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_predicted_sites_fire(perfbench, tmp_path, name):
    spans, workloads = perfbench
    wl = workloads.WORKLOADS[name](1, tmp_path)
    wl.prepare()
    tracer = spans.Tracer(run_id=name)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(SMALL_RUNS[name](wl) + ["--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert [site for site in wl.predicted_sites if tracer.fired[site] == 0] == []
