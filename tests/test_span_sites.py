"""The benchmark's tracer (perfbench/spans.py) wraps functions by the name of
the module attribute a caller looks them up through.  A site renamed in the
package would silently stop firing, so every named site must resolve."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_span_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for site in [*spans.SITES, spans.VALIDATION_SITE]:
        owner, attr = site.rsplit(".", 1)
        assert callable(getattr(spans._OWNERS[owner], attr, None)), site
