"""Outputs pinned byte for byte, and the README quickstart's printed values.

For a fixed seed the outputs stay byte-identical unless a change says why
they move (ROADMAP, "Quality of design"); a change that moves these bytes
updates the digests and says why.  Both inputs use only polynomial and
constant specs on three-knot partitions, so no ``sin`` and no BLAS
reduction enters and the bytes do not depend on the CPU.
"""

import contextlib
import hashlib
import importlib
import io
import re
from pathlib import Path

from alphafractal.cli import main
from test_cli import README_CONFIG, write_config
from test_span_sites import PERFBENCH

README = Path(__file__).resolve().parents[1] / "README.md"

BUILD_DIGESTS = {
    "curve.csv": "950a52a3dd6c817cd8982480d53835377b1368bc3db817e3208510ade48a207b",
    "summary.json": "43e87f75e2542f130f7c15b0f8bf5f3531b17d94a015ab82120affe8e0ee75eb",
}
SWEEP_DEPENDENCE_DIGEST = "4a99b45e5edb2a65733dcec2f3b39c224191119f630c8490b8fd766568779c6b"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_readme_build_bytes(tmp_path):
    cfg = write_config(tmp_path, README_CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert {name: _sha256(tmp_path / "out" / name) for name in BUILD_DIGESTS} == BUILD_DIGESTS


def test_sweep_dependence_bytes(tmp_path, monkeypatch):
    # the benchmark's sweep-dependence manifest at seed 1
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads").WORKLOADS["sweep-dependence"](1, tmp_path)
    wl.prepare()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--manifest", str(wl.manifest),
                     "--out", str(tmp_path / "out")]) == 0
    assert _sha256(tmp_path / "out" / "results.csv") == SWEEP_DEPENDENCE_DIGEST


def test_readme_quickstart_prints_its_comments():
    code = re.search(r"## Library quickstart\n\n```python\n(.*?)```",
                     README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["0.35", "0.85"]
