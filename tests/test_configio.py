import errno
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from alphafractal import configio
from alphafractal.configio import CURVE_BLOCK_ROWS, config_from_dict, write_curve_csv
from alphafractal.errors import ConfigError, EndpointMismatch, OutputError

from reference import ref_write_curve_csv

# Signed zeros, the subnormal range, its edge with the normals, and the ends
# of the finite range: the values where %.17g output is easiest to get wrong.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
           2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
           0.1, 1.0 / 3.0, -2.5]
LENGTHS = [1, 2, CURVE_BLOCK_ROWS - 1, CURVE_BLOCK_ROWS, CURVE_BLOCK_ROWS + 1]


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from(LENGTHS),
    pool=st.lists(st.one_of(st.sampled_from(SPECIAL),
                            st.floats(allow_nan=False, allow_infinity=False)),
                  min_size=1, max_size=64),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=CURVE_BLOCK_ROWS + 1, pool=SPECIAL, seed=0)
def test_curve_bytes_match_loop_writer(n, pool, seed):
    rng = np.random.default_rng(seed)
    values = np.asarray(pool, dtype=float)
    cols = [values[rng.integers(values.size, size=n)] for _ in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_curve_csv(got, *cols)
        ref_write_curve_csv(want, *cols)
        assert got.read_bytes() == want.read_bytes()


# Part edges: with blocks of 4 rows and two workers, the parent takes the
# first half of the blocks (rounded down) and the worker the rest.  The
# lengths fall on and off block edges, split into equal and unequal parts,
# and stay under the serial threshold (8 and 12 rows: 2 and 3 blocks).
PART_LENGTHS = [(8, 1), (12, 1), (15, 2), (16, 2), (17, 2), (20, 2), (24, 2), (37, 2)]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 4 rows and a chosen number of usable cores."""
    monkeypatch.setattr(configio, "CURVE_BLOCK_ROWS", 4)

    def cores(n):
        monkeypatch.setattr(configio, "_usable_cores", lambda: n)
    return cores


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, ranges", PART_LENGTHS)
def test_curve_bytes_at_part_edges(tmp_path, small_blocks, workers, n, ranges):
    small_blocks(workers)
    assert len(configio._curve_ranges(n)) == min(workers, ranges)
    rng = np.random.default_rng(n)
    values = np.concatenate([SPECIAL, rng.standard_normal(16) * 1e10])
    cols = [values[rng.integers(values.size, size=n)] for _ in range(3)]
    write_curve_csv(tmp_path / "got.csv", *cols)
    ref_write_curve_csv(tmp_path / "want.csv", *cols)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["got.csv", "want.csv"]


def test_small_curves_stay_serial_and_workers_are_capped(monkeypatch):
    monkeypatch.setattr(configio, "_usable_cores", lambda: 2)
    for rows in (4097, 2 * CURVE_BLOCK_ROWS + 1, 3 * CURVE_BLOCK_ROWS):
        assert configio._curve_ranges(rows) == [(0, rows)]
    assert configio._curve_ranges(65537) == [(0, 2 * CURVE_BLOCK_ROWS),
                                             (2 * CURVE_BLOCK_ROWS, 65537)]
    monkeypatch.setattr(configio, "_usable_cores", lambda: 64)  # counted, not started
    ranges = configio._curve_ranges(1048577)
    assert len(ranges) == configio.CURVE_MAX_WORKERS
    assert ranges[0][0] == 0 and ranges[-1][1] == 1048577
    assert all(a[1] == b[0] and a[1] % CURVE_BLOCK_ROWS == 0 for a, b in zip(ranges, ranges[1:]))


def _fail_rows(monkeypatch, fails, exc):
    """Make the range formatter raise ``exc`` for the ranges ``fails`` picks."""
    write_rows = configio._write_rows

    def write(fh, cols, start, stop):
        if fails(start):
            raise exc
        write_rows(fh, cols, start, stop)
    monkeypatch.setattr(configio, "_write_rows", write)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_worker_raises_in_the_parent(tmp_path, small_blocks, monkeypatch):
    small_blocks(2)
    _fail_rows(monkeypatch, lambda start: start != 0, RuntimeError("worker fails"))
    parent = os.getpid()
    try:
        write_curve_csv(tmp_path / "curve.csv", *[np.arange(20.0)] * 3)
    except BaseException as exc:  # checked below, in the parent only
        raised = exc
    else:
        raised = None
    with open(tmp_path / "ran", "a") as fh:  # one line per process that gets here
        fh.write(f"{os.getpid()}\n")
    if os.getpid() != parent:
        os._exit(0)  # a worker that returned into pytest: stop it here
    assert (tmp_path / "ran").read_text() == f"{parent}\n"
    assert isinstance(raised, OutputError)
    assert "rows 8..20 exited with status 1" in str(raised)
    assert sorted(os.listdir(tmp_path)) == ["ran"]
    _assert_no_children()


def test_parent_failing_mid_write_reaps_and_cleans(tmp_path, small_blocks, monkeypatch):
    small_blocks(2)
    _fail_rows(monkeypatch, lambda start: start == 0, OSError(errno.ENOSPC, "No space left"))
    with pytest.raises(OutputError, match="No space left"):
        write_curve_csv(tmp_path / "curve.csv", *[np.arange(20.0)] * 3)
    assert os.listdir(tmp_path) == []
    _assert_no_children()


# f(x) = x on the knots 0, 1/2, 1: the interpolation data are (0, 0.5, 1).
KNOT_DATA_CONFIG = {
    "germ": {"family": "polynomial", "coeffs": [0.0, 1.0]},
    "levels": [{"scaling": {"family": "constant", "value": 0.4},
                "base": {"family": "polynomial", "coeffs": [0.0, 0.0, 1.0]}}],
}
CSV_MATCHING = "x,y\n0,0\n0.5,0.5\n1,1\n"


@pytest.mark.parametrize("csv_text, ordinates, error", [
    (None, [0.0, 0.5, 1.0], None),
    (None, [0.0, 0.5 + 1e-10, 1.0], None),
    (None, [0.1, 0.5, 1.0], EndpointMismatch),
    (None, [0.0, 0.5, 1.0 + 2e-9], EndpointMismatch),
    (None, [0.0, 0.7, 1.0], EndpointMismatch),
    (None, [0.0, float("nan"), 1.0], EndpointMismatch),
    (None, [0.0, 0.5], ConfigError),
    (CSV_MATCHING, None, None),
    (CSV_MATCHING, [0.0, 0.5, 1.0], None),
    ("x,y\n0,0\n0.5,0.9\n1,1\n", None, EndpointMismatch),
    ("x,y\n0,0.1\n0.5,0.5\n1,1\n", None, EndpointMismatch),
    (CSV_MATCHING, [0.0, 0.9, 1.0], EndpointMismatch),
    (CSV_MATCHING, [0.0, 0.5, 1.0, 1.5], ConfigError),
], ids=["ordinates", "ordinates-within-tol", "ordinates-left-end", "ordinates-right-end",
        "ordinates-interior", "ordinates-nan", "ordinates-short", "csv", "csv-and-ordinates",
        "csv-interior", "csv-left-end", "csv-then-ordinates-interior", "csv-then-ordinates-long"])
def test_knot_data_checked_against_germ(tmp_path, csv_text, ordinates, error):
    """Knot values from a CSV partition's y column or from "ordinates" must
    be the germ's values at the knots, within ENDPOINT_TOL at every knot."""
    data = dict(KNOT_DATA_CONFIG, partition={"knots": [0.0, 0.5, 1.0]})
    if csv_text is not None:
        (tmp_path / "data.csv").write_text(csv_text)
        data["partition"] = {"csv": "data.csv"}
    if ordinates is not None:
        data["ordinates"] = ordinates
    if error is None:
        cfg = config_from_dict(data, base_dir=tmp_path)
        assert cfg.knot_ordinates == (0.0, 0.5, 1.0)
    else:
        with pytest.raises(error):
            config_from_dict(data, base_dir=tmp_path)
