import errno
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from alphafractal import configio
from alphafractal.configio import CURVE_PIECE_ROWS, config_from_dict, write_curve_csv
from alphafractal.core import build_partition
from alphafractal.errors import ConfigError, EndpointMismatch, OutputError

from reference import ref_write_curve_csv

# Signed zeros, the subnormal range, its edge with the normals, and the ends
# of the finite range: the values where %.17g output is easiest to get wrong.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
           2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
           0.1, 1.0 / 3.0, -2.5]
LENGTHS = [1, 2, CURVE_PIECE_ROWS - 1, CURVE_PIECE_ROWS, CURVE_PIECE_ROWS + 1,
           4 * CURVE_PIECE_ROWS + 1]


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from(LENGTHS),
    pool=st.lists(st.one_of(st.sampled_from(SPECIAL),
                            st.floats(allow_nan=False, allow_infinity=False)),
                  min_size=1, max_size=64),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4 * CURVE_PIECE_ROWS + 1, pool=SPECIAL, seed=0)
def test_curve_bytes_match_loop_writer(n, pool, seed):
    rng = np.random.default_rng(seed)
    values = np.asarray(pool, dtype=float)
    cols = [values[rng.integers(values.size, size=n)] for _ in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_curve_csv(got, *cols)
        ref_write_curve_csv(want, *cols)
        assert got.read_bytes() == want.read_bytes()


# The export's integer formatter covers |v| in [1e-4, 1e7) and hands every
# other value to %; these cases sit on both sides of that edge, on exact
# ties of the 17th digit and next to every power of ten it meets.
def _assert_bytes_match_reference(tmp_path, *cols):
    write_curve_csv(tmp_path / "got.csv", *cols)
    ref_write_curve_csv(tmp_path / "want.csv", *cols)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _signed(rng, values):
    return values * rng.choice([-1.0, 1.0], size=values.shape)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_curve_bytes_log_uniform_across_the_fast_range(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = 4 * CURVE_PIECE_ROWS + 5
    cols = [_signed(rng, np.exp(rng.uniform(np.log(1e-6), np.log(1e8), n))) for _ in range(3)]
    _assert_bytes_match_reference(tmp_path, *cols)


def test_curve_bytes_dyadic_ties(tmp_path):
    # k / 2^20 has 20 fraction digits, so from 10 up the 17th digit is
    # often followed by exactly 5: a tie, rounded half to even
    rng = np.random.default_rng(20)
    k = rng.integers(1, 10**7 * 2**20, size=(3, 20000))
    _assert_bytes_match_reference(tmp_path, *_signed(rng, k / 2.0**20))


def _neighbours(x, steps=20):
    """x and its `steps` nearest doubles on either side."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def test_curve_bytes_next_to_powers_of_ten_and_range_edges(tmp_path):
    values = np.array([v for x in [10.0**k for k in range(-5, 9)] + [1e-4, 1e7]
                       for v in _neighbours(x)])
    values = np.concatenate([values, -values])
    _assert_bytes_match_reference(tmp_path, values, values[::-1], np.roll(values, 7))


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 9.9e-5, 1e7, -3e15, 1.7976931348623157e308],
    [0.0, 0.25, -1e-3, 5e-324, 123456.789, -1e300, 9999999.999999998, -0.0, 1e-4],
    [np.nan, np.inf, -np.inf, 0.5, -0.5, np.nan],
], ids=["all-fallback", "mixed", "nan-inf"])
def test_curve_bytes_fallback_values(tmp_path, values):
    rng = np.random.default_rng(len(values))
    values = np.asarray(values)
    cols = [values[rng.integers(values.size, size=3 * values.size)] for _ in range(3)]
    _assert_bytes_match_reference(tmp_path, *cols)


def test_curve_bytes_c11_grid_1m(tmp_path):
    # the x column of a 1M-point criterion-11 build: 105 nodes below 1e-4
    x = build_partition([0.0, 1 / 6, 1 / 3, 0.5, 2 / 3, 5 / 6, 1.0]).grid(1048577)
    _assert_bytes_match_reference(tmp_path, x, -x, x[::-1] * 3.0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=1e-4, max_value=1e7, exclude_max=True),
                min_size=3, max_size=300))
def test_curve_bytes_in_the_fast_range(values):
    values = np.asarray(values)
    with tempfile.TemporaryDirectory() as tmp:
        _assert_bytes_match_reference(Path(tmp), values, -values, values[::-1])


# Part edges: with pieces of 4 rows, at least 2 per worker, and two workers,
# the parent takes the first half of the pieces (rounded down) and the
# worker the rest.  The lengths fall on and off piece edges, split into
# equal and unequal parts, and stay under the serial threshold (8 and 12
# rows: 2 and 3 pieces).
PART_LENGTHS = [(8, 1), (12, 1), (15, 2), (16, 2), (17, 2), (20, 2), (24, 2), (37, 2)]


@pytest.fixture
def small_pieces(monkeypatch):
    """Pieces of 4 rows, at least 2 per worker, and a chosen number of
    usable cores."""
    monkeypatch.setattr(configio, "CURVE_PIECE_ROWS", 4)
    monkeypatch.setattr(configio, "CURVE_WORKER_MIN_PIECES", 2)

    def cores(n):
        monkeypatch.setattr(configio, "_usable_cores", lambda: n)
    return cores


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, ranges", PART_LENGTHS)
def test_curve_bytes_at_part_edges(tmp_path, small_pieces, workers, n, ranges):
    small_pieces(workers)
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
    for rows in (4097, 8 * CURVE_PIECE_ROWS + 1, 15 * CURVE_PIECE_ROWS):
        assert configio._curve_ranges(rows) == [(0, rows)]
    for rows in (15 * CURVE_PIECE_ROWS + 1, 65537):
        assert configio._curve_ranges(rows) == [(0, 8 * CURVE_PIECE_ROWS),
                                                (8 * CURVE_PIECE_ROWS, rows)]
    monkeypatch.setattr(configio, "_usable_cores", lambda: 64)  # counted, not started
    ranges = configio._curve_ranges(1048577)
    assert len(ranges) == configio.CURVE_MAX_WORKERS
    assert ranges[0][0] == 0 and ranges[-1][1] == 1048577
    assert all(a[1] == b[0] and a[1] % CURVE_PIECE_ROWS == 0 for a, b in zip(ranges, ranges[1:]))


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


def test_failing_worker_raises_in_the_parent(tmp_path, small_pieces, monkeypatch):
    small_pieces(2)
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


def test_parent_failing_mid_write_reaps_and_cleans(tmp_path, small_pieces, monkeypatch):
    small_pieces(2)
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
