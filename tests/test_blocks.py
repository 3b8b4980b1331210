"""The block scheduler (core.run_blocks) and the big-grid kernels it runs:
every element goes through the same operations whether the blocks run on
one core or spread over helper threads, so the results are equal bit for
bit."""

import contextlib
import functools
import io
import importlib
import os
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from alphafractal import FunctionSpec, backward_trajectory, cli, core, engine
from alphafractal.configio import config_from_dict
from alphafractal.core import BLOCK_POINTS, Partition, run_blocks
from alphafractal.ifs import PerturbationLevel, PerturbationSpec

from reference import ref_grid
from test_cli import README_CONFIG, c11_config

DOM = (0.0, 1.0)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
C11_NU_KNOTS = [0.0, 0.13, 0.3, 0.52, 0.6, 0.81, 1.0]


def _c11_nu():
    return {**c11_config(), "partition": {"knots": C11_NU_KNOTS}}


@pytest.fixture
def cores(monkeypatch):
    """Set how many cores the scheduler may use; three run helper threads
    even on a one-core machine."""
    return lambda n: monkeypatch.setattr(core, "_usable_cores", lambda: n)


def _perturbation():
    return PerturbationSpec((PerturbationLevel(
        t=(0.05, -0.1, 0.2, -0.3, 0.1, 0.25), s=(0.3, 0.0, -0.2, 0.1, -0.4, 0.2),
        theta=(FunctionSpec.sinusoid(1.0, 5.0, 0.0, 0.0, DOM),
               FunctionSpec.constant(0.5, DOM)) * 3,
        phi=(FunctionSpec.polynomial([0.0, 1.0, -1.0], DOM),
             FunctionSpec.polynomial([0.0, 0.5, 0.0, -0.5], DOM)) * 3),))


class TestRunBlocks:
    @pytest.mark.parametrize("n", [1, 4101, BLOCK_POINTS, BLOCK_POINTS + 1,
                                   3 * BLOCK_POINTS - 7, 2 ** 17 + 1, 2 ** 20 + 5])
    @pytest.mark.parametrize("n_cores", [1, 3])
    def test_blocks_cover_the_arrays_in_order(self, cores, n, n_cores):
        cores(n_cores)
        index, values = np.arange(n), np.arange(n) * 0.5
        results = run_blocks(lambda i, none, v: (int(i[0]), i.size, none, v.base is values),
                             index, None, values)
        assert [r[0] for r in results] == [0, *np.cumsum([r[1] for r in results[:-1]])]
        assert sum(r[1] for r in results) == n
        assert all(0 < r[1] <= BLOCK_POINTS and r[2] is None for r in results)
        # the arrays themselves when they fit one block, else views of them
        assert all(r[3] for r in results) is (n > BLOCK_POINTS)

    def test_small_arrays_and_one_core_stay_on_the_calling_thread(self, cores):
        threads = set()
        cores(3)
        run_blocks(lambda b: threads.add(threading.current_thread()), np.empty(BLOCK_POINTS))
        cores(1)
        run_blocks(lambda b: threads.add(threading.current_thread()),
                   np.empty(5 * BLOCK_POINTS))
        assert threads == {threading.current_thread()}

    def _slow_blocks(self, kernel):
        # 32 blocks that each take a while, so that the helpers take some;
        # kernel gets the block's number
        def slow(block):
            time.sleep(0.002)
            return kernel(int(block[0]) // BLOCK_POINTS)
        return run_blocks(slow, np.arange(32 * BLOCK_POINTS))

    def test_helpers_run_under_the_callers_numpy_error_state(self, cores):
        cores(3)
        threads = set()

        def divide(k):
            threads.add(threading.current_thread())
            return float(np.divide(np.ones(1), np.zeros(1))[0])

        with np.errstate(divide="ignore"):  # a warning would fail this test
            assert self._slow_blocks(divide) == [np.inf] * 32
        assert len(threads) > 1
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            self._slow_blocks(divide)

    def test_an_error_in_any_block_is_raised_after_every_block_ends(self, cores):
        cores(3)
        running = []

        def kernel(k):
            running.append(k)
            time.sleep(0.002)
            running.remove(k)
            if k == 17:
                raise ValueError("block 17")

        with pytest.raises(ValueError, match="block 17"):
            self._slow_blocks(kernel)
        assert running == []
        # the helpers still serve the next round
        assert self._slow_blocks(lambda k: k) == list(range(32))

    def test_rounds_under_frequent_thread_switches(self):
        # three helpers and the calling thread, more threads than most
        # machines running this have cores; each block must run once
        helpers = core._Helpers(3)
        slices = [slice(k, k + 1) for k in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rounds, deadline = 0, time.monotonic() + 5
            while rounds < 300 and time.monotonic() < deadline:
                hits = np.zeros(len(slices), dtype=np.int64)

                def block(s):
                    hits[s] += 1
                    return s.start

                assert helpers.run(block, slices) == list(range(len(slices)))
                assert np.all(hits == 1)
                rounds += 1
        finally:
            sys.setswitchinterval(interval)
        assert rounds >= 20

    def test_a_forked_child_starts_its_own_helpers(self, cores):
        # Without core's at-fork hook the child would queue its blocks for
        # helper threads it does not have, and wait for ever.
        cores(3)
        self._slow_blocks(lambda k: k)
        assert core._helpers is not None
        with warnings.catch_warnings():  # Python 3.12 warns on fork with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                ok = core._helpers is None and len(self._slow_blocks(lambda k: k)) == 32
                status = 0 if ok else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


class TestKernelsOnAllCores:
    """Trajectories above BLOCK_POINTS equal their one-core values bit for
    bit, on a closed grid (c11) and an open one (c11-nu)."""

    # in blocks of 2^15 points, grid 70001 leaves a last block of 4,469
    # points on c11 and of 4,465 on c11-nu, grid 2^17 + 1 one of five and
    # of six points
    @pytest.mark.parametrize("grid", [70001, 2 ** 17 + 1])
    @pytest.mark.parametrize("data, closed", [(c11_config(), True), (_c11_nu(), False)],
                             ids=["c11", "c11-nu"])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_trajectory_equals_one_core(self, cores, grid, data, closed, perturbed):
        runs = []
        for n_cores in (1, 3):
            cores(n_cores)
            cfg = config_from_dict(data, overrides={"grid": grid})
            assert cfg.grid.size > BLOCK_POINTS
            stencil = engine._stencil(cfg)
            assert (not isinstance(stencil, tuple)) is closed
            pert = _perturbation() if perturbed else None
            runs.append((cfg.grid, *engine._grid_geometry(cfg),
                         *(stencil if isinstance(stencil, tuple) else (stencil,)),
                         backward_trajectory(None, 6, cfg, pert).values.ys))
        one, many = runs
        assert len(one) == len(many)
        for a, b in zip(one, many):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_helpers_take_blocks(self, cores, monkeypatch):
        # the comparison above is only worth something if helpers ran
        cores(3)
        threads = set()
        monkeypatch.setattr(engine, "run_blocks", lambda kernel, *arrays: run_blocks(
            lambda *b: threads.add(threading.current_thread()) or kernel(*b), *arrays))
        cfg = config_from_dict(c11_config(), overrides={"grid": 2 ** 20 + 1})
        backward_trajectory(None, 20, cfg)
        assert len(threads) > 1


class TestClosure:
    """A NaN Q point anywhere keeps the grid open, as np.max over all the
    gaps would."""

    @pytest.mark.parametrize("n_cores", [1, 3])
    @pytest.mark.parametrize("where", [0, BLOCK_POINTS - 1, BLOCK_POINTS + 5, -1])
    def test_nan_in_any_block_keeps_the_grid_open(self, cores, n_cores, where):
        cores(n_cores)
        grid = np.linspace(0.0, 1.0, 2 ** 17 + 1)
        q = grid[::-1].copy()  # every q a node: closed
        assert isinstance(engine._node_read(grid, q, 1e-15), np.ndarray)
        q[where] = np.nan
        assert isinstance(engine._node_read(grid, q, 1e-15), tuple)

    @pytest.mark.parametrize("n_cores", [1, 3])
    def test_nearest_nodes_above_the_block_size(self, cores, n_cores):
        cores(n_cores)
        grid = np.linspace(0.0, 1.0, 2 ** 17 + 1)
        h = grid[1]
        q = grid + np.where(np.arange(grid.size) % 2, 0.3, -0.3) * h * 1e-12
        q[[0, -1]] = grid[[0, -1]]
        j = engine._node_read(grid, q, h)
        assert np.array_equal(j, np.arange(grid.size))


class TestGrid:
    """Partition.grid inserts the knots that are no nodes at their sorted
    places: the same array as the union1d construction, signed zeros and
    all."""

    PARTITIONS = {"c11": [k / 6 for k in range(7)], "c11-nu": C11_NU_KNOTS,
                  "readme": README_CONFIG["partition"]["knots"]}

    @pytest.mark.parametrize("size", [4, 1025, 4097, 7777, 46657, 65537, 1048577])
    @pytest.mark.parametrize("name", sorted(PARTITIONS))
    def test_equals_the_union_construction(self, name, size):
        p = Partition(tuple(self.PARTITIONS[name]))
        assert p.grid(size).tobytes() == ref_grid(p, size).tobytes()

    @pytest.mark.parametrize("knots, size", [
        ([-0.0, 0.25, 1.0], 9), ([-1.0, -0.0, 1.0], 1025), ([-1.0, 0.0, 1.0], 1024),
        ([-2.0, -0.0, 0.3, 2.0], 4097), ([1e6, 1e6 + 1e-3, 1e6 + 2e-3], 1025),
        # nodes closer than rounding can tell apart: the union construction
        ([1.0, 1.0 + 2 ** -50, 1.0 + 2 ** -49], 4097),
        ([0.0, 1e-300, 2e-300], 65537)])
    def test_signed_zeros_and_crowded_nodes(self, knots, size):
        p = Partition(tuple(knots))
        got = p.grid(size)
        assert got.tobytes() == ref_grid(p, size).tobytes()
        assert np.all(np.diff(got) > 0)

    def test_random_partitions(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            lo = float(rng.choice([0.0, -1.0, 3.5, rng.normal() * 1e3]))
            span = float(10 ** rng.uniform(-6, 3))
            m = int(rng.integers(n, 40))
            interior = np.sort(rng.choice(np.arange(1, m), n - 1, replace=False)) / m
            p = Partition(tuple([lo, *(lo + span * interior), lo + span]))
            size = int(rng.choice([n + 1, 97, 1025, int(rng.integers(n + 1, 5000))]))
            assert p.grid(size).tobytes() == ref_grid(p, size).tobytes()

    def test_builds_the_1m_grid_in_about_two_grid_arrays(self):
        import tracemalloc
        p = Partition(tuple(self.PARTITIONS["c11"]))
        tracemalloc.start()
        try:
            grid = p.grid(1048577)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # linspace and the result, plus np.insert's one-byte mask (the
        # union1d construction peaked at four grid arrays)
        assert peak <= 2.5 * grid.nbytes


def test_no_traced_site_runs_off_the_main_thread(cores, monkeypatch, tmp_path):
    """The benchmark's tracer keeps one span stack, which only the main
    thread may touch: a build above BLOCK_POINTS calls every wrapped site
    from the main thread while helper threads run its kernels."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans, workloads = importlib.import_module("spans"), importlib.import_module("workloads")
    cores(3)
    calls, rounds = [], []
    run = core._Helpers.run
    monkeypatch.setattr(core._Helpers, "run",
                        lambda self, *a: rounds.append(1) or run(self, *a))

    class MainThreadTracer(spans.Tracer):
        def _span_wrapper(self, site, fn):
            return self._on_thread(site, super()._span_wrapper(site, fn))

        def _count_wrapper(self, site, fn):
            return self._on_thread(site, super()._count_wrapper(site, fn))

        def _on_thread(self, site, wrapped):
            @functools.wraps(wrapped)
            def wrapper(*args, **kwargs):
                calls.append((site, threading.current_thread()))
                return wrapped(*args, **kwargs)
            return wrapper

    wl = workloads.WORKLOADS["build-1m"](1, tmp_path)
    wl.prepare()
    tracer = MainThreadTracer(run_id="threads")
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["build", "--config", str(wl.config), "--grid", "70001",
                           "--eps", "1e-10", "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert rounds  # helper threads ran kernel blocks
    assert [site for site in wl.predicted_sites if tracer.fired[site] == 0] == []
    assert {site for site, _ in calls} >= set(wl.predicted_sites)
    assert {thread for _, thread in calls} == {threading.main_thread()}
