"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are pinned here; nothing is calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest

from alphafractal import (
    FunctionSpec,
    Level,
    LevelSequence,
    PerturbationSpec,
    ProblemConfig,
    build_partition,
    check_lip_hypothesis,
    sensitivity_bound,
    series_eval,
    stationary_fixed_point,
)
from alphafractal.bounds import VERIFY_TOL
from alphafractal.campaigns import error_suite, sensitivity_suite, stability_suite
from alphafractal.core import Partition, SampledFunction, matched_endpoint_polynomial
from alphafractal.depend import partition_continuity
from alphafractal.engine import (
    _level_terms,
    _rb_step,
    _stencil,
    apply_rb,
    backward_trajectory,
    resolve_depth,
)
from alphafractal.norms import estimate_norms
from alphafractal.sampling import random_germ_spec, rng_from
from alphafractal.cli import main as cli_main

from helpers import (
    base_pair_suite,
    is_strictly_decreasing,
    random_config,
    random_partition,
    scaling_pair_suite,
)

DOM = (0.0, 1.0)
BATCH_SEED = 7  # seeds the 20-config batch shared by criteria 1 and 5


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def batch():
    rng = rng_from(BATCH_SEED)
    return [random_config(rng) for _ in range(20)]


@pytest.fixture(scope="module")
def running_cfg_module():
    p = build_partition([0.0, 0.5, 1.0])
    f = FunctionSpec.polynomial([0.0, 1.0], DOM)
    b = FunctionSpec.polynomial([0.0, 0.0, 1.0], DOM)
    a = FunctionSpec.constant(0.4, DOM)
    return ProblemConfig(p, f, LevelSequence((Level((a, a), b),)))


def test_criterion_1_interpolation(batch):
    t0 = time.perf_counter()
    worst_series = 0.0
    worst_traj = 0.0
    for cfg in batch:
        knots = cfg.partition.array()
        targets = np.asarray(cfg.knot_ordinates)
        depth = max(resolve_depth(cfg), cfg.n_intervals)
        series_res = np.max(np.abs(series_eval(knots, depth, cfg) - targets))
        traj = backward_trajectory(None, depth, cfg)
        traj_res = float(np.max(traj.knot_residuals()))
        worst_series = max(worst_series, float(series_res))
        worst_traj = max(worst_traj, traj_res)
    elapsed = time.perf_counter() - t0
    ok = worst_series <= 1e-8 and worst_traj <= 1e-8 and elapsed < 10.0
    _report(1, ok, f"knot residuals: series {worst_series:.2e}, trajectory "
                   f"{worst_traj:.2e} (<= 1e-8) over 20 configs in {elapsed:.2f}s")


def test_criterion_2_degenerate_identities(running_cfg_module):
    zero = FunctionSpec.constant(0.0, DOM)
    cfg0 = running_cfg_module.with_scalings([[zero, zero]])
    vals0 = backward_trajectory(None, 10, cfg0).values.ys
    gap0 = float(np.max(np.abs(vals0 - cfg0.germ_values)))

    with pytest.warns(UserWarning, match="degenerates"):
        cfg_bf = running_cfg_module.with_bases((running_cfg_module.germ,))
        vals_bf = backward_trajectory(None, 10, cfg_bf).values.ys
    gap_bf = float(np.max(np.abs(vals_bf - cfg_bf.germ_values)))

    ok = gap0 == 0.0 and gap_bf == 0.0
    _report(2, ok, f"alpha=0 gap {gap0}, b=f gap {gap_bf} (both exactly 0 on grid)")


def test_criterion_3_hand_traced_oracle(running_cfg_module):
    cfg = running_cfg_module
    s25 = series_eval(0.25, 30, cfg)
    s75 = series_eval(0.75, 30, cfg)
    traj = backward_trajectory(None, 30, cfg)
    t25, t75 = traj(0.25), traj(0.75)
    ok = (abs(s25 - 0.35) <= 1e-9 and abs(s75 - 0.85) <= 1e-9
          and abs(t25 - 0.35) <= 1e-6 and abs(t75 - 0.85) <= 1e-6)
    _report(3, ok, f"series ({s25:.12f}, {s75:.12f}) within 1e-9; "
                   f"trajectory ({t25:.9f}, {t75:.9f}) within 1e-6")


def test_criterion_4_stationary_consistency():
    rng = rng_from(404)
    worst = 0.0
    for _ in range(10):
        cfg = random_config(rng, n_levels=1)
        traj = backward_trajectory(None, 30, cfg)
        fix = stationary_fixed_point(cfg)
        worst = max(worst, traj.values.sup_diff(fix.values))
    _report(4, worst <= 1e-8,
            f"max |trajectory(30) - fixed point| = {worst:.2e} (<= 1e-8) over 10 configs")


def test_criterion_5_geometric_convergence(batch):
    # cumulative form of the decay statement: the depth-k successive
    # difference D_k = ||psi_{k+1} g - psi_k g|| obeys
    # D_k <= (||alpha|| + 0.05)^k * C with C = sup_r ||T^{alpha_r} g - g||
    worst_quot = 0.0
    for cfg in batch:
        g = SampledFunction(cfg.grid, cfg.germ_values)
        c0 = max(
            float(np.max(np.abs(_rb_step(g.ys, _stencil(cfg), cfg.germ_values,
                                         _level_terms(cfg, r)) - g.ys)))
            for r in range(1, cfg.levels.prefix_len + 1)
        )
        outs = [backward_trajectory(None, k, cfg).values.ys for k in range(1, 22)]
        diffs = [float(np.max(np.abs(b - a))) for a, b in zip(outs, outs[1:])]
        rate = cfg.alpha_sup + 0.05
        for k in range(2, 21):
            bound = rate ** k * c0
            if bound > 0:
                worst_quot = max(worst_quot, diffs[k - 1] / bound)
    _report(5, worst_quot <= 1.0,
            f"max D_k / ((||alpha||+0.05)^k C) = {worst_quot:.4f} (<= 1) "
            f"for depths 2..20 over the 20 configs of criterion 1")


def test_criterion_6_error_and_corollary_bounds(running_cfg_module):
    reports = error_suite(running_cfg_module, trials=100, seed=606)
    violations = [r for r in reports if r.observed > r.predicted + 1e-6]
    worst = min(r.margin for r in reports)
    _report(6, not violations,
            f"{len(reports)} error/corollary checks, 0 violations at 1e-6 "
            f"(tightest margin {worst:.3e})")


def test_criterion_7_stability_bound(running_cfg_module):
    reports = stability_suite(running_cfg_module, trials=100, seed=707)
    violations = [r for r in reports if r.observed > r.predicted + 1e-6]
    worst = min(r.margin for r in reports)
    _report(7, not violations,
            f"100 germ/base perturbation pairs, 0 violations at 1e-6 "
            f"(tightest margin {worst:.3e})")


def test_criterion_8_sensitivity_bound(running_cfg_module):
    reports = sensitivity_suite(running_cfg_module, trials=100, seed=808)
    violations = [r for r in reports if r.observed > r.predicted + 1e-6]
    zero = sensitivity_bound(running_cfg_module, PerturbationSpec.zeros(2, DOM))
    ok = not violations and zero.observed == 0.0
    worst = min(r.margin for r in reports)
    _report(8, ok,
            f"100 perturbations, 0 violations at 1e-6 (tightest margin "
            f"{worst:.3e}); t=s=0 observed = {zero.observed} exactly")


def test_criterion_9_dependence_constants(running_cfg_module):
    base_reports = base_pair_suite(running_cfg_module, pairs=50, seed=909)
    a = running_cfg_module.alpha_sup
    base_ok = all(r.observed <= a / (1 - a) + 1e-4 for r in base_reports)

    scaling_reports = scaling_pair_suite(running_cfg_module, pairs=50, seed=910,
                                         s_cap=0.5)
    scaling_ok = all(r.observed <= r.predicted + VERIFY_TOL + 1e-4
                     for r in scaling_reports)

    rng = rng_from(911)
    witness_ok = True
    for _ in range(10):
        cfg = random_config(rng)
        knots = cfg.partition.array()
        shift = np.zeros_like(knots)
        scale = 0.2 * float(np.min(np.diff(knots)))
        shift[1:-1] = rng.uniform(-scale, scale, size=knots.size - 2)
        target = Partition(tuple(knots + shift))
        reports = partition_continuity(cfg, target, halvings=3)
        diffs = [r.inputs["interpolant_sup_diff"] for r in reports]
        witness_ok = witness_ok and is_strictly_decreasing(diffs) and all(
            r.passed for r in reports)

    ok = base_ok and scaling_ok and witness_ok
    _report(9, ok,
            f"base ratio <= {a/(1-a):.4f}+1e-4 on 50 pairs: {base_ok}; "
            f"scaling bound on 50 pairs: {scaling_ok}; "
            f"partition witness decreasing on 10 configs: {witness_ok}")


def test_criterion_10_lipschitz_certificate():
    rng = rng_from(1010)
    pairs_checked = 0
    worst_quot = 0.0
    while pairs_checked < 50:
        n = int(rng.integers(2, 5))
        d = float(rng.choice([1.0, 0.8]))
        partition = random_partition(rng, DOM, n)
        germ = random_germ_spec(rng, DOM)
        maps_a = [float(v) for v in np.diff(partition.array()) / partition.span]
        alphas = tuple(
            FunctionSpec.constant(float(rng.uniform(0.3, 0.9)) * 0.5 * a_i ** d, DOM)
            for a_i in maps_a
        )
        base = matched_endpoint_polynomial(
            rng.uniform(-1, 1, 6), DOM,
            float(germ(DOM[0])), float(germ(DOM[1])))
        cfg = ProblemConfig(partition, germ,
                            LevelSequence((Level(alphas, base),)),
                            d=d, mode="lipschitz", grid_size=513)
        rep = check_lip_hypothesis(cfg)
        assert rep.passed  # construction guarantees the 1/2 condition
        factor = rep.inputs["contraction_factor"] + 0.05
        grid = cfg.grid
        f0, f1 = float(germ(DOM[0])), float(germ(DOM[1]))
        for _ in range(10):
            g1 = matched_endpoint_polynomial(rng.uniform(-1, 1, 6), DOM, f0, f1)
            g2 = matched_endpoint_polynomial(rng.uniform(-1, 1, 6), DOM, f0, f1)
            t1 = apply_rb(SampledFunction(grid, np.asarray(g1(grid))), 1, cfg)
            t2 = apply_rb(SampledFunction(grid, np.asarray(g2(grid))), 1, cfg)
            num = estimate_norms(SampledFunction(grid, t1.ys - t2.ys), d, grid).norm_d
            den = estimate_norms(SampledFunction(grid, g1(grid) - g2(grid)), d, grid).norm_d
            if den < 1e-12:
                continue
            worst_quot = max(worst_quot, num / (factor * den))
            pairs_checked += 1
    _report(10, worst_quot <= 1.0,
            f"RB ||.||_d contraction on {pairs_checked} sampled pairs: "
            f"max ratio/(2*ratio+0.05) = {worst_quot:.4f} (<= 1)")


def test_criterion_11_performance(tmp_path):
    config = {
        "partition": {"knots": [0.0, 1 / 6, 1 / 3, 0.5, 2 / 3, 5 / 6, 1.0]},
        "germ": {"family": "sinusoid", "amplitude": 0.8, "omega": 6.0,
                 "phase": 0.4, "offset": 0.1},
        "levels": [
            {"scaling": {"family": "constant", "value": 0.45},
             "base": {"family": "linear-endpoint",
                      "left": 0.8 * np.sin(0.4) + 0.1,
                      "right": 0.8 * np.sin(6.4) + 0.1}},
            {"scaling": {"family": "sinusoid", "amplitude": 0.1, "omega": 3.0,
                         "phase": 0.0, "offset": 0.3},
             "base": {"family": "linear-endpoint",
                      "left": 0.8 * np.sin(0.4) + 0.1,
                      "right": 0.8 * np.sin(6.4) + 0.1}},
        ],
        "grid": 4097,
        "depth": {"k": 30},
    }
    path = tmp_path / "perf.json"
    path.write_text(json.dumps(config))
    t0 = time.perf_counter()
    rc = cli_main(["build", "--config", str(path), "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and elapsed < 1.0 and (tmp_path / "curve.csv").exists()
    _report(11, ok,
            f"grid 4097, depth 30, N=6 build + export in {elapsed:.3f}s (< 1s)")
