"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 2 and 3 need an
external solver; the bundled LP solver is used unless EVCOVER_SOLVER_CMD
overrides it. Setting EVCOVER_SOLVER_CMD=none reports them as skipped.
"""

import math
import time

import numpy as np
import pytest

from evcover.covering import (build_coverage, evaluate, gap, optout_utility,
                              score_hyperoptic, score_myopic, station_utility_at_k)
from evcover.datasets import DatasetSpec, generate_dataset, generate_small_dataset, \
    generate_small_instance
from evcover.errors import draw_errors, gumbel_draw, two_nest_spec
from evcover.exact import brute_force_optimum, random_feasible_solution
from evcover.growth import (GfSolution, build_gf_instance, generate_growth_function,
                            extract_gf_solution, gf_forward_recursion, gf_solution_as_x,
                            adjust_solution_max_outlets, mc_yearly_totals)
from evcover.heuristics import (GraspConfig, GreedyConfig, _local_search, grasp,
                                grasp_construct, greedy)
from evcover.instance import SolutionX, validate_solution
from evcover.milp import build_gf, build_mc, build_sl, compute_bounds, \
    sl_objective_complement
from evcover.network import generate_network
from evcover.solver import resolve_solver_command, solve_external

EULER_GAMMA = 0.5772156649015329


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _tiny_dims(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xACC]))
    return dict(
        n_nodes=int(rng.integers(4, 11)),       # |N| <= 10
        n_stations=int(rng.integers(2, 5)),     # |M| <= 4
        horizon=int(rng.integers(1, 3)),        # T <= 2
        max_outlets=int(rng.integers(1, 3)),    # m_j <= 2
        max_scenarios=int(rng.integers(6, 16)),  # R_i <= 15
    )


@pytest.fixture(scope="module")
def tiny_set():
    out = []
    for seed in range(50):
        inst = generate_small_instance(1000 + seed, **_tiny_dims(seed))
        cov = build_coverage(inst)
        x_star, f_star = brute_force_optimum(inst, cov)
        out.append((inst, cov, x_star, f_star))
    return out


@pytest.fixture(scope="module")
def solver_command():
    command = resolve_solver_command(None)
    if command is None:
        pytest.skip("external solver not configured (EVCOVER_SOLVER_CMD=none); "
                    "criterion reported as skipped, not passed")
    return command


@pytest.fixture(scope="module")
def mc_solver_runs(tiny_set, solver_command):
    """Criterion 2/3 shared work: MC and SL solved externally on 20 tiny instances."""
    runs = []
    for inst, cov, x_star, f_star in tiny_set[:20]:
        mc = solve_external(build_mc(inst, cov), solver_command, time_limit_s=120)
        sl = solve_external(build_sl(inst, compute_bounds(inst)), solver_command,
                            time_limit_s=300)
        runs.append((inst, cov, f_star, mc, sl))
    return runs


def test_criterion_1_oracle_optimality(tiny_set):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for inst, cov, x_star, f_star in tiny_set:
        for _ in range(1000):
            x = random_feasible_solution(inst, rng)
            assert f_star >= evaluate(inst, cov, x) - 1e-9
            checked += 1
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 60.0,
            f"50 instances certified against {checked} random feasible "
            f"solutions in {elapsed:.1f}s (< 60s)")


def test_criterion_2_formulation_equivalence(mc_solver_runs):
    worst_pair = worst_mc = worst_sl = 0.0
    for inst, cov, f_star, mc, sl in mc_solver_runs:
        assert mc.status == "optimal" and sl.status == "optimal"
        total = sl_objective_complement(inst)
        worst_pair = max(worst_pair, abs(mc.objective + sl.objective - total))
        worst_mc = max(worst_mc, abs(mc.objective - f_star))
        worst_sl = max(worst_sl, abs((total - sl.objective) - f_star))
    ok = worst_pair <= 1e-6 and worst_mc <= 1e-6 and worst_sl <= 1e-6
    _report(2, ok,
            f"20 instances: |MC+SL-total| <= {worst_pair:.2e}, "
            f"|MC-f*| <= {worst_mc:.2e}, |total-SL-f*| <= {worst_sl:.2e} (tol 1e-6)")


def test_criterion_3_covering_integrality(mc_solver_runs):
    worst = 0.0
    n_w = 0
    for inst, cov, f_star, mc, sl in mc_solver_runs:
        for name, value in mc.values.items():
            if name.startswith("w_"):
                n_w += 1
                worst = max(worst, min(abs(value), abs(value - 1.0)))
    _report(3, worst <= 1e-9,
            f"{n_w} covering variables across 20 optima within {worst:.2e} of binary "
            f"(tol 1e-9)")


def test_criterion_4_coverage_correctness():
    n_entries = 0
    for seed in range(20):
        inst = generate_small_instance(4000 + seed, n_stations=2, n_nodes=5,
                                       horizon=2, max_scenarios=6)
        cov = build_coverage(inst)
        for ci, uc in enumerate(inst.user_classes):
            for t in range(1, inst.horizon + 1):
                for r in range(uc.scenario_count):
                    p = cov.trip.triplet_id(ci, t - 1, r)
                    u0 = optout_utility(inst, t, ci, r)
                    for j, st in enumerate(inst.stations):
                        scan = 0
                        prev = 0
                        for k in range(1, st.max_outlets + 1):
                            naive = 1 if (st.id in inst.choice_sets.c1[ci][t - 1]
                                          and station_utility_at_k(inst, t, ci, r,
                                                                   st.id, k) >= u0) else 0
                            assert cov.a_entry(j, k, p) == naive
                            assert naive >= prev  # monotone in k
                            prev = naive
                            if naive and not scan:
                                scan = k
                            n_entries += 1
                        assert cov.min_k[j, p] == scan
    _report(4, True, f"20 instances, {n_entries} tensor entries equal the naive "
                     f"recomputation; monotone in k; min-k matches linear scan")


def test_criterion_5_error_statistics():
    rng = np.random.default_rng(99)
    draws = gumbel_draw(rng, 0.0, 3.0, size=100_000)
    mean_err = abs(draws.mean() - 3 * EULER_GAMMA)
    var_err = abs(draws.var() - math.pi**2 * 9 / 6)

    from evcover.instance import ChoiceSets, UserClass
    from evcover.datasets import _Skeleton
    uc = UserClass(id="c", home_node="n0", populations=(1.0,), scenario_count=100_000,
                   consideration_radius=None)
    cs = ChoiceSets([[[0]]], [[[1, 2]]])
    eps = draw_errors(_Skeleton((uc,), cs, 1), two_nest_spec([1, 2]), 77)[0]
    corr = np.corrcoef(eps[1, :, 0], eps[2, :, 0])[0, 1]
    want = 1.0 / (1.0 + 1.5 * math.pi**2)
    corr_err = abs(corr - want)
    ok = mean_err <= 0.05 and var_err <= 0.5 and corr_err <= 0.02
    _report(5, ok,
            f"gumbel mean err {mean_err:.4f} (<=0.05), var err {var_err:.3f} (<=0.5), "
            f"same-nest corr err {corr_err:.4f} (<=0.02)")


def test_criterion_6_heuristic_quality(tiny_set):
    gaps_greedy, gaps_grasp, hits, n_scored = [], [], 0, 0
    for seed, (inst, cov, x_star, f_star) in enumerate(tiny_set):
        best_greedy = max(greedy(inst, cov, GreedyConfig(mode=m)).f
                          for m in ("myopic", "hyperoptic"))
        res = grasp(inst, cov, GraspConfig(alpha=0.85, mode="myopic",
                                           max_solutions=300, seed=seed))
        if f_star > 0:
            n_scored += 1
            gaps_greedy.append(gap(f_star, best_greedy))
            gaps_grasp.append(gap(f_star, res.f))
            if abs(res.f - f_star) <= 1e-9:
                hits += 1
        else:
            hits += 1
    greedy_avg = float(np.mean(gaps_greedy))
    grasp_avg = float(np.mean(gaps_grasp))
    ok = greedy_avg <= 5.0 and grasp_avg <= 1.0 and hits >= 0.6 * len(tiny_set)
    _report(6, ok,
            f"greedy avg gap {greedy_avg:.3f}% (<=5%), GRASP avg gap "
            f"{grasp_avg:.4f}% (<=1%), exact optimum on {hits}/50 (>=30)")


def test_criterion_7_grasp_degeneracy(tiny_set):
    mismatches = 0
    for inst, cov, x_star, f_star in tiny_set:
        for mode in ("myopic", "hyperoptic"):
            want = greedy(inst, cov, GreedyConfig(mode=mode)).x
            rng = np.random.default_rng(12345)
            got = grasp_construct(inst, cov, 1.0, mode, rng)
            if got != want:
                mismatches += 1
    _report(7, mismatches == 0,
            f"alpha=1 construction equals greedy on 50 instances x 2 modes "
            f"({mismatches} mismatches)")


@pytest.fixture(scope="module")
def simple_scale():
    net = generate_network(317, seed=8)
    return generate_dataset(DatasetSpec("Simple", net, instance_count=2, base_seed=8))


def test_criterion_8_performance_analogue(simple_scale):
    insts = simple_scale
    r_max = max(uc.scenario_count for inst in insts for uc in inst.user_classes)
    assert insts[0].n_stations == 10 and insts[0].horizon == 4
    assert len(insts[0].user_classes) == 317
    assert r_max <= 105
    greedy_times = []
    covs = []
    for inst in insts:
        cov = build_coverage(inst)
        covs.append(cov)
        t0 = time.perf_counter()
        greedy(inst, cov, GreedyConfig(mode="myopic"))
        greedy_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    res = grasp(insts[0], covs[0], GraspConfig(alpha=0.85, mode="myopic",
                                               max_solutions=300, seed=0))
    grasp_time = time.perf_counter() - t0
    ok = max(greedy_times) < 1.0 and grasp_time < 300.0
    _report(8, ok,
            f"|M|=10, T=4, |N|=317, R<= {r_max}: greedy-myopic "
            f"{max(greedy_times)*1000:.0f}ms/instance (<1s), GRASP-myopic "
            f"{grasp_time:.1f}s ({res.termination}) (<300s)")


def test_criterion_9_invariant_suites(tiny_set):
    rng = np.random.default_rng(5)
    checks = []

    # feasibility preservation across every heuristic
    feasible = True
    for inst, cov, _, _ in tiny_set[:10]:
        for mode in ("myopic", "hyperoptic"):
            feasible &= validate_solution(inst, greedy(inst, cov, GreedyConfig(mode=mode)).x).ok
        feasible &= validate_solution(
            inst, grasp(inst, cov, GraspConfig(max_solutions=10, seed=1)).x).ok
    checks.append(("heuristic feasibility", feasible))

    # f monotone in x
    monotone = True
    for inst, cov, _, _ in tiny_set[:10]:
        for _ in range(20):
            x = random_feasible_solution(inst, rng)
            levels = x.levels
            shrunk = np.maximum.accumulate(
                np.maximum(levels - rng.integers(0, 2, size=levels.shape), 0), axis=1)
            x2 = SolutionX.from_levels(shrunk, int(inst.max_outlets.max()))
            monotone &= evaluate(inst, cov, x) >= evaluate(inst, cov, x2) - 1e-12
    checks.append(("f monotone in x", monotone))

    # hyperoptic dominates myopic scores
    dominance = True
    for inst, cov, _, _ in tiny_set[:10]:
        x = random_feasible_solution(inst, rng)
        for t in range(1, inst.horizon + 1):
            dominance &= score_hyperoptic(cov, x, t) >= score_myopic(cov, x, t) - 1e-12
    checks.append(("f_h >= f_m", dominance))

    # local-search acceptance trace nondecreasing
    nondecreasing = True
    for inst, cov, _, _ in tiny_set[:10]:
        x = random_feasible_solution(inst, rng)
        trace = []
        _local_search(inst, cov, x.levels, trace=trace)
        fs = [row["f"] for row in trace]
        nondecreasing &= all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))
    checks.append(("local-search trace nondecreasing", nondecreasing))

    # determinism: bit-identical reruns under fixed seeds
    inst, cov, _, _ = tiny_set[0]
    g1 = greedy(inst, cov, GreedyConfig(mode="hyperoptic"))
    g2 = greedy(inst, cov, GreedyConfig(mode="hyperoptic"))
    r1 = grasp(inst, cov, GraspConfig(max_solutions=15, seed=9))
    r2 = grasp(inst, cov, GraspConfig(max_solutions=15, seed=9))
    i1 = generate_small_instance(77)
    i2 = generate_small_instance(77)
    from evcover.instance import instance_to_json
    deterministic = (np.array_equal(g1.x.binary, g2.x.binary) and g1.f == g2.f
                     and np.array_equal(r1.x.binary, r2.x.binary) and r1.f == r2.f
                     and [t["constructed_f"] for t in r1.trace]
                     == [t["constructed_f"] for t in r2.trace]
                     and instance_to_json(i1) == instance_to_json(i2))
    checks.append(("bit-identical reruns", deterministic))

    failed = [name for name, ok in checks if not ok]
    _report(9, not failed,
            "all invariant suites green: " + ", ".join(name for name, _ in checks)
            if not failed else f"failed: {failed}")


def test_criterion_10_gf_loop_closure():
    insts = generate_small_dataset(21, 4, horizon=3, max_scenarios=8)
    covs = [build_coverage(i) for i in insts]
    ref = greedy(insts[0], covs[0], GreedyConfig(mode="hyperoptic")).x
    gf_curve = generate_growth_function(insts, ref, covs)
    cum, _ = mc_yearly_totals(insts, ref, covs)

    import dataclasses
    gfi = build_gf_instance(insts[0], gf_curve, radius_km=1e9)
    one = dataclasses.replace(
        gfi, station_ids=gfi.station_ids[:1], willing_nodes=gfi.willing_nodes[:1],
        max_outlets=gfi.max_outlets[:1], initial_outlets=gfi.initial_outlets[:1],
        opening_cost=gfi.opening_cost[:1])
    T = gfi.horizon
    sol = GfSolution(open=np.ones((1, T), dtype=bool), outlets=np.ones((1, T), dtype=int))
    totals = gf_forward_recursion(one, sol).yearly_totals
    closure_err = float(np.abs(totals - cum).max())

    # directional orderings on the comparison instances; the GF model is
    # solved externally when a solver is configured, by enumeration otherwise
    from evcover.cli import _solve_gf_model
    gfi10 = build_gf_instance(insts[0], gf_curve, radius_km=10.0)
    gf_sol = _solve_gf_model(gfi10, None, 120)
    x_gf = gf_solution_as_x(gfi10, gf_sol)
    x_adj = adjust_solution_max_outlets(gfi10, gf_sol)
    ordering = True
    for inst, cov in zip(insts, covs):
        f_gf = evaluate(inst, cov, x_gf)
        f_adj = evaluate(inst, cov, x_adj)
        _, f_star = brute_force_optimum(inst, cov)
        ordering &= (f_adj >= f_gf - 1e-9) and (f_star >= f_gf - 1e-9)
    ok = closure_err <= 1e-6 and ordering
    _report(10, ok,
            f"per-year closure error {closure_err:.2e} (<=1e-6); adjusted >= GF and "
            f"MC* >= GF on all 4 comparison instances: {ordering}")
