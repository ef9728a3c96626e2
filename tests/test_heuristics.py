import numpy as np
import pytest

from evcover import heuristics
from evcover.covering import build_coverage, evaluate, gap, score_hyperoptic, score_myopic
from evcover.datasets import generate_small_instance
from evcover.exact import EnumerationCapExceeded, brute_force_optimum
from evcover.heuristics import (GraspConfig, GreedyConfig, HeuristicResult,
                                RollingHorizonConfig, grasp, grasp_construct,
                                grasp_filter, greedy, rolling_horizon, _local_search)
from evcover.instance import CostBudget, Instance, SolutionX, validate_solution
from evcover.milp import build_mc, extract_solution_x
from evcover.solver import solve_external

from conftest import manual_instance


def tiny(seed, **kw):
    inst = generate_small_instance(seed, **kw)
    return inst, build_coverage(inst)


# -- greedy ---------------------------------------------------------------------


def test_greedy_zero_budget_returns_zero_solution():
    inst = manual_instance(budget=0.0)
    cov = build_coverage(inst)
    res = greedy(inst, cov)
    assert (res.x.levels == 0).all()
    assert res.f == 0.0


def test_greedy_opens_dominant_station_first():
    eps = np.zeros((3, 5, 1))
    eps[2, :, 0] = -50.0
    inst = manual_instance(n_stations=2, kappa_station=5.0, scenarios=5, eps=eps,
                           budget=200.0)
    cov = build_coverage(inst)
    res = greedy(inst, cov)
    assert res.trace[0]["station"] == 1
    assert res.x.levels[0, 0] >= 1


def test_greedy_never_beats_brute_force_and_is_feasible():
    for seed in range(6):
        inst, cov = tiny(200 + seed)
        _, f_star = brute_force_optimum(inst, cov)
        for mode in ("myopic", "hyperoptic"):
            res = greedy(inst, cov, GreedyConfig(mode=mode))
            assert validate_solution(inst, res.x).ok
            assert res.f <= f_star + 1e-9
            if f_star > 0:
                assert gap(f_star, res.f) >= -1e-9


def test_greedy_deterministic():
    inst, cov = tiny(207)
    a = greedy(inst, cov, GreedyConfig(mode="hyperoptic"))
    b = greedy(inst, cov, GreedyConfig(mode="hyperoptic"))
    assert a.x == b.x and a.f == b.f


# -- GRASP construction and filter ------------------------------------------------


def test_alpha_one_reproduces_greedy_any_seed():
    for seed in (301, 302, 303):
        inst, cov = tiny(seed)
        for mode in ("myopic", "hyperoptic"):
            g = greedy(inst, cov, GreedyConfig(mode=mode)).x
            for rng_seed in (0, 1, 99):
                rng = np.random.default_rng(rng_seed)
                xc = grasp_construct(inst, cov, 1.0, mode, rng)
                assert xc == g


def test_alpha_zero_uniform_over_positive_gains():
    inst, cov = tiny(304)
    seen = set()
    for s in range(40):
        rng = np.random.default_rng(s)
        x = grasp_construct(inst, cov, 0.0, "myopic", rng)
        assert validate_solution(inst, x).ok
        seen.add(x.binary.tobytes())
    assert len(seen) > 1  # actually random


def test_construction_always_feasible_and_positive():
    inst, cov = tiny(305)
    for s in range(100):
        rng = np.random.default_rng(s)
        x = grasp_construct(inst, cov, 0.85, "myopic", rng)
        assert validate_solution(inst, x).ok
        assert evaluate(inst, cov, x) > 0  # coverage exists on these instances


def test_filter_formula():
    assert grasp_filter(100.0, 120.0, 1.10) is True    # 110 <= 120
    assert grasp_filter(120.0, 120.0, 1.10) is False   # 132 > 120
    assert grasp_filter(0.0, 120.0, None) is False     # warmup keeps everything


# -- local search ------------------------------------------------------------------


def test_local_search_leaves_optimum_alone():
    inst, cov = tiny(311, n_stations=2, horizon=1)
    x_star, f_star = brute_force_optimum(inst, cov)
    levels, f = _local_search(inst, cov, x_star.levels)
    np.testing.assert_array_equal(levels, x_star.levels)
    assert f == pytest.approx(f_star)


def test_transfer_moves_budget_off_dead_station():
    # all budget on a station that covers nothing; transfer fixes it
    eps = np.zeros((3, 4, 1))
    eps[1, :, 0] = -50.0  # station 1 is dead
    inst = manual_instance(n_stations=2, kappa_station=5.0, scenarios=4, eps=eps,
                           budget=200.0)
    cov = build_coverage(inst)
    start = SolutionX.from_levels(np.array([[2], [0]]), 2)
    f_start = evaluate(inst, cov, start)
    levels, f = _local_search(inst, cov, start.levels)
    assert f > f_start
    assert f == pytest.approx(evaluate(inst, cov, SolutionX.from_levels(levels, 2)))
    assert levels[1, 0] >= 1


def test_local_search_never_decreases_and_stays_feasible():
    rng = np.random.default_rng(9)
    for seed in (312, 313):
        inst, cov = tiny(seed)
        from evcover.exact import random_feasible_solution
        for _ in range(5):
            x = random_feasible_solution(inst, rng)
            f_in = evaluate(inst, cov, x)
            trace = []
            levels, f_out = _local_search(inst, cov, x.levels, trace=trace)
            assert f_out >= f_in - 1e-12
            out = SolutionX.from_levels(levels, int(inst.max_outlets.max()))
            assert validate_solution(inst, out).ok
            assert f_out == pytest.approx(evaluate(inst, cov, out))
            # accepted-move trace is nondecreasing in f
            fs = [row["f"] for row in trace]
            assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))


# -- GRASP loop ----------------------------------------------------------------------


def test_grasp_degenerate_config_is_greedy_plus_search():
    inst, cov = tiny(321)
    res = grasp(inst, cov, GraspConfig(alpha=1.0, max_solutions=1, seed=0))
    g = greedy(inst, cov).x
    levels, _ = _local_search(inst, cov, g.levels)
    searched = SolutionX.from_levels(levels, int(inst.max_outlets.max()))
    assert res.f == pytest.approx(evaluate(inst, cov, searched))
    assert res.termination == "max_solutions"
    assert len(res.trace) == 1


def test_grasp_never_below_greedy():
    for seed in (322, 323):
        inst, cov = tiny(seed)
        for mode in ("myopic", "hyperoptic"):
            res = grasp(inst, cov, GraspConfig(alpha=1.0, mode=mode, max_solutions=1))
            assert res.f >= greedy(inst, cov, GreedyConfig(mode=mode)).f - 1e-12


def test_grasp_reproducible_and_bounded_by_optimum():
    inst, cov = tiny(324)
    _, f_star = brute_force_optimum(inst, cov)
    a = grasp(inst, cov, GraspConfig(max_solutions=25, seed=11))
    b = grasp(inst, cov, GraspConfig(max_solutions=25, seed=11))
    assert a.x == b.x and a.f == b.f
    assert [r["constructed_f"] for r in a.trace] == [r["constructed_f"] for r in b.trace]
    assert a.f <= f_star + 1e-9
    assert validate_solution(inst, a.x).ok


@pytest.mark.parametrize("seed, f_star", [(1003, 880.4084008882784),
                                           (1004, 1297.9860203846154)])
def test_grasp_reports_evaluate_and_never_beats_the_optimum_exactly(seed, f_star):
    # the local search's running sum of deltas read 880.4084008882786 here
    inst = generate_small_instance(seed, n_nodes=12, n_stations=5, horizon=4, max_outlets=2,
                                   max_scenarios=15, budget=250.0)
    cov = build_coverage(inst)
    assert brute_force_optimum(inst, cov)[1] == f_star
    res = grasp(inst, cov, GraspConfig(mode="myopic", max_solutions=50, seed=1))
    assert res.f == evaluate(inst, cov, res.x)
    assert res.f <= f_star


def test_grasp_termination_reasons(monkeypatch):
    inst, cov = tiny(325)
    by_examined = grasp(inst, cov, GraspConfig(max_solutions=3, seed=0))
    assert by_examined.termination == "max_solutions"
    assert len([r for r in by_examined.trace]) == 3
    by_time = grasp(inst, cov, GraspConfig(max_solutions=10**6, time_limit_s=0.0, seed=0))
    assert by_time.termination == "time_limit"
    # filtering path: after the warmup every weaker candidate gets filtered
    monkeypatch.setattr(heuristics, "MAX_FILTERED", 5)
    by_filter = grasp(inst, cov, GraspConfig(max_solutions=10**6, alpha=0.0, seed=3,
                                             time_limit_s=60.0))
    assert by_filter.termination in ("max_filtered", "max_solutions")
    n_filtered = sum(1 for r in by_filter.trace if r.get("filtered"))
    if by_filter.termination == "max_filtered":
        assert n_filtered == 5


# -- rolling horizon --------------------------------------------------------------------


def test_rolling_horizon_t1_equals_direct_mc():
    inst, cov = tiny(331, horizon=1)
    res = rolling_horizon(inst, cov, RollingHorizonConfig(total_time_limit_s=60.0))
    direct = solve_external(build_mc(inst, cov), time_limit_s=60.0)
    assert res.f == pytest.approx(direct.objective, abs=1e-6)


def test_rolling_horizon_allocations():
    from evcover.heuristics import _period_time_limits
    even = _period_time_limits(RollingHorizonConfig("even", 7200.0), 4)
    assert even == [1800.0] * 4
    geo = _period_time_limits(RollingHorizonConfig("geometric", 7200.0), 4)
    assert geo == [3600.0, 1800.0, 900.0, 450.0]
    # under two hours, period 1 gets half the total, so every period gets a positive share
    short = _period_time_limits(RollingHorizonConfig("geometric", 60.0), 3)
    assert short == [30.0, 15.0, 7.5]


def test_rolling_horizon_never_beats_brute_force():
    for seed in (332, 333):
        inst, cov = tiny(seed)
        _, f_star = brute_force_optimum(inst, cov)
        res = rolling_horizon(inst, cov, RollingHorizonConfig(total_time_limit_s=120.0))
        assert validate_solution(inst, res.x).ok
        assert res.f <= f_star + 1e-9
        assert len(res.trace) == inst.horizon


def test_rolling_horizon_enumeration_fallback_matches_solver():
    inst, cov = tiny(334)
    with_solver = rolling_horizon(inst, cov, RollingHorizonConfig(total_time_limit_s=60.0))
    fallback = rolling_horizon(inst, cov, RollingHorizonConfig(), solver="none")
    assert fallback.f == pytest.approx(with_solver.f, abs=1e-6)
    assert fallback.trace[0]["status"] == "enumerated"


def test_rolling_horizon_enumeration_refuses_at_the_first_option_past_the_cap(monkeypatch):
    # period 1 has no budget, so its one option is the initial levels; period 2
    # can afford every one of the 4 ** 4 level vectors
    inst = manual_instance(n_stations=4, max_outlets=3, horizon=2)
    cost = CostBudget(inst.cost_budget.outlet_cost, [0.0, 1e6])
    inst = Instance(inst.network, inst.stations, inst.user_classes, inst.horizon, cost,
                    inst.utility_params, inst.choice_sets, inst.error_tensor, inst.metadata)
    cov = build_coverage(inst)
    pulled = []
    extensions = heuristics._instance_extensions

    def counted(instance, base, t_idx):
        pulled.append(0)
        for option in extensions(instance, base, t_idx):
            pulled[-1] += 1
            yield option

    monkeypatch.setattr(heuristics, "_instance_extensions", counted)
    monkeypatch.setattr(heuristics, "MAX_STATES", 10)
    with pytest.raises(EnumerationCapExceeded) as err:
        rolling_horizon(inst, cov, solver="none")
    assert str(err.value) == "more than 10 options in period 2"
    assert pulled == [1, 11]


# -- cross-cutting invariants ------------------------------------------------------------


def test_all_heuristics_emit_feasible_solutions_and_consistent_f():
    inst, cov = tiny(341)
    results = [
        greedy(inst, cov, GreedyConfig(mode="myopic")),
        greedy(inst, cov, GreedyConfig(mode="hyperoptic")),
        grasp(inst, cov, GraspConfig(max_solutions=10, seed=2)),
        rolling_horizon(inst, cov, RollingHorizonConfig(total_time_limit_s=60.0)),
    ]
    for res in results:
        assert validate_solution(inst, res.x).ok
        assert res.f == pytest.approx(evaluate(inst, cov, res.x))
