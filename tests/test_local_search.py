"""The batched local search against the per-candidate reference it replaced
(`local_search_reference.py`): same accepted moves, levels and f, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evcover import heuristics
from evcover.covering import SwapBasis, build_coverage
from evcover.datasets import generate_small_instance
from evcover.exact import random_feasible_solution
from evcover.heuristics import (BATCH_SLOTS, MOVE_NAMES, _batch_moves, _local_search,
                                _SearchTables)
from evcover.instance import BUDGET_TOL, CostBudget, Instance, period_costs

from local_search_reference import candidate_moves, reference_local_search, schedule_feasible


def reshaped(inst, rng, fractional):
    """The same instance with per-station outlet caps, some initial outlets
    and, when `fractional`, random non-integer costs and budgets."""
    J, K, T = inst.cost_budget.outlet_cost.shape
    caps = rng.integers(1, K + 1, J)
    caps[rng.integers(J)] = K
    stations = [replace(s, max_outlets=int(m), initial_outlets=int(rng.integers(0, m + 1))
                        if rng.random() < 0.3 else 0) for s, m in zip(inst.stations, caps)]
    cost_budget = inst.cost_budget
    if fractional:
        cost_budget = CostBudget(np.round(rng.uniform(20.0, 160.0, (J, K, T)), 2),
                                 np.round(rng.uniform(60.0, 420.0, T), 3))
    return Instance(inst.network, stations, inst.user_classes, inst.horizon, cost_budget,
                    inst.utility_params, inst.choice_sets, inst.error_tensor, inst.metadata)


def concentrated_start(inst, rng):
    """Each period, one random station buys what the budget allows: starts
    from which Split moves get accepted."""
    levels = np.repeat(inst.initial_levels[:, None], inst.horizon, axis=1)
    cost = inst.cost_budget.outlet_cost
    for t in range(inst.horizon):
        if t:
            levels[:, t] = levels[:, t - 1]
        spent, j = 0.0, int(rng.integers(inst.n_stations))
        while (levels[j, t] < inst.stations[j].max_outlets and spent + cost[j, levels[j, t], t]
               <= inst.cost_budget.budgets[t] + BUDGET_TOL):
            spent += cost[j, levels[j, t], t]
            levels[j, t] += 1
    return levels


@st.composite
def search_cases(draw):
    J = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 10**6))
    inst = generate_small_instance(seed, n_nodes=max(J, draw(st.integers(3, 9))), n_stations=J,
                                   horizon=draw(st.integers(1, 6)),
                                   max_outlets=draw(st.integers(1, 4)),
                                   max_scenarios=draw(st.integers(4, 70)),
                                   budget=draw(st.sampled_from([150.0, 250.0, 400.0, 600.0])))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(["as generated", "caps", "caps and fractional costs"]))
    if shape != "as generated":
        inst = reshaped(inst, rng, fractional=shape != "caps")
    if draw(st.booleans()):
        start = concentrated_start(inst, rng)
    else:
        start = random_feasible_solution(inst, rng).levels
    return inst, start


def assert_same_search(inst, start):
    cov = build_coverage(inst)
    want_trace, got_trace = [], []
    want_levels, want_f = reference_local_search(inst, cov, start, want_trace)
    got_levels, got_f = _local_search(inst, cov, start, trace=got_trace)
    assert got_trace == want_trace
    assert got_levels.tolist() == want_levels.tolist()
    assert got_f == want_f
    return got_trace


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=search_cases())
def test_batched_search_matches_reference(case):
    assert_same_search(*case)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=search_cases())
def test_built_moves_match_reference_candidates(case):
    """Every feasible move a batch builds, in order, with its levels, before
    any value is looked at: the candidates the reference generator yields."""
    inst, levels = case
    tables = _SearchTables(inst, build_coverage(inst))
    spent = period_costs(inst, levels)
    for t_idx in range(inst.horizon):
        want = [(move, cand.tolist()) for j in range(inst.n_stations)
                for move, cand in candidate_moves(inst, levels, t_idx, j)
                if cand is not None and schedule_feasible(inst, cand)]
        mv = _batch_moves(inst, tables, levels, spent, t_idx, 0, inst.n_stations)
        got = [((MOVE_NAMES[mv.kind[i]], int(mv.j[i]),
                 None if MOVE_NAMES[mv.kind[i]] == "add" else int(mv.jp[i])),
                mv.levels(i, levels, t_idx).tolist()) for i in np.flatnonzero(mv.ok)]
        assert got == want


def test_accepted_splits_match_reference():
    moves = []
    for seed in range(4):
        inst = generate_small_instance(seed, n_nodes=6, n_stations=3, horizon=2, max_outlets=4,
                                       budget=300.0)
        start = np.zeros((3, 2), dtype=int)
        start[0] = 4  # 150 + 3 * 50: the whole period-1 budget on station 0
        moves += [e["move"][0] for e in assert_same_search(inst, start)]
    assert moves.count("split") >= 4


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=search_cases())
def test_later_periods_moves_match_reference_candidates(case):
    """A batch that also holds every later period's moves: each period's
    feasible moves, in order, are the candidates the reference generator
    yields for that period from the same levels."""
    inst, levels = case
    J, T = inst.n_stations, inst.horizon
    tables = _SearchTables(inst, build_coverage(inst))
    spent = period_costs(inst, levels)
    for t_idx in range(T):
        mv = _batch_moves(inst, tables, levels, spent, t_idx, 0, J, T - 1 - t_idx)
        for s in range(t_idx, T):
            want = [(move, cand.tolist()) for j in range(J)
                    for move, cand in candidate_moves(inst, levels, s, j)
                    if cand is not None and schedule_feasible(inst, cand)]
            got = [((MOVE_NAMES[mv.kind[i]], int(mv.j[i]),
                     None if MOVE_NAMES[mv.kind[i]] == "add" else int(mv.jp[i])),
                    mv.levels(i, levels, t_idx).tolist())
                   for i in np.flatnonzero(mv.ok & (mv.start == s))]
            assert got == want


def passes_of(calls):
    """The recorded `_search_batch` calls cut into passes: a pass starts at
    station 0, and every later call of it starts after the last one."""
    passes = []
    for call in calls:
        if call["j0"] == 0:
            passes.append([])
        passes[-1].append(call)
    return passes


@pytest.mark.parametrize("batch_slots", [BATCH_SLOTS, 40])
def test_a_pass_stops_where_the_last_pass_found_nothing(monkeypatch, batch_slots):
    """After a pass whose last accepted move was at station j*, the next pass
    of the period screens no station after j* unless it accepts a move first;
    the search still matches the reference. With 40 slots a batch holds a few
    stations, so the pass is cut into several batches."""
    calls = []
    search_batch, words = heuristics._search_batch, SwapBasis.words

    def recording_batch(tab, levels, values, f_cur, t_idx, j0, *rest):
        calls.append({"period": t_idx, "j0": j0, "screened": set()})
        out = search_batch(tab, levels, values, f_cur, t_idx, j0, *rest)
        calls[-1]["accepted"] = out[2]
        return out

    def recording_words(self, period, j, *rest):
        calls[-1]["screened"].update(j.tolist())
        return words(self, period, j, *rest)

    monkeypatch.setattr(heuristics, "_search_batch", recording_batch)
    monkeypatch.setattr(heuristics, "BATCH_SLOTS", batch_slots)
    monkeypatch.setattr(SwapBasis, "words", recording_words)
    stopped = 0
    for seed in range(6):
        inst = generate_small_instance(seed, n_nodes=9, n_stations=6, horizon=3, max_outlets=3,
                                       budget=400.0)
        for start_seed in range(3):
            calls.clear()
            assert_same_search(inst, random_feasible_solution(
                inst, np.random.default_rng(start_seed)).levels)
            by_period = [passes_of([c for c in calls if c["period"] == t])
                         for t in range(inst.horizon)]
            for passes in by_period:
                for before, now in zip(passes, passes[1:]):
                    last = [c["accepted"] for c in before if c["accepted"] is not None]
                    assert last, "a pass that accepts nothing ends the period"
                    for call in now:
                        assert max(call["screened"], default=-1) <= last[-1]
                        if call["accepted"] is not None:
                            break
                    else:
                        stopped += last[-1] < inst.n_stations - 1
    assert stopped >= 20
