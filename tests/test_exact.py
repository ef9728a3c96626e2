import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evcover import exact
from evcover.covering import CoverageTensor, build_coverage, evaluate
from evcover.datasets import generate_small_instance
from evcover.exact import (EnumerationCapExceeded, brute_force_optimum, count_feasible,
                           random_feasible_solution, reachable_states)
from evcover.heuristics import rolling_horizon
from evcover.instance import BUDGET_TOL, SolutionX, validate_solution

from conftest import enumerate_feasible, enumeration_optimum, manual_instance
from dp_reference import reference_optimum, reference_reachable_states
from test_covering import tiny_instances


def recursive_count_oracle(inst):
    """Independent counter: plain recursion over per-period level vectors."""
    cost = inst.cost_budget.outlet_cost
    budgets = inst.cost_budget.budgets

    def options(base, t):
        outs = [[]]
        for j in range(inst.n_stations):
            new = []
            for partial in outs:
                for lv in range(base[j], inst.stations[j].max_outlets + 1):
                    new.append(partial + [lv])
            outs = new
        feas = []
        for vec in outs:
            spend = sum(cost[j, k - 1, t]
                        for j in range(inst.n_stations)
                        for k in range(base[j] + 1, vec[j] + 1))
            if spend <= budgets[t] + 1e-9:
                feas.append(tuple(vec))
        return feas

    def count(base, t):
        if t == inst.horizon:
            return 1
        return sum(count(o, t + 1) for o in options(base, t))

    return count(tuple(inst.initial_levels), 0)


def test_single_station_three_levels():
    inst = manual_instance(max_outlets=2, budget=1000.0)
    assert count_feasible(inst) == 3
    assert len(list(enumerate_feasible(inst))) == 3


def test_budget_allows_only_one_opening():
    inst = manual_instance(n_stations=2, max_outlets=1, budget=150.0)
    xs = list(enumerate_feasible(inst))
    assert len(xs) == 3  # nothing, station 1, station 2


def test_count_matches_recursion_oracle():
    for seed in (41, 42, 43):
        inst = generate_small_instance(seed, n_stations=3, horizon=2, max_outlets=2)
        assert count_feasible(inst) == recursive_count_oracle(inst)


def test_enumeration_unique_and_feasible():
    inst = generate_small_instance(44, n_stations=3, horizon=2)
    seen = set()
    for x in enumerate_feasible(inst):
        key = x.binary.tobytes()
        assert key not in seen
        seen.add(key)
        assert validate_solution(inst, x).ok
    assert len(seen) == count_feasible(inst)


def test_lexicographic_order():
    inst = manual_instance(n_stations=2, max_outlets=1, budget=1000.0)
    levels = [tuple(x.levels[:, 0]) for x in enumerate_feasible(inst)]
    assert levels == sorted(levels)


def test_cap_refusal_reports_size(monkeypatch):
    inst = generate_small_instance(45, n_stations=3, horizon=2)
    assert count_feasible(inst) > 2
    monkeypatch.setattr(exact, "MAX_STATES", 2)
    with pytest.raises(EnumerationCapExceeded) as err:
        list(enumerate_feasible(inst))
    assert err.value.cap == 2
    assert str(err.value) == "more than 2 feasible schedules"


def test_zero_budget_optimum_is_zero_solution():
    inst = manual_instance(budget=0.0)
    cov = build_coverage(inst)
    x, f = brute_force_optimum(inst, cov)
    assert f == 0.0
    assert (x.levels == 0).all()


def test_dominant_station_is_selected():
    # station 1 covers everything at one outlet; station 2 never covers
    inst = manual_instance(n_stations=2, kappa_station=4.5, budget=150.0, scenarios=5,
                           eps=None)
    eps = np.zeros((3, 5, 1))
    eps[2, :, 0] = -50.0  # bury station 2
    inst = manual_instance(n_stations=2, kappa_station=4.5, budget=150.0, scenarios=5,
                           eps=eps)
    cov = build_coverage(inst)
    x, f = brute_force_optimum(inst, cov)
    assert x.levels[0, 0] >= 1
    assert x.levels[1, 0] == 0
    assert f == pytest.approx(100.0)


def test_certificate_against_random_solutions(small_instance, small_coverage):
    x_star, f_star = brute_force_optimum(small_instance, small_coverage)
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = random_feasible_solution(small_instance, rng)
        assert f_star >= evaluate(small_instance, small_coverage, x) - 1e-9


# -- period-state DP against plain enumeration -----------------------------------


def states_per_period(inst):
    """Independent count: distinct period-t level vectors over every feasible schedule."""
    seen = [set() for _ in range(inst.horizon)]
    for x in enumerate_feasible(inst):
        for t in range(inst.horizon):
            seen[t].add(tuple(x.levels[:, t]))
    return [len(s) for s in seen]


def is_saturated(inst, base, vec, t_idx):
    """vec extends base within period t_idx's budget, and no station of vec
    can afford its next outlet."""
    cost, limit = inst.cost_budget.outlet_cost[:, :, t_idx], inst.cost_budget.budgets[t_idx]
    spend = sum(float(cost[j, base[j]:vec[j]].sum()) for j in range(inst.n_stations))
    return spend <= limit + BUDGET_TOL and all(
        vec[j] == inst.stations[j].max_outlets or spend + cost[j, vec[j]] > limit + BUDGET_TOL
        for j in range(inst.n_stations))


def saturated_states_per_period(inst):
    """Independent count: distinct period-t level vectors reached from the
    initial levels along saturated extensions, found by testing every level
    vector of every period."""
    layer, counts = {tuple(int(v) for v in inst.initial_levels)}, []
    for t_idx in range(inst.horizon):
        layer = {vec for base in layer
                 for vec in itertools.product(*(range(b, s.max_outlets + 1)
                                                for b, s in zip(base, inst.stations)))
                 if is_saturated(inst, base, vec, t_idx)}
        counts.append(len(layer))
    return counts


@st.composite
def dp_instances(draw):
    """2-4 stations, horizon 1-3, at most 2 outlets; budgets from zero through
    exactly one opening (150) to a few outlets per period."""
    horizon = draw(st.integers(1, 3))
    n_stations = draw(st.integers(2, 4))
    max_outlets = draw(st.integers(1, 2))
    budget = draw(st.sampled_from([0.0, 150.0, 200.0, 250.0]))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        return generate_small_instance(seed, n_nodes=draw(st.integers(max(3, n_stations), 7)),
                                       n_stations=n_stations, horizon=horizon,
                                       max_outlets=max_outlets,
                                       max_scenarios=draw(st.integers(4, 40)), budget=budget)
    # one class with home charging, so forced triplets appear
    scenarios = draw(st.integers(1, 40))
    eps = np.random.default_rng(seed).normal(0.0, 1.5, (2 + n_stations, scenarios, horizon))
    return manual_instance(n_stations=n_stations, max_outlets=max_outlets, horizon=horizon,
                           scenarios=scenarios, kappa_station=4.0, eps=eps, home_kappa=4.5,
                           budget=budget, initial_outlets=draw(st.integers(0, 1)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(inst=dp_instances())
def test_dp_optimum_matches_enumeration(inst):
    """The saturated DP against the DP over every state (`dp_reference.py`)
    and against plain enumeration: the same f, from a feasible x whose f is
    its own, over the saturated states only."""
    cov = build_coverage(inst)
    x, f = brute_force_optimum(inst, cov)
    _, f_ref = reference_optimum(inst, cov)
    _, f_enum = enumeration_optimum(inst, cov)
    assert validate_solution(inst, x).ok
    assert f == evaluate(inst, cov, x)
    assert f == f_ref
    assert abs(f - f_enum) <= 1e-12 * max(1.0, abs(f_enum))
    states = sum(map(len, reachable_states(inst)))
    assert states == sum(saturated_states_per_period(inst))
    assert states <= sum(map(len, reference_reachable_states(inst))) \
        == sum(states_per_period(inst))


def test_dp_returns_enumeration_optimum_on_desk_instances():
    """On the oracle-desk instances the saturated DP values 30 states where
    the full one values 404, and returns the same f* from a saturated x.
    That x is not enumeration's first optimum, which leaves budget unspent."""
    for seed in (1003, 1004):
        inst = generate_small_instance(seed, n_nodes=12, n_stations=5, horizon=4,
                                       max_outlets=2, max_scenarios=15, budget=250.0)
        cov = build_coverage(inst)
        x, f = brute_force_optimum(inst, cov)
        x_ref, f_ref = reference_optimum(inst, cov)
        assert f == f_ref == enumeration_optimum(inst, cov)[1]
        assert validate_solution(inst, x).ok
        assert f == evaluate(inst, cov, x)
        base = tuple(int(v) for v in inst.initial_levels)
        for t_idx in range(inst.horizon):
            assert is_saturated(inst, base, tuple(x.levels[:, t_idx]), t_idx)
            base = tuple(x.levels[:, t_idx])
        assert not np.array_equal(x.levels, x_ref.levels)
        assert sum(map(len, reachable_states(inst))) == 30
        assert sum(map(len, reference_reachable_states(inst))) == 404


def test_state_cap_refuses_before_any_valuation(monkeypatch):
    inst = generate_small_instance(45, n_stations=3, horizon=3, budget=250.0)
    cov = build_coverage(inst)
    per_period = saturated_states_per_period(inst)
    total = sum(per_period)
    assert per_period[0] >= 2

    def no_valuation(*args, **kwargs):
        raise AssertionError("valued a state before refusing")

    monkeypatch.setattr(exact, "evaluate", no_valuation)
    monkeypatch.setattr(CoverageTensor, "held_words", no_valuation)
    monkeypatch.setattr(CoverageTensor, "value_of_words", no_valuation)
    # crossed in the last period, at its last state
    monkeypatch.setattr(exact, "MAX_STATES", total - 1)
    with pytest.raises(EnumerationCapExceeded) as err:
        brute_force_optimum(inst, cov)
    assert err.value.cap == total - 1
    assert str(err.value) == f"more than {total - 1} reachable states by period 3"
    # crossed in period 1: the forward pass stops there
    monkeypatch.setattr(exact, "MAX_STATES", 1)
    with pytest.raises(EnumerationCapExceeded) as err:
        brute_force_optimum(inst, cov)
    assert str(err.value) == "more than 1 reachable states by period 1"


def test_state_cap_refuses_inside_a_later_layer(monkeypatch):
    inst = generate_small_instance(45, n_stations=4, horizon=3, budget=250.0)
    layers = reachable_states(inst)
    assert [len(layer) for layer in layers] == saturated_states_per_period(inst)
    # distinct saturated period-2 states after each period-1 parent, in layer order
    reached, merged = {}, []
    for base in layers[0]:
        reached.update(dict.fromkeys(exact.period_extensions(
            base, inst.cost_budget.outlet_cost[:, :, 1], inst.max_outlets,
            inst.cost_budget.budgets[1], saturated=True)))
        merged.append(len(reached))
    assert list(reached) == layers[1]
    crossing = next(k for k, n in enumerate(merged) if n > merged[0])
    assert merged[crossing] < len(layers[1])

    calls = []
    extensions = exact._instance_extensions
    monkeypatch.setattr(exact, "_instance_extensions",
                        lambda *args: calls.append(args[2]) or extensions(*args))
    monkeypatch.setattr(exact, "MAX_STATES", len(layers[0]) + merged[0])
    with pytest.raises(EnumerationCapExceeded) as err:
        reachable_states(inst)
    assert "by period 2" in str(err.value)
    # refused at the crossing parent, before the rest of the layer is extended
    assert calls.count(1) == crossing + 1 < len(layers[0])


def test_state_cap_holds_at_most_the_cap_of_one_parents_extensions(monkeypatch):
    # one parent, the initial levels, with 68,971 saturated extensions
    inst = generate_small_instance(3, n_nodes=10, n_stations=10, horizon=1, max_outlets=3,
                                   budget=1500.0)
    base = tuple(int(v) for v in inst.initial_levels)
    assert sum(1 for _ in exact._instance_extensions(inst, base, 0, True)) == 68_971
    pulled = []
    extensions = exact._instance_extensions

    def counted(*args):
        for state in extensions(*args):
            pulled.append(state)
            yield state

    monkeypatch.setattr(exact, "_instance_extensions", counted)
    monkeypatch.setattr(exact, "MAX_STATES", 100)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapExceeded) as err:
            reachable_states(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.cap == 100
    assert "by period 1" in str(err.value)
    # refused at the first state past the cap, not after walking all 68,971
    assert len(pulled) <= 101
    # the 68,971 tuples of the whole saturated set would take ~10 MB
    assert peak < 2_000_000


def test_period_extensions_match_plain_recursion():
    """The odometer over the leading stations and the lists grown over the
    trailing ones give every affordable vector once, in lexicographic order."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        J = int(rng.integers(0, exact.GROWN_STATIONS + 4))
        caps = rng.integers(0, 4, J)
        base = tuple(int(rng.integers(0, m + 1)) for m in caps)
        cost = np.round(rng.uniform(1.0, 100.0, (J, 4)), 2)
        budget = float(rng.uniform(0.0, 300.0))

        def grow(j, prefix, spent):
            if j == J:
                yield prefix
                return
            lv, add = base[j], 0.0
            yield from grow(j + 1, prefix + (lv,), spent)
            while lv < caps[j] and spent + (add + cost[j, lv]) <= budget + BUDGET_TOL:
                add += cost[j, lv]
                lv += 1
                yield from grow(j + 1, prefix + (lv,), spent + add)

        want = list(grow(0, (), 0.0))
        assert list(exact.period_extensions(base, cost, caps, budget)) == want
        assert want == sorted(want)


def test_saturated_extensions_are_the_saturated_ones_among_all():
    """Pruning inside the odometer and the grown lists keeps exactly the
    extensions where no station can afford its next outlet, in the same
    order, with free outlets, ceilings and budgets that fit nothing."""
    rng = np.random.default_rng(6)
    for _ in range(600):
        J = int(rng.integers(0, exact.GROWN_STATIONS + 5))
        caps = rng.integers(0, 4, J)
        base = tuple(int(rng.integers(0, m + 1)) for m in caps)
        if rng.random() < 0.5:
            cost = np.round(rng.uniform(0.0, 100.0, (J, 4)), 2)
        else:
            cost = rng.choice([0.0, 50.0, 100.0, 150.0], (J, 4))
        budget = float(rng.choice([0.0, 100.0, 150.0, rng.uniform(0.0, 400.0)]))
        limit = budget + BUDGET_TOL

        def saturated(vec):
            spend = sum(float(cost[j, base[j]:vec[j]].sum()) for j in range(J))
            return all(vec[j] == caps[j] or spend + cost[j, vec[j]] > limit for j in range(J))

        want = [v for v in exact.period_extensions(base, cost, caps, budget) if saturated(v)]
        assert want
        assert list(exact.period_extensions(base, cost, caps, budget, saturated=True)) == want


# -- the one period step of the DP and the solver-less rolling horizon -------------


def period_value(cov, t):
    return lambda levels: cov.value_of_words(cov.held_words(levels, t, t), t, t)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(inst=tiny_instances(), seed=st.integers(0, 10_000))
def test_best_saturated_extension_is_a_best_extension(inst, seed):
    """From a random feasible schedule's period t-1 levels, the best period-t
    value over the saturated extensions is the best over every extension."""
    cov = build_coverage(inst)
    rng = np.random.default_rng(seed)
    levels = random_feasible_solution(inst, rng).levels
    t = int(rng.integers(1, inst.horizon + 1))
    base = tuple(int(v) for v in (levels[:, t - 2] if t > 1 else inst.initial_levels))
    best, best_v = exact._best_extension(inst, base, t - 1, period_value(cov, t))
    assert is_saturated(inst, base, best, t - 1)
    assert best_v == period_value(cov, t)(best)
    assert best_v == max(map(period_value(cov, t),
                             exact._instance_extensions(inst, base, t - 1, saturated=False)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(inst=tiny_instances(horizons=st.just(1)))
def test_one_period_rolling_horizon_is_the_dp(inst):
    """Over one period both routes take the same step from the initial levels."""
    cov = build_coverage(inst)
    x, f = brute_force_optimum(inst, cov)
    res = rolling_horizon(inst, cov, solver="none")
    np.testing.assert_array_equal(res.x.levels, x.levels)
    assert res.f == f
