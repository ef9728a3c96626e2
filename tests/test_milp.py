import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evcover.covering import build_coverage, compute_abar, evaluate, optout_utility, \
    preprocess_home_charging, station_utility_at_k
from evcover.datasets import generate_small_dataset, generate_small_instance
from evcover.exact import brute_force_optimum, random_feasible_solution
from evcover.growth import GrowthFunction, build_gf_instance
from evcover.instance import OPT_OUT, SolutionX
from evcover.milp import (BINARY, CONTINUOUS, INTEGER, MilpModel, ModelError, build_gf,
                          build_mc, build_mc_period, build_sl, compute_bounds,
                          extract_solution_x, x_name)
from evcover.solver import solve_model_inprocess

from conftest import manual_instance
from mc_reference import cover_patterns, summed_build_mc, summed_build_mc_period
from sl_reference import reference_build_sl
from test_local_search import reshaped


def bounds_full_scan_oracle(inst):
    """Brute-force recomputation of abar straight from its definition."""
    T = inst.horizon
    abar = np.full((inst.n_classes, T), np.nan)
    for ci, uc in enumerate(inst.user_classes):
        for t in range(1, T + 1):
            kaps = []
            for alt in inst.choice_sets.c1[ci][t - 1]:
                pos = inst.choice_sets.alt_index[ci][alt]
                for r in range(uc.scenario_count):
                    kaps.append(inst.utility_params.kappa[ci][pos, t - 1]
                                + inst.error_tensor[ci][pos, r, t - 1])
            if kaps:
                abar[ci, t - 1] = min(kaps)
    return abar


def test_bounds_singleton():
    inst = manual_instance(max_outlets=2, kappa_station=2.0, beta=0.3)
    bounds = compute_bounds(inst)
    assert bounds.abar[0, 0] == pytest.approx(2.0)
    pos = inst.choice_sets.alt_index[0][1]
    assert bounds.b[0][pos, 0, 0] == pytest.approx(2.0 + 0.6)
    assert bounds.nu[0][pos, 0, 0] == pytest.approx(0.6)


def test_mu_for_optout_is_max_bound_minus_u0():
    inst = manual_instance(max_outlets=2, kappa_station=2.0, beta=0.3)
    bounds = compute_bounds(inst)
    o = inst.choice_sets.alt_index[0][OPT_OUT]
    # max over station b (2.6) and exo kappa+eps (4.5) is 4.5
    assert bounds.mu[0][o, 0, 0] == pytest.approx(4.5 - 4.5)
    pos = inst.choice_sets.alt_index[0][1]
    assert bounds.mu[0][pos, 0, 0] == pytest.approx(4.5 - 2.0)


def test_bounds_match_full_scan_oracle():
    inst = generate_small_instance(51, n_stations=3)
    bounds = compute_bounds(inst)
    np.testing.assert_allclose(bounds.abar, bounds_full_scan_oracle(inst), atol=1e-12)
    for ci, uc in enumerate(inst.user_classes):
        for alt in inst.choice_sets.c1[ci][0]:
            pos = inst.choice_sets.alt_index[ci][alt]
            for r in range(0, uc.scenario_count, 3):
                for t in range(1, inst.horizon + 1):
                    want_b = station_utility_at_k(
                        inst, t, ci, r, alt, inst.stations[alt - 1].max_outlets)
                    assert bounds.b[ci][pos, r, t - 1] == pytest.approx(want_b)
                    assert bounds.nu[ci][pos, r, t - 1] == pytest.approx(
                        want_b - bounds.abar[ci, t - 1])


def test_abar_patched_when_r_too_small():
    # u0 below every station's kappa+eps: abar would exceed u0
    inst = manual_instance(kappa_station=6.0, kappa_optout=1.0)
    with pytest.warns(UserWarning, match="abar"):
        bounds = compute_bounds(inst)
    assert bounds.abar[0, 0] == pytest.approx(1.0 - 1e-5, abs=1e-12)
    assert (0, 0) in bounds.abar_adjusted
    bounds.verify()  # still sound


def test_sl_hand_counted_rows():
    # 1 station, 1 class, R=1, T=1, m=1, and the one outlet lifts the station's
    # 4.3 past the opt-out's 4.5: budget, exo, 4 discounts, 2 picks,
    # 1 sum-to-one, 2 alpha rows = 11
    inst = manual_instance(max_outlets=1, kappa_station=4.3)
    model = build_sl(inst, compute_bounds(inst))
    assert model.n_rows == 11
    assert model.n_variables == 1 + 2 + 2 + 1  # x, w pair, u pair, alpha
    assert model.objective_constant == 0.0
    # at 2.0 + 0.281 the station never covers: the triplet's choice block goes,
    # its mass is the constant, and only the budget row is left
    inst = manual_instance(max_outlets=1)
    model = build_sl(inst, compute_bounds(inst))
    assert [r.name for r in model.rows] == ["budget_t1"]
    assert [v.name for v in model.variables] == [x_name(1, 1, 1)]
    assert model.objective_constant == pytest.approx(100.0)


def test_sl_big_m_admits_closed_form_utilities():
    # substitute true utilities for random x: all discount rows hold
    inst = generate_small_instance(52, n_stations=2, max_scenarios=6)
    bounds = compute_bounds(inst)
    model = build_sl(inst, bounds)
    rng = np.random.default_rng(0)
    rows = {r.name: r for r in model.rows}
    for _ in range(5):
        x = random_feasible_solution(inst, rng)
        levels = x.levels
        values = {}
        for j, st in enumerate(inst.stations):
            for k in range(1, st.max_outlets + 1):
                for t in range(1, inst.horizon + 1):
                    values[x_name(st.id, k, t)] = 1.0 if levels[j, t - 1] >= k else 0.0
        for ci, uc in enumerate(inst.user_classes):
            for t in range(1, inst.horizon + 1):
                for r in range(uc.scenario_count):
                    for alt in inst.choice_sets.c1[ci][t - 1]:
                        j = inst.station_index[alt]
                        k = int(levels[j, t - 1])
                        u = station_utility_at_k(inst, t, ci, r, alt, k) if k >= 1 \
                            else bounds.abar[ci, t - 1]
                        values[f"u_c{ci}_r{r}_t{t}_a{alt}"] = u
        for name, row in rows.items():
            if not name.startswith(("uclosed", "uopen")):
                continue
            lhs = sum(c * values[v] for v, c in row.coeffs.items())
            if row.sense == "<=":
                assert lhs <= row.rhs + 1e-9, name
            else:
                assert lhs >= row.rhs - 1e-9, name


def test_mc_saturation_trivial_instance():
    inst = manual_instance(kappa_station=6.0)  # one outlet covers the only class
    cov = build_coverage(inst)
    model = build_mc(inst, cov)
    from evcover.solver import solve_model_inprocess
    status, obj, values = solve_model_inprocess(model)
    assert status == "optimal"
    assert obj + model.objective_constant == pytest.approx(100.0)


def test_mc_covering_row_count(small_instance, small_coverage):
    model = build_mc(small_instance, small_coverage)
    n_cover = sum(1 for r in model.rows if r.name.startswith("cover_"))
    n_patterns = sum(len(cover_patterns(small_instance, small_coverage, t))
                     for t in range(1, small_instance.horizon + 1))
    assert n_cover == n_patterns < small_coverage.trip.n_triplets


def test_sl_has_more_rows_than_mc(small_instance, small_coverage):
    mc = build_mc(small_instance, small_coverage)
    sl = build_sl(small_instance, compute_bounds(small_instance))
    assert sl.n_rows > mc.n_rows


def test_model_validation_catches_mistakes():
    m = MilpModel("bad", "min")
    m.add_var("a", 0, 1, BINARY)
    with pytest.raises(ModelError, match="duplicate"):
        m.add_var("a")
    with pytest.raises(ModelError, match="undeclared"):
        m.add_row("r1", {"zzz": 1.0}, "<=", 1.0)


def test_unbounded_integers_and_undeclared_objective_terms_are_refused_when_added():
    m = MilpModel("bad", "max")
    with pytest.raises(ModelError, match=r"discrete variable 'g' needs finite bounds"):
        m.add_var("g", 0, math.inf, INTEGER)
    m.add_var("a", 0, 1, BINARY)
    with pytest.raises(ModelError, match=r"objective references undeclared variables \['g'\]"):
        m.set_objective({"a": 1.0, "g": 2.0})
    assert [v.name for v in m.variables] == ["a"] and m.objective == {}


def test_gf_zero_budget_is_zero():
    insts = generate_small_dataset(53, 1, horizon=2)
    inst = insts[0]
    gf_curve = GrowthFunction((0.0, 0.5, 1.0), (1.2, 1.2), (0.1, 0.1))
    gfi = build_gf_instance(inst, gf_curve)
    gfi.budgets = np.zeros(inst.horizon)
    model = build_gf(gfi)
    from evcover.solver import solve_model_inprocess
    status, obj, values = solve_model_inprocess(model)
    assert status == "optimal"
    assert obj == pytest.approx(0.0, abs=1e-9)


def test_gf_single_segment_hand_recursion():
    # g(z) = z + c: every open station adds share * c * population each year
    inst = generate_small_dataset(54, 1, horizon=2)[0]
    c = 0.04
    gf_curve = GrowthFunction((0.0, 1.0), (1.0,), (c,))
    gfi = build_gf_instance(inst, gf_curve, radius_km=1e9)  # all nodes willing
    model = build_gf(gfi)
    from evcover.solver import solve_model_inprocess
    status, obj, _ = solve_model_inprocess(model)
    assert status == "optimal"
    # every station's willing set is the whole city: each open station grants
    # share 1.0 of c * population; budget 400 opens two of the three stations
    # in year 1 and the last one in year 2
    pop = gfi.population
    year1 = 2 * c * pop
    year2 = year1 + 3 * c * pop
    assert obj == pytest.approx(year2, rel=1e-9)


def test_gf_rejects_partial_growth_function():
    from evcover.growth import GrowthError
    with pytest.raises(GrowthError, match="tile"):
        GrowthFunction((0.0, 0.5), (1.0,), (0.0,))


def test_extract_solution_round_trip(small_instance):
    rng = np.random.default_rng(1)
    x = random_feasible_solution(small_instance, rng)
    values = {}
    for j, st in enumerate(small_instance.stations):
        for k in range(1, st.max_outlets + 1):
            for t in range(1, small_instance.horizon + 1):
                values[x_name(st.id, k, t)] = float(x.binary[j, k - 1, t - 1])
    got = extract_solution_x(small_instance, values)
    assert got == x


def test_sl_zero_budget_objective_is_total_minus_forced():
    # home forced for every triplet with u_home > u_optout; x stuck at zero
    eps = np.zeros((3, 4, 1))
    eps[1, :2, 0] = 2.0  # home wins in scenarios 0 and 1 only
    inst = manual_instance(home_kappa=4.5, scenarios=4, eps=eps, budget=0.0)
    bounds = compute_bounds(inst)
    model = build_sl(inst, bounds)
    from evcover.solver import solve_model_inprocess
    status, obj, _ = solve_model_inprocess(model)
    assert status == "optimal"
    total = inst.demand_mass()
    forced_mass = 2 * 100.0 / 4
    assert obj + model.objective_constant == pytest.approx(total - forced_mass, abs=1e-9)
    # and the complement seen by the MC side agrees
    cov = build_coverage(inst)
    assert cov.forced_mass == pytest.approx(forced_mass)


def test_mc_forced_constant_through_solver():
    eps = np.zeros((3, 4, 1))
    eps[1, :, 0] = 2.0  # home always wins: every triplet forced
    inst = manual_instance(home_kappa=4.5, scenarios=4, eps=eps, budget=0.0)
    cov = build_coverage(inst)
    model = build_mc(inst, cov)
    assert model.objective_constant == pytest.approx(100.0)
    from evcover.solver import solve_external
    res = solve_external(model, time_limit_s=30)
    assert res.objective == pytest.approx(100.0, abs=1e-6)


def test_big_m_bounds_with_a_negative_constant_are_refused_when_built():
    bounds = compute_bounds(manual_instance(max_outlets=2, kappa_station=2.0, beta=0.3))
    for field_name in ("nu", "mu"):
        bad = tuple(a.copy() for a in getattr(bounds, field_name))
        bad[0][0, 0, 0] = -1.0
        with pytest.raises(ModelError, match="class index 0: negative Big-M constant"):
            replace(bounds, **{field_name: bad})


# -- single-term covering rows against the paper's summed rows ---------------------


def _period_base(inst, x, t):
    return inst.initial_levels if t == 1 else x.levels[:, t - 2]


def _cover_rows_match_the_triplet_patterns(inst, cov, model, periods):
    """One cover row per distinct pattern of the per-triplet reference, named
    and ordered by first appearance, holding exactly the pattern's x terms and
    a w whose objective weight is the pattern's summed N/R; so no two rows
    share a term set, and forced and never-covered triplets get none."""
    rows = [row for row in model.rows if row.name.startswith("cover_")]
    want = [(t, n, terms, weight) for t in periods
            for n, (terms, weight) in enumerate(cover_patterns(inst, cov, t).items())]
    assert len(rows) == len(want)
    for row, (t, n, terms, weight) in zip(rows, want):
        assert (row.name, row.sense, row.rhs) == (f"cover_t{t}_p{n}", ">=", 0.0)
        assert row.coeffs == {**dict.fromkeys(terms, 1.0), f"w_t{t}_p{n}": -1.0}
        assert model.objective[f"w_t{t}_p{n}"] == pytest.approx(weight, rel=1e-12)
    return len(rows)


def test_cover_rows_hold_one_x_term_per_covering_station():
    # a reshaped instance with caps and initial outlets, then one with home-forced triplets
    inst = reshaped(generate_small_instance(61, n_stations=4, horizon=3, max_outlets=3),
                    np.random.default_rng(61), fractional=True)
    cov = build_coverage(inst)
    n = _cover_rows_match_the_triplet_patterns(inst, cov, build_mc(inst, cov),
                                               range(1, inst.horizon + 1))
    assert 0 < n < cov.trip.n_triplets
    x = random_feasible_solution(inst, np.random.default_rng(1))
    for t in range(1, inst.horizon + 1):
        _cover_rows_match_the_triplet_patterns(
            inst, cov, build_mc_period(inst, cov, t, _period_base(inst, x, t)), [t])
    eps = np.zeros((3, 4, 1))
    eps[1, :2, 0] = 2.0  # home wins in scenarios 0 and 1 only
    inst = manual_instance(home_kappa=4.5, kappa_station=6.0, scenarios=4, eps=eps)
    cov = build_coverage(inst)
    model = build_mc(inst, cov)
    assert _cover_rows_match_the_triplet_patterns(inst, cov, model, [1]) == 1
    assert model.objective == {"w_t1_p0": pytest.approx(2 * 100.0 / 4)}
    assert model.objective_constant == pytest.approx(2 * 100.0 / 4)


@st.composite
def mc_cases(draw):
    J = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10**6))
    inst = generate_small_instance(seed, n_nodes=max(J, draw(st.integers(3, 7))), n_stations=J,
                                   horizon=draw(st.integers(1, 3)),
                                   max_outlets=draw(st.integers(1, 3)),
                                   max_scenarios=draw(st.integers(4, 12)),
                                   budget=draw(st.sampled_from([150.0, 250.0, 400.0])))
    shape = draw(st.sampled_from(["as generated", "caps", "caps and fractional costs"]))
    if shape != "as generated":
        inst = reshaped(inst, np.random.default_rng(seed), fractional=shape != "caps")
    return inst, draw(st.integers(0, 2**32 - 1))


def _mc_optimum(model):
    status, obj, _ = solve_model_inprocess(model)
    assert status == "optimal"
    return obj + model.objective_constant


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mc_cases())
def test_single_term_cover_rows_keep_the_summed_rows_optima(case):
    inst, seed = case
    cov = build_coverage(inst)
    f_mc = _mc_optimum(build_mc(inst, cov))
    assert f_mc == pytest.approx(_mc_optimum(summed_build_mc(inst, cov)), abs=1e-6)
    assert f_mc == pytest.approx(brute_force_optimum(inst, cov)[1], abs=1e-6)
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, inst.horizon + 1))
    base = _period_base(inst, random_feasible_solution(inst, rng), t)
    assert _mc_optimum(build_mc_period(inst, cov, t, base)) == pytest.approx(
        _mc_optimum(summed_build_mc_period(inst, cov, t, base)), abs=1e-6)


# -- the SL model over reachable pairs against the full reference ------------------


def _home_instance(rng, n_stations=3, horizon=2, scenarios=6):
    """A manual instance whose one class has the home alternative, with
    errors that make home win in some triplets and stations cover in some."""
    n_alts = 2 + n_stations
    return manual_instance(n_stations=n_stations, max_outlets=rng.integers(1, 4, n_stations),
                           horizon=horizon, scenarios=scenarios, kappa_station=3.6,
                           home_kappa=4.0, eps=rng.gumbel(0.0, 1.0, (n_alts, scenarios, horizon)),
                           budget=250.0)


@pytest.mark.parametrize("make", [lambda: generate_small_instance(71, n_stations=4, horizon=3),
                                  lambda: _home_instance(np.random.default_rng(72))])
def test_sl_has_a_choice_variable_exactly_for_each_pair_a_choice_can_reach(make):
    inst = make()
    model = build_sl(inst, compute_bounds(inst))
    cov = build_coverage(inst)
    forced = preprocess_home_charging(inst).forced
    want, uncovered, partly = set(), 0.0, 0
    for ci, uc in enumerate(inst.user_classes):
        for t in range(1, inst.horizon + 1):
            considered = inst.choice_sets.c1[ci][t - 1]
            for r in range(uc.scenario_count):
                if forced[ci] is not None and forced[ci][r, t - 1]:
                    continue
                p = cov.trip.triplet_id(ci, t - 1, r)
                reached = [j for j in considered if cov.min_k[inst.station_index[j], p] > 0]
                if reached:
                    want |= {f"w_c{ci}_r{r}_t{t}_a{j}" for j in [OPT_OUT] + reached}
                    partly += len(reached) < len(considered)
                else:
                    uncovered += uc.populations[t - 1] / uc.scenario_count
    # both a whole triplet and a station of a covered triplet are left out
    assert uncovered > 0 and partly > 0
    assert {v.name for v in model.variables if v.name.startswith("w_")} == want
    assert model.objective_constant == pytest.approx(uncovered, rel=1e-12)
    assert set(model.objective) == {n for n in want if n.endswith(f"_a{OPT_OUT}")}


@st.composite
def sl_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    J, T = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    if draw(st.booleans()):
        return _home_instance(rng, n_stations=J, horizon=T, scenarios=draw(st.integers(1, 6)))
    return generate_small_instance(seed, n_stations=J, horizon=T,
                                   max_outlets=draw(st.integers(1, 3)),
                                   max_scenarios=draw(st.integers(4, 8)),
                                   budget=draw(st.sampled_from([150.0, 250.0, 400.0])))


def _sl_optimum(model):
    status, obj, _ = solve_model_inprocess(model)
    assert status == "optimal"
    return obj + model.objective_constant


def test_sl_solves_where_abar_is_lowered():
    """With abar lowered only 1e-6 below the opt-out utility, HiGHS called
    this instance's SL model infeasible (the reference model's too)."""
    inst = _home_instance(np.random.default_rng(7), n_stations=1, horizon=2, scenarios=2)
    with pytest.warns(UserWarning, match="abar"):
        bounds = compute_bounds(inst)
    assert bounds.abar_adjusted
    cov = build_coverage(inst)
    demand = sum(float(np.sum(uc.populations)) for uc in inst.user_classes)
    f_star = brute_force_optimum(inst, cov)[1]
    for model in (build_sl(inst, bounds), reference_build_sl(inst, bounds)):
        assert _sl_optimum(model) + f_star == pytest.approx(demand, abs=1e-6)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=sl_cases())
def test_sl_over_reachable_pairs_keeps_the_full_models_optimum(inst):
    with warnings.catch_warnings(record=True):
        bounds = compute_bounds(inst)
    assert _sl_optimum(build_sl(inst, bounds)) == pytest.approx(
        _sl_optimum(reference_build_sl(inst, bounds)), abs=1e-6)
