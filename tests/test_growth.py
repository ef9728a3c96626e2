from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evcover import growth
from evcover.covering import build_coverage, evaluate
from evcover.datasets import generate_small_dataset
from evcover.exact import brute_force_optimum
from evcover.growth import (GfSolution, GrowthError, GrowthFunction, _solve_gf_model,
                            adjust_solution_max_outlets, build_gf_instance,
                            generate_growth_function, gf_forward_recursion,
                            gf_solution_as_x, growth_from_csv, growth_from_points,
                            growth_to_csv, load_growth, mc_yearly_totals, per_node_ev,
                            save_growth, write_node_ev_csv)
from evcover.heuristics import GreedyConfig, greedy
from evcover.instance import SolutionX, validate_solution
from evcover.milp import build_gf
from evcover.solver import solve_external
from evcover.growth import extract_gf_solution

from gf_reference import full_walk_gf


def test_hand_recursion_example():
    # yearly covered (100, 150, 180, 200), population 1000:
    # cumulative (100, 250, 430, 630) -> points 0.1, 0.25, 0.43, 0.63
    gf = growth_from_points([0.0, 0.1, 0.25, 0.43, 0.63])
    assert gf.value(0.0) == pytest.approx(0.1)
    assert gf.value(0.1) == pytest.approx(0.25)
    assert gf.value(0.25) == pytest.approx(0.43)
    assert gf.value(0.43) == pytest.approx(0.63)
    # interpolation between breakpoints is linear
    mid = gf.value(0.175)
    assert mid == pytest.approx((0.25 + 0.43) / 2, abs=1e-9)


def test_four_year_input_gives_five_segments():
    gf = growth_from_points([0.0, 0.1, 0.25, 0.43, 0.63])
    assert len(gf.slopes) == 5  # 4 data segments + 1 extension
    assert gf.breakpoints[0] == 0.0
    assert gf.breakpoints[-1] == 1.0
    # extension continues the last determined slope
    assert gf.slopes[3] == gf.slopes[4] == pytest.approx(gf.slopes[2])


def test_zero_coverage_gives_identity():
    gf = growth_from_points([0.0, 0.0, 0.0])
    assert gf.slopes == (1.0,)
    assert gf.intercepts == (0.0,)
    assert gf.value(0.37) == pytest.approx(0.37)


def test_delayed_adoption_is_rejected():
    with pytest.raises(GrowthError, match="zero-growth"):
        growth_from_points([0.0, 0.0, 0.1, 0.2])


def test_decreasing_points_rejected():
    with pytest.raises(GrowthError, match="nondecreasing"):
        growth_from_points([0.0, 0.2, 0.1])


def test_function_invariants():
    gf = growth_from_points([0.0, 0.05, 0.08, 0.09])
    assert abs(gf.breakpoints[0]) <= 1e-9 and abs(gf.breakpoints[-1] - 1.0) <= 1e-9
    zs = np.linspace(0, 1, 257)
    vals = [gf.value(z) for z in zs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))  # nondecreasing
    assert all(0 <= v <= 1 + 1e-12 for v in vals)
    lo, hi = gf.data_range
    for z in zs[(zs >= lo) & (zs <= hi)]:
        assert gf.value(z) >= z - 1e-9


def test_extension_with_shrinking_slope_hits_identity_floor():
    # slopes < 1 eventually cross the identity; beyond that g(z) = z
    gf = growth_from_points([0.0, 0.4, 0.5, 0.55])
    assert gf.value(0.99) >= 0.99 - 1e-12
    assert gf.value(1.0) == pytest.approx(1.0, abs=1e-9)


def test_growth_csv_round_trip(tmp_path):
    gf = growth_from_points([0.0, 0.1, 0.25, 0.43, 0.63])
    text = growth_to_csv(gf)
    back = growth_from_csv(text)
    assert back.breakpoints == gf.breakpoints
    assert back.slopes == gf.slopes
    assert back.intercepts == gf.intercepts
    path = tmp_path / "gf.csv"
    save_growth(gf, path)
    assert load_growth(path).slopes == gf.slopes


def test_growth_csv_round_trip_keeps_the_data_range(tmp_path):
    # a decelerating curve crosses the identity after its data range, so it
    # only validates again when the range comes back with it
    gf = growth_from_points([0.0, 0.1, 0.15, 0.17])
    path = tmp_path / "gf.csv"
    save_growth(gf, path)
    back = load_growth(path)
    assert back.breakpoints == gf.breakpoints
    assert back.slopes == gf.slopes
    assert back.intercepts == gf.intercepts
    assert back.data_range == gf.data_range == (0.0, 0.17)


def test_growth_csv_without_a_data_range_line():
    text = "q_lo,q_hi,slope,intercept\n0.0,1.0,1.0,0.0\n"
    gf = growth_from_csv(text)
    assert gf.data_range is None
    assert growth_from_csv("# data_range,0.0,0.0\n" + text).data_range == (0.0, 0.0)


@pytest.mark.parametrize("first", ["# data_range,0.0", "# data_range,0.0,x",
                                   "# data_range,0.0,nan"])
def test_growth_csv_refuses_a_malformed_data_range(first):
    with pytest.raises(GrowthError, match="line 1"):
        growth_from_csv(first + "\nq_lo,q_hi,slope,intercept\n0.0,1.0,1.0,0.0\n")


# -- closure and comparison workflow ----------------------------------------------


@pytest.fixture(scope="module")
def gf_setup(small_dataset):
    insts = small_dataset
    covs = [build_coverage(i) for i in insts]
    ref = greedy(insts[0], covs[0], GreedyConfig(mode="hyperoptic")).x
    gf = generate_growth_function(insts, ref, covs)
    return insts, covs, ref, gf


def test_loop_closure_full_coverage_infinite_capacity(gf_setup):
    insts, covs, ref, gf = gf_setup
    pop = insts[0].network.total_population
    cum, _ = mc_yearly_totals(insts, ref, covs)
    # one open station whose willing set is the whole city, infinite capacity
    gfi = build_gf_instance(insts[0], gf, radius_km=1e9)
    import dataclasses
    one = dataclasses.replace(
        gfi, station_ids=gfi.station_ids[:1], willing_nodes=gfi.willing_nodes[:1],
        max_outlets=gfi.max_outlets[:1], initial_outlets=gfi.initial_outlets[:1],
        opening_cost=gfi.opening_cost[:1])
    T = gfi.horizon
    sol = GfSolution(open=np.ones((1, T), dtype=bool), outlets=np.ones((1, T), dtype=int))
    out = gf_forward_recursion(one, sol)
    np.testing.assert_allclose(out.yearly_totals, cum, atol=1e-6)


def test_adjusted_solution_semantics(gf_setup):
    insts, covs, _, gf = gf_setup
    gfi = build_gf_instance(insts[0], gf)
    T = gfi.horizon
    sol = GfSolution(open=np.array([[False] * T, [False, True, True], [False] * T]),
                     outlets=np.array([[0] * T, [0, 1, 1], [0] * T]))
    adj = adjust_solution_max_outlets(gfi, sol)
    m = int(gfi.max_outlets[1])
    assert (adj.levels[1] == [0, m, m]).all()
    assert (adj.levels[0] == 0).all()
    # nothing open -> zero solution
    none = GfSolution(open=np.zeros((3, T), dtype=bool), outlets=np.zeros((3, T), dtype=int))
    assert (adjust_solution_max_outlets(gfi, none).levels == 0).all()


def test_adjusted_breaks_budget_on_table_parameters(gf_setup):
    insts, covs, _, gf = gf_setup
    gfi = build_gf_instance(insts[0], gf)
    T = gfi.horizon
    sol = GfSolution(open=np.ones((3, T), dtype=bool), outlets=np.ones((3, T), dtype=int))
    # small instances have m=2; force the canonical 6-outlet shape instead
    gfi.max_outlets = np.full(3, 6)
    adj = adjust_solution_max_outlets(gfi, sol)
    report = validate_solution(insts[0], SolutionX.from_levels(
        np.minimum(adj.levels, 2), 2))
    # at its own scale (6 outlets, 2+ stations, B=400) the raw adjusted plan
    # costs 2 * (150 + 5*50) = 800 > 400 in period 1
    spend = 2 * (150 + 5 * 50)
    assert spend > 400


def test_adjusted_dominates_unadjusted_everywhere(gf_setup):
    insts, covs, _, gf = gf_setup
    gfi = build_gf_instance(insts[0], gf)
    res = solve_external(build_gf(gfi), time_limit_s=60)
    sol = extract_gf_solution(gfi, res.values)
    x_gf = gf_solution_as_x(gfi, sol)
    x_adj = adjust_solution_max_outlets(gfi, sol)
    for inst, cov in zip(insts, covs):
        assert evaluate(inst, cov, x_adj) >= evaluate(inst, cov, x_gf) - 1e-9


def test_mc_optimum_dominates_gf_solution(gf_setup):
    insts, covs, _, gf = gf_setup
    gfi = build_gf_instance(insts[0], gf)
    res = solve_external(build_gf(gfi), time_limit_s=60)
    sol = extract_gf_solution(gfi, res.values)
    x_gf = gf_solution_as_x(gfi, sol)
    for inst, cov in zip(insts, covs):
        _, f_star = brute_force_optimum(inst, cov)
        assert f_star >= evaluate(inst, cov, x_gf) - 1e-9


def test_per_node_ev_sums_to_total(gf_setup, tmp_path):
    insts, covs, ref, _ = gf_setup
    nodes = per_node_ev(insts[0], covs[0], ref)
    assert sum(nodes.values()) == pytest.approx(evaluate(insts[0], covs[0], ref))
    path = tmp_path / "nodes.csv"
    write_node_ev_csv(insts[0], nodes, path)
    import csv
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(insts[0].network.nodes)
    total = sum(float(r["ev"]) for r in rows)
    assert total == pytest.approx(sum(nodes.values()))


def test_gf_milp_objective_matches_recursion_envelope(gf_setup):
    # the solver's optimum must sit exactly on the growth envelope: replaying
    # its schedule through the forward recursion reproduces the objective
    insts, covs, _, gf = gf_setup
    gfi = build_gf_instance(insts[0], gf, radius_km=10.0)
    res = solve_external(build_gf(gfi), time_limit_s=60)
    assert res.status == "optimal"
    sol = extract_gf_solution(gfi, res.values)
    out = gf_forward_recursion(gfi, sol)
    assert out.yearly_totals[-1] == pytest.approx(res.objective, rel=1e-6)
    # and yearly totals never decrease
    assert (np.diff(out.yearly_totals) >= -1e-9).all()


@pytest.mark.parametrize("seed, final_total", [(21, 454.27), (22, 465.23), (23, 1200.81)])
def test_gf_enumeration_reaches_milp_final_total(seed, final_total):
    insts = generate_small_dataset(seed, 4, n_nodes=8, n_stations=3, horizon=2,
                                   max_outlets=2, max_scenarios=15)
    covs = [build_coverage(inst) for inst in insts]
    ref = greedy(insts[0], covs[0], GreedyConfig(mode="hyperoptic")).x
    gfi = build_gf_instance(insts[0], generate_growth_function(insts, ref, covs))
    by_enum = gf_forward_recursion(gfi, _solve_gf_model(gfi, "none", 60.0))
    by_milp = gf_forward_recursion(gfi, _solve_gf_model(gfi, None, 60.0))
    assert by_enum.yearly_totals[-1] == pytest.approx(by_milp.yearly_totals[-1], abs=1e-6)
    assert by_enum.yearly_totals[-1] == pytest.approx(final_total, abs=0.01)


def test_gf_enumeration_over_its_cap_is_refused_naming_it(monkeypatch):
    insts = generate_small_dataset(21, 1, n_nodes=8, n_stations=3, horizon=2,
                                   max_outlets=2, max_scenarios=15)
    gfi = build_gf_instance(insts[0], GrowthFunction((0.0, 0.5, 1.0), (1.2, 1.2), (0.1, 0.1)))
    monkeypatch.setattr(growth, "GF_ENUMERATION_CAP", 3)
    with pytest.raises(GrowthError, match="cap of 3 schedule prefixes"):
        _solve_gf_model(gfi, "none", 60.0)


@st.composite
def gf_cases(draw):
    J, T, m = draw(st.integers(2, 4)), draw(st.integers(2, 3)), draw(st.integers(2, 3))
    inst = generate_small_dataset(draw(st.integers(0, 10**6)), 1, n_nodes=8, n_stations=J,
                                  horizon=T, max_outlets=m, max_scenarios=6)[0]
    gfi = build_gf_instance(inst, GrowthFunction((0.0, 0.5, 1.0), (1.2, 1.2), (0.1, 0.1)),
                            radius_km=draw(st.sampled_from([3.0, 5.0, 10.0])))
    initial = draw(st.lists(st.integers(0, m), min_size=J, max_size=J))
    return replace(gfi, initial_outlets=np.array(initial))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gfi=gf_cases())
def test_gf_enumeration_over_open_patterns_matches_the_full_walk(gfi):
    want, _ = full_walk_gf(gfi)
    got = growth._solve_gf_by_enumeration(gfi)
    np.testing.assert_array_equal(got.open, want.open)
    np.testing.assert_array_equal(got.outlets, want.outlets)


def test_gf_enumeration_with_initial_outlets_matches_the_full_walk():
    inst = generate_small_dataset(3, 1, n_nodes=8, n_stations=5, horizon=2, max_outlets=2,
                                  max_scenarios=6)[0]
    gfi = replace(build_gf_instance(inst, GrowthFunction((0.0, 0.5, 1.0), (1.2, 1.2),
                                                         (0.1, 0.1)), radius_km=5.0),
                  initial_outlets=np.array([0, 1, 1, 2, 0]))
    want, prefixes = full_walk_gf(gfi)
    got = growth._solve_gf_by_enumeration(gfi)
    assert prefixes > 100
    np.testing.assert_array_equal(got.open, want.open)
    np.testing.assert_array_equal(got.outlets, want.outlets)
    assert (got.outlets[:, -1] >= gfi.initial_outlets).all()
