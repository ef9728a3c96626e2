import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evcover.covering import (CoverageError, CoverageTensor, SwapBasis, TripletIndex,
                              build_coverage, compute_abar, evaluate, evaluate_per_period, gap,
                              optout_utility, preprocess_home_charging,
                              score_hyperoptic, score_myopic, station_utility_at_k)
from evcover.datasets import DatasetSpec, generate_dataset, generate_small_instance
from evcover.exact import random_feasible_solution
from evcover.heuristics import _local_search, _SearchTables
from evcover.instance import HOME, OPT_OUT, InstanceError, SolutionX
from evcover.network import generate_network

from conftest import manual_instance


def naive_cover_entry(inst, j_id, k, t, ci, r):
    """Definition applied literally, scalar by scalar."""
    if k < 1 or j_id not in inst.choice_sets.c1[ci][t - 1]:
        return 0
    u0 = optout_utility(inst, t, ci, r)
    return 1 if station_utility_at_k(inst, t, ci, r, j_id, k) >= u0 else 0


def naive_min_k(inst, j, t, ci, r):
    """Covering threshold by a linear scan over the outlet ladder (0 = never)."""
    st_ = inst.stations[j]
    return next((k for k in range(1, st_.max_outlets + 1)
                 if naive_cover_entry(inst, st_.id, k, t, ci, r)), 0)


def full_levels(inst):
    return SolutionX.from_levels(
        np.repeat(inst.max_outlets[:, None], inst.horizon, axis=1),
        int(inst.max_outlets.max()))


# -- utilities ---------------------------------------------------------------


def test_optout_utility_zero_error():
    inst = manual_instance()
    assert optout_utility(inst, 1, 0, 0) == pytest.approx(4.5)


def test_optout_utility_additive_in_error():
    eps = np.zeros((2, 1, 1))
    eps[0, 0, 0] = -1.2
    inst = manual_instance(eps=eps)
    assert optout_utility(inst, 1, 0, 0) == pytest.approx(3.3)


def test_optout_matches_utility_ladder_row():
    # the opt-out row of the utility ladder: kappa + eps, the same for every k
    inst = generate_small_instance(23)
    for ci in range(inst.n_classes):
        pos = inst.choice_sets.alternatives[ci].index(OPT_OUT)
        kap, eps = inst.utility_params.kappa[ci], inst.error_tensor[ci]
        for r in range(3):
            for t in range(1, inst.horizon + 1):
                assert optout_utility(inst, t, ci, r) == pytest.approx(
                    kap[pos, t - 1] + eps[pos, r, t - 1])


def test_station_utility_linear_ladder():
    inst = manual_instance(n_stations=1, max_outlets=6, kappa_station=1.0, beta=0.281)
    assert station_utility_at_k(inst, 1, 0, 0, 1, 3) == pytest.approx(1.843)


def test_station_utility_k_zero_is_abar():
    inst = generate_small_instance(29)
    abar = compute_abar(inst)
    v = station_utility_at_k(inst, 1, 0, 0, inst.stations[0].id, 0)
    assert v == pytest.approx(abar[0, 0])


def test_station_utility_rejects_unconsidered_station():
    inst = manual_instance()
    with pytest.raises(CoverageError, match="considered"):
        station_utility_at_k(inst, 1, 0, 0, 99, 1)


def test_covering_threshold_example_shape():
    # station below opt-out until the fourth outlet: threshold k = 4
    inst = manual_instance(max_outlets=6, kappa_station=4.5 - 4 * 0.281 + 0.01, beta=0.281)
    cov = build_coverage(inst)
    p = cov.trip.triplet_id(0, 0, 0)
    assert cov.min_k[0, p] == 4
    for k in range(1, 7):
        assert cov.a_entry(0, k, p) == (1 if k >= 4 else 0)
    for k in (0, 7):
        with pytest.raises(CoverageError, match="outside"):
            cov.a_entry(0, k, p)


def test_station_that_never_covers_has_zero_row():
    inst = manual_instance(max_outlets=6, kappa_station=-10.0, beta=0.0)
    cov = build_coverage(inst)
    p = cov.trip.triplet_id(0, 0, 0)
    assert cov.min_k[0, p] == 0
    assert all(cov.a_entry(0, k, p) == 0 for k in range(1, 7))


def test_ladder_nondecreasing_in_k():
    # k = 0 is the closed-station level abar, below every open utility
    inst = generate_small_instance(31)
    abar = compute_abar(inst)
    for ci, uc in enumerate(inst.user_classes):
        for t in range(1, inst.horizon + 1):
            for j in inst.choice_sets.c1[ci][t - 1]:
                m_j = inst.stations[inst.station_index[j]].max_outlets
                for r in range(uc.scenario_count):
                    ladder = [station_utility_at_k(inst, t, ci, r, j, k, abar)
                              for k in range(m_j + 1)]
                    assert all(b >= a - 1e-12 for a, b in zip(ladder, ladder[1:]))


# -- coverage tensor against the naive oracle --------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_tensor_equals_naive_recomputation(seed):
    inst = generate_small_instance(100 + seed, n_stations=2, n_nodes=5, horizon=2,
                                   max_scenarios=6)
    cov = build_coverage(inst)
    for ci, uc in enumerate(inst.user_classes):
        for t in range(1, inst.horizon + 1):
            for r in range(uc.scenario_count):
                p = cov.trip.triplet_id(ci, t - 1, r)
                for j, st in enumerate(inst.stations):
                    for k in range(1, st.max_outlets + 1):
                        assert cov.a_entry(j, k, p) == naive_cover_entry(
                            inst, st.id, k, t, ci, r)
                    assert cov.min_k[j, p] == naive_min_k(inst, j, t, ci, r)


def test_tensor_monotone_in_k(small_instance, small_coverage):
    cov = small_coverage
    for j in range(small_instance.n_stations):
        prev = np.zeros(cov.trip.n_triplets, dtype=bool)
        for k in range(1, small_instance.stations[j].max_outlets + 1):
            cur = (cov.min_k[j] > 0) & (cov.min_k[j] <= k)
            assert (prev <= cur).all()
            prev = cur


def test_tensor_size_matches_triplet_count(small_instance, small_coverage):
    want = sum(uc.scenario_count for uc in small_instance.user_classes) \
        * small_instance.horizon
    assert small_coverage.trip.n_triplets == want


# -- home-charging preprocessing ----------------------------------------------


def test_home_dominates_forces_coverage():
    inst = manual_instance(home_kappa=5.5)  # home > opt-out for zero errors
    pre = preprocess_home_charging(inst)
    assert pre.forced[0].all()
    assert pre.forced_mass == pytest.approx(100.0)


def test_home_dominated_is_dropped():
    inst = manual_instance(home_kappa=3.5)
    pre = preprocess_home_charging(inst)
    assert not pre.forced[0].any()
    assert pre.forced_mass == 0.0


def test_class_without_home_unchanged():
    inst = manual_instance()
    pre = preprocess_home_charging(inst)
    assert pre.forced[0] is None
    assert pre.forced_mass == 0.0
    assert not pre.forced_bits.any()


# -- evaluation ----------------------------------------------------------------


def test_zero_solution_scores_zero(small_instance, small_coverage):
    assert evaluate(small_instance, small_coverage,
                    SolutionX.zeros(small_instance)) == 0.0


def test_zero_solution_home_charging_baseline():
    inst = manual_instance(home_kappa=5.5, scenarios=4)
    cov = build_coverage(inst)
    # direct sum over forced triplets of N/R
    want = sum(inst.user_classes[0].populations[0] / 4 for _ in range(4))
    assert evaluate(inst, cov, SolutionX.zeros(inst)) == pytest.approx(want)


def test_saturation_equals_weighted_any_row(small_instance, small_coverage):
    inst, cov = small_instance, small_coverage
    got = evaluate(inst, cov, full_levels(inst))
    want = 0.0
    for ci, uc in enumerate(inst.user_classes):
        for t in range(1, inst.horizon + 1):
            for r in range(uc.scenario_count):
                p = cov.trip.triplet_id(ci, t - 1, r)
                if (cov.min_k[:, p] > 0).any():
                    want += uc.populations[t - 1] / uc.scenario_count
    assert got == pytest.approx(want)


def test_min_clamp_second_cover_changes_nothing():
    inst = manual_instance(n_stations=2, kappa_station=6.0)  # both cover at k=1
    cov = build_coverage(inst)
    one = SolutionX.from_levels(np.array([[1], [0]]), 2)
    both = SolutionX.from_levels(np.array([[1], [1]]), 2)
    assert evaluate(inst, cov, one) == evaluate(inst, cov, both) == pytest.approx(100.0)


def test_monotone_in_x(small_instance, small_coverage):
    rng = np.random.default_rng(8)
    for _ in range(30):
        x = random_feasible_solution(small_instance, rng)
        levels = x.levels
        shrunk = np.maximum(levels - rng.integers(0, 2, size=levels.shape), 0)
        shrunk = np.maximum.accumulate(shrunk, axis=1)  # keep persistence
        x_small = SolutionX.from_levels(shrunk, int(small_instance.max_outlets.max()))
        assert evaluate(small_instance, small_coverage, x) >= \
            evaluate(small_instance, small_coverage, x_small) - 1e-12


def test_evaluate_rejects_dimension_mismatch(small_instance, small_coverage):
    with pytest.raises(CoverageError, match="dimension"):
        evaluate(small_instance, small_coverage, SolutionX(np.zeros((1, 2, 1), dtype=np.int8)))


def test_evaluate_rejects_ladder_violation(small_instance, small_coverage):
    J = small_instance.n_stations
    bad = np.zeros((J, 2, small_instance.horizon), dtype=np.int8)
    bad[0, 1, 0] = 1
    with pytest.raises(InstanceError, match="ladder"):
        evaluate(small_instance, small_coverage, SolutionX(bad))


@pytest.mark.parametrize("j", [0, 4])
def test_evaluation_rejects_level_above_max_outlets(j):
    # the first station would read its neighbour's slot rows, the last one
    # would run past the end of the tensor
    inst = generate_small_instance(3, n_nodes=12, n_stations=5, horizon=4, max_outlets=2,
                                   max_scenarios=15, budget=250.0)
    cov = build_coverage(inst)
    levels = np.zeros((inst.n_stations, inst.horizon), dtype=int)
    levels[j, :] = 3
    x = SolutionX.from_levels(levels, 3)
    for call in (lambda: evaluate(inst, cov, x), lambda: evaluate_per_period(inst, cov, x),
                 lambda: score_myopic(cov, x, 1), lambda: score_hyperoptic(cov, x, 1)):
        with pytest.raises(CoverageError, match="exceeds"):
            call()


def test_per_period_breakdown_sums_to_total(small_instance, small_coverage):
    rng = np.random.default_rng(3)
    x = random_feasible_solution(small_instance, rng)
    parts = evaluate_per_period(small_instance, small_coverage, x)
    assert parts.sum() == pytest.approx(evaluate(small_instance, small_coverage, x))


# -- score functions -------------------------------------------------------------


def test_scores_match_restricted_brute_force(small_instance, small_coverage):
    inst, cov = small_instance, small_coverage
    rng = np.random.default_rng(5)
    T = inst.horizon
    max_k = int(inst.max_outlets.max())
    for _ in range(10):
        x = random_feasible_solution(inst, rng)
        for t in range(1, T + 1):
            held = np.repeat(x.levels[:, t - 1:t], T, axis=1)
            x_held = SolutionX.from_levels(held, max_k)
            per = evaluate_per_period(inst, cov, x_held)
            assert score_myopic(cov, x, t) == pytest.approx(per[t - 1])
            assert score_hyperoptic(cov, x, t) == pytest.approx(per[t - 1:].sum())


def test_last_period_scores_coincide(small_instance, small_coverage):
    rng = np.random.default_rng(6)
    x = random_feasible_solution(small_instance, rng)
    T = small_instance.horizon
    assert score_myopic(small_coverage, x, T) == pytest.approx(
        score_hyperoptic(small_coverage, x, T))


def test_hyperoptic_dominates_myopic(small_instance, small_coverage):
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = random_feasible_solution(small_instance, rng)
        for t in range(1, small_instance.horizon + 1):
            assert score_hyperoptic(small_coverage, x, t) >= \
                score_myopic(small_coverage, x, t) - 1e-12


def test_score_rejects_bad_period(small_instance, small_coverage):
    x = SolutionX.zeros(small_instance)
    with pytest.raises(CoverageError):
        score_myopic(small_coverage, x, 0)
    with pytest.raises(CoverageError):
        score_hyperoptic(small_coverage, x, small_instance.horizon + 1)


# -- gap ---------------------------------------------------------------------------


def test_gap_examples():
    assert gap(5.0, 5.0) == 0.0
    assert gap(200.0, 100.0) == pytest.approx(50.0)
    with pytest.raises(CoverageError):
        gap(0.0, 1.0)


# -- the evaluation primitive against a naive reference ------------------------------


def naive_held_coverage(inst, levels_t, t):
    """Per class: covered flags of period t with levels_t, straight from the
    definition (some station with 0 < naive threshold <= level, or
    home-forced). The thresholds come from the utility scan, not from the
    tensor under test."""
    forced = preprocess_home_charging(inst).forced
    out = []
    for ci, uc in enumerate(inst.user_classes):
        covered = np.zeros(uc.scenario_count, dtype=bool)
        for r in range(uc.scenario_count):
            mk = np.array([naive_min_k(inst, j, t, ci, r) for j in range(inst.n_stations)])
            covered[r] = bool(((mk > 0) & (mk <= levels_t)).any())
            if forced[ci] is not None:
                covered[r] |= bool(forced[ci][r, t - 1])
        out.append(covered)
    return out


def naive_held_words(inst, cov, levels_t, t_from, t_to):
    return np.concatenate([cov.trip.pack_block_rows(covered[None, :])[0]
                           for t in range(t_from, t_to + 1)
                           for covered in naive_held_coverage(inst, levels_t, t)])


def naive_period_value(inst, levels_t, t):
    return sum(uc.populations[t - 1] / uc.scenario_count * int(covered.sum())
               for uc, covered in zip(inst.user_classes,
                                      naive_held_coverage(inst, levels_t, t)))


# scenario counts on both sides of one and two 64-bit word boundaries
SCENARIO_COUNTS = st.one_of(st.integers(1, 70), st.sampled_from([63, 64, 65, 128, 129]))


@st.composite
def tiny_instances(draw, horizons=st.integers(1, 3)):
    horizon = draw(horizons)
    max_outlets = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        return generate_small_instance(seed, n_nodes=draw(st.integers(3, 6)),
                                       n_stations=draw(st.integers(1, 3)), horizon=horizon,
                                       max_outlets=max_outlets,
                                       max_scenarios=max(4, draw(SCENARIO_COUNTS)))
    # one class with home charging, so forced triplets appear; per-station
    # outlet caps, and with two periods or more a station the class leaves
    # out of C1 for one of them
    n_stations = draw(st.integers(1, 3))
    caps = draw(st.lists(st.integers(1, max_outlets), min_size=n_stations,
                         max_size=n_stations))
    not_considered = ()
    if horizon > 1 and draw(st.booleans()):
        not_considered = ((draw(st.integers(1, n_stations)), draw(st.integers(1, horizon))),)
    scenarios = draw(SCENARIO_COUNTS)
    eps = np.random.default_rng(seed).normal(0.0, 1.5, (2 + n_stations, scenarios, horizon))
    return manual_instance(n_stations=n_stations, max_outlets=caps, horizon=horizon,
                           scenarios=scenarios, kappa_station=4.0, eps=eps, home_kappa=4.5,
                           not_considered=not_considered)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(inst=tiny_instances(), schedule_seed=st.integers(0, 10_000))
def test_held_words_and_period_values_match_naive_reference(inst, schedule_seed):
    cov = build_coverage(inst)
    levels = random_feasible_solution(inst, np.random.default_rng(schedule_seed)).levels
    T = inst.horizon
    for t_from in range(1, T + 1):
        for t_to in range(t_from, T + 1):
            got = cov.held_words(levels[:, t_from - 1], t_from, t_to)
            want = naive_held_words(inst, cov, levels[:, t_from - 1], t_from, t_to)
            assert got.dtype == np.uint64
            np.testing.assert_array_equal(got, want)
    want_values = [naive_period_value(inst, levels[:, t - 1], t) for t in range(1, T + 1)]
    assert cov.period_values(levels) == pytest.approx(want_values, rel=1e-12, abs=1e-9)
    # the local search carries its value forward move by move
    found, f = _local_search(inst, cov, levels)
    assert f == pytest.approx(cov.period_values(found).sum(), rel=1e-12, abs=1e-9)


@st.composite
def level_vectors(draw):
    """An instance (up to six stations, forced bits in some) and an arbitrary
    outlet schedule within its caps."""
    inst = draw(st.one_of(tiny_instances(), st.builds(
        lambda seed, J, T, m: generate_small_instance(seed, n_nodes=max(J, 4), n_stations=J,
                                                      horizon=T, max_outlets=m,
                                                      max_scenarios=70),
        st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 3), st.integers(1, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    levels = rng.integers(0, inst.max_outlets[:, None] + 1, (inst.n_stations, inst.horizon))
    return inst, levels, rng


def random_moves(inst, levels, t_from, rng, n=12):
    """n moves of one station (jp = J) or of two distinct ones, each in a
    period from t_from on: (period from t_from, j, jp, new_j, new_jp) arrays
    and each move's (t, level vector)."""
    J, T = levels.shape
    j = rng.integers(0, J, n)
    jp = np.where(rng.random(n) < 0.3, J, (j + rng.integers(1, max(J, 2), n)) % max(J, 1))
    jp[jp == j] = J
    period = rng.integers(0, T - t_from + 1, n)
    caps = np.append(inst.max_outlets, 0)
    new_j, new_jp = rng.integers(0, caps[j] + 1), rng.integers(0, caps[jp] + 1)
    moved = []
    for i in range(n):
        t = t_from + int(period[i])
        lv = levels[:, t - 1].copy()
        lv[j[i]] = new_j[i]
        if jp[i] < J:
            lv[jp[i]] = new_jp[i]
        moved.append((t, lv))
    return (period, j, jp, new_j, new_jp), moved


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=level_vectors())
def test_plane_derived_words_match_held_words(case):
    inst, levels, rng = case
    cov = build_coverage(inst)
    t_from = int(rng.integers(1, levels.shape[1] + 1))
    basis = SwapBasis(cov)
    basis.update(rng.integers(0, inst.max_outlets[:, None] + 1, levels.shape))  # then reused
    basis.update(levels, t_from)
    # with six stations some bits are covered three times
    move, moved = random_moves(inst, levels, t_from, rng)
    got = basis.words(*move)
    for i, (t, lv) in enumerate(moved):
        np.testing.assert_array_equal(got[i], cov.held_words(lv, t, t))


@st.composite
def long_period_vectors(draw):
    """A desk instance of 20-40 classes with up to 200 scenarios each, so a
    period runs to dozens of words and blocks span up to four of them, and
    an arbitrary outlet schedule within its caps."""
    J = draw(st.integers(1, 6))
    inst = generate_small_instance(draw(st.integers(0, 10_000)), n_nodes=draw(st.integers(20, 40)),
                                   n_stations=J, horizon=draw(st.integers(1, 3)),
                                   max_outlets=draw(st.integers(1, 3)),
                                   max_scenarios=draw(st.integers(64, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    levels = rng.integers(0, inst.max_outlets[:, None] + 1, (inst.n_stations, inst.horizon))
    return inst, levels, rng


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=st.one_of(level_vectors(), long_period_vectors()))
def test_batched_move_values_equal_value_of_words(case):
    """The local search values a stack of (move, period) pairs with np.vecdot
    of the gathered popcounts against the gathered period word weights; each
    row must be `value_of_words` of the same bits to the last bit, or a batch
    could accept a move that one-at-a-time valuation would not."""
    inst, levels, rng = case
    cov = build_coverage(inst)
    tab = _SearchTables(inst, cov)
    t_from = int(rng.integers(1, levels.shape[1] + 1))
    tab.basis.update(levels, t_from)
    move, moved = random_moves(inst, levels, t_from, rng)
    counts = np.bitwise_count(tab.basis.words(*move))
    got = np.vecdot(counts.astype(np.float64), tab.weights[t_from - 1:][move[0]])
    want = [cov.value_of_words(cov.held_words(lv, t, t), t, t) for t, lv in moved]
    assert got.tolist() == want


# -- the stored representation -------------------------------------------------------


def padding_mask(trip):
    """Per word: the bits that hold no triplet (the tail of each block's last word)."""
    mask = np.zeros(trip.n_words, dtype=np.uint64)
    for b, bits in enumerate(trip.block_bits):
        tail = int(bits) % 64
        if tail:
            mask[trip.word_start[b + 1] - 1] = ~np.uint64((1 << tail) - 1)
    return mask


def test_tensor_stores_only_the_slot_bitsets(small_instance):
    cov = build_coverage(small_instance)  # fresh: the session fixture may hold a derived min_k
    arrays = {name for name, v in vars(cov).items() if isinstance(v, np.ndarray)}
    assert arrays == {"a_bits", "forced_bits", "slot_base", "max_outlets"}
    mk = cov.min_k
    assert mk is cov.min_k and not mk.flags.writeable
    assert mk.shape == (small_instance.n_stations, cov.trip.n_triplets)
    assert mk.dtype == np.uint8


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(inst=tiny_instances())
def test_slot_bits_and_thresholds_match_naive_definition(inst):
    cov = build_coverage(inst)
    pad = padding_mask(cov.trip)
    assert not (cov.a_bits & pad[None, :]).any()
    assert not (cov.forced_bits & pad).any()
    for ci, uc in enumerate(inst.user_classes):
        for t in range(1, inst.horizon + 1):
            for r in range(uc.scenario_count):
                p = cov.trip.triplet_id(ci, t - 1, r)
                for j, st_ in enumerate(inst.stations):
                    for k in range(1, st_.max_outlets + 1):
                        assert cov.a_entry(j, k, p) == naive_cover_entry(
                            inst, st_.id, k, t, ci, r)
                    assert cov.min_k[j, p] == naive_min_k(inst, j, t, ci, r)


def test_station_outside_c1_covers_nothing_even_with_infinite_benefit():
    # an infinite benefit reaches any gap, so only membership keeps period 2 empty
    inst = manual_instance(n_stations=2, max_outlets=[2, 1], horizon=2, scenarios=3,
                           beta=np.inf, not_considered=((1, 2),))
    cov = build_coverage(inst)
    for j, k in ((0, 1), (0, 2), (1, 1)):
        for t in (1, 2):
            got = [cov.a_entry(j, k, cov.trip.triplet_id(0, t - 1, r)) for r in range(3)]
            assert got == ([0] * 3 if (j, t) == (0, 2) else [1] * 3)


def test_golden_longspan_coverage_bits_are_pinned():
    """The packed bits of the golden LongSpan instance (`generate_network(30,
    seed=1)`, instance 0 of base seed 1), as the per-station build made them."""
    inst = generate_dataset(DatasetSpec(kind="LongSpan", network=generate_network(30, seed=1),
                                        instance_count=1, base_seed=1))[0]
    cov = build_coverage(inst)
    assert cov.a_bits.shape == (180, 2400)
    assert hashlib.sha256(cov.a_bits.tobytes()).hexdigest() == (
        "13ff4413acecbce9ac08c3f43b9e74620fd85888e7c5bb45895d4aa1683f4fe5")
