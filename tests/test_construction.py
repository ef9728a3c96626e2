"""The construction, which grows the covered bits of a pick in place, against
the one that recomputed them after every pick (`construction_reference.py`):
same picks, scores, levels and covered bits, in both modes. And constructions
that share one run's table of scored states against constructions that each
score every state afresh."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evcover.covering import build_coverage
from evcover.datasets import generate_small_instance
from evcover.heuristics import HYPEROPTIC, MYOPIC, _construct, _ConstructTable, _RclPick

from conftest import manual_instance
from construction_reference import reference_construct, reference_greedy_pick, \
    reference_rcl_pick
from test_local_search import reshaped


@st.composite
def construction_cases(draw):
    J = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 10**6))
    inst = generate_small_instance(seed, n_nodes=max(J, draw(st.integers(3, 9))), n_stations=J,
                                   horizon=draw(st.integers(1, 6)),
                                   max_outlets=draw(st.integers(1, 4)),
                                   max_scenarios=draw(st.integers(4, 70)),
                                   budget=draw(st.sampled_from([150.0, 250.0, 400.0, 600.0])))
    shape = draw(st.sampled_from(["as generated", "caps", "caps and fractional costs"]))
    if shape != "as generated":
        inst = reshaped(inst, np.random.default_rng(seed), fractional=shape != "caps")
    mode = draw(st.sampled_from([MYOPIC, HYPEROPTIC]))
    return inst, mode, draw(st.sampled_from([0.0, 0.5, 0.85, 1.0]))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=construction_cases(), seed=st.integers(0, 2**32 - 1))
def test_construction_matches_reference(case, seed):
    inst, mode, alpha = case
    cov = build_coverage(inst)
    for pick, want_pick in ((_RclPick(1.0, None), reference_greedy_pick),
                            (_RclPick(alpha, np.random.default_rng(seed)),
                             reference_rcl_pick(alpha, np.random.default_rng(seed)))):
        want_trace, got_trace = [], []
        want = reference_construct(inst, cov, mode, want_pick, want_trace)
        got, words = _construct(inst, cov, mode, pick, got_trace)
        assert got_trace == want_trace
        assert got.tolist() == want.tolist()
        np.testing.assert_array_equal(words, cov.cover_words(want))


@st.composite
def table_cases(draw):
    """Tiny instances from both generators; the hand-made ones have home
    charging (forced bits) and may start with open outlets."""
    J = draw(st.integers(1, 6))
    horizon = draw(st.integers(1, 4))
    max_outlets = draw(st.integers(1, 3))
    budget = draw(st.sampled_from([150.0, 200.0, 250.0, 400.0]))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        inst = generate_small_instance(seed, n_nodes=max(J, draw(st.integers(3, 8))),
                                       n_stations=J, horizon=horizon, max_outlets=max_outlets,
                                       max_scenarios=draw(st.integers(4, 40)), budget=budget)
    else:
        scenarios = draw(st.integers(1, 30))
        eps = np.random.default_rng(seed).normal(0.0, 1.5, (2 + J, scenarios, horizon))
        inst = manual_instance(n_stations=J, max_outlets=max_outlets, horizon=horizon,
                               scenarios=scenarios, kappa_station=4.0, eps=eps, home_kappa=4.5,
                               budget=budget, initial_outlets=draw(st.integers(0, 1)))
    return inst, draw(st.sampled_from([MYOPIC, HYPEROPTIC])), draw(st.sampled_from([0.0, 0.85, 1.0]))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=table_cases(), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
def test_shared_table_matches_fresh_tables(case, seed, n):
    """A state's RCL is cached under (period, levels, spend): the same levels
    reached with another spend in the period can afford other stations."""
    inst, mode, alpha = case
    cov = build_coverage(inst)

    def constructions(table):
        pick = _RclPick(alpha, np.random.default_rng(seed))
        out = []
        for _ in range(n):
            trace = []
            levels, words = _construct(inst, cov, mode, pick, trace, table=table)
            out.append((levels.tolist(), words.tolist(),
                        [(r["period"], r["station"], r["k"], r["score"]) for r in trace]))
        return out

    assert constructions(_ConstructTable(inst)) == constructions(None)
