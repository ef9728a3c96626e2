"""The construction, which grows the covered bits of a pick in place, against
the one that recomputed them after every pick (`construction_reference.py`):
same picks, scores, levels and covered bits, in both modes."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evcover.covering import build_coverage
from evcover.datasets import generate_small_instance
from evcover.heuristics import HYPEROPTIC, MYOPIC, _construct, _rcl_pick

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
    for pick, want_pick in ((_rcl_pick(1.0, None), reference_greedy_pick),
                            (_rcl_pick(alpha, np.random.default_rng(seed)),
                             reference_rcl_pick(alpha, np.random.default_rng(seed)))):
        want_trace, got_trace = [], []
        want = reference_construct(inst, cov, mode, want_pick, want_trace)
        got, words = _construct(inst, cov, mode, pick, got_trace)
        assert got_trace == want_trace
        assert got.tolist() == want.tolist()
        np.testing.assert_array_equal(words, cov.cover_words(want))
