"""Greedy, GRASP and local-search trajectories pinned against recorded runs.

`data/golden_trajectories.json` holds what commit a62c578 produced on three
oracle-desk-style instances: greedy picks, GRASP traces (30 solutions,
seed 1) and the local search's accepted moves from a seeded random start.
`data/golden_local_search_m4.json` holds the GRASP traces and local-search
moves that commit bf8b6c6 produced on three instances with up to 4 outlets
per station, so buy-up chains of several outlets are pinned too. No split is
accepted there; split candidates are pinned only by the moves they must not
displace.
`data/golden_longspan_n30.json` holds what commit 9d7f5ea produced at
LongSpan scale (`generate_network(30, seed=1)`, instance 0 of the LongSpan
dataset with base seed 1, 30 stations, 6 outlets, 10 periods): the GRASP-m
trace (4 solutions, seed 1) and the local-search moves from the random
starts `random_feasible_solution(inst, default_rng(s))`, s = 0 and 1.
Moves, picks and filter decisions must match exactly. Values are compared
to rel 1e-12, because another numpy/BLAS may round the last bit of a sum
differently.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from evcover.covering import build_coverage
from evcover.datasets import DatasetSpec, generate_dataset, generate_small_instance
from evcover.exact import random_feasible_solution
from evcover.heuristics import GraspConfig, GreedyConfig, _local_search, grasp, greedy
from evcover.network import generate_network

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_trajectories.json").read_text())
GOLDEN_M4 = json.loads((DATA / "golden_local_search_m4.json").read_text())
GOLDEN_LONGSPAN = json.loads((DATA / "golden_longspan_n30.json").read_text())
MODES = ("myopic", "hyperoptic")


def close(got, want):
    if want is None:
        return got is None or not np.isfinite(got)
    return got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def case(request):
    seed = int(request.param)
    inst = generate_small_instance(seed, n_nodes=12, n_stations=5, horizon=4, max_outlets=2,
                                   max_scenarios=15, budget=250.0)
    return seed, inst, build_coverage(inst), GOLDEN[request.param]


@pytest.fixture(scope="module", params=sorted(GOLDEN_M4))
def case_m4(request):
    seed = int(request.param)
    inst = generate_small_instance(seed, n_nodes=12, n_stations=5, horizon=4, max_outlets=4,
                                   budget=400.0)
    return seed, inst, build_coverage(inst), GOLDEN_M4[request.param]


@pytest.fixture(scope="module")
def case_longspan():
    inst = generate_dataset(DatasetSpec(kind="LongSpan", network=generate_network(30, seed=1),
                                        instance_count=1, base_seed=1))[0]
    return None, inst, build_coverage(inst), GOLDEN_LONGSPAN


@pytest.mark.parametrize("mode", MODES)
def test_greedy_picks(case, mode):
    _, inst, cov, golden = case
    want = golden[f"greedy-{mode}"]
    res = greedy(inst, cov, GreedyConfig(mode=mode))
    assert [[e["period"], e["station"], e["k"]] for e in res.trace] == want["picks"]
    assert all(close(e["score"], w) for e, w in zip(res.trace, want["scores"]))
    assert close(res.f, want["f"])


def check_grasp_trace(case, mode, max_solutions=30):
    _, inst, cov, golden = case
    want = golden[f"grasp-{mode}"]
    res = grasp(inst, cov, GraspConfig(mode=mode, max_solutions=max_solutions, seed=1))
    assert [e["filtered"] for e in res.trace] == want["filtered"]
    for e, c, a, i in zip(res.trace, want["constructed_f"], want["after_search_f"],
                          want["incumbent"]):
        assert close(e["constructed_f"], c)
        assert close(e.get("after_search_f"), a)
        assert close(e["incumbent"], i)
    assert res.x.levels.tolist() == want["levels"]
    assert close(res.f, want["f"])
    assert res.termination == want["termination"]


def check_local_search_moves(case, start_seed=None):
    seed, inst, cov, golden = case
    want = golden["local_search"]
    if start_seed is not None:
        seed, want = start_seed, want[str(start_seed)]
    x = random_feasible_solution(inst, np.random.default_rng(seed))
    assert x.levels.tolist() == want["start"]
    trace = []
    levels, f = _local_search(inst, cov, x.levels, trace=trace)
    assert [[e["period"], *e["move"]] for e in trace] == want["moves"]
    assert all(close(e["f"], w) for e, w in zip(trace, want["f_after_move"]))
    assert levels.tolist() == want["levels"]
    assert close(f, want["f"])


@pytest.mark.parametrize("mode", MODES)
def test_grasp_trace(case, mode):
    check_grasp_trace(case, mode)


def test_local_search_moves(case):
    check_local_search_moves(case)


@pytest.mark.parametrize("mode", MODES)
def test_grasp_trace_m4(case_m4, mode):
    check_grasp_trace(case_m4, mode)


def test_local_search_moves_m4(case_m4):
    check_local_search_moves(case_m4)


def test_grasp_trace_longspan(case_longspan):
    check_grasp_trace(case_longspan, "myopic", max_solutions=4)


@pytest.mark.parametrize("start_seed", [0, 1])
def test_local_search_moves_longspan(case_longspan, start_seed):
    check_local_search_moves(case_longspan, start_seed)
