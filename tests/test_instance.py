import json

import numpy as np
import pytest

from evcover.datasets import generate_small_instance
from evcover.exact import random_feasible_solution
from evcover.instance import (Instance, InstanceError, SolutionX, instance_from_json,
                              instance_to_json, load_instance, period_costs, save_instance,
                              validate_solution)

from conftest import manual_instance


def test_solution_cost_zero_solution():
    inst = manual_instance()
    assert period_costs(inst, SolutionX.zeros(inst).levels).tolist() == [0.0]


def test_solution_cost_open_to_six_outlets():
    # first outlet 150, each further 50: 150 + 5*50 = 400
    inst = manual_instance(max_outlets=6, budget=400.0)
    x = SolutionX.from_levels(np.array([[6]]), 6)
    assert period_costs(inst, x.levels)[0] == pytest.approx(400.0)


def test_solution_cost_matches_term_by_term_oracle():
    rng = np.random.default_rng(4)
    inst = generate_small_instance(13, n_stations=3, horizon=2)
    for _ in range(25):
        x = random_feasible_solution(inst, rng)
        levels = x.levels
        costs = period_costs(inst, levels)
        for t in range(1, inst.horizon + 1):
            total = 0.0
            for j in range(inst.n_stations):
                prev = inst.initial_levels[j] if t == 1 else levels[j, t - 2]
                for k in range(prev + 1, levels[j, t - 1] + 1):
                    total += inst.cost_budget.outlet_cost[j, k - 1, t - 1]
            assert costs[t - 1] == pytest.approx(total)


def test_solution_cost_rejects_ladder_violation():
    inst = manual_instance(max_outlets=2)
    bad = SolutionX(np.array([[[0], [1]]], dtype=np.int8))  # k=2 without k=1
    with pytest.raises(InstanceError, match="ladder"):
        period_costs(inst, bad.levels)


def test_validate_zero_solution_feasible():
    inst = manual_instance()
    report = validate_solution(inst, SolutionX.zeros(inst))
    assert report.ok and report.summary() == "feasible"


def test_validate_flags_ladder_violation_with_indices():
    inst = manual_instance(max_outlets=2)
    bad = SolutionX(np.array([[[0], [1]]], dtype=np.int8))
    report = validate_solution(inst, bad)
    assert (1, 2, 1) in report.ladder_violations


def test_validate_flags_persistence_violation():
    inst = manual_instance(max_outlets=2, horizon=2)
    levels = np.array([[1, 0]])  # outlet removed between periods
    report = validate_solution(inst, SolutionX.from_levels(levels, 2))
    assert (1, 1, 2) in report.persistence_violations


def test_validate_flags_budget_violation():
    inst = manual_instance(max_outlets=6, budget=300.0)
    x = SolutionX.from_levels(np.array([[6]]), 6)
    report = validate_solution(inst, x)
    assert report.budget_violations and report.budget_violations[0][0] == 1


def test_round_trip_is_byte_identical(tmp_path):
    inst = generate_small_instance(3)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert instance_to_json(loaded) == instance_to_json(inst)
    # structural equality of the error tensor survives
    for a, b in zip(inst.error_tensor, loaded.error_tensor):
        np.testing.assert_array_equal(a, b)


def test_load_rejects_negative_beta(tmp_path):
    inst = generate_small_instance(3)
    doc = json.loads(instance_to_json(inst))
    doc["classes"][0]["beta"][1][0][0] = -0.5
    with pytest.raises(InstanceError, match="non-negative"):
        instance_from_json(json.dumps(doc))


def test_load_rejects_truncated_file():
    inst = generate_small_instance(3)
    text = instance_to_json(inst)
    with pytest.raises(InstanceError, match="malformed"):
        instance_from_json(text[: len(text) // 2])


def test_load_rejects_schema_mismatch():
    with pytest.raises(InstanceError, match="schema"):
        instance_from_json(json.dumps({"schema": "something-else"}))


def test_total_outlets_nondecreasing_under_persistence():
    rng = np.random.default_rng(11)
    inst = generate_small_instance(17, horizon=2)
    for _ in range(20):
        x = random_feasible_solution(inst, rng)
        levels = x.levels
        assert (np.diff(levels, axis=1) >= 0).all()


def test_feasible_solution_cost_within_budget():
    rng = np.random.default_rng(2)
    inst = generate_small_instance(19, horizon=2)
    for _ in range(20):
        x = random_feasible_solution(inst, rng)
        assert (period_costs(inst, x.levels) <= inst.cost_budget.budgets + 1e-9).all()


def test_simple_kind_instance_round_trip(tmp_path):
    from evcover.datasets import DatasetSpec, generate_dataset
    from evcover.network import generate_network
    net = generate_network(12, seed=6)
    inst = generate_dataset(DatasetSpec("Simple", net, instance_count=1, base_seed=6))[0]
    path = tmp_path / "simple.json"
    save_instance(inst, path)
    assert instance_to_json(load_instance(path)) == instance_to_json(inst)
