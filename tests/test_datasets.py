import numpy as np
import pytest

from evcover.datasets import (DatasetSpec, generate_dataset, generate_small_dataset,
                              read_manifest, write_manifest)
from evcover.instance import HOME, OPT_OUT, InstanceError, instance_to_json
from evcover.network import Network, Edge, Node, generate_network


@pytest.fixture(scope="module")
def net40():
    return generate_network(40, seed=2)


def test_simple_dataset_parameters(net40):
    insts = generate_dataset(DatasetSpec("Simple", net40, instance_count=2, base_seed=1))
    assert len(insts) == 2
    inst = insts[0]
    assert inst.horizon == 4
    assert inst.n_stations == 10
    assert inst.n_classes == len(net40)
    assert (inst.max_outlets == 2).all()
    assert (inst.cost_budget.budgets == 400.0).all()
    assert (inst.cost_budget.outlet_cost[:, 0, :] == 150.0).all()
    assert (inst.cost_budget.outlet_cost[:, 1:, :] == 50.0).all()
    for ci, uc in enumerate(inst.user_classes):
        n_alts = len(inst.choice_sets.alternatives[ci])
        assert uc.scenario_count == 15 * n_alts
        assert 15 <= uc.scenario_count
        node = net40.node(uc.home_node)
        assert uc.populations[0] == pytest.approx(node.population * 0.1)


def test_instances_differ_only_in_errors(net40):
    a, b = generate_dataset(DatasetSpec("Simple", net40, instance_count=2, base_seed=1))
    assert [s.id for s in a.stations] == [s.id for s in b.stations]
    np.testing.assert_array_equal(a.utility_params.kappa[0], b.utility_params.kappa[0])
    assert not np.array_equal(a.error_tensor[0], b.error_tensor[0])


def test_generation_is_deterministic(net40):
    spec = DatasetSpec("Simple", net40, instance_count=1, base_seed=3)
    one = generate_dataset(spec)[0]
    two = generate_dataset(DatasetSpec("Simple", net40, instance_count=1, base_seed=3))[0]
    assert instance_to_json(one) == instance_to_json(two)


def test_home_charging_population_split():
    # one node all-apartment with population 100: access 100*0.4*0.1 = 4, rest 6
    nodes = [
        Node("n0", 0.0, 0.0, 100.0, housing_mix=(0.0, 0.0, 1.0)),
        *[Node(f"n{i}", float(i), 0.0, 50.0) for i in range(1, 12)],
    ]
    edges = [Edge(f"n{i}", f"n{i+1}", 1.0) for i in range(11)]
    net = Network(nodes, edges)
    inst = generate_dataset(DatasetSpec("HomeCharging", net, instance_count=1))[0]
    assert inst.n_classes == 2 * len(net)
    by_id = {uc.id: uc for uc in inst.user_classes}
    assert by_id["n0_home"].populations[0] == pytest.approx(4.0)
    assert by_id["n0_nohome"].populations[0] == pytest.approx(6.0)
    # with-access classes carry the home alternative and the 0.211 increments
    ci = [i for i, uc in enumerate(inst.user_classes) if uc.id == "n0_home"][0]
    assert HOME in inst.choice_sets.alternatives[ci]
    pos = inst.choice_sets.alt_index[ci][1]
    assert inst.utility_params.beta[ci][pos, 0, 0] == pytest.approx(0.211)
    cj = [i for i, uc in enumerate(inst.user_classes) if uc.id == "n0_nohome"][0]
    posj = inst.choice_sets.alt_index[cj][1]
    assert inst.utility_params.beta[cj][posj, 0, 0] == pytest.approx(0.351)


def test_long_span_parameters(net40):
    inst = generate_dataset(DatasetSpec("LongSpan", net40, instance_count=1))[0]
    assert inst.horizon == 10
    assert inst.n_stations == 30
    for ci, uc in enumerate(inst.user_classes):
        # no consideration radius: all 30 stations plus the opt-out
        assert len(inst.choice_sets.alternatives[ci]) == 31
        assert uc.scenario_count == 15 * 31 == 465


def test_price_classes_and_removal():
    # small populations: per-bracket population is pop*0.1/5, dropped when < 1
    nodes = [Node("n0", 0.0, 0.0, 30.0)] + [
        Node(f"n{i}", float(i), 0.0, 400.0) for i in range(1, 32)
    ]
    edges = [Edge(f"n{i}", f"n{i+1}", 1.0) for i in range(31)]
    net = Network(nodes, edges)
    inst = generate_dataset(DatasetSpec("Price", net, instance_count=1))[0]
    ids = {uc.id for uc in inst.user_classes}
    assert not any(i.startswith("n0_") for i in ids)  # 30*0.1/5 = 0.6 < 1 dropped
    assert sum(1 for i in ids if i.startswith("n1_")) == 5
    brackets = {uc.income_bracket for uc in inst.user_classes}
    assert brackets == {0, 1, 2, 3, 4}
    # price term moves kappa with t
    ci = [i for i, uc in enumerate(inst.user_classes) if uc.id == "n1_inc0"][0]
    kap = inst.utility_params.kappa[ci]
    pos = inst.choice_sets.alt_index[ci][1]
    assert kap[pos, 1] - kap[pos, 0] == pytest.approx(0.443 * (2 - (-2)) / 4)


def test_beta_nonnegative_and_scenario_rule(net40):
    for kind in ("Simple", "Distance", "HomeCharging"):
        inst = generate_dataset(DatasetSpec(kind, net40, instance_count=1))[0]
        for ci, uc in enumerate(inst.user_classes):
            assert (inst.utility_params.beta[ci] >= 0).all()
            assert uc.scenario_count == 15 * len(inst.choice_sets.alternatives[ci])


def test_small_dataset_shares_skeleton():
    insts = generate_small_dataset(5, 3)
    assert len({i.network.total_population for i in insts}) == 1
    assert not np.array_equal(insts[0].error_tensor[0], insts[1].error_tensor[0])


@pytest.mark.parametrize("n_stations", [0, -2])
def test_small_dataset_refuses_fewer_than_one_station(n_stations):
    with pytest.raises(InstanceError, match=f"n_stations={n_stations}"):
        generate_small_dataset(1, 1, n_stations=n_stations)


def test_manifest_round_trip(tmp_path):
    entries = [{"path": "instance_000.json", "seed": 4, "index": 0}]
    path = write_manifest(tmp_path, "Simple", 4, entries)
    doc = read_manifest(path)
    assert doc["kind"] == "Simple"
    assert doc["instances"] == entries

