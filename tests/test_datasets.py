import hashlib
import os
import sys
from pathlib import Path

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



# sha256 of every file the benchmark workloads' seed-1 set-ups write. Network
# construction and the distance queries generation makes must not change a byte.
SEED1_SETUP_SHA256 = {
    "oracle-desk": {
        "instance_000.json": "7f9b27582a194646ed1644eec3d1c97e1d4742a74ed56c0fce7b88ecaa000012",
        "instance_001.json": "cdb9767de94c86977109f7e3c204e6f6f3288674dd5d6751a8b1e7de728fe8d9",
        "instance_002.json": "dd110a2e71312a754ac2f156c0e4170b26678c943b6eed0c60ae6c5217af38bf",
        "instance_003.json": "7be7a4aef48b8fc88fe6e0a9fb60fd62fc11d5ed54a13824e9647fd7494aa376",
        "instance_004.json": "0c1c39cbe2264d1c68b196eecb51240ee0097dfbbe413cecfb651d90f6ea9505",
        "instance_005.json": "b1565644068379e9d1a7a0518fe925d0910e5bc80e1ee5ac458d05db4565192f",
        "manifest.json": "1cdc0a808cdd25767356b1559732d53c4d6cb41070c1c1a51d8cc3c588f5bef4",
    },
    "longspan-grasp": {
        "instance_000.json": "dc093670f8cad3364446cde52c1bc88bbab16198c787754aa82ccef86e6742b4",
        "manifest.json": "aa849f10011672aff5efffb1569ab94e1be54b1529dddb6d5dd3cfd54c735494",
        "network.csv": "78369dd1dd40cca8f3ea696da1d3570e7568866e0ee26a0c6891b9d2ea167443",
    },
    "formulations-tiny": {
        "instance_000.json": "5b641b88245c1c1461cff6f695b76f2d134083af816edb9ae67846639fc96fc7",
        "instance_001.json": "2db76365a4324539b5b975e8a05a11e1ec96ad305d1304fb28057adcac08993a",
        "instance_002.json": "fe5bbd15bd9f456a6ea15b0ca0682bb08d7886280b7f2c9c0d7292dd1c078ced",
        "instance_003.json": "2339269869d1e2520bb1f5adba15f2e69294a717303101b128f20a1fbddf3029",
        "instance_004.json": "5a67bd49609acfc6b0050a174c318d0cc8cb4c0c309e740e38d579b4e7304535",
        "instance_005.json": "064c7a5f156d2ede7c61c4a4bebefc70d9139b359b2e61109c46b2c8717de58d",
        "manifest.json": "d08f2356277dc50f2757841cbd65004ec31221301ea59aac6e1e6d155b495178",
    },
}


@pytest.mark.parametrize("workload", sorted(SEED1_SETUP_SHA256))
def test_benchmark_setup_files_are_unchanged(tmp_path, workload):
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.append(perfbench)
    import workloads

    workloads.generate(workloads.WORKLOADS[workload], 1, tmp_path)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in os.listdir(tmp_path)}
    assert got == SEED1_SETUP_SHA256[workload]
