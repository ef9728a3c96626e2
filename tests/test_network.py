import math

import numpy as np
import pytest

from evcover.datasets import generate_small_instance
from evcover.network import (Edge, Network, NetworkError, Node, generate_network,
                             load_network, network_from_text, network_to_text,
                             save_network)

from conftest import line_network


def bellman_ford(network, source):
    """Independent oracle: plain edge-relaxation shortest paths."""
    dist = {nid: math.inf for nid in network.node_ids}
    dist[source] = 0.0
    for _ in range(len(network.nodes)):
        changed = False
        for e in network.edges:
            for a, b in ((e.node_a, e.node_b), (e.node_b, e.node_a)):
                if dist[a] + e.length < dist[b]:
                    dist[b] = dist[a] + e.length
                    changed = True
        if not changed:
            break
    return dist


def distances_from(net, source):
    """One row of the distance matrix, keyed by node id."""
    return dict(zip(net.node_ids, net.distance_matrix([source])[0].tolist()))


def test_two_node_distance():
    net = line_network([3.0])
    assert distances_from(net, "n0") == {"n0": 0.0, "n1": 3.0}


def test_triangle_shortcut():
    nodes = [Node("n0", 0, 0, 1), Node("n1", 1, 0, 1), Node("n2", 2, 0, 1)]
    edges = [Edge("n0", "n1", 1.0), Edge("n1", "n2", 1.0), Edge("n0", "n2", 3.0)]
    net = Network(nodes, edges)
    assert distances_from(net, "n0")["n2"] == pytest.approx(2.0)


def test_matches_bellman_ford_on_random_geometric_graph():
    net = generate_network(50, seed=5)
    sources = ("n0", "n17", "n49")
    matrix = net.distance_matrix(sources)
    for row, source in zip(matrix, sources):
        want = bellman_ford(net, source)
        for nid, got in zip(net.node_ids, row):
            assert got == pytest.approx(want[nid], abs=1e-9)


def test_triangle_inequality_over_graph_metric():
    net = generate_network(30, seed=9)
    dist = net.distance_matrix(net.node_ids)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = rng.choice(len(net), size=3)
        assert dist[a, c] <= dist[a, b] + dist[b, c] + 1e-9


def test_disconnected_error_names_component():
    nodes = [Node("a", 0, 0, 1), Node("b", 1, 0, 1), Node("c", 9, 9, 1)]
    with pytest.raises(NetworkError, match=r"disconnected .*\['c'\]"):
        Network(nodes, [Edge("a", "b", 1.0)])


def test_invariant_validation():
    with pytest.raises(NetworkError, match="duplicate"):
        Network([Node("a", 0, 0, 1), Node("a", 1, 0, 1)], [])
    with pytest.raises(NetworkError, match="endpoint"):
        Network([Node("a", 0, 0, 1)], [Edge("a", "zz", 1.0)])
    with pytest.raises(NetworkError, match="length"):
        Network([Node("a", 0, 0, 1), Node("b", 1, 0, 1)], [Edge("a", "b", 0.0)])
    with pytest.raises(NetworkError, match="housing_mix"):
        Network([Node("a", 0, 0, 1, housing_mix=(0.5, 0.2, 0.2))], [])


def test_generator_properties():
    net = generate_network(60, seed=3)
    assert len(net) == 60
    n_center = sum(n.city_center for n in net.nodes)
    assert n_center == 6
    for n in net.nodes:
        assert sum(n.housing_mix) == pytest.approx(1.0, abs=1e-9)
        assert n.population > 0
    # deterministic
    again = generate_network(60, seed=3)
    assert network_to_text(net) == network_to_text(again)


def test_network_file_round_trip(tmp_path):
    net = generate_network(12, seed=1)
    path = tmp_path / "net.csv"
    save_network(net, path)
    loaded = load_network(path)
    assert network_to_text(loaded) == network_to_text(net)
    with pytest.raises(NetworkError, match="document"):
        network_from_text("not a network")


@pytest.mark.parametrize("section, row, cut, message", [
    ("[nodes]", 2, lambda r: r[:2], r"\[nodes\] row 2: 2 fields, expected 8"),
    ("[nodes]", 1, lambda r: [r[0], "east", *r[2:]], r"\[nodes\] row 1: could not convert"),
    ("[nodes]", 3, lambda r: [*r[:4], "yes", *r[5:]], r"\[nodes\] row 3: invalid literal"),
    ("[edges]", 1, lambda r: r + ["9"], r"\[edges\] row 1: 4 fields, expected 3"),
    ("[edges]", 2, lambda r: [*r[:2], ""], r"\[edges\] row 2: could not convert"),
])
def test_malformed_network_row_names_section_and_row(tmp_path, section, row, cut, message):
    lines = network_to_text(generate_network(6, seed=1)).splitlines()
    at = lines.index(section) + 1 + row  # after the section line and its header
    lines[at] = ",".join(cut(lines[at].split(",")))
    with pytest.raises(NetworkError, match=message):
        network_from_text("\n".join(lines))
    path = tmp_path / "net.csv"
    path.write_text("\n".join(lines))
    with pytest.raises(NetworkError, match=f"^{path}: "):
        load_network(path)


def test_two_node_network_has_one_edge():
    net = generate_network(2, seed=4)
    assert [(e.node_a, e.node_b) for e in net.edges] == [("n0", "n1")]
    assert distances_from(net, "n0")["n1"] == pytest.approx(net.edges[0].length)
    inst = generate_small_instance(1, n_nodes=2, n_stations=2)
    assert inst.n_stations == 2
