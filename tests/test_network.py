import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from evcover.datasets import generate_small_instance
from evcover.network import (_NODE_HEADER, Edge, Network, NetworkError, Node,
                             _component_labels, _gabriel_edges, generate_network, load_network,
                             network_from_text, network_to_text, save_network)

from conftest import line_network
from gabriel_reference import delaunay_gabriel_edges


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


@pytest.mark.parametrize("edges, message", [
    ([Edge("a", "b", 1.0), Edge("b", "a", 1.0), Edge("b", "c", 1.0)],
     r"edge \(b, a\): repeated; an earlier edge already joins b and a"),
    ([Edge("a", "b", 1.0), Edge("b", "c", 1.0), Edge("a", "b", 2.0)],
     r"edge \(a, b\): repeated; an earlier edge already joins a and b"),
])
def test_repeated_edge_is_refused(edges, message):
    # summed into one CSR entry, a repeat would double the edge's length
    nodes = [Node("a", 0, 0, 1), Node("b", 1, 0, 1), Node("c", 2, 0, 1)]
    with pytest.raises(NetworkError, match=message):
        Network(nodes, edges)


def test_self_loop_is_refused():
    nodes = [Node("a", 0, 0, 1), Node("b", 1, 0, 1)]
    with pytest.raises(NetworkError, match=r"edge \(b, b\): self-loop"):
        Network(nodes, [Edge("a", "b", 1.0), Edge("b", "b", 1.0)])


def test_repeated_edge_in_network_file_names_the_file(tmp_path):
    text = network_to_text(generate_network(6, seed=1))
    first_edge = text.splitlines()[text.splitlines().index("[edges]") + 2]
    a, b, length = first_edge.split(",")
    path = tmp_path / "net.csv"
    path.write_text(text + f"{b},{a},{length}\n")
    with pytest.raises(NetworkError, match=f"^{path}: edge \\({b}, {a}\\): repeated"):
        load_network(path)


def csr_of(net):
    """The symmetric CSR of edge lengths, built apart from the network's own."""
    rows = [net.index_of[e.node_a] for e in net.edges] + [net.index_of[e.node_b] for e in net.edges]
    cols = rows[len(net.edges):] + rows[:len(net.edges)]
    vals = [e.length for e in net.edges] * 2
    return csr_matrix((vals, (rows, cols)), shape=(len(net), len(net)))


@st.composite
def random_graphs(draw):
    """(n, edge index pairs): up to 14 nodes, isolated ones and several components included."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p))),
                         max_size=2 * n))
    return n, draw(st.permutations(sorted(pairs)))


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_component_labels_equal_scipy_connected_components(graph):
    n, pairs = graph
    rows = [a for a, _ in pairs]
    cols = [b for _, b in pairs]
    ncomp, labels = connected_components(
        csr_matrix((np.ones(len(pairs)), (rows, cols)), shape=(n, n)), directed=False)
    assert _component_labels(n, pairs) == (ncomp, labels.tolist())


@st.composite
def random_networks(draw):
    """Connected networks of up to 12 nodes: a random tree plus extra edges, random lengths."""
    n = draw(st.integers(2, 12))
    lengths = st.floats(0.01, 50.0)
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] < p[1]), max_size=n))
    nodes = [Node(f"n{i}", float(i), 0.0, 1.0) for i in range(n)]
    edges = [Edge(f"n{a}", f"n{b}", draw(lengths)) for a, b in sorted(pairs)]
    return Network(nodes, edges)


def assert_distances_equal_direct_dijkstra(net):
    want = dijkstra(csr_of(net), directed=False, indices=np.arange(len(net)))
    assert np.array_equal(net.distance_matrix(net.node_ids), want)


def test_distance_matrix_equals_direct_dijkstra_at_paper_scale():
    assert_distances_equal_direct_dijkstra(generate_network(317, seed=8))


@settings(max_examples=100, deadline=None)
@given(random_networks())
def test_distance_matrix_equals_direct_dijkstra_on_random_networks(net):
    assert_distances_equal_direct_dijkstra(net)


def test_neighbour_lists_are_built_on_first_distance_query_and_kept():
    net = generate_network(20, seed=3)
    rebuilt = Network(net.nodes, net.edges)
    assert "_neighbours" not in vars(rebuilt)
    first = rebuilt.distance_matrix(["n0"])
    lists = rebuilt._neighbours
    assert np.array_equal(rebuilt.distance_matrix(["n0"]), first)
    assert rebuilt._neighbours is lists
    assert sorted(len(ns) for ns in lists) == sorted(
        sum(e.node_a == nid or e.node_b == nid for e in net.edges) for nid in net.node_ids)


def test_distance_matrix_of_no_sources_is_empty():
    assert generate_network(5, seed=1).distance_matrix([]).shape == (0, 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field, message", [
    ("x", r"node n3: x must be finite"),
    ("y", r"node n3: y must be finite"),
    ("population", r"node n3: population must be finite"),
    ("frac_single", r"node n3: housing_mix fractions must lie in \[0, 1\]"),
    ("frac_attached", r"node n3: housing_mix fractions must lie in \[0, 1\]"),
    ("frac_apartment", r"node n3: housing_mix fractions must lie in \[0, 1\]"),
])
def test_non_finite_node_value_is_refused(tmp_path, field, message, bad):
    net = generate_network(12, seed=1)
    nodes = list(net.nodes)
    n3 = nodes[3]
    if field.startswith("frac_"):
        mix = list(n3.housing_mix)
        mix[_NODE_HEADER.index(field) - 5] = bad
        nodes[3] = replace(n3, housing_mix=tuple(mix))
    else:
        nodes[3] = replace(n3, **{field: bad})
    with pytest.raises(NetworkError, match=message):
        Network(nodes, net.edges)
    lines = network_to_text(net).splitlines()
    at = lines.index("[nodes]") + 2 + 3  # after the section line, its header and n0..n2
    row = lines[at].split(",")
    row[_NODE_HEADER.index({"x": "x_km", "y": "y_km"}.get(field, field))] = repr(bad)
    lines[at] = ",".join(row)
    path = tmp_path / "net.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NetworkError, match=f"^{path}: {message}"):
        load_network(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_edge_length_is_refused(tmp_path, bad):
    net = generate_network(12, seed=1)
    e = net.edges[4]
    message = rf"edge \({e.node_a}, {e.node_b}\): length must be finite and > 0"
    with pytest.raises(NetworkError, match=message):
        Network(net.nodes, [*net.edges[:4], replace(e, length=bad), *net.edges[5:]])
    lines = network_to_text(net).splitlines()
    at = lines.index("[edges]") + 2 + 4
    lines[at] = f"{e.node_a},{e.node_b},{bad!r}"
    path = tmp_path / "net.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NetworkError, match=f"^{path}: {message}"):
        load_network(path)


@st.composite
def generator_points(draw):
    """2-60 random points in one of the boxes `generate_network` draws from:
    its default 30 x 22 km city, or the 9 x 7 km desk-scale one."""
    n = draw(st.integers(2, 60))
    box = draw(st.sampled_from([(30.0, 22.0), (9.0, 7.0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((n, 2)) * box


@settings(max_examples=300, deadline=None)
@given(generator_points())
def test_gabriel_edges_equal_the_delaunay_reference(pts):
    assert _gabriel_edges(pts) == delaunay_gabriel_edges(pts)


@pytest.mark.parametrize("n, seed, sha256", [
    (317, 8, "7d29cd6a9d0c38077c476a42348a9012d27bd2ecd5ea83792206a9fe4cb9bd1f"),
    (80, 1, "b72c25e2ebb75e214428ca45b395780cdb43fe66330a507a7c22ded2deb72749"),
    (1000, 8, "a7104e1774573309295be206c7b6cc68d142f3c68ae2b4108024dada74417455"),
])
def test_generated_network_file_is_unchanged(n, seed, sha256):
    # recorded when the streets were Delaunay edges filtered by the same test
    text = network_to_text(generate_network(n, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
