"""City network: zone centroids, Euclidean edges, a shortest-path distance matrix.

Nodes carry population and a housing mix (fractions of single / attached /
apartment dwellings); edges are undirected with lengths equal to the
Euclidean distance between their endpoints. All station-to-user distances
are graph shortest paths over these edge lengths, never straight lines
(`Network.distance_matrix`). Generated cities have lognormal node
populations with mean MEAN_POPULATION, and the CENTER_FRACTION of nodes
closest to the population-weighted centroid form the city centre.

Generated streets form the Gabriel graph of the nodes, found by an exact
empty-circle test over all pairs, and shortest paths run a heap Dijkstra
over per-node neighbour lists. Everything here is numpy and the standard
library: constructing, loading or generating a network and querying its
distances import no scipy.
"""

from __future__ import annotations

import csv
import functools
import heapq
import io
import math
from dataclasses import dataclass

import numpy as np

NETWORK_SCHEMA = "evcover-network-v1"

MEAN_POPULATION = 570.0
CENTER_FRACTION = 0.10


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float
    population: float
    city_center: bool = False
    housing_mix: tuple[float, float, float] = (1.0, 0.0, 0.0)  # single, attached, apartment


@dataclass(frozen=True)
class Edge:
    node_a: str
    node_b: str
    length: float  # km, Euclidean between endpoints


class NetworkError(ValueError):
    pass


class Network:
    """Undirected, connected graph of zones.

    Construction validates all structural invariants (unique ids, finite
    coordinates and populations, existing endpoints, finite positive
    lengths, no self-loops, no edge listed twice in either orientation,
    housing mixes in [0, 1] summing to 1, connectivity). The neighbour
    lists that `distance_matrix` searches are built on its first call and
    kept. Instances are immutable after construction and safe to share
    across threads.
    """

    def __init__(self, nodes, edges):
        self.nodes = tuple(nodes)
        self.node_ids = tuple(n.id for n in self.nodes)
        self.index_of = {nid: i for i, nid in enumerate(self.node_ids)}
        if len(self.index_of) != len(self.nodes):
            raise NetworkError("duplicate node ids")
        for n in self.nodes:
            for field in ("x", "y", "population"):
                if not math.isfinite(getattr(n, field)):
                    raise NetworkError(f"node {n.id}: {field} must be finite "
                                       f"(got {getattr(n, field)!r})")
            mix = n.housing_mix
            if len(mix) != 3 or not all(-1e-12 <= f <= 1 + 1e-12 for f in mix):
                raise NetworkError(f"node {n.id}: housing_mix fractions must lie in [0, 1] "
                                   f"(got {mix!r})")
            if abs(sum(mix) - 1.0) > 1e-9:
                raise NetworkError(f"node {n.id}: housing_mix must sum to 1 (got {sum(mix)!r})")
            if n.population < 0:
                raise NetworkError(f"node {n.id}: negative population")

        checked, pairs = [], set()
        for e in edges:
            if e.node_a not in self.index_of or e.node_b not in self.index_of:
                raise NetworkError(f"edge ({e.node_a}, {e.node_b}): unknown endpoint")
            if not 0 < e.length < math.inf:
                raise NetworkError(f"edge ({e.node_a}, {e.node_b}): length must be finite "
                                   f"and > 0 (got {e.length!r})")
            a, b = self.index_of[e.node_a], self.index_of[e.node_b]
            if a == b:
                raise NetworkError(f"edge ({e.node_a}, {e.node_b}): self-loop")
            pair = (a, b) if a < b else (b, a)
            if pair in pairs:
                raise NetworkError(f"edge ({e.node_a}, {e.node_b}): repeated; an earlier edge "
                                   f"already joins {e.node_a} and {e.node_b}")
            pairs.add(pair)
            checked.append(e)
        self.edges = tuple(checked)

        n = len(self.nodes)
        ncomp, labels = _component_labels(n, pairs)
        if n > 1 and ncomp != 1:
            sizes = np.bincount(labels)
            small = int(np.argmin(sizes))
            members = [self.node_ids[i] for i in range(n) if labels[i] == small]
            raise NetworkError(
                f"network is disconnected ({ncomp} components); smallest component: {members}"
            )

    def __len__(self):
        return len(self.nodes)

    @property
    def total_population(self):
        return float(sum(n.population for n in self.nodes))

    def node(self, node_id) -> Node:
        return self.nodes[self.index_of[node_id]]

    @functools.cached_property
    def _neighbours(self):
        """(neighbour index, edge length) lists per node, built on the first
        distance query. Threads that race on that query build equal lists;
        one is kept."""
        out = [[] for _ in self.nodes]
        for e in self.edges:
            a, b = self.index_of[e.node_a], self.index_of[e.node_b]
            out[a].append((b, e.length))
            out[b].append((a, e.length))
        return out

    def distance_matrix(self, source_ids):
        """Shortest-path km from each source node to every node, shape (len(sources), n)."""
        idx = [self.index_of[s] for s in source_ids]
        out = np.empty((len(idx), len(self.nodes)))
        for row, s in zip(out, idx):
            row[:] = _dijkstra(self._neighbours, s)
        return out


def _dijkstra(neighbours, source):
    """Shortest-path lengths from `source` (Dijkstra 1959, binary heap). Each
    distance is its predecessor's plus the edge length, summed in path order."""
    dist = [math.inf] * len(neighbours)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in neighbours[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _component_labels(n, pairs):
    """(component count, label of each node) of the undirected graph on nodes
    0..n-1 with edges `pairs`. Components are numbered in the order of their
    lowest node index, as scipy's connected_components numbers them."""
    neighbours = [[] for _ in range(n)]
    for a, b in pairs:
        neighbours[a].append(b)
        neighbours[b].append(a)
    labels = [-1] * n
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        stack = [start]
        while stack:
            for w in neighbours[stack.pop()]:
                if labels[w] < 0:
                    labels[w] = count
                    stack.append(w)
        count += 1
    return count, labels


def euclidean(n1: Node, n2: Node) -> float:
    return math.hypot(n1.x - n2.x, n1.y - n2.y)


_GABRIEL_NEAR = 6    # nearest points of each endpoint that a pair is screened against
_GABRIEL_BLOCK = 1 << 16  # float elements per array in one block of pair tests


def _outside(x, y, i, j, k):
    """True where point k lies outside the diametral circle of points i and j,
    or is i or j itself. i, j and k are index arrays that broadcast together.
    Each value is rounded as in the per-pair form mid = (p_i + p_j) / 2,
    rad2 = sum((p_i - p_j)**2) / 4, d2 = sum((p_k - mid)**2): a sum of two
    terms rounds the same in either order."""
    mx, my = (x[i] + x[j]) / 2.0, (y[i] + y[j]) / 2.0
    rad2 = ((x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2) / 4.0
    d2 = (x[k] - mx) ** 2 + (y[k] - my) ** 2
    return (d2 > rad2 - 1e-12) | (k == i) | (k == j)


def _nearest(x, y, k):
    """(n, k) indices of each point's k nearest other points, in no set order."""
    n = len(x)
    out = np.empty((n, k), dtype=np.intp)
    rows = max(1, _GABRIEL_BLOCK // n)
    for a in range(0, n, rows):
        b = min(n, a + rows)
        d = (x[a:b, None] - x) ** 2 + (y[a:b, None] - y) ** 2
        d[np.arange(b - a), np.arange(a, b)] = np.inf
        out[a:b] = np.argpartition(d, k - 1, axis=1)[:, :k]
    return out


def _gabriel_edges(points):
    """Gabriel graph edges (i, j), i < j, in lexicographic order: the pairs
    whose diametral circle holds no other point (Gabriel & Sokal 1969).

    A point k is inside when its squared distance to the pair's midpoint is at
    most the squared radius less 1e-12. The test runs in two stages, each over
    blocks of pairs so that memory stays bounded. First every pair is tested
    against its endpoints' _GABRIEL_NEAR nearest points; a point inside there
    is inside for the full test too. Then the few survivors are tested
    against every point. Inputs with exactly cocircular points, such as
    grids, are out of scope: `generate_network`, the only caller, draws
    random floats.
    """
    x, y = np.asarray(points, dtype=float).T
    n = len(x)
    near = _nearest(x, y, min(_GABRIEL_NEAR, n - 1))
    si, sj = [], []
    rows = max(1, _GABRIEL_BLOCK // (2 * near.shape[1] * n))
    for a in range(0, n - 1, rows):
        i = np.arange(a, min(n, a + rows))[:, None]
        j = np.arange(a + 1, n)
        k = np.concatenate(np.broadcast_arrays(near[i], near[j][None]), axis=-1)
        ii, jj = np.nonzero(_outside(x, y, i[..., None], j[:, None], k).all(axis=-1) & (i < j))
        si.append(ii + a)
        sj.append(jj + a + 1)
    i, j = np.concatenate(si)[:, None], np.concatenate(sj)[:, None]
    every, step = np.arange(n), max(1, _GABRIEL_BLOCK // n)
    keep = np.concatenate([_outside(x, y, i[a:a + step], j[a:a + step], every).all(axis=1)
                           for a in range(0, len(i), step)])
    return list(zip(i[keep, 0].tolist(), j[keep, 0].tolist()))


def generate_network(n_nodes, seed, width_km=30.0, height_km=22.0):
    """Seeded synthetic city: uniform nodes, Gabriel-graph edges, lognormal populations.

    The Gabriel graph contains the Euclidean minimum spanning tree, so the
    result is connected. Roughly CENTER_FRACTION of the nodes closest to
    the population-weighted centroid are flagged as city centre.
    """
    if n_nodes < 2:
        raise NetworkError("need at least two nodes")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA17]))
    pts = rng.random((n_nodes, 2)) * [width_km, height_km]
    sigma = 0.8
    pops = rng.lognormal(mean=math.log(MEAN_POPULATION) - sigma**2 / 2, sigma=sigma, size=n_nodes)
    mixes = rng.dirichlet([4.0, 2.0, 2.0], size=n_nodes)

    centroid = np.average(pts, axis=0, weights=pops)
    order = np.argsort(np.sum((pts - centroid) ** 2, axis=1))
    n_center = max(1, int(round(CENTER_FRACTION * n_nodes)))
    center = np.zeros(n_nodes, dtype=bool)
    center[order[:n_center]] = True

    nodes = [
        Node(
            id=f"n{i}",
            x=float(pts[i, 0]),
            y=float(pts[i, 1]),
            population=float(round(pops[i], 3)),
            city_center=bool(center[i]),
            housing_mix=tuple(float(round(f, 6)) for f in _renormalise(mixes[i])),
        )
        for i in range(n_nodes)
    ]
    edges = [
        Edge(f"n{i}", f"n{j}", euclidean(nodes[i], nodes[j])) for i, j in _gabriel_edges(pts)
    ]
    return Network(nodes, edges)


def _renormalise(fractions):
    f = np.clip(np.asarray(fractions, dtype=float), 0.0, 1.0)
    f = np.round(f, 6)
    f[0] = 1.0 - f[1] - f[2]
    return f


# -- network file: one document, [nodes] and [edges] CSV tables with headers --

_NODE_HEADER = ["id", "x_km", "y_km", "population", "city_center", "frac_single", "frac_attached", "frac_apartment"]
_EDGE_HEADER = ["node_a", "node_b", "length_km"]


def network_to_text(network: Network) -> str:
    buf = io.StringIO()
    buf.write(f"# {NETWORK_SCHEMA}\n[nodes]\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_NODE_HEADER)
    for n in network.nodes:
        w.writerow([n.id, repr(n.x), repr(n.y), repr(n.population), int(n.city_center),
                    repr(n.housing_mix[0]), repr(n.housing_mix[1]), repr(n.housing_mix[2])])
    buf.write("[edges]\n")
    w.writerow(_EDGE_HEADER)
    for e in network.edges:
        w.writerow([e.node_a, e.node_b, repr(e.length)])
    return buf.getvalue()


def network_from_text(text: str) -> Network:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(f"# {NETWORK_SCHEMA}"):
        raise NetworkError(f"not a {NETWORK_SCHEMA} document")
    sections: dict[str, list[str]] = {}
    current = None
    for ln in lines[1:]:
        if ln.strip() in ("[nodes]", "[edges]"):
            current = ln.strip()[1:-1]
            sections[current] = []
        elif current is not None and ln.strip():
            sections[current].append(ln)
    for required in ("nodes", "edges"):
        if required not in sections or not sections[required]:
            raise NetworkError(f"missing [{required}] table")

    def parse(section, header, make):
        rows = list(csv.reader(sections[section]))
        if rows[0] != header:
            raise NetworkError(f"bad {section[:-1]} header {rows[0]!r}")
        out = []
        for n, r in enumerate(rows[1:], start=1):
            if len(r) != len(header):
                raise NetworkError(f"[{section}] row {n}: {len(r)} fields, expected {len(header)}")
            try:
                out.append(make(r))
            except ValueError as exc:
                raise NetworkError(f"[{section}] row {n}: {exc}") from None
        return out

    nodes = parse("nodes", _NODE_HEADER, lambda r: Node(
        r[0], float(r[1]), float(r[2]), float(r[3]), bool(int(r[4])),
        (float(r[5]), float(r[6]), float(r[7]))))
    edges = parse("edges", _EDGE_HEADER, lambda r: Edge(r[0], r[1], float(r[2])))
    return Network(nodes, edges)


def save_network(network: Network, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(network_to_text(network))


def load_network(path) -> Network:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return network_from_text(fh.read())
    except UnicodeDecodeError as exc:
        raise NetworkError(f"{path}: not UTF-8 text: {exc}") from None
    except NetworkError as exc:
        raise NetworkError(f"{path}: {exc}") from None
