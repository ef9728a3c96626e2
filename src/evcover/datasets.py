"""Benchmark dataset generators and dataset manifests.

The five kinds share one table of structural parameters (horizon, candidate
stations, outlet caps, budgets, costs) and differ in user-class construction,
ASC formulas, outlet-increment benefits and nesting. Every instance of a
dataset shares the network, stations, classes and parameters; only the error
tensor changes with the instance index. The scenario count of a class is
always 15 times the size of its combined choice set.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import (DATASET_KINDS, OPT_OUT_ASC, ErrorSimError, compute_asc,
                     draw_errors, three_nest_spec, two_nest_spec)
from .instance import (HOME, OPT_OUT, ChoiceSets, CostBudget, Instance, InstanceError,
                       Station, UserClass, UtilityParams)
from .network import Network, generate_network

SCENARIOS_PER_ALTERNATIVE = 15
POPULATION_FACTOR = 0.1
HOME_ACCESS_BY_DWELLING = (0.90, 0.75, 0.40)  # single, attached, apartment

_KIND_TABLE = {
    #            T   |M|  m_j  radius   beta        beta_home
    "Simple":       (4, 10, 2, 10.0, 0.281, None),
    "Distance":     (4, 10, 6, 10.0, 0.281, None),
    "HomeCharging": (4, 10, 6, 10.0, 0.351, 0.211),
    "LongSpan":     (10, 30, 6, None, 0.281, None),
    "Price":        (4, 30, 6, None, 0.281, None),
}
BUDGET_PER_PERIOD = 400.0
COST_FIRST_OUTLET = 150.0
COST_LATER_OUTLET = 50.0
HOME_ASC_OFFSET = 0.5  # kappa_home = kappa_optout + offset (not from the source data)


@dataclass
class DatasetSpec:
    kind: str
    network: Network
    instance_count: int = 20
    base_seed: int = 0

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ErrorSimError(f"unknown dataset kind {self.kind!r}")
        if self.instance_count < 0:
            raise ErrorSimError("instance_count must be >= 0")


@dataclass
class _Skeleton:
    user_classes: tuple
    choice_sets: ChoiceSets
    horizon: int


def _place_stations(network, n_stations, max_outlets, seed):
    """Candidate stations spread by farthest-point sampling (seeded start, then
    greedy max-min graph distance), and their distances to every node."""
    if n_stations < 1:
        raise InstanceError(f"need at least one station, got n_stations={n_stations}")
    if n_stations > len(network):
        raise InstanceError(f"need {n_stations} station nodes, network has {len(network)}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x57A7]))
    chosen = [int(rng.integers(len(network)))]
    rows = [network.distance_matrix([network.node_ids[chosen[0]]])[0]]
    dist_to_chosen = rows[0]
    while len(chosen) < n_stations:
        nxt = int(np.argmax(dist_to_chosen))
        chosen.append(nxt)
        rows.append(network.distance_matrix([network.node_ids[nxt]])[0])
        dist_to_chosen = np.minimum(dist_to_chosen, rows[-1])
    stations = [Station(id=si + 1, node_id=network.node_ids[i], max_outlets=max_outlets)
                for si, i in enumerate(chosen)]
    return stations, np.stack(rows)  # (|M|, n_nodes)


def _build_classes(spec: DatasetSpec, station_dist, station_ids):
    """User classes plus their per-period choice sets, per dataset kind."""
    kind = spec.kind
    T, _, _, radius, _, _ = _KIND_TABLE[kind]
    net = spec.network
    classes, c0, c1 = [], [], []

    def add(uc, exo, considered):
        classes.append(uc)
        c0.append([list(exo)] * T)
        c1.append([list(considered)] * T)

    for ni, node in enumerate(net.nodes):
        if radius is None:
            considered = list(station_ids)
        else:
            considered = [sid for si, sid in enumerate(station_ids)
                          if station_dist[si, ni] <= radius]
        n_considered = len(considered)

        if kind in ("Simple", "Distance", "LongSpan"):
            pop = node.population * POPULATION_FACTOR
            add(UserClass(id=f"{node.id}", home_node=node.id, populations=(pop,) * T,
                          scenario_count=SCENARIOS_PER_ALTERNATIVE * (1 + n_considered),
                          consideration_radius=radius),
                (OPT_OUT,), considered)
        elif kind == "HomeCharging":
            access = node.population * sum(
                f * a for f, a in zip(node.housing_mix, HOME_ACCESS_BY_DWELLING))
            pop_home = access * POPULATION_FACTOR
            pop_nohome = node.population * POPULATION_FACTOR - pop_home
            add(UserClass(id=f"{node.id}_home", home_node=node.id,
                          populations=(pop_home,) * T, has_home_charging=True,
                          scenario_count=SCENARIOS_PER_ALTERNATIVE * (2 + n_considered),
                          consideration_radius=radius),
                (OPT_OUT, HOME), considered)
            add(UserClass(id=f"{node.id}_nohome", home_node=node.id,
                          populations=(pop_nohome,) * T,
                          scenario_count=SCENARIOS_PER_ALTERNATIVE * (1 + n_considered),
                          consideration_radius=radius),
                (OPT_OUT,), considered)
        elif kind == "Price":
            # census income columns are out of scope: equal fifths per node
            for bracket in range(5):
                pop = node.population * POPULATION_FACTOR / 5.0
                if pop < 1.0:
                    continue
                add(UserClass(id=f"{node.id}_inc{bracket}", home_node=node.id,
                              populations=(pop,) * T, income_bracket=bracket,
                              scenario_count=SCENARIOS_PER_ALTERNATIVE * (1 + n_considered),
                              consideration_radius=radius),
                    (OPT_OUT,), considered)
    return classes, c0, c1


def generate_dataset(spec: DatasetSpec) -> list[Instance]:
    """All instances of one dataset; they differ only in the error-tensor seed."""
    T, n_stations, m_j, _, _, _ = _KIND_TABLE[spec.kind]
    net = spec.network
    if net.total_population <= 0:
        raise InstanceError("network has no population")
    stations, station_dist = _place_stations(net, n_stations, m_j, spec.base_seed)
    classes, c0, c1 = _build_classes(spec, station_dist, [s.id for s in stations])
    cost_budget = CostBudget.uniform(n_stations, m_j, T, COST_FIRST_OUTLET,
                                     COST_LATER_OUTLET, BUDGET_PER_PERIOD)
    return _assemble(spec.kind, spec.kind, _Skeleton(tuple(classes), ChoiceSets(c0, c1), T),
                     net, stations, station_dist, cost_budget, spec.base_seed,
                     spec.instance_count)


def _assemble(kind, label, skeleton, net, stations, station_dist, cost_budget, seed,
              count):
    """Utilities, nest spec and error draws of one dataset kind, and its
    `count` Instances, which differ only in the error draw keyed (seed, index).
    `label` is the dataset kind recorded in the metadata."""
    _, _, _, _, beta_val, beta_home = _KIND_TABLE[kind]
    T = skeleton.horizon
    m_j = max(s.max_outlets for s in stations)
    kappa, beta = [], []
    for ci, uc in enumerate(skeleton.user_classes):
        alts = skeleton.choice_sets.alternatives[ci]
        ni = net.index_of[uc.home_node]
        kap = np.zeros((len(alts), T))
        bet = np.zeros((len(alts), m_j, T))
        b_inc = beta_home if (beta_home is not None and uc.has_home_charging) else beta_val
        for pos, alt in enumerate(alts):
            if alt == OPT_OUT:
                kap[pos, :] = OPT_OUT_ASC
            elif alt == HOME:
                kap[pos, :] = OPT_OUT_ASC + HOME_ASC_OFFSET
            else:
                st = stations[alt - 1]
                center = net.node(st.node_id).city_center
                dist = station_dist[alt - 1, ni]
                for t in range(1, T + 1):
                    kap[pos, t - 1] = compute_asc(kind, st, uc, t, dist, city_center=center)
                bet[pos, :, :] = b_inc
        kappa.append(kap)
        beta.append(bet)

    station_ids = [s.id for s in stations]
    nest = (three_nest_spec(station_ids) if kind == "HomeCharging"
            else two_nest_spec(station_ids))
    params = UtilityParams(kappa, beta)
    return [Instance(network=net, stations=stations, user_classes=skeleton.user_classes,
                     horizon=T, cost_budget=cost_budget, utility_params=params,
                     choice_sets=skeleton.choice_sets,
                     error_tensor=draw_errors(skeleton, nest, (seed, idx)),
                     metadata={"dataset_kind": label, "seed": seed,
                               "instance_index": idx})
            for idx in range(count)]


def generate_small_instance(seed, n_nodes=8, n_stations=3, horizon=2, max_outlets=2,
                            max_scenarios=12, budget=None) -> Instance:
    """A desk-scale instance for oracle work: Simple-style utilities, custom sizes.

    Scenario counts are drawn in [4, max_scenarios] instead of following the
    15-per-alternative rule so exhaustive enumeration stays cheap.
    """
    return generate_small_dataset(seed, 1, n_nodes=n_nodes, n_stations=n_stations,
                                  horizon=horizon, max_outlets=max_outlets,
                                  max_scenarios=max_scenarios, budget=budget)[0]


def generate_small_dataset(seed, count, n_nodes=8, n_stations=3, horizon=2,
                           max_outlets=2, max_scenarios=12, budget=None) -> list[Instance]:
    """Desk-scale instances sharing one network and skeleton, differing only
    in the error-tensor draw (like the benchmark datasets). Utilities, nests
    and errors are those of kind Simple; every class considers every station."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7171]))
    net = generate_network(n_nodes, seed=int(seed) + 991, width_km=9.0, height_km=7.0)
    stations, station_dist = _place_stations(net, n_stations, max_outlets, seed)
    station_ids = [s.id for s in stations]

    if budget is None:
        budget = float(rng.choice([200.0, 250.0, 300.0, 400.0]))
    cost_budget = CostBudget.uniform(n_stations, max_outlets, horizon,
                                     COST_FIRST_OUTLET, COST_LATER_OUTLET, budget)

    classes, c0, c1 = [], [], []
    for node in net.nodes:
        pop = max(1.0, node.population * POPULATION_FACTOR)
        R = int(rng.integers(4, max_scenarios + 1))
        classes.append(UserClass(id=node.id, home_node=node.id, populations=(pop,) * horizon,
                                 scenario_count=R, consideration_radius=None))
        c0.append([[OPT_OUT]] * horizon)
        c1.append([list(station_ids)] * horizon)
    skeleton = _Skeleton(tuple(classes), ChoiceSets(c0, c1), horizon)
    return _assemble("Simple", "small", skeleton, net, stations, station_dist, cost_budget,
                     int(seed), count)


# -- manifests ------------------------------------------------------------

MANIFEST_SCHEMA = "evcover-manifest-v1"
MANIFEST_NAME = "manifest.json"


def write_manifest(out_dir, kind, base_seed, entries):
    doc = {"schema": MANIFEST_SCHEMA, "kind": kind, "base_seed": base_seed,
           "instances": entries}
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def read_manifest(path):
    """The manifest document; InstanceError when it cannot be read, is not
    JSON, or is not a manifest whose instances all name a path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InstanceError(f"cannot read manifest {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
        raise InstanceError(f"not a {MANIFEST_SCHEMA} document: {path}")
    entries = doc.get("instances")
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("path"), str) for e in entries):
        raise InstanceError(f"{path}: instances must be a list of entries with a path")
    return doc
