import numpy as np
import pytest

from evcover.covering import build_coverage, evaluate
from evcover.datasets import generate_small_dataset, generate_small_instance
from evcover import exact
from evcover.exact import EnumerationCapExceeded, _instance_extensions, count_feasible
from evcover.instance import (CostBudget, ChoiceSets, Instance, SolutionX, Station, UserClass,
                             UtilityParams)
from evcover.network import Edge, Network, Node


def line_network(lengths=(3.0,), populations=None):
    """Nodes on a line: n0 - n1 - ... with the given edge lengths."""
    xs = np.concatenate([[0.0], np.cumsum(lengths)])
    populations = populations or [100.0] * len(xs)
    nodes = [Node(f"n{i}", float(x), 0.0, populations[i]) for i, x in enumerate(xs)]
    edges = [Edge(f"n{i}", f"n{i+1}", float(L)) for i, L in enumerate(lengths)]
    return Network(nodes, edges)


def manual_instance(*, n_stations=1, max_outlets=2, horizon=1, scenarios=1,
                    kappa_station=2.0, kappa_optout=4.5, beta=0.281,
                    eps=None, budget=400.0, populations=(100.0,),
                    initial_outlets=0, cost_first=150.0, cost_later=50.0,
                    home_kappa=None, not_considered=()):
    """Tiny hand-specified instance: one user class at n0, stations on n1..

    max_outlets: one cap for every station, or one per station.
    not_considered: (station id, period) pairs, periods 1-based, where the
    class leaves that station out of C1; each station must stay in C1 in
    some other period.
    eps: optional (n_alts, R, T) array; zero when omitted. Alternative order
    is opt-out, then home (if home_kappa given), then stations 1..n.
    """
    caps = np.broadcast_to(max_outlets, (n_stations,))
    net = line_network([1.0] * max(n_stations, 1))
    stations = [Station(id=j + 1, node_id=f"n{j+1}", max_outlets=int(m),
                        initial_outlets=initial_outlets) for j, m in enumerate(caps)]
    sids = [s.id for s in stations]
    exo = [0, -1] if home_kappa is not None else [0]
    uc = UserClass(id="c0", home_node="n0", populations=tuple(populations) * horizon
                   if len(populations) == 1 else tuple(populations),
                   has_home_charging=home_kappa is not None,
                   scenario_count=scenarios, consideration_radius=None)
    c1 = [[j for j in sids if (j, t) not in not_considered] for t in range(1, horizon + 1)]
    choice = ChoiceSets([[list(exo)] * horizon], [c1])
    n_alts = len(exo) + n_stations
    K = int(np.max(max_outlets))
    kap = np.zeros((n_alts, horizon))
    kap[0, :] = kappa_optout
    row = 1
    if home_kappa is not None:
        kap[1, :] = home_kappa
        row = 2
    kap[row:, :] = kappa_station
    bet = np.zeros((n_alts, K, horizon))
    bet[row:, :, :] = beta
    if eps is None:
        eps = np.zeros((n_alts, scenarios, horizon))
    cost = CostBudget.uniform(n_stations, K, horizon, cost_first, cost_later, budget)
    return Instance(network=net, stations=stations, user_classes=[uc], horizon=horizon,
                    cost_budget=cost, utility_params=UtilityParams([kap], [bet]),
                    choice_sets=choice, error_tensor=[eps],
                    metadata={"dataset_kind": "manual", "seed": 0})


def enumerate_feasible(instance):
    """Yield every feasible SolutionX exactly once, lexicographic over the
    per-period outlet-count vectors. Refuses up front when there are more
    feasible schedules than exact.MAX_STATES."""
    if count_feasible(instance) > exact.MAX_STATES:
        raise EnumerationCapExceeded(exact.MAX_STATES, "feasible schedules")
    max_k = int(instance.max_outlets.max()) if instance.n_stations else 0
    T = instance.horizon

    def walk(t_idx, chosen):
        if t_idx == T:
            levels = np.array(chosen, dtype=int).T  # (J, T)
            yield SolutionX.from_levels(levels, max_k)
            return
        base = chosen[-1] if chosen else tuple(instance.initial_levels)
        for opt in _instance_extensions(instance, base, t_idx):
            chosen.append(opt)
            yield from walk(t_idx + 1, chosen)
            chosen.pop()

    yield from walk(0, [])


def enumeration_optimum(instance, coverage):
    """Reference oracle: evaluate every feasible schedule in enumeration order
    and keep the first strict maximum. Returns (SolutionX, f_star)."""
    best_x, best_f = None, -np.inf
    for x in enumerate_feasible(instance):
        f = evaluate(instance, coverage, x)
        if f > best_f:
            best_x, best_f = x, f
    return best_x, float(best_f)


@pytest.fixture(scope="session")
def small_instance():
    return generate_small_instance(7)


@pytest.fixture(scope="session")
def small_coverage(small_instance):
    return build_coverage(small_instance)


@pytest.fixture(scope="session")
def small_dataset():
    return generate_small_dataset(21, 4, horizon=3, max_scenarios=8)
