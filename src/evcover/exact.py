"""The period-state DP oracle every other solver is measured against, plus
counting and random sampling of feasible schedules.

f is a sum of per-period covered masses, and which level vectors period t
may take depends only on the period t-1 levels. The optimum is therefore a
longest path over (period, level-vector) states: `brute_force_optimum` values
each reachable state once instead of evaluating every feasible schedule.
`MAX_STATES` caps the reachable states: the forward pass refuses at the first
state past it, before any state is valued.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .covering import CoverageTensor, evaluate
from .instance import BUDGET_TOL, Instance, SolutionX, period_costs

GROWN_STATIONS = 5  # period_extensions grows this many trailing stations per run

# Reachable (period, level-vector) states of the DP oracle, and options of one
# period for the solver-less rolling horizon, refused past this. The oracle's
# peak RSS grows by about 335 bytes per state at 30 stations (270 at 10), so
# the cap admits at most ~1.3 GB.
MAX_STATES = 4_000_000


class EnumerationCapExceeded(RuntimeError):
    def __init__(self, cap, what):
        super().__init__(f"more than {cap} {what}")
        self.cap = cap


def period_extensions(base, step_cost, max_outlets, budget):
    """Every level vector >= base whose added outlets fit the budget, in
    lexicographic order, as an iterator. step_cost[j, k - 1] is the price of
    station j's k-th outlet and max_outlets[j] its ceiling.

    The vectors come in runs: an odometer steps through the affordable
    levels of all but the last GROWN_STATIONS stations, and each of its
    vectors is grown over those stations into one list. One run is held at a
    time, so the extensions can be counted, and refused, as they come."""
    prices = np.asarray(step_cost).tolist()
    limit = float(budget) + BUDGET_TOL
    head = max(len(base) - GROWN_STATIONS, 0)
    starts = _odometer(base[:head], prices, max_outlets, limit) if head else (((), 0.0),)
    return itertools.chain.from_iterable(_grown(start, base, head, prices, max_outlets, limit)
                                         for start in starts)


def _grown(start, base, head, prices, max_outlets, limit):
    """The extensions of `start`, (levels of stations < head, their spend),
    over stations head.., in lexicographic order."""
    out = [start]  # (levels of the stations so far, their spend)
    for j in range(head, len(base)):
        lv0, m_j, row = base[j], int(max_outlets[j]), prices[j]
        grown = []
        for prefix, spent in out:
            lv, add = lv0, 0.0
            grown.append((prefix + (lv,), spent))
            while lv < m_j:
                add += row[lv]
                if spent + add > limit:
                    break
                lv += 1
                grown.append((prefix + (lv,), spent + add))
        out = grown
    return [levels for levels, _ in out]


def _odometer(base, prices, max_outlets, limit):
    """(levels, spend) of every affordable level vector >= base, in
    lexicographic order: the last station turns fastest, and when a station
    cannot go up, the one before it does and every later one restarts from
    its base level."""
    J = len(base)
    levels, added, spent = list(base), [0.0] * J, [0.0] * (J + 1)  # spent[j]: of stations < j
    while True:
        yield tuple(levels), spent[J]
        j = J - 1
        while j >= 0:
            lv = levels[j]
            if lv < max_outlets[j]:
                add = added[j] + prices[j][lv]
                if spent[j] + add <= limit:
                    levels[j], added[j], spent[j + 1] = lv + 1, add, spent[j] + add
                    for k in range(j + 1, J):
                        levels[k], added[k], spent[k + 1] = base[k], 0.0, spent[k]
                    break
            j -= 1
        if j < 0:
            return


def _instance_extensions(instance, base, t_idx):
    """period_extensions under the instance's period-t_idx outlet costs and budget."""
    return period_extensions(base, instance.cost_budget.outlet_cost[:, :, t_idx],
                             instance.max_outlets, instance.cost_budget.budgets[t_idx])


def count_feasible(instance: Instance) -> int:
    """Number of feasible schedules (independent of enumeration order)."""

    @lru_cache(maxsize=None)
    def count_from(t_idx, base):
        if t_idx == instance.horizon:
            return 1
        return sum(count_from(t_idx + 1, opt)
                   for opt in _instance_extensions(instance, base, t_idx))

    return count_from(0, tuple(instance.initial_levels))


def reachable_states(instance: Instance):
    """Forward pass of the DP: per period, the reachable level vectors as
    tuples, in the order first reached from the previous period's states (the
    initial levels for period 1). A previous-period state's extensions are
    merged as they come, and EnumerationCapExceeded is raised as soon as the
    distinct states collected pass MAX_STATES."""
    layer = [_initial_state(instance)]
    layers, room = [], MAX_STATES   # room: the cap's share left for this layer
    for t_idx in range(instance.horizon):
        reached = {}
        for base in layer:
            for state in _instance_extensions(instance, base, t_idx):
                reached[state] = None
                if len(reached) > room:
                    raise EnumerationCapExceeded(MAX_STATES,
                                                 f"reachable states by period {t_idx + 1}")
        layer = list(reached)
        room -= len(layer)
        layers.append(layer)
    return layers


def _initial_state(instance):
    return tuple(int(v) for v in instance.initial_levels)


def brute_force_optimum(instance: Instance, coverage: CoverageTensor):
    """Maximiser of f over all feasible schedules; ties go to the first in
    enumeration order. Returns (SolutionX, f_star).

    Backward over the layers of `reachable_states`, V(s) is the period value
    of state s plus the best V among its extensions. Keeping the first strict
    maximum in period_extensions order and following the best choices forward
    yields the lexicographically first optimal schedule. Each state is valued
    once; MAX_STATES caps the reachable states before any is valued."""
    layers = reachable_states(instance)
    T = len(layers)
    best_child = [None] * T
    v_next = None  # per state of period t: best V over its period-(t + 1) extensions
    for t in range(T, 0, -1):
        states = layers[t - 1]
        v = [coverage.value_of_words(coverage.held_words(s, t, t), t, t) for s in states]
        if v_next is not None:
            v = [a + b for a, b in zip(v, v_next)]
        index = {s: i for i, s in enumerate(states)}
        parents = layers[t - 2] if t > 1 else [_initial_state(instance)]
        v_next, choice = [], []
        for base in parents:
            kids = [index[e] for e in _instance_extensions(instance, base, t - 1)]
            vals = [v[k] for k in kids]
            best = max(vals)
            v_next.append(best)
            choice.append(kids[vals.index(best)])
        best_child[t - 1] = np.array(choice, dtype=np.int64)

    levels = np.zeros((instance.n_stations, T), dtype=int)
    i = 0
    for t_idx in range(T):
        i = int(best_child[t_idx][i])
        levels[:, t_idx] = layers[t_idx][i]
    max_k = int(instance.max_outlets.max()) if instance.n_stations else 0
    x = SolutionX.from_levels(levels, max_k)
    return x, float(evaluate(instance, coverage, x))


def random_feasible_solution(instance: Instance, rng) -> SolutionX:
    """A random feasible schedule: per period, add affordable outlets at random
    stations until a random stop or the budget runs out."""
    J, T = instance.n_stations, instance.horizon
    levels = np.repeat(instance.initial_levels[:, None], T, axis=1)
    cost = instance.cost_budget.outlet_cost
    for t in range(T):
        if t > 0:
            levels[:, t] = levels[:, t - 1]
        spent = 0.0
        budget = instance.cost_budget.budgets[t]
        while True:
            cands = [
                j for j in range(J)
                if levels[j, t] < instance.stations[j].max_outlets
                and spent + cost[j, levels[j, t], t] <= budget + BUDGET_TOL
            ]
            if not cands or rng.random() < 0.25:
                break
            j = int(rng.choice(cands))
            spent += cost[j, levels[j, t], t]
            levels[j, t] += 1
    assert (period_costs(instance, levels) <= instance.cost_budget.budgets + BUDGET_TOL).all()
    max_k = int(instance.max_outlets.max()) if J else 0
    return SolutionX.from_levels(levels, max_k)
