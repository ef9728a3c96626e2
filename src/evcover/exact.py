"""The period-state DP oracle every other solver is measured against, plus
counting and random sampling of feasible schedules.

f is a sum of per-period covered masses, and which level vectors period t
may take depends only on the period t-1 levels. The optimum is therefore a
longest path over (period, level-vector) states: `brute_force_optimum` values
each reachable state once instead of evaluating every feasible schedule.

Only budget-saturated states are walked: level vectors where no station can
afford its next outlet. Prices are non-negative and coverage nests
(a[j][k] ⊆ a[j][k+1]), so the value-to-go is monotone in the level vector: if
s' >= s and c extends s, then max(c, s') extends s', costs no more and is
worth no less. Every extension is below a saturated one (add affordable
outlets until none is left), so the best saturated extension is a best
extension, and the optimum over saturated paths is the optimum. The DP's
backward pass and each period of the solver-less rolling horizon choose
through one step, `_best_extension` (a period's covered mass is monotone
too). `MAX_STATES` caps the reachable saturated states: the forward pass
refuses at the first state past it, before any state is valued.
"""

from __future__ import annotations

import itertools
import math
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


def period_extensions(base, step_cost, max_outlets, budget, saturated=False):
    """Every level vector >= base whose added outlets fit the budget, in
    lexicographic order, as an iterator. step_cost[j, k - 1] is the price of
    station j's k-th outlet and max_outlets[j] its ceiling. With `saturated`,
    only the vectors where no station can afford its next outlet: each
    station is at its ceiling, or the vector's spend plus its next price
    exceeds the budget.

    The vectors come in runs: an odometer steps through the affordable
    levels of all but the last GROWN_STATIONS stations, and each of its
    vectors is grown over those stations into one list. One run is held at a
    time, so the extensions can be counted, and refused, as they come. The
    saturated walk prunes inside both: a partial vector is dropped as soon as
    even the most the later stations can spend leaves room for its cheapest
    next outlet."""
    prices = np.asarray(step_cost).tolist()
    limit = float(budget) + BUDGET_TOL
    head = max(len(base) - GROWN_STATIONS, 0)
    prune = _saturation_bounds(base, prices, max_outlets, limit) if saturated else None
    starts = (_odometer(base[:head], prices, max_outlets, limit, prune) if head
              else (((), 0.0, math.inf),))
    return itertools.chain.from_iterable(_grown(start, base, head, prices, max_outlets, limit,
                                                prune)
                                         for start in starts)


def _saturation_bounds(base, prices, max_outlets, limit):
    """(reach, cut) of the saturated walk. reach[j] is the most stations j..
    can add above base. A partial vector of stations < j, spending s with
    cheapest next outlet g, can end saturated only if s + reach[j] + g > cut;
    cut sits below the final test's limit by more than any rounding of the
    sums, so the pruning drops no vector that test keeps."""
    reach = [0.0] * (len(base) + 1)
    for j in range(len(base) - 1, -1, -1):
        reach[j] = reach[j + 1] + sum(prices[j][base[j]:int(max_outlets[j])])
    return reach, limit - 1e-9 * (1.0 + abs(limit) + reach[0])


def _grown(start, base, head, prices, max_outlets, limit, prune=None):
    """The extensions of `start`, (levels of stations < head, their spend,
    their cheapest next outlet), over stations head.., in lexicographic
    order; with `prune` (see _saturation_bounds), the saturated ones only."""
    if prune is not None:
        return _grown_saturated(start, base, head, prices, max_outlets, limit, *prune)
    out = [start[:2]]  # (levels of the stations so far, their spend)
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


def _grown_saturated(start, base, head, prices, max_outlets, limit, reach, cut):
    out = [start]  # (levels of the stations so far, their spend, their cheapest next outlet)
    for j in range(head, len(base)):
        lv0, m_j, row, rest = base[j], int(max_outlets[j]), prices[j], reach[j + 1]
        grown = []
        for prefix, spent, gap in out:
            lv, add = lv0, 0.0
            while True:
                s = spent + add
                g = gap if lv == m_j or gap <= row[lv] else row[lv]
                if s + rest + g > cut:
                    grown.append((prefix + (lv,), s, g))
                if lv == m_j:
                    break
                add += row[lv]
                if spent + add > limit:
                    break
                lv += 1
        out = grown
    return [levels for levels, spent, gap in out if spent + gap > limit]


def _odometer(base, prices, max_outlets, limit, prune=None):
    """(levels, spend, cheapest next outlet) of every affordable level vector
    >= base, in lexicographic order: the last station turns fastest, and when
    a station cannot go up, the one before it does and every later one
    restarts from its base level. With `prune` (see _saturation_bounds), a
    station's level is skipped when its prefix cannot end saturated; the
    cheapest next outlet is tracked only then."""
    J = len(base)
    reach, cut = prune or (None, None)
    levels, added = list(base), [0.0] * J
    spent = [0.0] * (J + 1)        # spent[j]: of stations < j
    gap = [math.inf] * (J + 1)     # gap[j]: the cheapest next outlet of stations < j
    j = 0                          # stations < j hold prefixes that can end saturated
    while True:
        while j < J:
            spent[j + 1] = s = spent[j] + added[j]
            if reach is not None:
                lv = levels[j]
                g = gap[j] if lv == max_outlets[j] else min(gap[j], prices[j][lv])
                gap[j + 1] = g
                if s + reach[j + 1] + g <= cut:
                    break
            j += 1
        if j == J:
            yield tuple(levels), spent[J], gap[J]
            j -= 1
        while j >= 0:
            lv = levels[j]
            if lv < max_outlets[j]:
                add = added[j] + prices[j][lv]
                if spent[j] + add <= limit:
                    levels[j], added[j] = lv + 1, add
                    for k in range(j + 1, J):
                        levels[k], added[k] = base[k], 0.0
                    break
            j -= 1
        if j < 0:
            return


def _instance_extensions(instance, base, t_idx, saturated=False):
    """period_extensions under the instance's period-t_idx outlet costs and budget."""
    return period_extensions(base, instance.cost_budget.outlet_cost[:, :, t_idx],
                             instance.max_outlets, instance.cost_budget.budgets[t_idx],
                             saturated)


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
    """Forward pass of the DP: per period, the level vectors reachable along
    saturated extensions, as tuples, in the order first reached from the
    previous period's states (the initial levels for period 1). A
    previous-period state's saturated extensions are merged as they come,
    and EnumerationCapExceeded is raised as soon as the distinct states
    collected pass MAX_STATES."""
    layer = [_initial_state(instance)]
    layers, room = [], MAX_STATES   # room: the cap's share left for this layer
    for t_idx in range(instance.horizon):
        reached = {}
        for base in layer:
            for state in _instance_extensions(instance, base, t_idx, True):
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


def _best_extension(instance, base, t_idx, value):
    """The first strict maximiser of `value` over base's saturated period-t_idx
    extensions, and its value: a maximiser over all of them when `value` is
    monotone in the level vector (module docstring). Refused at option
    MAX_STATES + 1."""
    best, best_v = None, -math.inf
    for n, option in enumerate(_instance_extensions(instance, base, t_idx, True)):
        if n == MAX_STATES:
            raise EnumerationCapExceeded(MAX_STATES, f"options in period {t_idx + 1}")
        v = value(option)
        if v > best_v:
            best, best_v = option, v
    return best, best_v


def brute_force_optimum(instance: Instance, coverage: CoverageTensor):
    """Maximiser of f over all feasible schedules: among the schedules whose
    every period is a saturated extension of the one before, the first
    optimal one in enumeration order. Returns (SolutionX, f_star).

    Backward over the layers of `reachable_states`, V(s) is the period value
    of state s plus the best V among its saturated extensions, which is the
    best V among all its extensions (module docstring). Choosing each state's
    `_best_extension` under V and following the choices forward yields the
    lexicographically first saturated optimum. Each state is valued once;
    MAX_STATES caps the reachable states before any is valued."""
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
        steps = [_best_extension(instance, base, t - 1, lambda s: v[index[s]]) for base in parents]
        v_next = [best_v for _, best_v in steps]
        best_child[t - 1] = np.array([index[best] for best, _ in steps], dtype=np.int64)

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
