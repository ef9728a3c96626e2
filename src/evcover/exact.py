"""Exhaustive enumeration of feasible outlet schedules, and the brute-force
optimum used as the oracle for every other solver. Desk scale only."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covering import CoverageTensor, evaluate
from .instance import Instance, SolutionX, period_costs


@dataclass(frozen=True)
class EnumerationBudget:
    max_configurations: int = 10_000_000

    def __post_init__(self):
        if self.max_configurations < 1:
            raise ValueError("max_configurations must be positive")


class EnumerationCapExceeded(RuntimeError):
    def __init__(self, count, cap):
        super().__init__(
            f"feasible state space has {count} schedules, over the cap of {cap}"
        )
        self.count = count
        self.cap = cap


def period_extensions(base, step_cost, max_outlets, budget):
    """All level vectors >= base whose added outlets fit the budget, in
    lexicographic order. step_cost[j, k - 1] is the price of station j's k-th
    outlet and max_outlets[j] its ceiling."""
    J = len(base)
    out = []

    def extend(j, current, spent):
        if j == J:
            out.append(tuple(current))
            return
        m_j = max_outlets[j]
        lv = base[j]
        add = 0.0
        while True:
            current.append(lv)
            extend(j + 1, current, spent + add)
            current.pop()
            lv += 1
            if lv > m_j:
                break
            add += step_cost[j, lv - 1]
            if spent + add > budget + 1e-9:
                break

    extend(0, [], 0.0)
    return out


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


def enumerate_feasible(instance: Instance, budget: EnumerationBudget | None = None):
    """Yield every feasible SolutionX exactly once, lexicographic over the
    per-period outlet-count vectors. Refuses up front when the state space
    exceeds the enumeration budget."""
    budget = budget or EnumerationBudget()
    total = count_feasible(instance)
    if total > budget.max_configurations:
        raise EnumerationCapExceeded(total, budget.max_configurations)
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


def brute_force_optimum(instance: Instance, coverage: CoverageTensor,
                        budget: EnumerationBudget | None = None):
    """Maximiser of f over all feasible schedules; ties go to the first in
    enumeration order. Returns (SolutionX, f_star)."""
    best_x, best_f = None, -np.inf
    for x in enumerate_feasible(instance, budget):
        f = evaluate(instance, coverage, x)
        if f > best_f:
            best_x, best_f = x, f
    return best_x, float(best_f)


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
                and spent + cost[j, levels[j, t], t] <= budget + 1e-9
            ]
            if not cands or rng.random() < 0.25:
                break
            j = int(rng.choice(cands))
            spent += cost[j, levels[j, t], t]
            levels[j, t] += 1
    assert (period_costs(instance, levels) <= instance.cost_budget.budgets + 1e-9).all()
    max_k = int(instance.max_outlets.max()) if J else 0
    return SolutionX.from_levels(levels, max_k)
