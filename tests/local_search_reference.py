"""The per-candidate local search, kept as the reference the batched
`heuristics._local_search` must reproduce move for move.

Each candidate schedule is built one at a time from the levels at the start
of its station's turn (a generator, so a station's later candidates ignore a
move accepted earlier in its own turn), checked against every budget with
`period_costs` and valued with `CoverageTensor.period_values`.
"""

import numpy as np

from evcover.heuristics import LOCAL_SEARCH_MIN_REL_GAIN
from evcover.instance import BUDGET_TOL, period_costs


def schedule_feasible(instance, levels):
    return bool((period_costs(instance, levels) <= instance.cost_budget.budgets + BUDGET_TOL).all())


def buy_up(instance, j, start_level, pool, tau):
    cost = instance.cost_budget.outlet_cost
    m_j = instance.stations[j].max_outlets
    lv = start_level
    while lv < m_j and pool >= cost[j, lv, tau] - BUDGET_TOL:
        pool -= cost[j, lv, tau]
        lv += 1
    return lv, pool


def rebuy(instance, levels, t_idx, freed_from, groups, share):
    """Put the stations in `freed_from` back to their period-(t-1) level from
    t on and spend what they had bought, period by period: each group gets
    `share` of a period's amount, and its stations buy up in order, each
    passing its leftover to the next. None when nothing was freed."""
    cost = instance.cost_budget.outlet_cost
    T = levels.shape[1]
    before = levels[:, t_idx - 1] if t_idx > 0 else instance.initial_levels
    new = levels.copy()
    freed = 0.0
    for j in freed_from:
        bought = np.zeros(T - t_idx)
        prev = int(before[j])
        for tau in range(t_idx, T):
            cur = int(levels[j, tau])
            for k in range(prev + 1, cur + 1):
                bought[tau - t_idx] += cost[j, k - 1, tau]
            prev = max(prev, cur)
        freed = freed + bought
        new[j, t_idx:] = before[j]
    if freed.sum() <= 0:
        return None
    carry = {j: int(before[j]) for group in groups for j in group}
    for tau in range(t_idx, T):
        for group in groups:
            pool = share * freed[tau - t_idx]
            for j in group:
                lv, pool = buy_up(instance, j, max(int(new[j, tau]), carry[j]), pool, tau)
                new[j, tau] = carry[j] = lv
    return new


def candidate_moves(instance, levels, t_idx, j):
    """Add, then Transfer to every other station, then Split with every later
    one, all built from `levels` as passed in; None is a move that does not
    apply."""
    J = instance.n_stations
    lv = int(levels[j, t_idx])
    if lv < instance.stations[j].max_outlets:
        add = levels.copy()
        add[j, t_idx:] = np.maximum(add[j, t_idx:], lv + 1)
        yield ("add", j, None), add
    if lv < 1:
        return
    for jp in range(J):
        if jp != j:
            yield ("transfer", j, jp), rebuy(instance, levels, t_idx, (j,), ((jp, j),), 1.0)
    for jp in range(j + 1, J):
        new = rebuy(instance, levels, t_idx, (j, jp), ((j,), (jp,)), 0.5)
        both_open = new is not None and new[j, t_idx] >= 1 and new[jp, t_idx] >= 1
        yield ("split", j, jp), new if both_open else None


def reference_local_search(instance, coverage, levels, trace=None):
    levels = levels.copy()
    values = coverage.period_values(levels)
    f_cur = float(values.sum())
    for t in range(1, instance.horizon + 1):
        t_idx = t - 1
        while True:
            pass_start = f_cur
            for j in range(instance.n_stations):
                for move, cand in candidate_moves(instance, levels, t_idx, j):
                    if cand is None or not schedule_feasible(instance, cand):
                        continue
                    tail = coverage.period_values(cand, t)
                    d = float(tail.sum() - values[t_idx:].sum())
                    if d > 1e-12:
                        levels, values[t_idx:] = cand, tail
                        f_cur += d
                        if trace is not None:
                            trace.append({"period": t, "move": move, "f": f_cur})
            gained = f_cur - pass_start
            rel = (gained / pass_start) if pass_start > 0 else (np.inf if gained > 0 else 0.0)
            if rel < LOCAL_SEARCH_MIN_REL_GAIN:
                break
    return levels, f_cur
