"""The greedy construction as it was before the batched one, kept as the
reference `heuristics._construct` must reproduce pick for pick.

Candidates are collected station by station, and after every pick the
covered bits are recomputed from the level vector with
`CoverageTensor.held_words` instead of being grown in place. The restricted
candidate list is drawn from with `rng.choice`.
"""

import numpy as np

from evcover.heuristics import MYOPIC
from evcover.instance import BUDGET_TOL


def reference_construct(instance, coverage, mode, select, trace=None):
    J, T = instance.n_stations, instance.horizon
    levels = np.repeat(instance.initial_levels[:, None], T, axis=1)
    cost = instance.cost_budget.outlet_cost
    budgets = instance.cost_budget.budgets
    for t in range(1, T + 1):
        if t > 1:
            levels[:, t - 1] = levels[:, t - 2]
        spent = 0.0
        t_to = t if mode == MYOPIC else T
        held = coverage.held_words(levels[:, t - 1], t, t_to)
        while True:
            cand_j, cand_rows = [], []
            for j in range(J):
                lv = int(levels[j, t - 1])
                if lv < instance.stations[j].max_outlets \
                        and spent + cost[j, lv, t - 1] <= budgets[t - 1] + BUDGET_TOL:
                    cand_j.append(j)
                    cand_rows.append(coverage.slot(j, lv + 1))
            if not cand_j:
                break
            gains = coverage.slot_gains(cand_rows, held, t, t_to)
            pick = select(gains)
            if pick is None:
                break
            j = cand_j[pick]
            lv = int(levels[j, t - 1])
            spent += cost[j, lv, t - 1]
            levels[j, t - 1] = lv + 1
            held = coverage.held_words(levels[:, t - 1], t, t_to)
            if trace is not None:
                trace.append({"period": t, "station": instance.stations[j].id,
                              "k": lv + 1, "score": float(gains[pick]), "elapsed": 0.0})
    return levels


def reference_rcl_pick(alpha, rng):
    def pick(gains):
        if gains.size == 0:
            return None
        best = gains.max()
        if best <= 0.0:
            return None
        if alpha >= 1.0:
            return int(np.argmax(gains))
        rcl = np.flatnonzero((gains > 0.0) & (gains >= alpha * best - 1e-12))
        return int(rng.choice(rcl))
    return pick


def reference_greedy_pick(gains):
    """Greedy's pick before it became `_RclPick(1.0, None)`: None when no
    gain is positive, else the first best gain (lowest station index)."""
    if gains.size == 0 or gains.max() <= 0.0:
        return None
    return int(np.argmax(gains))
