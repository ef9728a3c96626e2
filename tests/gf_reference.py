"""The solver-less GF search as it was before it walked open patterns only,
kept as the reference `growth._solve_gf_by_enumeration` must reproduce: every
cumulative outlet schedule up to each station's `max_outlets`, valued by the
forward recursion, keeping the first strict maximum."""

import numpy as np

from evcover.exact import period_extensions
from evcover.growth import GfSolution, gf_forward_recursion


def full_walk_gf(gf_inst):
    """(best schedule, schedule prefixes visited)."""
    T = gf_inst.horizon
    step_cost = np.full((len(gf_inst.station_ids), int(gf_inst.max_outlets.max())),
                        gf_inst.outlet_cost)
    step_cost[:, 0] += np.where(gf_inst.initial_outlets == 0, gf_inst.opening_cost, 0.0)
    best, best_total, count = None, -np.inf, 0

    def walk(t, levels):
        nonlocal best, best_total, count
        if t == T:
            outlets = np.array(levels, dtype=int).T
            sol = GfSolution(open=outlets > 0, outlets=outlets)
            total = gf_forward_recursion(gf_inst, sol).yearly_totals[-1]
            if total > best_total:
                best, best_total = sol, total
            return
        base = levels[-1] if levels else tuple(int(v) for v in gf_inst.initial_outlets)
        for opt in period_extensions(base, step_cost, gf_inst.max_outlets, gf_inst.budgets[t]):
            count += 1
            levels.append(opt)
            walk(t + 1, levels)
            levels.pop()

    walk(0, [])
    return best, count
