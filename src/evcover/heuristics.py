"""Greedy, GRASP and rolling-horizon heuristics over the coverage tensor.

All heuristics work on outlet-count schedules (levels[j, t]) and only ever
emit feasible solutions. Greedy is deterministic; GRASP is reproducible from
its seed; rolling horizon delegates each period to the external solver (or
to per-period enumeration, capped by the default `EnumerationBudget`, when no
solver is configured).

The search rules are fixed: the GRASP restricted candidate list keeps the
additions whose gain is at least alpha times the best gain; the local search
takes the first improving move and leaves a period once a pass gains less
than LOCAL_SEARCH_MIN_REL_GAIN of f; the GRASP filter switches on after
FILTER_WARMUP searched candidates; geometric rolling-horizon allocation gives
period 1 FIRST_PERIOD_SHARE_S seconds and halves it every period.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .covering import CoverageTensor, evaluate
from .exact import EnumerationBudget, _instance_extensions
from .instance import BUDGET_TOL, Instance, SolutionX, period_costs
from .milp import build_mc_period, extract_solution_x
from .solver import resolve_solver_command, solve_external

MYOPIC = "myopic"
HYPEROPTIC = "hyperoptic"

FILTER_WARMUP = 10                 # searched candidates before the GRASP filter acts
LOCAL_SEARCH_MIN_REL_GAIN = 1e-4   # a period's search stops below this relative gain
FIRST_PERIOD_SHARE_S = 3600.0      # geometric allocation: period 1, halved every period


class HeuristicError(RuntimeError):
    pass


@dataclass
class GreedyConfig:
    mode: str = MYOPIC  # ties break to the lowest station index, then lowest k

    def __post_init__(self):
        if self.mode not in (MYOPIC, HYPEROPTIC):
            raise ValueError(f"unknown search mode {self.mode!r}")


@dataclass
class GraspConfig:
    """GRASP settings. The rules the loop applies are constants: value RCL
    (gain >= alpha * best gain), first-improvement local search stopping
    below LOCAL_SEARCH_MIN_REL_GAIN, and the filter after FILTER_WARMUP
    searched candidates."""

    alpha: float = 0.85
    mode: str = MYOPIC
    max_solutions: int = 300
    max_filtered: int = 500
    time_limit_s: float = 7200.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.mode not in (MYOPIC, HYPEROPTIC):
            raise ValueError(f"unknown search mode {self.mode!r}")


@dataclass
class RollingHorizonConfig:
    allocation: str = "even"          # or "geometric"
    total_time_limit_s: float = 7200.0

    def __post_init__(self):
        if self.allocation not in ("even", "geometric"):
            raise ValueError("allocation must be 'even' or 'geometric'")


@dataclass
class HeuristicResult:
    x: SolutionX
    f: float
    wall_time: float
    trace: list = field(default_factory=list)
    termination: str = "completed"


# -- shared internals -----------------------------------------------------------


def _initial_levels(instance):
    return np.repeat(instance.initial_levels[:, None], instance.horizon, axis=1)


def _construct(instance, coverage, mode, select, trace=None, clock=None):
    """Common greedy skeleton: per period, repeatedly add one affordable outlet
    chosen by `select` from the positive-score candidates, until no candidate
    remains or no candidate gains anything."""
    J, T = instance.n_stations, instance.horizon
    levels = _initial_levels(instance)
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
                              "k": lv + 1, "score": float(gains[pick]),
                              "elapsed": 0.0 if clock is None else time.perf_counter() - clock})
    max_k = int(instance.max_outlets.max()) if J else 0
    return levels, SolutionX.from_levels(levels, max_k)


def _greedy_pick(gains):
    if gains.size == 0 or gains.max() <= 0.0:
        return None
    return int(np.argmax(gains))  # first max = lowest station index


def greedy(instance: Instance, coverage: CoverageTensor, config: GreedyConfig | None = None
           ) -> HeuristicResult:
    """Deterministic outlet-at-a-time construction from the zero solution."""
    config = config or GreedyConfig()
    start = time.perf_counter()
    trace = []
    _, x = _construct(instance, coverage, config.mode, _greedy_pick, trace, start)
    f = evaluate(instance, coverage, x)
    for row in trace:
        row["f"] = None
    if trace:
        trace[-1]["f"] = f
    return HeuristicResult(x, f, time.perf_counter() - start, trace,
                           termination="completed")


def grasp_construct(instance, coverage, alpha, mode, rng) -> SolutionX:
    """Randomised construction: pick uniformly from the restricted candidate
    list of positive-gain additions within alpha of the best. With alpha = 1
    the greedy tie-break applies, so the output is exactly the greedy
    solution."""
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

    _, x = _construct(instance, coverage, mode, pick)
    return x


def grasp_filter(candidate_f, incumbent_f, max_observed_rel_increase) -> bool:
    """True when the candidate should be filtered out (no local search): its
    projected post-search value cannot beat the incumbent. During warmup
    (max rel increase still undefined) everything is kept."""
    if max_observed_rel_increase is None:
        return False
    return candidate_f * max_observed_rel_increase <= incumbent_f


# -- local search ----------------------------------------------------------------


def _schedule_feasible(instance, levels):
    return bool((period_costs(instance, levels) <= instance.cost_budget.budgets + BUDGET_TOL).all())


def _buy_up(instance, j, start_level, pool, tau):
    cost = instance.cost_budget.outlet_cost
    m_j = instance.stations[j].max_outlets
    lv = start_level
    while lv < m_j and pool >= cost[j, lv, tau] - BUDGET_TOL:
        pool -= cost[j, lv, tau]
        lv += 1
    return lv, pool


def _rebuy(instance, levels, t_idx, freed_from, groups, share):
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
        # station j's increments from t on, each in the period it was bought
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
                lv, pool = _buy_up(instance, j, max(int(new[j, tau]), carry[j]), pool, tau)
                new[j, tau] = carry[j] = lv
    return new


def _candidate_moves(instance, levels, t_idx, j):
    """Add, then Transfer to every other station, then Split with every later
    one, all built from `levels` as passed in, even after the caller accepts
    one; None is a move that does not apply. Transfer and Split need j open
    in period t, and a Split must leave both stations open there."""
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
            yield ("transfer", j, jp), _rebuy(instance, levels, t_idx, (j,), ((jp, j),), 1.0)
    for jp in range(j + 1, J):
        new = _rebuy(instance, levels, t_idx, (j, jp), ((j,), (jp,)), 0.5)
        both_open = new is not None and new[j, t_idx] >= 1 and new[jp, t_idx] >= 1
        yield ("split", j, jp), new if both_open else None


def _local_search(instance, coverage, levels, deadline=None, trace=None):
    """Add / Transfer / Split moves, period by period, taking the first
    improving move; never worsens f and never leaves the feasible set
    (infeasible moves are discarded). Returns the searched levels and f."""
    levels = levels.copy()
    values = coverage.period_values(levels)  # per period, refreshed on every accepted move
    f_cur = float(values.sum())
    T = instance.horizon

    for t in range(1, T + 1):
        t_idx = t - 1
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                return levels, f_cur
            pass_start = f_cur
            for j in range(instance.n_stations):
                for move, cand in _candidate_moves(instance, levels, t_idx, j):
                    if cand is None or not _schedule_feasible(instance, cand):
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


# -- GRASP -------------------------------------------------------------------------


def grasp(instance: Instance, coverage: CoverageTensor, config: GraspConfig | None = None
          ) -> HeuristicResult:
    """Construct / filter / locally-improve loop with incumbent tracking.

    Terminates when max_solutions candidates have been examined, max_filtered
    candidates have been filtered out, or the time limit is reached.
    """
    config = config or GraspConfig()
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    deadline = start + config.time_limit_s
    max_k = int(instance.max_outlets.max())

    incumbent, incumbent_f = None, -np.inf
    examined = filtered = 0
    warmup_ratios: list[float] = []
    max_rel = None
    trace = []
    termination = "max_solutions"
    while True:
        if examined >= config.max_solutions:
            termination = "max_solutions"
            break
        if filtered >= config.max_filtered:
            termination = "max_filtered"
            break
        if time.perf_counter() >= deadline:
            termination = "time_limit"
            break
        x_c = grasp_construct(instance, coverage, config.alpha, config.mode, rng)
        examined += 1
        f_c = evaluate(instance, coverage, x_c)
        if grasp_filter(f_c, incumbent_f, max_rel):
            filtered += 1
            trace.append({"iteration": examined, "constructed_f": f_c, "filtered": True,
                          "incumbent": incumbent_f,
                          "elapsed": time.perf_counter() - start})
            continue
        levels, f_ls = _local_search(instance, coverage, x_c.levels, deadline=deadline)
        if max_rel is None:
            if f_c > 0:
                warmup_ratios.append(f_ls / f_c)
            if len(warmup_ratios) >= FILTER_WARMUP:
                max_rel = max(warmup_ratios)
        if f_ls > incumbent_f:
            incumbent, incumbent_f = levels, f_ls
        trace.append({"iteration": examined, "constructed_f": f_c, "filtered": False,
                      "after_search_f": f_ls, "incumbent": incumbent_f,
                      "elapsed": time.perf_counter() - start})

    # f of the incumbent, not the local search's running sum of deltas, which
    # can drift from it in the last bits
    x = SolutionX.zeros(instance) if incumbent is None else SolutionX.from_levels(incumbent, max_k)
    return HeuristicResult(x, evaluate(instance, coverage, x), time.perf_counter() - start,
                           trace, termination=termination)


# -- rolling horizon ------------------------------------------------------------------


def _period_time_limits(config: RollingHorizonConfig, T):
    if config.allocation == "even":
        return [config.total_time_limit_s / T] * T
    limits, remaining = [], config.total_time_limit_s
    share = FIRST_PERIOD_SHARE_S
    for _ in range(T):
        lim = min(share, remaining)
        limits.append(lim)
        remaining -= lim
        share /= 2.0
    return limits


def rolling_horizon(instance: Instance, coverage: CoverageTensor,
                    config: RollingHorizonConfig | None = None,
                    solver=None) -> HeuristicResult:
    """Fix one period at a time: solve the period-t MC restriction under its
    time share, freeze the outcome, move on. Each period model carries the
    previous configuration as fixed lower bounds, which is also its warm
    start. Falls back to per-period enumeration when no solver is configured
    and the period state space fits the enumeration budget."""
    config = config or RollingHorizonConfig()
    start = time.perf_counter()
    T = instance.horizon
    limits = _period_time_limits(config, T)
    command = resolve_solver_command(solver)
    levels = _initial_levels(instance)
    base = instance.initial_levels.copy()
    trace = []
    for t in range(1, T + 1):
        if command is not None:
            model = build_mc_period(instance, coverage, t, base)
            result = solve_external(model, command, time_limit_s=limits[t - 1])
            if not result.ok:
                raise HeuristicError(
                    f"period {t}: solver failed with status {result.status} ({result.detail})")
            x_t = extract_solution_x(instance, result.values)
            new_levels = x_t.levels[:, t - 1]
            trace.append({"period": t, "limit_s": limits[t - 1], "status": result.status,
                          "objective": result.objective, "wall_time": result.wall_time})
        else:
            new_levels = _best_period_by_enumeration(instance, coverage, t, base)
            trace.append({"period": t, "limit_s": limits[t - 1], "status": "enumerated",
                          "objective": None, "wall_time": None})
        levels[:, t - 1:] = new_levels[:, None]
        base = new_levels
    max_k = int(instance.max_outlets.max())
    x = SolutionX.from_levels(levels, max_k)
    f = evaluate(instance, coverage, x)
    return HeuristicResult(x, f, time.perf_counter() - start, trace,
                           termination="completed")


def _best_period_by_enumeration(instance, coverage, t, base):
    options = _instance_extensions(instance, tuple(int(v) for v in base), t - 1)
    if len(options) > EnumerationBudget().max_configurations:
        raise HeuristicError(
            f"period {t}: no solver configured and {len(options)} period states "
            f"exceed the enumeration budget")
    best_v, best = -np.inf, None
    for opt in options:
        v = coverage.value_of_words(coverage.held_words(opt, t, t), t, t)
        if v > best_v:
            best_v, best = v, opt
    return np.asarray(best, dtype=int)
