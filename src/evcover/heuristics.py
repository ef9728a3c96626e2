"""Greedy, GRASP and rolling-horizon heuristics over the coverage tensor.

All heuristics work on outlet-count schedules (levels[j, t]) and only ever
emit feasible solutions. Greedy is deterministic; GRASP is reproducible from
its seed; rolling horizon takes the exact DP's period step in each period
(the period's best budget-saturated extension), and hands a period to the
configured solver only when it has more than `exact.MAX_STATES` options.

The search rules are fixed: the GRASP restricted candidate list keeps the
additions whose gain is at least alpha times the best gain; the local search
takes the first improving move and leaves a period once a pass gains less
than LOCAL_SEARCH_MIN_REL_GAIN of f; the GRASP filter acts after FILTER_WARMUP
searched candidates and stops GRASP at MAX_FILTERED filtered ones; geometric
rolling-horizon allocation gives period 1 FIRST_PERIOD_SHARE_S seconds, or
half the total time limit when that is less, and halves it every period, so
every period gets a positive share and the shares stay within the total.
Only a period that goes to the solver uses its share.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covering import CoverageTensor, SwapBasis, evaluate
from .exact import EnumerationCapExceeded, _best_extension
from .instance import BUDGET_TOL, Instance, SolutionX, period_costs
from .milp import build_mc_period, extract_solution_x
from .solver import resolve_solver_command, solve_external

MYOPIC = "myopic"
HYPEROPTIC = "hyperoptic"

FILTER_WARMUP = 10                 # searched candidates before the GRASP filter acts
MAX_FILTERED = 500                 # GRASP stops after this many filtered candidates
LOCAL_SEARCH_MIN_REL_GAIN = 1e-4   # a period's search stops below this relative gain
FIRST_PERIOD_SHARE_S = 3600.0      # geometric allocation: period 1 at most, halved every period


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
    below LOCAL_SEARCH_MIN_REL_GAIN, the filter after FILTER_WARMUP searched
    candidates, and the stop after MAX_FILTERED filtered ones."""

    alpha: float = 0.85
    mode: str = MYOPIC
    max_solutions: int = 300
    time_limit_s: float = 7200.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.mode not in (MYOPIC, HYPEROPTIC):
            raise ValueError(f"unknown search mode {self.mode!r}")
        _check_time_limit("time_limit_s", self.time_limit_s)


@dataclass
class RollingHorizonConfig:
    allocation: str = "even"          # or "geometric"
    total_time_limit_s: float = 7200.0

    def __post_init__(self):
        if self.allocation not in ("even", "geometric"):
            raise ValueError("allocation must be 'even' or 'geometric'")
        _check_time_limit("total_time_limit_s", self.total_time_limit_s)


def _check_time_limit(name, seconds):
    """A NaN limit would slip past every comparison, and a limit of zero or
    less would end a run before it starts or reach a solver as no limit."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"{name} must be a positive, finite number of seconds, not {seconds!r}")


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


class _ConstructTable:
    """One run's construction tables: the price of each station's next
    outlet, per level and period, the period limits, and what each
    construction state scored so far led to.

    A state is (period, levels.tobytes(), spend). Its levels fix the covered
    bits and so the gains, and its spend fixes which stations can still
    afford an outlet, so the state fixes its restricted candidate list (RCL):
    the stations, their gains and their slot rows. A state with no RCL ends
    its period, and the table holds that period's covered words instead. The
    table serves one mode and one pick rule, as a run has."""

    def __init__(self, instance):
        cost = instance.cost_budget.outlet_cost
        J, K, T = cost.shape
        self.price = np.full((J, K + 1, T), np.inf)      # of the outlet after k; inf past m_j
        self.price[:, :K] = np.where(np.arange(K)[:, None] < instance.max_outlets[:, None, None],
                                     cost, np.inf)
        self.limits = instance.cost_budget.budgets + BUDGET_TOL
        self.states = {}


def _construct(instance, coverage, mode, pick, trace=None, clock=None, table=None):
    """Common greedy skeleton: per period, repeatedly add one affordable outlet
    drawn by `pick` from the RCL of the positive-score candidates, until no
    candidate remains or no candidate gains anything. A state in `table` (a
    fresh one by default) is not scored again: its RCL, or its period's
    covered words, come from the table. Returns the levels and their covered
    bits, `coverage.cover_words(levels)`."""
    table = table or _ConstructTable(instance)
    J, T = instance.n_stations, instance.horizon
    levels = _initial_levels(instance)
    stations = np.arange(J)
    words = np.empty(coverage.trip.n_words, dtype=np.uint64)
    for t in range(1, T + 1):
        if t > 1:
            levels[:, t - 1] = levels[:, t - 2]
        lv = levels[:, t - 1]
        spent = 0.0
        t_to = t if mode == MYOPIC else T
        span, period = coverage.trip.word_slice(t, t_to), coverage.trip.word_slice(t)
        # covered bits over t..t_to and each station's next price, kept from
        # the period's first unscored state on
        held = next_price = None
        while True:
            key = (t, lv.tobytes(), spent)
            entry = table.states.get(key)
            if entry is None:
                if held is None:
                    held = coverage.held_words(lv, t, t_to)
                    next_price = table.price[stations, lv, t - 1]
                cand_j = (spent + next_price <= table.limits[t - 1]).nonzero()[0]
                if cand_j.size:
                    cand_rows = coverage.slot_base[cand_j] + lv[cand_j]      # slot (j, lv + 1)
                    gains = coverage.slot_gains(cand_rows, held, t, t_to)
                    keep = pick.rule(gains)
                    if keep is not None:
                        entry = cand_j[keep], gains[keep], cand_rows[keep]
                if entry is None:
                    entry = held[:period.stop - period.start].copy()
                table.states[key] = entry
            if isinstance(entry, np.ndarray):  # the period ends: its covered words
                words[period] = entry
                break
            i = pick.draw(len(entry[0]))
            j = int(entry[0][i])
            k = int(lv[j])
            spent += float(table.price[j, k, t - 1])
            lv[j] = k + 1
            if held is not None:
                held |= coverage.a_bits[entry[2][i], span]  # a[j][k] ⊆ a[j][k+1]: held_words(lv)
                next_price[j] = table.price[j, k + 1, t - 1]
            if trace is not None:
                trace.append({"period": t, "station": instance.stations[j].id,
                              "k": k + 1, "score": float(entry[1][i]),
                              "elapsed": 0.0 if clock is None else time.perf_counter() - clock})
    return levels, words


def greedy(instance: Instance, coverage: CoverageTensor, config: GreedyConfig | None = None
           ) -> HeuristicResult:
    """Deterministic outlet-at-a-time construction from the zero solution."""
    config = config or GreedyConfig()
    start = time.perf_counter()
    trace = []
    levels, words = _construct(instance, coverage, config.mode, _RclPick(1.0, None), trace, start)
    f = coverage.value_of_words(words)
    for row in trace:
        row["f"] = None
    if trace:
        trace[-1]["f"] = f
    return HeuristicResult(_solution(instance, levels), f, time.perf_counter() - start, trace,
                           termination="completed")


def _solution(instance, levels):
    return SolutionX.from_levels(levels, int(instance.max_outlets.max(initial=0)))


class _RclPick:
    """GRASP's pick in two parts. `rule` keeps the restricted candidate list
    of positive-gain additions within alpha of the best, as indices into the
    gains, or None when no gain is positive: a function of the gains alone,
    which a construction table caches. `draw` takes one of the list's n
    entries uniformly from the rng. With alpha = 1 the list is greedy's
    pick, the first best gain, and nothing is drawn (greedy's rng is None)."""

    def __init__(self, alpha, rng):
        self.alpha, self.rng = alpha, rng

    def rule(self, gains):
        if gains.size == 0:
            return None
        best = gains.max()
        if best <= 0.0:
            return None
        if self.alpha >= 1.0:
            return [int(np.argmax(gains))]
        return ((gains > 0.0) & (gains >= self.alpha * best - 1e-12)).nonzero()[0]

    def draw(self, n):
        return 0 if self.alpha >= 1.0 else int(self.rng.integers(n))  # the draw rng.choice makes


def grasp_construct(instance, coverage, alpha, mode, rng) -> SolutionX:
    """Randomised construction: pick uniformly from the restricted candidate
    list of positive-gain additions within alpha of the best. With alpha = 1
    the greedy tie-break applies, so the output is exactly the greedy
    solution."""
    levels, _ = _construct(instance, coverage, mode, _RclPick(alpha, rng))
    return _solution(instance, levels)


def grasp_filter(candidate_f, incumbent_f, max_observed_rel_increase) -> bool:
    """True when the candidate should be filtered out (no local search): its
    projected post-search value cannot beat the incumbent. During warmup
    (max rel increase still undefined) everything is kept."""
    if max_observed_rel_increase is None:
        return False
    return candidate_f * max_observed_rel_increase <= incumbent_f


# -- local search ----------------------------------------------------------------
#
# The search is batched. A batch builds, from the same levels, every move of a
# run of stations j0..j1-1 in search order (per station: Add, Transfer to each
# other station, Split with each later one) and evaluates them in that order;
# a run holds as many stations as fit BATCH_SLOTS (move, period) slots, so its
# arrays stay small. Without an accepted move the next batch takes the next
# run from the same levels. The first move accepted at station j* ends the
# batch once j*'s own remaining moves, built from the same levels, have been
# tried, and the next batch starts at j*+1 from the new levels. When all of a
# period's moves fit BATCH_SLOTS, a batch that runs to the last station holds
# every station's moves of its period and of as many later periods as fit,
# all built from the same levels. A batch that starts from exactly those
# levels (a new pass, or the next period, after a batch that accepted
# nothing) evaluates them instead of building its own, and the `SwapBasis`
# planes filled from the first of those periods on serve it too. The stations
# after a pass's last accepted move were searched from the levels that pass
# ended with and gained nothing, so the next pass stops when it reaches them
# with those levels unchanged. Move building, budgets, coverage and values run
# over arrays. Each (move, changed period) pair is valued with `np.vecdot`,
# the same per-row dot product as `CoverageTensor.value_of_words`, so every
# move is decided on its exact value and the accepted moves and f are those
# of valuing one candidate at a time.

ADD, TRANSFER, SPLIT = 0, 1, 2
MOVE_NAMES = ("add", "transfer", "split")
MIN_GAIN = 1e-12               # a move is accepted when it gains more than this
CHUNK_WORDS = 1 << 13          # (move, period) cover words valued together
BATCH_SLOTS = 1 << 12          # (move, period) slots built together
EPS = float(np.finfo(float).eps)


class _SearchTables:
    """Work state of the local search: outlet costs arranged for
    batched buying and summing (station index n_stations stands for no
    station), every station's moves in search order, and the cover-bit work
    arrays."""

    def __init__(self, instance, coverage):
        self.basis = SwapBasis(coverage)
        cost = instance.cost_budget.outlet_cost                        # (J, K, T)
        J, K, T = cost.shape
        m = instance.max_outlets
        real = np.arange(K)[None, :, None] < m[:, None, None]
        own = np.where(real, cost, 0.0)
        self.n_outlets = K
        self.price = np.full((T, J + 1, 2 * K), np.inf)                # of the outlet after k
        self.price[:, :J, :K] = np.where(real, cost, np.inf).transpose(2, 0, 1)
        self.min_price = self.price.min(axis=(1, 2))
        self.by_period = own.transpose(0, 2, 1)                        # (J, T, K)
        self.cum = np.zeros((J + 1, K + 1, T))                         # of the first k outlets
        np.cumsum(own, axis=1, out=self.cum[:J, 1:])
        self.limit = instance.cost_budget.budgets + BUDGET_TOL
        # how far a screened spend can be from period_costs' own sum, per unit
        # of base spend plus twice the dearest station's full ladder
        self.rel_err = 2.0 * (J * K + 4 * K + 8) * EPS
        self.ladder = own.sum(axis=1).max(axis=0) if J else np.zeros(T)
        self.periods, self.stations, self.outlets = np.arange(T), np.arange(J + 1), np.arange(K)
        self.weights = coverage.trip.word_weights.reshape(T, -1)      # (T, period words)

        # one row of moves per station, the rows repeated for every period
        # (`period` counts the repeats): the moves of stations j0..j1-1 and of
        # every station in the `later` periods after are rows j0 to j1+later*J
        js = np.arange(J)[:, None]
        c = np.arange(J - 1)[None, :]
        others = c + (c >= js)
        kind = np.repeat(np.array([ADD] + [TRANSFER] * (J - 1) + [SPLIT] * (J - 1))[None],
                         J, axis=0)
        station = np.repeat(js, 2 * J - 1, axis=1)
        partner = np.concatenate([np.full((J, 1), J), others, others], axis=1)
        pair_ok = (kind == TRANSFER) | (partner > js)   # Split: later jp only
        self.kind, self.station, self.partner, self.pair_ok = (
            np.tile(a, (T, 1)) for a in (kind, station, partner, pair_ok))
        self.period = np.repeat(self.periods, J * (2 * J - 1)).reshape(self.kind.shape)


def _buy_up(tab, t_idx, buyers, floor, carry, pools):
    """Period by period from t on, each buyer starts at the higher of its
    floor and the level it reached before (`carry` before period t) and adds
    outlets while that period's pool covers the next one's price (less
    BUDGET_TOL), paying them one after another. Returns the levels and the
    pools left, (n, P) each.

    All periods are solved at once: the starts are raised to the highest
    level reached before them until they repeat where a pool can buy.
    Starting higher never ends lower, so the first repeat is the
    period-by-period result."""
    K = tab.n_outlets
    start = np.maximum(np.maximum.accumulate(floor, axis=1), carry[:, None])
    r, p = np.nonzero(pools >= tab.min_price[t_idx:] - BUDGET_TOL)
    if not r.size:
        return start, pools
    where = (t_idx + p[:, None], buyers[r, None])
    steps = tab.outlets
    chain = np.empty((len(r), K + 1))
    chain[:, 0] = pools[r, p]
    can = np.zeros((len(r), K + 1), dtype=bool)
    while True:
        price = tab.price[where + (start[r, p, None] + steps,)]
        chain[:, 1:] = price
        left = np.subtract.accumulate(chain, axis=1)  # the pool before each purchase
        np.greater_equal(left[:, :K], price - BUDGET_TOL, out=can[:, :K])
        bought = can.argmin(axis=1)
        level = start.copy()
        level[r, p] += bought
        raised = start.copy()
        np.maximum(start[:, 1:], np.maximum.accumulate(level, axis=1)[:, :-1], out=raised[:, 1:])
        if (raised[r, p] == start[r, p]).all():
            raised[r, p] = level[r, p]
            out = pools.copy()
            out[r, p] = left[np.arange(len(r)), bought]
            return raised, out
        start = raised


@dataclass
class _Moves:
    """One batch's moves in search order. Move i sets stations j[i] and jp[i]
    to new[i, 0] and new[i, 1] outlets in the periods of the batch, from its
    first period t on; jp[i] == n_stations for an Add. start[i] is the 0-based
    period the move belongs to, before which it keeps every level. `differs`
    marks the periods where a move changes a level."""
    kind: np.ndarray
    j: np.ndarray
    jp: np.ndarray
    new: np.ndarray
    ok: np.ndarray
    differs: np.ndarray
    start: np.ndarray

    def levels(self, i, levels, t_idx):
        out = levels.copy()
        if self.kind[i] != ADD:
            out[self.jp[i], t_idx:] = self.new[i, 1]
        out[self.j[i], t_idx:] = self.new[i, 0]
        return out


def _batch_moves(instance, tab, levels, spent, t_idx, j0, j1, later=0):
    """Add / Transfer / Split moves of stations j0..j1-1 built from `levels`,
    whose period_costs are `spent`, then, for each of the `later` periods
    after t, every station's moves of that period from the same levels.
    Transfer and Split need j open in the move's period s. A Transfer puts j
    back to its period-(s-1) level from s on and spends what j had bought,
    period by period, on jp first and on j with the leftover; a Split does
    the same to both stations and gives each half. A move that frees nothing
    is dropped; one that leaves a Split station closed in period s or breaks
    a budget is not ok. The levels are persistent (outlets are never
    removed), so a later period's move is the move of the same name built
    from period s with the periods t..s-1 left as they are."""
    J, T = levels.shape
    P = T - t_idx
    before = np.zeros(J + 1, dtype=int)
    before[:J] = levels[:, t_idx - 1] if t_idx > 0 else instance.initial_levels
    tail = np.zeros((J + 1, P), dtype=int)
    tail[:J] = levels[:, t_idx:]

    # what each station bought in each period from t on, summed in outlet
    # order, and whether it bought anything from each period on
    prev = np.maximum.accumulate(np.column_stack([before[:J], tail[:J]]), axis=1)[:, :-1]
    bought = np.zeros((J + 1, P))
    bought[:J] = np.cumsum(np.where((tab.outlets >= prev[..., None])
                                    & (tab.outlets < tail[:J, :, None]),
                                    tab.by_period[:, t_idx:], 0.0), axis=2)[..., -1]
    frees = np.logical_or.accumulate(bought[:, ::-1] != 0, axis=1)[:, ::-1]

    # stations j0..j1-1 of period t, then every station of each later period;
    # s is a move's period, counted from t
    rows = slice(j0, j1 + later * J)
    kind, j, jp, s = tab.kind[rows], tab.station[rows], tab.partner[rows], tab.period[rows]
    is_split = kind == SPLIT
    lv = tail[j, s]
    keep = np.where(kind == ADD, lv < instance.max_outlets[j],
                    (lv >= 1) & tab.pair_ok[rows] & (frees[j, s] | is_split & frees[jp, s]))
    kind, j, jp, is_split, start = kind[keep], j[keep], jp[keep], is_split[keep], s[keep]
    is_tr = kind == TRANSFER
    active = tab.periods[:P] >= start[:, None]          # the periods a move may change

    # Transfer's jp and both Split stations buy first, Transfer's j with what
    # jp left; an Add's pools are empty, and nobody buys before a move's period
    freed = bought[j] + bought[np.where(is_split, jp, J)]
    pool = np.where(is_split, 0.5, np.where(is_tr, 1.0, 0.0))[:, None] * freed
    pools = np.where(active[:, None], np.stack([np.where(is_split[:, None], pool, 0.0), pool],
                                               axis=1), -np.inf)
    pairs = np.column_stack([j, jp])
    floor = np.where(active[:, None], 0, tail[pairs])
    floor[:, 1] = np.where(is_tr[:, None], tail[jp], floor[:, 1])
    got, left = _buy_up(tab, t_idx, pairs.ravel(), floor.reshape(-1, P), before[pairs].ravel(),
                        pools.reshape(-1, P))
    new = got.reshape(-1, 2, P)
    got_j, _ = _buy_up(tab, t_idx, j, floor[:, 0], before[j],
                       np.where(is_tr[:, None], left.reshape(-1, 2, P)[:, 1], 0.0))
    add = np.maximum(tail[j], np.where(active, tail[j, start][:, None] + 1, 0))
    new[:, 0] = np.where(is_tr[:, None], got_j, np.where(is_split[:, None], new[:, 0], add))
    first = np.arange(len(kind))
    ok = ~is_split | ((new[first, 0, start] >= 1) & (new[first, 1, start] >= 1))
    differs = (new[:, 0] != tail[j]) | (new[:, 1] != tail[jp])
    moves = _Moves(kind, j, jp, new, ok, differs, t_idx + start)

    # budgets: every period before the move's must be within its budget; from
    # it on, the base spend, less the two stations' old spend, plus their new
    # spend; a move too close to a budget to tell is checked with period_costs
    within = np.concatenate([[True], np.logical_and.accumulate(spent <= tab.limit)])
    ok &= within[t_idx + start]
    taus = tab.periods[t_idx:]
    cum = tab.cum

    def spend(st, lv_, prev_):
        return cum[st, np.maximum(lv_, prev_), taus] - cum[st, prev_, taus]

    old = spend(tab.stations[:, None], tail, np.column_stack([before, tail[:, :-1]]))
    prev_new = np.concatenate([before[pairs][..., None], new[..., :-1]], axis=2)
    excess = np.where(active, spent[t_idx:] - (old[j] + old[jp])
                      + spend(pairs[..., None], new, prev_new).sum(axis=1) - tab.limit[t_idx:],
                      -np.inf)
    err = tab.rel_err * (spent[t_idx:] + 2.0 * tab.ladder[t_idx:])
    ok &= (excess <= err).all(axis=1)
    for i in np.flatnonzero(ok & (excess >= -err).any(axis=1)):
        ok[i] = bool((period_costs(instance, moves.levels(i, levels, t_idx)) <= tab.limit).all())
    return moves


def _search_batch(tab, levels, values, f_cur, t_idx, j0, j1, mv, trace):
    """Try the moves of period t and stations j0..j1-1 in batch `mv` (see the
    section comment), which were built from `levels`. Returns the levels, f
    and the station whose moves were accepted, None when none was. `values`
    holds the period values of `levels` and is updated in place."""
    cand = np.flatnonzero(mv.ok & (mv.start == t_idx) & (mv.j >= j0) & (mv.j < j1))
    if not cand.size:
        return levels, f_cur, None
    t, base_levels = t_idx + 1, levels
    frame = levels.shape[1] - mv.new.shape[2]            # the batch's first period
    off = t_idx - frame
    basis = tab.basis
    if basis.levels is not levels or basis.t_from > t:  # levels are replaced, never edited
        basis.update(levels, t)
    b_off = t - basis.t_from
    weights = tab.weights[t_idx:]

    # (move, period) pairs where a move changes a level, in move order, cut
    # into chunks at station boundaries
    differs = mv.differs[cand, off:]
    row, period = np.nonzero(differs)
    pair_start = np.searchsorted(row, np.arange(len(cand) + 1))
    station = mv.j[cand]
    ends = [len(cand)]
    if len(row) * weights.shape[1] > CHUNK_WORDS:
        words = np.bincount(station - station[0],
                            weights=differs.sum(axis=1) * weights.shape[1])
        chunk = ((np.cumsum(words) - words) // CHUNK_WORDS)[station - station[0]]
        ends = np.append(np.flatnonzero(np.diff(chunk)) + 1, len(cand))

    a = 0
    for b in ends:
        # period values of moves a..b-1: those of `levels` (a chunk is only
        # reached while none was accepted), with each changed period valued
        # as `value_of_words` values it
        pa, pb = pair_start[a], pair_start[b]
        rows, per = cand[row[pa:pb]], period[pa:pb]
        counts = np.bitwise_count(basis.words(per + b_off, mv.j[rows], mv.jp[rows],
                                              mv.new[rows, 0, per + off],
                                              mv.new[rows, 1, per + off]))
        tails = np.tile(values[t_idx:], (b - a, 1))
        tails[row[pa:pb] - a, per] = np.vecdot(counts.astype(np.float64), weights[per])
        sums = tails.sum(axis=1)

        pos, stop, accepted = a, b, None
        while pos < stop:
            d = sums[pos - a:stop - a] - values[t_idx:].sum()
            hits = np.flatnonzero(d > MIN_GAIN)
            if not hits.size:
                break
            i = pos + int(hits[0])
            r = cand[i]
            if accepted is None:
                accepted = int(station[i])
                stop = a + int(np.searchsorted(station[a:b], accepted, side="right"))
            levels, values[t_idx:] = mv.levels(r, base_levels, frame), tails[i - a]
            f_cur += float(d[hits[0]])
            if trace is not None:
                jp = None if mv.kind[r] == ADD else int(mv.jp[r])
                trace.append({"period": t, "move": (MOVE_NAMES[mv.kind[r]], int(mv.j[r]), jp),
                              "f": f_cur})
            pos = i + 1
        if accepted is not None:
            return levels, f_cur, accepted
        a = b
    return levels, f_cur, None


def _local_search(instance, coverage, levels, deadline=None, trace=None, tables=None):
    """Add / Transfer / Split moves, period by period, taking the first
    improving move; never worsens f and never leaves the feasible set
    (infeasible moves are discarded). `levels` is a feasible schedule.
    Returns the searched levels and f. `tables` is a _SearchTables of the
    same instance and coverage, which searches run one at a time may share."""
    levels = levels.copy()
    values = coverage.period_values(levels)  # per period, refreshed on every accepted move
    f_cur = float(values.sum())
    spent = period_costs(instance, levels)
    tab = tables or _SearchTables(instance, coverage)
    J, T = instance.n_stations, instance.horizon
    carried = (None, 0, -1, None)  # levels, first and last period, moves of a whole-period batch

    for t in range(1, T + 1):
        t_idx = t - 1
        fits = BATCH_SLOTS // ((2 * J - 1) * (T - t_idx))   # stations per batch
        clean = (None, J)  # levels after the last accepted move, and the station after it
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                return levels, f_cur
            pass_start = f_cur
            clean_levels, clean_from = clean
            j0 = 0
            while j0 < J:
                # stations clean_from.. were searched from these very levels
                # in the last pass, after its last accepted move, and gained nothing
                j_end = clean_from if levels is clean_levels else J
                if j0 >= j_end:
                    break
                if carried[0] is levels and carried[1] <= t_idx <= carried[2]:
                    mv, j1 = carried[3], J
                else:
                    whole = fits >= J      # every station's moves of the period fit one batch
                    j1 = J if whole else min(j_end, j0 + max(1, fits))
                    later = min(T - t, fits // J - 1) if whole else 0
                    mv = _batch_moves(instance, tab, levels, spent, t_idx, 0 if whole else j0, j1,
                                      later)
                    if whole:
                        carried = (levels, t_idx, t_idx + later, mv)
                levels, f_cur, j_star = _search_batch(tab, levels, values, f_cur, t_idx, j0,
                                                      j_end, mv, trace)
                if j_star is None:
                    j0 = j1
                    continue
                spent = period_costs(instance, levels)
                j0 = j_star + 1
                clean = (levels, j0)
            gained = f_cur - pass_start
            rel = (gained / pass_start) if pass_start > 0 else (np.inf if gained > 0 else 0.0)
            if rel < LOCAL_SEARCH_MIN_REL_GAIN:
                break
    return levels, f_cur


# -- GRASP -------------------------------------------------------------------------


def grasp(instance: Instance, coverage: CoverageTensor, config: GraspConfig | None = None
          ) -> HeuristicResult:
    """Construct / filter / locally-improve loop with incumbent tracking.

    Terminates when max_solutions candidates have been examined, MAX_FILTERED
    candidates have been filtered out, or the time limit is reached. The local
    search is a function of its start, so a constructed schedule that was
    searched before reuses that search's outcome. The constructions share one
    table of the states they scored (`_ConstructTable`).
    """
    config = config or GraspConfig()
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    deadline = start + config.time_limit_s
    pick = _RclPick(config.alpha, rng)

    incumbent, incumbent_f = None, -np.inf
    searched = {}                      # start schedule bytes -> (levels, f)
    constructs = _ConstructTable(instance)
    tables = _SearchTables(instance, coverage)
    examined = filtered = 0
    warmup_ratios: list[float] = []
    max_rel = None
    trace = []
    termination = "max_solutions"
    # The local searches run on a worker thread, which glibc serves from its
    # own malloc arena: their many short-lived arrays then cannot leave small
    # live blocks at the top of the main heap, which kept freed instance
    # memory resident and raised the process's peak RSS (BENCH_local_search.json).
    with ThreadPoolExecutor(max_workers=1) as worker:
        while True:
            if examined >= config.max_solutions:
                termination = "max_solutions"
                break
            if filtered >= MAX_FILTERED:
                termination = "max_filtered"
                break
            if time.perf_counter() >= deadline:
                termination = "time_limit"
                break
            levels_c, words = _construct(instance, coverage, config.mode, pick, table=constructs)
            examined += 1
            f_c = coverage.value_of_words(words)
            if grasp_filter(f_c, incumbent_f, max_rel):
                filtered += 1
                trace.append({"iteration": examined, "constructed_f": f_c, "filtered": True,
                              "incumbent": incumbent_f,
                              "elapsed": time.perf_counter() - start})
                continue
            key = levels_c.tobytes()
            if key not in searched:
                searched[key] = worker.submit(_local_search, instance, coverage, levels_c,
                                              deadline=deadline, tables=tables).result()
            levels, f_ls = searched[key]
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
    x = SolutionX.zeros(instance) if incumbent is None else _solution(instance, incumbent)
    return HeuristicResult(x, evaluate(instance, coverage, x), time.perf_counter() - start,
                           trace, termination=termination)


# -- rolling horizon ------------------------------------------------------------------


def _period_time_limits(config: RollingHorizonConfig, T):
    if config.allocation == "even":
        return [config.total_time_limit_s / T] * T
    first = min(FIRST_PERIOD_SHARE_S, config.total_time_limit_s / 2.0)
    return [first / 2.0 ** t for t in range(T)]


def rolling_horizon(instance: Instance, coverage: CoverageTensor,
                    config: RollingHorizonConfig | None = None,
                    solver=None) -> HeuristicResult:
    """Fix one period at a time: choose its levels, freeze them, move on. A
    period takes the DP's exact step (`exact._best_extension`); only a period
    past MAX_STATES options solves its MC restriction, with the previous
    levels as fixed lower bounds, under its time share. With no solver
    configured, that period's EnumerationCapExceeded propagates."""
    config = config or RollingHorizonConfig()
    start = time.perf_counter()
    limits = _period_time_limits(config, instance.horizon)
    command = resolve_solver_command(solver)
    levels = _initial_levels(instance)
    base = instance.initial_levels
    trace = []
    for t in range(1, instance.horizon + 1):
        period_start = time.perf_counter()
        try:
            new_levels, objective = _best_extension(
                instance, tuple(int(v) for v in base), t - 1,
                lambda opt: coverage.value_of_words(coverage.held_words(opt, t, t), t, t))
            status = "enumerated"
        except EnumerationCapExceeded:
            if command is None:
                raise
            result = solve_external(build_mc_period(instance, coverage, t, base), command,
                                    time_limit_s=limits[t - 1])
            if not result.ok:
                raise HeuristicError(
                    f"period {t}: solver failed with status {result.status} ({result.detail})")
            new_levels = extract_solution_x(instance, result.values).levels[:, t - 1]
            status, objective = result.status, result.objective
        trace.append({"period": t, "limit_s": limits[t - 1], "status": status,
                      "objective": objective, "wall_time": time.perf_counter() - period_start})
        base = np.asarray(new_levels)
        levels[:, t - 1:] = base[:, None]
    x = _solution(instance, levels)
    return HeuristicResult(x, evaluate(instance, coverage, x), time.perf_counter() - start,
                           trace, termination="completed")
