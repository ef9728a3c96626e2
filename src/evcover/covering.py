"""Coverage preprocessing and solution evaluation.

A station j with k outlets covers the triplet (t, i, r) when it is open
(k >= 1), considered by class i in period t, and its utility with k outlets
is at least the opt-out utility of that triplet. Everything downstream
(objective evaluation, greedy scores, MC covering rows) reduces to set
operations over triplets, so coverage is stored as packed 64-bit bitsets
over a flattened triplet index: scoring is a popcount weighted per
(period, class) block.

Triplet layout: blocks ordered by (period, class); each block holds the R_i
scenarios of one class in one period, padded to whole 64-bit words. Padding
bits stay zero in every mask.

Nesting invariant: utility is nondecreasing in the outlet count, so station j
with k outlets covers a superset of what it covers with k - 1 outlets,
a[j][k] ⊆ a[j][k+1]. The covered bits of a level vector are therefore the OR
of each open station's top slot a[j][levels[j]] with the home-forced bits.
`CoverageTensor.held_words` is the one place that computes them; every
evaluation, score and heuristic gain is built on it.

The nested slot bitsets are the only stored triplet-level coverage data. By
the same nesting they also encode each covering threshold (the smallest
outlet count at which a station covers a triplet), so `CoverageTensor.min_k`
is derived from them on first use instead of being stored alongside.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .instance import HOME, OPT_OUT, Instance, SolutionX


class CoverageError(ValueError):
    pass


class TripletIndex:
    """Flattened (period, class, scenario) index with word-aligned blocks."""

    def __init__(self, instance: Instance):
        T, C = instance.horizon, instance.n_classes
        R = np.array([uc.scenario_count for uc in instance.user_classes], dtype=int)
        self.horizon, self.n_classes = T, C
        self.scenarios = R
        self.block_bits = np.tile(R, T)                      # block b = t_idx * C + ci
        self.block_words = (self.block_bits + 63) // 64
        self.word_start = np.zeros(T * C + 1, dtype=int)
        np.cumsum(self.block_words, out=self.word_start[1:])
        self.bit_start = np.zeros(T * C + 1, dtype=int)
        np.cumsum(self.block_bits, out=self.bit_start[1:])
        self.n_words = int(self.word_start[-1])
        self.n_triplets = int(self.bit_start[-1])

        pops = np.array([uc.populations for uc in instance.user_classes])  # (C, T)
        self.block_weight = (pops.T / R[None, :]).reshape(-1)              # N_i^t / R_i
        self.word_weights = np.repeat(self.block_weight, self.block_words)
        self.word_weights.flags.writeable = False

    def block(self, class_index, t_index):
        return t_index * self.n_classes + class_index

    def word_slice(self, t_from, t_to=None):
        """Words of periods t_from..t_to (1-based, inclusive); t_to defaults to t_from."""
        t_to = t_from if t_to is None else t_to
        b0 = (t_from - 1) * self.n_classes
        b1 = t_to * self.n_classes
        return slice(int(self.word_start[b0]), int(self.word_start[b1]))

    def triplet_id(self, class_index, t_index, r):
        return int(self.bit_start[self.block(class_index, t_index)]) + r

    def bit_of(self, triplet_ids):
        """Bit position of each triplet in the word-padded layout: triplet p of
        block b sits at 64 * word_start[b] + (p - bit_start[b])."""
        p = np.asarray(triplet_ids)
        b = np.searchsorted(self.bit_start, p, side="right") - 1
        return 64 * self.word_start[b] + p - self.bit_start[b]

    def pack_block_rows(self, bools):
        """Pack (n_rows, R) booleans into (n_rows, words) little-endian uint64."""
        arr = np.asarray(bools, dtype=bool)
        n_rows, R = arr.shape
        words = (R + 63) // 64
        bytes_ = np.packbits(arr, axis=1, bitorder="little")
        padded = np.zeros((n_rows, words * 8), dtype=np.uint8)
        padded[:, : bytes_.shape[1]] = bytes_
        return padded.view("<u8")


@dataclass
class HomePreprocess:
    """Triplets guaranteed covered by home charging."""

    forced: tuple          # per class: (R, T) bool array, or None when no home alternative
    forced_bits: np.ndarray
    forced_mass: float


def compute_abar(instance: Instance) -> np.ndarray:
    """Closed-station utility level per (class, period): min over considered
    stations and scenarios of kappa + eps. NaN where no station is considered."""
    T = instance.horizon
    abar = np.full((instance.n_classes, T), np.nan)
    for ci in range(instance.n_classes):
        alts = instance.choice_sets.alternatives[ci]
        kap = instance.utility_params.kappa[ci]
        eps = instance.error_tensor[ci]
        for t in range(T):
            vals = [
                (kap[pos, t] + eps[pos, :, t]).min()
                for pos, alt in enumerate(alts)
                if alt in instance.choice_sets.c1[ci][t]
            ]
            if vals:
                abar[ci, t] = min(vals)
    return abar


def optout_utility(instance: Instance, t, i, r) -> float:
    """kappa_0 + eps_0 for class index i, period t (1-based), scenario r (0-based)."""
    pos = instance.choice_sets.alt_index[i][OPT_OUT]
    return float(instance.utility_params.kappa[i][pos, t - 1]
                 + instance.error_tensor[i][pos, r, t - 1])


def station_utility_at_k(instance: Instance, t, i, r, j, k, abar=None) -> float:
    """Utility of station j with exactly k outlets for triplet (t, i, r); k = 0 is closed."""
    if j not in instance.choice_sets.c1[i][t - 1]:
        raise CoverageError(f"station {j} not considered by class index {i} in period {t}")
    if k == 0:
        if abar is None:
            abar = compute_abar(instance)
        return float(abar[i, t - 1])
    m_j = instance.stations[instance.station_index[j]].max_outlets
    if not 1 <= k <= m_j:
        raise CoverageError(f"k={k} outside 1..{m_j}")
    pos = instance.choice_sets.alt_index[i][j]
    kap = instance.utility_params.kappa[i][pos, t - 1]
    eps = instance.error_tensor[i][pos, r, t - 1]
    cum = instance.utility_params.beta[i][pos, :k, t - 1].sum()
    return float(kap + eps + cum)


def preprocess_home_charging(instance: Instance) -> HomePreprocess:
    """Split triplets on home charging: strictly better than opt-out means the
    EV is purchased regardless of x (forced covered); otherwise the home
    alternative can never be selected and only opt-out competes with the
    stations."""
    trip = TripletIndex(instance)
    forced_bits = np.zeros(trip.n_words, dtype=np.uint64)
    forced, mass = [], 0.0
    for ci, uc in enumerate(instance.user_classes):
        alt_index = instance.choice_sets.alt_index[ci]
        if HOME not in alt_index:
            forced.append(None)
            continue
        kap = instance.utility_params.kappa[ci]
        eps = instance.error_tensor[ci]
        h, o = alt_index[HOME], alt_index[OPT_OUT]
        u_home = kap[h, None, :] + eps[h]   # (R, T)
        u_opt = kap[o, None, :] + eps[o]
        f = u_home > u_opt
        forced.append(f)
        for t in range(instance.horizon):
            b = trip.block(ci, t)
            ws, we = trip.word_start[b], trip.word_start[b + 1]
            forced_bits[ws:we] |= trip.pack_block_rows(f[None, :, t])[0]
            mass += trip.block_weight[b] * int(f[:, t].sum())
    return HomePreprocess(tuple(forced), forced_bits, mass)


class CoverageTensor:
    """Pre-computed coverage bits a[j][k][triplet], packed one slot row per
    (station, outlet count).

    The slot row of (j, k) is slot_base[j] + k - 1 and holds everything
    station j covers with k outlets; by nesting, a[j][k] ⊆ a[j][k+1].
    forced_bits marks triplets covered regardless of x. These bitsets are
    the only stored triplet-level data: the covering thresholds `min_k` are
    derived from them on demand.
    """

    def __init__(self, instance: Instance, trip: TripletIndex, a_bits, slot_base,
                 forced_bits, forced_mass):
        self.trip = trip
        self.station_ids = tuple(s.id for s in instance.stations)
        self.max_outlets = instance.max_outlets.copy()
        self.a_bits = a_bits
        self.slot_base = slot_base
        self.forced_bits = forced_bits
        self.forced_mass = float(forced_mass)
        self.horizon = trip.horizon
        for arr in (self.a_bits, self.forced_bits):
            arr.flags.writeable = False

    # -- raw access -----------------------------------------------------

    def slot(self, j_idx, k):
        return int(self.slot_base[j_idx]) + k - 1

    def a_entry(self, j_idx, k, triplet_id):
        """a[j][k][p], read from the packed slot row of (j, k)."""
        if not 1 <= k <= self.max_outlets[j_idx]:
            raise CoverageError(f"k={k} outside 1..{int(self.max_outlets[j_idx])}")
        bit = int(self.trip.bit_of(triplet_id))
        return int(self.a_bits[self.slot(j_idx, k), bit // 64] >> np.uint64(bit % 64)
                   & np.uint64(1))

    @functools.cached_property
    def min_k(self) -> np.ndarray:
        """min_k[j, p]: the smallest outlet count at which station j covers
        triplet p, 0 when it never does; read-only (n_stations, n_triplets)
        uint8. By nesting, a covered triplet's bit is set in the rows
        min_k..m_j of station j, so min_k = m_j + 1 - (number of set rows)."""
        bits = self.trip.bit_of(np.arange(self.trip.n_triplets))
        out = np.zeros((len(self.station_ids), self.trip.n_triplets), dtype=np.uint8)
        for j, m_j in enumerate(self.max_outlets):
            rows = self.a_bits[self.slot_base[j]: self.slot_base[j] + m_j]
            held = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
            count = held.sum(axis=0, dtype=np.uint8)[bits]
            out[j] = np.where(count > 0, m_j + 1 - count, 0)
        out.flags.writeable = False
        return out

    # -- bitset machinery -------------------------------------------------

    def held_words(self, levels_t, t_from, t_to=None) -> np.ndarray:
        """Covered bits over periods t_from..t_to (t_to defaults to the last
        period) with the level vector levels_t held throughout. By nesting,
        only the top slot of each open station is ORed with the forced bits."""
        sl = self.trip.word_slice(t_from, t_to if t_to is not None else self.horizon)
        levels_t = np.asarray(levels_t)
        open_j = np.flatnonzero(levels_t)
        out = self.forced_bits[sl].copy()
        if open_j.size:
            rows = self.slot_base[open_j] + levels_t[open_j] - 1
            out |= np.bitwise_or.reduce(self.a_bits[rows, sl], axis=0)
        return out

    @functools.cached_property
    def _slot_of(self) -> np.ndarray:
        """Slot row of station j with k outlets, (n_stations + 1, max outlets
        + 1); n_slots (no row) where k = 0 and for station index n_stations."""
        J, K = len(self.max_outlets), int(self.max_outlets.max(initial=0))
        out = np.full((J + 1, K + 1), len(self.a_bits))
        k = np.arange(1, K + 1)
        out[:J, 1:] = np.where(k <= self.max_outlets[:, None], self.slot_base[:, None] + k - 1,
                               len(self.a_bits))
        return out

    def _slot_rows(self, j, k, tau, out=None) -> np.ndarray:
        """Period tau's words (0-based period) of slot (j, k), elementwise over
        the index arrays; zero where k == 0 or j == n_stations."""
        slot = self._slot_of[j, k]
        n, T = len(self.a_bits), self.horizon
        rows = np.take(self.a_bits.reshape(n * T, -1), np.minimum(slot, n - 1) * T + tau, axis=0,
                       out=out)
        rows &= np.where(slot < n, ~np.uint64(0), np.uint64(0))[..., None]
        return rows

    def period_values(self, levels, t_from=1) -> np.ndarray:
        """Weighted covered mass of each period t_from..T of a schedule (n_stations, T)."""
        return np.array([self.value_of_words(self.held_words(levels[:, t - 1], t, t), t, t)
                         for t in range(t_from, self.horizon + 1)])

    def cover_words(self, levels) -> np.ndarray:
        """Covered-triplet bits for a full outlet schedule (n_stations, T)."""
        return np.concatenate([self.held_words(levels[:, t - 1], t, t)
                               for t in range(1, self.horizon + 1)])

    def value_of_words(self, words, t_from=1, t_to=None) -> float:
        """Weighted covered mass of the bits of periods t_from..t_to; words
        spans exactly those periods."""
        sl = self.trip.word_slice(t_from, t_to if t_to is not None else self.horizon)
        return float(np.bitwise_count(words).astype(np.float64) @ self.trip.word_weights[sl])

    def slot_gains(self, slot_rows, base_words, t_from, t_to=None):
        """For each candidate slot: weighted mass of triplets it newly covers
        against base_words, over periods t_from..t_to. base_words must already
        be restricted to the same period span."""
        sl = self.trip.word_slice(t_from, t_to if t_to is not None else self.horizon)
        cand = self.a_bits[slot_rows, sl]
        fresh = cand & ~base_words[None, :]
        return np.bitwise_count(fresh).astype(np.float64) @ self.trip.word_weights[sl]


class SwapBasis:
    """Cover bits of one schedule from period t_from on, arranged so that the
    covered bits of a move that changes one or two stations cost a few word
    operations per period instead of an OR over every station.

    The planes G1 ⊇ G2 ⊇ G3 hold the bits of each period that at least one,
    two and three open stations cover with their top slots, forced bits left
    out; they come from running ORs
    over the stations (a station adds a second cover where an earlier one is
    set, and a third where two earlier ones are). From them and station j's
    top row b, the other stations cover at least once X = (b & G2) | (~b &
    G1) and at least twice Y = (b & G3) | (~b & G2). Leaving out a second
    station jp with top row b' then keeps X except the bits in b' & (X ^ Y),
    the ones exactly one other station covered. This is the exclusion rule
    (b & b' & G3) | ((b ^ b') & G2) | (~(b | b') & G1) with the j-only part
    computed once per station.

    The arrays are allocated once, for every period, and refilled by
    `update`, so one basis serves a whole local search.
    """

    def __init__(self, coverage: CoverageTensor):
        T = coverage.horizon
        shape = (T, len(coverage.station_ids) + 1, coverage.trip.n_words // T)
        self.coverage = coverage
        self._top = np.zeros(shape, dtype=np.uint64)     # station index n_stations: none
        self._others = np.empty_like(self._top)          # bits held without station j
        self._single = np.empty_like(self._top)          # of those, the ones one other station holds
        self._forced = coverage.forced_bits.reshape(T, -1)
        self.levels, self.t_from = None, 1

    def update(self, levels, t_from=1):
        """Refill for the schedule `levels` (n_stations, T), periods t_from..T."""
        cov = self.coverage
        T, J1, _ = self._top.shape
        P = T - t_from + 1
        self.levels, self.t_from = levels, t_from
        top, x, y = self._top[:P], self._others[:P], self._single[:P]
        forced = self._forced[t_from - 1:]
        k = np.zeros((P, J1), dtype=int)
        k[:, :-1] = np.asarray(levels)[:, t_from - 1:].T
        cov._slot_rows(np.arange(J1), k, np.arange(t_from - 1, T)[:, None], out=top)

        # the planes, computed in x and y before they are filled
        once = np.bitwise_or.accumulate(top, axis=1, out=y)
        g1 = once[:, -1].copy()
        twice = np.bitwise_and(top[:, 1:], once[:, :-1], out=x[:, 1:])
        g2 = np.bitwise_or.reduce(twice, axis=1)
        np.bitwise_or.accumulate(twice, axis=1, out=twice)
        g3 = np.bitwise_or.reduce(np.bitwise_and(top[:, 2:], twice[:, :-1], out=y[:, 2:]), axis=1)

        # X = G1 except where b & ~G2, Y = G2 except where b & ~G3 (G3 ⊆ G2 ⊆ G1)
        np.bitwise_and(top, (g1 ^ g2)[:, None], out=x)
        x ^= g1[:, None]
        np.bitwise_and(top, (g2 ^ g3)[:, None], out=y)
        y ^= g2[:, None]
        y ^= x
        y &= ~forced[:, None]
        x |= forced[:, None]

    def words(self, period, j, jp, new_j, new_jp) -> np.ndarray:
        """Covered bits, forced included, of period t_from + period[i] when
        station j[i] moves to new_j[i] outlets and station jp[i] to new_jp[i]
        and every other station keeps its level. jp[i] == n_stations changes
        j[i] alone. Uint64 (n, period words)."""
        cov = self.coverage
        tau = self.t_from - 1 + period
        out = self._others[period, j]
        out ^= self._top[period, jp] & self._single[period, j]
        out |= cov._slot_rows(j, new_j, tau)
        out |= cov._slot_rows(jp, new_jp, tau)
        return out


def build_coverage(instance: Instance) -> CoverageTensor:
    """Pack the nested coverage bits of every (station, outlet count) slot.

    The covering thresholds are computed one class at a time, for all the
    stations the class considers and all periods at once, and only packed,
    never stored: slot (j, k) holds the triplets with 0 < threshold <= k.
    The outlet benefits are non-negative, so the cumulative benefits are
    sorted and the threshold is at most k exactly when the benefit of the
    first k outlets reaches the utility gap to opt-out. A station outside a
    period's C1 covers nothing there; it is masked, not given an infinite
    gap, since an infinite benefit would reach that too."""
    trip = TripletIndex(instance)
    J, T = instance.n_stations, instance.horizon
    pre = preprocess_home_charging(instance)

    slot_base = np.zeros(J, dtype=int)
    np.cumsum(instance.max_outlets[:-1], out=slot_base[1:])
    n_slots = int(instance.max_outlets.sum())
    a_bits = np.zeros((n_slots, trip.n_words), dtype=np.uint64)
    by_period = a_bits.reshape(n_slots, T, -1)      # class blocks sit at the same offset each period
    K = int(instance.max_outlets.max(initial=0))
    slot_of = slot_base[:, None] + np.arange(K)     # slot row of (j, k + 1)
    real = np.arange(K) < instance.max_outlets[:, None]

    for ci in range(instance.n_classes):
        alt_index = instance.choice_sets.alt_index[ci]
        alts = [alt for alt in alt_index if alt not in (OPT_OUT, HOME)]
        if not alts:
            continue
        pos = np.array([alt_index[alt] for alt in alts])
        j = np.array([instance.station_index[alt] for alt in alts])
        kap = instance.utility_params.kappa[ci]
        bet = instance.utility_params.beta[ci]
        eps = instance.error_tensor[ci]
        o = alt_index[OPT_OUT]
        R = eps.shape[1]
        considered = instance.choice_sets.c1[ci]
        member = np.array([[alt in considered[t] for t in range(T)] for alt in alts])  # (S, T)

        # the gap (u0 - kappa_j) - eps_j, laid out (S, T, R) so that each
        # (station, outlet count, period) row of the compare is contiguous
        cum = np.cumsum(bet[pos], axis=1)                                   # (S, K, T)
        u0 = kap[o, None, :] + eps[o]                                       # (R, T)
        gap = np.subtract(u0.T, kap[pos][:, :, None], order="C")
        gap -= eps[pos].transpose(0, 2, 1)                                  # (S, T, R)
        rows = np.greater_equal(cum[:, :, :, None], gap[:, None], order="C")  # (S, K, T, R)
        rows &= member[:, None, :, None]
        packed = trip.pack_block_rows(rows.reshape(-1, R)).reshape(len(alts), K, T, -1)

        words = slice(int(trip.word_start[ci]), int(trip.word_start[ci + 1]))
        by_period[slot_of[j][real[j]], :, words] = packed[real[j]]     # rows k < m_j

    return CoverageTensor(instance, trip, a_bits, slot_base, pre.forced_bits,
                          pre.forced_mass)


# -- evaluation ------------------------------------------------------------


def evaluate(instance: Instance, coverage: CoverageTensor, x: SolutionX) -> float:
    """Solution quality f(x): weighted count of covered triplets, forced included."""
    return coverage.value_of_words(coverage.cover_words(_checked_levels(coverage, x)))


def evaluate_per_period(instance: Instance, coverage: CoverageTensor, x: SolutionX):
    return coverage.period_values(_checked_levels(coverage, x))


def _checked_levels(coverage, x):
    if x.binary.shape[0] != len(coverage.station_ids) or x.binary.shape[2] != coverage.horizon:
        raise CoverageError("solution dimensions do not match coverage tensor")
    levels = x.levels  # raises InstanceError on a ladder violation
    over = np.flatnonzero((levels > coverage.max_outlets[:, None]).any(axis=1))
    if over.size:
        j = int(over[0])
        raise CoverageError(f"station {coverage.station_ids[j]} exceeds its "
                            f"{int(coverage.max_outlets[j])} outlets")
    return levels


def score_myopic(coverage: CoverageTensor, x: SolutionX, t: int) -> float:
    """Period-t term of f under the period-t configuration of x."""
    _check_period(coverage, t)
    levels_t = _checked_levels(coverage, x)[:, t - 1]
    return coverage.value_of_words(coverage.held_words(levels_t, t, t), t, t)


def score_hyperoptic(coverage: CoverageTensor, x: SolutionX, t: int) -> float:
    """Terms t..T of f with the period-t configuration held for every later period."""
    _check_period(coverage, t)
    levels_t = _checked_levels(coverage, x)[:, t - 1]
    return coverage.value_of_words(coverage.held_words(levels_t, t), t)


def _check_period(coverage, t):
    if not 1 <= t <= coverage.horizon:
        raise CoverageError(f"period {t} outside 1..{coverage.horizon}")


def gap(best_value: float, value: float) -> float:
    """Percentage gap to the best known value: 100 * (best - value) / best."""
    if best_value <= 0:
        raise CoverageError("gap undefined for best value <= 0")
    return 100.0 * (best_value - value) / best_value
