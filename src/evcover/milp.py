"""Solver-agnostic linear models: the single-level (SL) formulation with its
Big-M linearised lower level, the maximum-covering (MC) reformulation, and
the piecewise-linear growth-function (GF) baseline model.

A model is valid by construction: `MilpModel`'s add methods refuse a name
that is not one LP token (`_NAME`) or is already taken, a discrete variable
without finite bounds, and a row or objective term on an undeclared
variable, each naming the offender. Nothing re-checks a model once built.

Variable name scheme (documented, relied on by the solution extractors):
  x_{station}_{k}_{t}          binary outlet-ladder variables
  w_t{t}_p{n}                  MC covering variables (continuous in [0, 1]), one per
                               covering pattern n of period t, in row cover_t{t}_p{n}
  w_c{ci}_r{r}_t{t}_a{alt}     SL selection variables (binary; a0 is the opt-out)
  u_c{ci}_r{r}_t{t}_a{alt}     SL utilities (free)
  alpha_c{ci}_r{r}_t{t}        SL max-utility variables (free)
                               The SL variables exist only for the triplets some
                               station covers, and only for the opt-out and the
                               stations that cover them; the N/R of a triplet no
                               station covers is the SL objective constant.
  gx_{station}_t{t}, gy_{station}_t{t}, gw_s{s}_t{t}, gz_s{s}_t{t},
  gh_{node}_{station}_t{t}     GF outlet counts, openings, segment picks,
                               segment loads and per-node EV loads
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .covering import CoverageTensor, build_coverage, compute_abar
from .instance import HOME, OPT_OUT, Instance, SolutionX

BINARY = "binary"
CONTINUOUS = "continuous"
INTEGER = "integer"

_SENSES = ("<=", ">=", "=")
ABAR_MARGIN = 1e-5  # compute_bounds lowers a failing abar this far below min_r u0
# A name is one LP token: no space, colon, sign or relational character, and
# no leading digit.
_NAME = re.compile(r"[A-Za-z!\"#$%&(),;?@_'`{}|~.][A-Za-z0-9!\"#$%&(),;?@_'`{}|~.]*")


class ModelError(ValueError):
    pass


@dataclass
class LinVar:
    name: str
    lb: float = 0.0
    ub: float = math.inf
    kind: str = CONTINUOUS


@dataclass
class LinRow:
    name: str
    coeffs: dict
    sense: str
    rhs: float


class MilpModel:
    """Plain container: variables, linear rows, one linear objective."""

    def __init__(self, name, sense):
        if sense not in ("min", "max"):
            raise ModelError(f"objective sense must be min or max, got {sense!r}")
        self.name = name
        self.sense = sense
        self.variables: list[LinVar] = []
        self.rows: list[LinRow] = []
        self.objective: dict[str, float] = {}
        self.objective_constant = 0.0
        self._var_index: dict[str, int] = {}
        self._row_names: set[str] = set()

    def add_var(self, name, lb=0.0, ub=math.inf, kind=CONTINUOUS):
        _check_new_name(name, self._var_index, "variable")
        if kind == BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if kind in (BINARY, INTEGER) and not (math.isfinite(lb) and math.isfinite(ub)):
            raise ModelError(f"discrete variable {name!r} needs finite bounds")
        self._var_index[name] = len(self.variables)
        self.variables.append(LinVar(name, float(lb), float(ub), kind))
        return name

    def add_row(self, name, coeffs, sense, rhs):
        if sense not in _SENSES:
            raise ModelError(f"bad row sense {sense!r}")
        _check_new_name(name, self._row_names, "row")
        coeffs = dict(coeffs)
        self._check_declared(coeffs, f"row {name!r}")
        self._row_names.add(name)
        self.rows.append(LinRow(name, coeffs, sense, float(rhs)))

    def set_objective(self, coeffs, constant=0.0):
        coeffs = dict(coeffs)
        self._check_declared(coeffs, "objective")
        self.objective = coeffs
        self.objective_constant = float(constant)

    def _check_declared(self, coeffs, where):
        if not coeffs.keys() <= self._var_index.keys():
            missing = sorted(coeffs.keys() - self._var_index.keys())
            raise ModelError(f"{where} references undeclared variables {missing}")

    @property
    def n_variables(self):
        return len(self.variables)

    @property
    def n_rows(self):
        return len(self.rows)


def _check_new_name(name, taken, what):
    if not _NAME.fullmatch(name):
        raise ModelError(f"name {name!r} cannot be written as LP text: a name is one token of "
                         f"letters, digits and !\"#$%&(),;?@_'`{{}}|~. not starting with a digit")
    if name in taken:
        raise ModelError(f"duplicate {what} name {name!r}")


# -- x block shared by SL and MC ---------------------------------------------


def x_name(station_id, k, t):
    return f"x_{station_id}_{k}_{t}"


def _add_x_block(model: MilpModel, instance: Instance, periods, base_levels):
    """Ladder variables of the given consecutive periods with budget, ladder
    and persistence rows.

    Persistence into the first period is imposed through lower bounds from
    base_levels (the outlets already held before it); its budget rhs is
    raised by their cost, which the fixed variables consume. The k=1 ladder
    row is vacuous (x_j0 == 1) and omitted.
    """
    first = periods[0]
    for j, st in enumerate(instance.stations):
        for k in range(1, st.max_outlets + 1):
            for t in periods:
                lb = 1.0 if base_levels[j] >= k else 0.0
                model.add_var(x_name(st.id, k, t), lb=lb, ub=1.0, kind=BINARY)
    for t in periods:
        coeffs = {}
        for j, st in enumerate(instance.stations):
            for k in range(1, st.max_outlets + 1):
                c = instance.cost_budget.outlet_cost[j, k - 1, t - 1]
                coeffs[x_name(st.id, k, t)] = c
                if t > first:
                    coeffs[x_name(st.id, k, t - 1)] = coeffs.get(x_name(st.id, k, t - 1), 0.0) - c
        rhs = instance.cost_budget.budgets[t - 1]
        if t == first:
            rhs += sum(
                instance.cost_budget.outlet_cost[j, k - 1, first - 1]
                for j, st in enumerate(instance.stations)
                for k in range(1, base_levels[j] + 1)
            )
        model.add_row(f"budget_t{t}", coeffs, "<=", rhs)
    for j, st in enumerate(instance.stations):
        for t in periods:
            for k in range(2, st.max_outlets + 1):
                model.add_row(f"ladder_{st.id}_{k}_t{t}",
                              {x_name(st.id, k, t): 1.0, x_name(st.id, k - 1, t): -1.0},
                              "<=", 0.0)
            if t > first:
                for k in range(1, st.max_outlets + 1):
                    model.add_row(f"persist_{st.id}_{k}_t{t}",
                                  {x_name(st.id, k, t): 1.0, x_name(st.id, k, t - 1): -1.0},
                                  ">=", 0.0)


def extract_solution_x(instance: Instance, values: dict) -> SolutionX:
    """Read the x block back from a solver's variable values."""
    max_k = int(instance.max_outlets.max()) if instance.n_stations else 0
    binary = np.zeros((instance.n_stations, max_k, instance.horizon), dtype=np.int8)
    for j, st in enumerate(instance.stations):
        for k in range(1, st.max_outlets + 1):
            for t in range(1, instance.horizon + 1):
                binary[j, k - 1, t - 1] = 1 if values.get(x_name(st.id, k, t), 0.0) > 0.5 else 0
    return SolutionX(binary)


# -- Big-M bounds -------------------------------------------------------------


@dataclass
class BigMBounds:
    """Utility bounds of the linearised lower level.

    abar[i, t]: closed-station discount level (min over considered stations
    and scenarios of kappa + eps), possibly lowered to stay strictly under
    every opt-out utility. b, nu, mu are per class with shapes
    (n_alts, R, T): b is the all-outlets utility upper bound, nu = b - abar
    for station alternatives, mu the per-alternative linearisation constant.
    A negative nu or mu entry is refused when the bounds are built.
    """

    abar: np.ndarray
    b: tuple
    nu: tuple
    mu: tuple
    abar_adjusted: list = field(default_factory=list)  # (class_index, t) pairs

    def __post_init__(self):
        self.verify()

    def verify(self):
        for ci, (nu_c, mu_c) in enumerate(zip(self.nu, self.mu)):
            if np.nanmin(nu_c) < -1e-9 or np.nanmin(mu_c) < -1e-9:
                raise ModelError(f"class index {ci}: negative Big-M constant")


def compute_bounds(instance: Instance) -> BigMBounds:
    """Exact bound formulas; checks abar < u0 for every scenario and lowers
    abar with a warning where the check fails (small R can break it)."""
    T = instance.horizon
    abar = compute_abar(instance)
    adjusted = []
    b_all, nu_all, mu_all = [], [], []

    for ci in range(instance.n_classes):
        alt_index = instance.choice_sets.alt_index[ci]
        kap = instance.utility_params.kappa[ci]
        bet = instance.utility_params.beta[ci]
        eps = instance.error_tensor[ci]
        base = kap[:, None, :] + eps  # (n_alts, R, T)
        o = alt_index[OPT_OUT]
        u0_min = base[o].min(axis=0)  # (T,)
        for t in range(T):
            if not np.isnan(abar[ci, t]) and abar[ci, t] >= u0_min[t]:
                abar[ci, t] = u0_min[t] - ABAR_MARGIN
                adjusted.append((ci, t))

        n_alts = kap.shape[0]
        is_station = np.array([alt not in (OPT_OUT, HOME) for alt in alt_index], dtype=bool)
        beta_total = bet.sum(axis=1)  # (n_alts, T)
        b = base + np.where(is_station[:, None], beta_total, 0.0)[:, None, :]
        cap = np.where(is_station[:, None, None], b, base).max(axis=0)  # (R, T)
        mu = np.where(is_station[:, None, None],
                      cap[None, :, :] - abar[ci][None, None, :],
                      cap[None, :, :] - base)
        nu = np.where(is_station[:, None, None], b - abar[ci][None, None, :], 0.0)
        b_all.append(b)
        nu_all.append(nu)
        mu_all.append(mu)

    if adjusted:
        warnings.warn(
            f"abar >= opt-out utility for {len(adjusted)} (class, period) pairs; "
            f"lowered to min_r u0 - {ABAR_MARGIN:g} to keep the Big-M sound", stacklevel=2)
    return BigMBounds(abar, tuple(b_all), tuple(nu_all), tuple(mu_all), adjusted)


# -- single-level model --------------------------------------------------------


def build_sl(instance: Instance, bounds: BigMBounds) -> MilpModel:
    """Single-level model: minimise the opt-out mass subject to the ladder
    block, Big-M utility discounting, and the KKT-linearised choice step.

    Only the (triplet, station) pairs a choice can reach get a block: the
    stations that cover the triplet at some outlet count (`min_k > 0` in
    `build_coverage`, whose `cum >= gap` compare is the one definition of
    covering). Any other station stays strictly below the opt-out utility
    even at its top outlet count, and a closed one at `abar` does too, so
    `pick` could never choose it and its `amax` row is implied by the
    opt-out's. A triplet that no station covers always picks the opt-out:
    its N/R is the objective constant, and it gets no variables or rows.
    Home-forced triplets are dropped (their choice can never be opt-out).
    The open-utility upper row needs no slack for a closed station, because
    abar <= kappa + eps for every considered station and scenario: abar is
    their minimum, and compute_bounds only ever lowers it."""
    model = MilpModel("sl", "min")
    _add_x_block(model, instance, range(1, instance.horizon + 1), instance.initial_levels)
    coverage = build_coverage(instance)
    trip = coverage.trip
    forced = _forced(coverage, np.arange(trip.n_triplets))
    T = instance.horizon
    obj, uncovered = {}, 0.0

    for ci, uc in enumerate(instance.user_classes):
        alt_index = instance.choice_sets.alt_index[ci]
        kap = instance.utility_params.kappa[ci]
        bet = instance.utility_params.beta[ci]
        eps = instance.error_tensor[ci]
        weight = [uc.populations[t] / uc.scenario_count for t in range(T)]
        for t in range(1, T + 1):
            stations_t = np.array(instance.choice_sets.c1[ci][t - 1], dtype=int)
            p0 = trip.triplet_id(ci, t - 1, 0)
            reach = coverage.min_k[[instance.station_index[a] for a in stations_t],
                                   p0:p0 + uc.scenario_count] > 0
            for r in range(uc.scenario_count):
                if forced[p0 + r]:
                    continue
                reached = [int(a) for a in stations_t[reach[:, r]]]
                if not reached:
                    uncovered += weight[t - 1]
                    continue
                tag = f"c{ci}_r{r}_t{t}"
                alts_block = [OPT_OUT] + reached
                names_w, names_u = {}, {}
                for alt in alts_block:
                    a_tag = f"{tag}_a{alt}"
                    names_w[alt] = model.add_var(f"w_{a_tag}", lb=0.0, ub=1.0, kind=BINARY)
                    names_u[alt] = model.add_var(f"u_{a_tag}", lb=-math.inf, ub=math.inf)
                alpha = model.add_var(f"alpha_{tag}", lb=-math.inf, ub=math.inf)
                obj[names_w[OPT_OUT]] = weight[t - 1]

                o = alt_index[OPT_OUT]
                model.add_row(f"uexo_{tag}", {names_u[OPT_OUT]: 1.0}, "=",
                              kap[o, t - 1] + eps[o, r, t - 1])
                for alt in reached:
                    pos = alt_index[alt]
                    m_j = instance.stations[instance.station_index[alt]].max_outlets
                    nu = bounds.nu[ci][pos, r, t - 1]
                    ab = bounds.abar[ci, t - 1]
                    ke = kap[pos, t - 1] + eps[pos, r, t - 1]
                    beta_x = {x_name(alt, k, t): bet[pos, k - 1, t - 1]
                              for k in range(1, m_j + 1)}
                    model.add_row(f"uclosedlo_{tag}_a{alt}", {names_u[alt]: 1.0}, ">=", ab)
                    model.add_row(f"uclosedhi_{tag}_a{alt}",
                                  {names_u[alt]: 1.0, x_name(alt, 1, t): -nu}, "<=", ab)
                    row = {names_u[alt]: 1.0, **{n: -c for n, c in beta_x.items()}}
                    row[x_name(alt, 1, t)] = row.get(x_name(alt, 1, t), 0.0) - nu
                    model.add_row(f"uopenlo_{tag}_a{alt}", row, ">=", ke - nu)
                    row = {names_u[alt]: 1.0, **{n: -c for n, c in beta_x.items()}}
                    model.add_row(f"uopenhi_{tag}_a{alt}", row, "<=", ke)
                for alt in alts_block:
                    pos = alt_index[alt]
                    mu = bounds.mu[ci][pos, r, t - 1]
                    model.add_row(f"pick_{tag}_a{alt}",
                                  {names_u[alt]: 1.0, alpha: -1.0, names_w[alt]: -mu},
                                  ">=", -mu)
                model.add_row(f"one_{tag}", {n: 1.0 for n in names_w.values()}, "=", 1.0)
                for alt in alts_block:
                    model.add_row(f"amax_{tag}_a{alt}",
                                  {alpha: 1.0, names_u[alt]: -1.0}, ">=", 0.0)
    model.set_objective(obj, constant=uncovered)
    return model


def sl_objective_complement(instance: Instance) -> float:
    """Constant linking SL and MC objectives: MC_max + SL_min equals this."""
    return instance.demand_mass()


# -- maximum covering model ----------------------------------------------------


def build_mc(instance: Instance, coverage: CoverageTensor) -> MilpModel:
    """Maximum covering model: one covering row per distinct covering pattern
    of each period; home-forced triplets add a constant."""
    model = MilpModel("mc", "max")
    _add_x_block(model, instance, range(1, instance.horizon + 1), instance.initial_levels)
    obj = {}
    for t in range(1, instance.horizon + 1):
        _add_cover_rows(model, coverage, t, obj)
    model.set_objective(obj, constant=coverage.forced_mass)
    return model


def _add_cover_rows(model, coverage, t, obj):
    """Covering block of period t, with its objective weights entered in obj;
    returns the period's home-forced mass. A triplet p that is neither forced
    nor never covered has the pattern min_k[:, p] and the row w <= sum_j
    x[j, min_k_j, t]; under the ladder rows that admits the integer points of
    the paper's w <= sum_j sum_{k >= min_k_j} x[j, k, t]. Triplets with the
    same pattern have the same row, so one w_t{t}_p{n} weighted by their
    summed N/R stands for all of them; n numbers the patterns in the order
    their first triplet appears."""
    trip = coverage.trip
    b0, b1 = trip.block(0, t - 1), trip.block(0, t)
    p = np.arange(trip.bit_start[b0], trip.bit_start[b1])
    forced = _forced(coverage, p)
    cols = coverage.min_k[:, p]
    keep = (forced == 0) & cols.any(axis=0)
    patterns, first, inverse = np.unique(cols[:, keep], axis=1, return_index=True,
                                         return_inverse=True)
    weights = np.bincount(inverse.ravel(), minlength=first.size,
                          weights=np.repeat(trip.block_weight[b0:b1], trip.block_bits[b0:b1])[keep])
    for n, u in enumerate(np.argsort(first)):
        coeffs = {x_name(coverage.station_ids[j], int(patterns[j, u]), t): 1.0
                  for j in np.flatnonzero(patterns[:, u])}
        w = model.add_var(f"w_t{t}_p{n}", lb=0.0, ub=1.0)
        obj[w] = float(weights[u])
        coeffs[w] = -1.0
        model.add_row(f"cover_t{t}_p{n}", coeffs, ">=", 0.0)
    return coverage.value_of_words(coverage.forced_bits[trip.word_slice(t)], t, t)


def _forced(coverage, p):
    """1 where triplet p is home-forced, else 0, for each triplet id in p."""
    bits = np.unpackbits(coverage.forced_bits.view(np.uint8), bitorder="little")
    return bits[coverage.trip.bit_of(p)]


def build_mc_period(instance: Instance, coverage: CoverageTensor, t: int,
                    base_levels) -> MilpModel:
    """Single-period MC restriction used by the rolling horizon: only the
    period-t ladder variables, persistence encoded as lower bounds from the
    already-fixed previous period."""
    if not 1 <= t <= instance.horizon:
        raise ModelError(f"period {t} outside horizon")
    model = MilpModel(f"mc_t{t}", "max")
    _add_x_block(model, instance, [t], np.asarray(base_levels, dtype=int))
    obj = {}
    constant = _add_cover_rows(model, coverage, t, obj)
    model.set_objective(obj, constant=constant)
    return model


# -- growth-function model -----------------------------------------------------


def build_gf(gf_instance) -> MilpModel:
    """Intracity growth-function MILP. Per-outlet capacity is infinite, so
    there are no capacity rows; EV loads are gated by station openness
    instead, which keeps the model bounded."""
    gf = gf_instance
    growth = gf.growth
    model = MilpModel("gf", "max")
    T = gf.horizon
    S = len(growth.slopes)
    r_total = gf.population

    for j, sid in enumerate(gf.station_ids):
        for t in range(1, T + 1):
            model.add_var(f"gx_{sid}_t{t}", lb=0.0, ub=float(gf.max_outlets[j]), kind=INTEGER)
            model.add_var(f"gy_{sid}_t{t}", lb=0.0, ub=1.0, kind=BINARY)
    for s in range(1, S + 1):
        for t in range(1, T + 1):
            model.add_var(f"gw_s{s}_t{t}", lb=0.0, ub=1.0, kind=BINARY)
            model.add_var(f"gz_s{s}_t{t}", lb=0.0, ub=float(r_total))
    for j, sid in enumerate(gf.station_ids):
        for i in gf.willing_nodes[j]:
            for t in range(1, T + 1):
                model.add_var(f"gh_{i}_{sid}_t{t}", lb=0.0, ub=float(r_total))

    def h_sum(j, t):
        sid = gf.station_ids[j]
        return {f"gh_{i}_{sid}_t{t}": 1.0 for i in gf.willing_nodes[j]}

    for t in range(1, T + 1):
        coeffs = {}
        for j, sid in enumerate(gf.station_ids):
            coeffs[f"gx_{sid}_t{t}"] = gf.outlet_cost
            coeffs[f"gy_{sid}_t{t}"] = gf.opening_cost[j]
            if t > 1:
                coeffs[f"gx_{sid}_t{t-1}"] = -gf.outlet_cost
                coeffs[f"gy_{sid}_t{t-1}"] = -gf.opening_cost[j]
        rhs = gf.budgets[t - 1]
        if t == 1:
            rhs += sum(gf.outlet_cost * gf.initial_outlets[j]
                       + (gf.opening_cost[j] if gf.initial_outlets[j] > 0 else 0.0)
                       for j in range(len(gf.station_ids)))
        model.add_row(f"gbudget_t{t}", coeffs, "<=", rhs)

    for j, sid in enumerate(gf.station_ids):
        for t in range(1, T + 1):
            model.add_row(f"gcap_{sid}_t{t}",
                          {f"gx_{sid}_t{t}": 1.0, f"gy_{sid}_t{t}": -float(gf.max_outlets[j])},
                          "<=", 0.0)
            # an open station holds at least one outlet; without this, the
            # uncapacitated gating would let outlet-less "open" stations serve
            model.add_row(f"gopen_{sid}_t{t}",
                          {f"gx_{sid}_t{t}": 1.0, f"gy_{sid}_t{t}": -1.0}, ">=", 0.0)
            prev_x = {f"gx_{sid}_t{t-1}": -1.0} if t > 1 else {}
            model.add_row(f"gkeepx_{sid}_t{t}", {f"gx_{sid}_t{t}": 1.0, **prev_x}, ">=",
                          0.0 if t > 1 else float(gf.initial_outlets[j]))
            prev_y = {f"gy_{sid}_t{t-1}": -1.0} if t > 1 else {}
            model.add_row(f"gkeepy_{sid}_t{t}", {f"gy_{sid}_t{t}": 1.0, **prev_y}, ">=",
                          0.0 if t > 1 else (1.0 if gf.initial_outlets[j] > 0 else 0.0))

    q_abs = [qv * r_total for qv in growth.breakpoints]
    o_abs = [ov * r_total for ov in growth.intercepts]
    for t in range(1, T + 1):
        coeffs = {f"gz_s{s}_t{t}": 1.0 for s in range(1, S + 1)}
        if t > 1:
            for j in range(len(gf.station_ids)):
                for n, c in h_sum(j, t - 1).items():
                    coeffs[n] = -c
        model.add_row(f"gstock_t{t}", coeffs, "=", 0.0)
        for s in range(1, S + 1):
            model.add_row(f"gseglo_s{s}_t{t}",
                          {f"gz_s{s}_t{t}": 1.0, f"gw_s{s}_t{t}": -q_abs[s - 1]}, ">=", 0.0)
            model.add_row(f"gseghi_s{s}_t{t}",
                          {f"gz_s{s}_t{t}": 1.0, f"gw_s{s}_t{t}": -q_abs[s]}, "<=", 0.0)
        model.add_row(f"goneseg_t{t}", {f"gw_s{s}_t{t}": 1.0 for s in range(1, S + 1)},
                      "<=", 1.0)

    for j, sid in enumerate(gf.station_ids):
        share = sum(gf.node_population[i] for i in gf.willing_nodes[j]) / r_total
        for t in range(1, T + 1):
            coeffs = dict(h_sum(j, t))
            if t > 1:
                for n, c in h_sum(j, t - 1).items():
                    coeffs[n] = coeffs.get(n, 0.0) - c
            for s in range(1, S + 1):
                coeffs[f"gw_s{s}_t{t}"] = -share * o_abs[s - 1]
                coeffs[f"gz_s{s}_t{t}"] = -share * (growth.slopes[s - 1] - 1.0)
            model.add_row(f"ggrow_{sid}_t{t}", coeffs, "<=", 0.0)
            if t > 1:
                coeffs = dict(h_sum(j, t))
                for n, c in h_sum(j, t - 1).items():
                    coeffs[n] = coeffs.get(n, 0.0) - c
                model.add_row(f"gmono_{sid}_t{t}", coeffs, ">=", 0.0)

    for j, sid in enumerate(gf.station_ids):
        for t in range(1, T + 1):
            for i in gf.willing_nodes[j]:
                model.add_row(f"ggate_{i}_{sid}_t{t}",
                              {f"gh_{i}_{sid}_t{t}": 1.0,
                               f"gy_{sid}_t{t}": -float(gf.node_population[i])},
                              "<=", 0.0)

    obj = {}
    for j in range(len(gf.station_ids)):
        for n, c in h_sum(j, T).items():
            obj[n] = c
    model.set_objective(obj)
    return model
