"""Piecewise-linear EV-adoption growth baseline.

The growth function maps the EV penetration at the start of a year (fraction
of the city population) to the penetration at the end of it. It is generated
from covering-model results: per-year covered masses are accumulated per
instance, averaged, normalised by population, interpolated piecewise
linearly, and extended to the whole [0, 1] domain with the last slope
(clamped at 1, floored by the identity so EV counts never shrink).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .covering import CoverageTensor, build_coverage, evaluate_per_period
from .exact import period_extensions
from .instance import Instance, SolutionX
from .milp import build_gf
from .solver import STATUS_OPTIMAL, resolve_solver_command, solve_external


# GF prices: every outlet, and the opening of a station with no outlets yet
GF_OUTLET_COST = 50.0
GF_OPENING_COST = 100.0
# schedule prefixes the solver-less GF enumeration may visit
GF_ENUMERATION_CAP = 200_000


class GrowthError(ValueError):
    pass


class GrowthFunction:
    """Segments s = 1..S with breakpoints q[s-1], q[s], slope m[s], intercept o[s]."""

    def __init__(self, breakpoints, slopes, intercepts, data_range=None):
        self.breakpoints = tuple(float(q) for q in breakpoints)
        self.slopes = tuple(float(m) for m in slopes)
        self.intercepts = tuple(float(o) for o in intercepts)
        self.data_range = data_range
        self.validate()

    def validate(self):
        q, m, o = self.breakpoints, self.slopes, self.intercepts
        if len(q) != len(m) + 1 or len(m) != len(o):
            raise GrowthError("segment arrays have inconsistent lengths")
        if not np.isfinite(q + m + o).all():
            raise GrowthError("breakpoints, slopes and intercepts must be finite")
        if any(b - a <= 0 for a, b in zip(q, q[1:])):
            raise GrowthError("breakpoints must be strictly increasing")
        if abs(q[0]) > 1e-9 or abs(q[-1] - 1.0) > 1e-9:
            raise GrowthError("segments must tile [0, 1]")
        if any(s < -1e-12 for s in m):
            raise GrowthError("growth function must be nondecreasing")
        for s in range(len(m) - 1):
            left = m[s] * q[s + 1] + o[s]
            right = m[s + 1] * q[s + 1] + o[s + 1]
            if abs(left - right) > 1e-9:
                raise GrowthError(f"discontinuity at breakpoint {q[s + 1]}")
        lo, hi = self.data_range if self.data_range else (q[0], q[-1])
        for point in q:
            if lo - 1e-12 <= point <= hi + 1e-12 and self.value(point) < point - 1e-9:
                raise GrowthError(f"g({point}) < identity inside the generated range")

    def segment_of(self, z):
        q = self.breakpoints
        s = int(np.searchsorted(q, z, side="right")) - 1
        return min(max(s, 0), len(self.slopes) - 1)

    def value(self, z):
        """g(z), clamped into [0, 1]; outside the generated data range the
        identity acts as a floor so EV counts never shrink."""
        z = min(max(float(z), 0.0), 1.0)
        s = self.segment_of(z)
        raw = self.slopes[s] * z + self.intercepts[s]
        if self.data_range is not None:
            lo, hi = self.data_range
            if z < lo - 1e-12 or z > hi + 1e-12:
                raw = max(raw, z)
        return min(max(raw, 0.0), 1.0)

    @classmethod
    def identity(cls):
        return cls((0.0, 1.0), (1.0,), (0.0,), data_range=(0.0, 0.0))


def mc_yearly_totals(instances, candidate: SolutionX, coverages=None):
    """Average cumulative EV totals per year of a candidate over instances.

    Returns (cumulative means, per-instance cumulative matrix): entry [k, t]
    is the EV total at the end of year t+1 in instance k, starting from zero
    EV owners.
    """
    if not instances:
        raise GrowthError("need at least one instance")
    rows = []
    for k, inst in enumerate(instances):
        cov = coverages[k] if coverages is not None else build_coverage(inst)
        rows.append(np.cumsum(evaluate_per_period(inst, cov, candidate)))
    per_instance = np.vstack(rows)
    return per_instance.mean(axis=0), per_instance


def generate_growth_function(instances, candidate_solution: SolutionX,
                             coverages=None) -> GrowthFunction:
    """Fit the piecewise-linear growth map to averaged covering results.

    All instances must share the network (and hence the population). Delayed
    adoption (zero growth followed by positive growth) has no functional
    representation and raises.
    """
    populations = {round(inst.network.total_population, 6) for inst in instances}
    if len(populations) != 1:
        raise GrowthError("instances do not share a network population")
    population = instances[0].network.total_population
    cum, _ = mc_yearly_totals(instances, candidate_solution, coverages)
    if (np.diff(cum) < -1e-9).any():
        raise GrowthError("averaged yearly EV totals decrease; cannot fit a growth function")
    points = np.concatenate([[0.0], cum / population])
    return growth_from_points(points)


def growth_from_points(points) -> GrowthFunction:
    """Piecewise-linear fit through normalised cumulative points e_0..e_T,
    with g(e_{t-1}) = e_t, constant-slope extension and identity floor."""
    e = np.asarray(points, dtype=float)
    if (np.diff(e) < -1e-12).any():
        raise GrowthError("points must be nondecreasing")
    if e[-1] > 1.0 + 1e-9:
        raise GrowthError("normalised EV totals exceed the population")
    keep = np.concatenate([[True], np.diff(e) > 1e-12])
    dropped = e[~keep]
    e_red = e[keep]
    # a stalled year means g(e) = e at that point; resuming later has no
    # functional representation
    for z in dropped:
        later = e_red[e_red > z + 1e-12]
        idx = np.searchsorted(e_red, z)
        if idx < len(e_red) - 1 and later.size:
            raise GrowthError("zero-growth year followed by positive growth: "
                              "no single-valued growth function exists")
    e = e_red
    T = len(e) - 1
    if T < 1:
        return GrowthFunction.identity()

    q, m, o = [float(e[0])], [], []
    slopes_data = [(e[t + 1] - e[t]) / (e[t] - e[t - 1]) for t in range(1, T)]
    last_slope = slopes_data[-1] if slopes_data else 1.0
    for t in range(1, T + 1):
        slope = slopes_data[t - 1] if t - 1 < len(slopes_data) else last_slope
        q.append(float(e[t]))
        m.append(float(slope))
        o.append(float(e[t] - slope * e[t - 1]))
    data_hi = float(e[-1])

    # one extension segment from e_T to 1, continuing the last slope; the
    # identity floor and the cap at 1 live in value(), not in extra segments,
    # so T data years always yield T + 1 segments
    if q[-1] < 1.0 - 1e-12:
        q.append(1.0)
        m.append(last_slope)
        o.append(o[-1])
    return GrowthFunction(q, m, o, data_range=(float(e[0]), data_hi))


# -- growth-function file: ordered segment list ---------------------------------
#
# An optional leading `# data_range,<lo>,<hi>` line records the generated data
# range; without it the range is the whole of the segments.

_GF_HEADER = ["q_lo", "q_hi", "slope", "intercept"]
_GF_RANGE = "# data_range"


def growth_to_csv(gf: GrowthFunction) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if gf.data_range is not None:
        w.writerow([_GF_RANGE, *(repr(float(v)) for v in gf.data_range)])
    w.writerow(_GF_HEADER)
    for s in range(len(gf.slopes)):
        w.writerow([repr(gf.breakpoints[s]), repr(gf.breakpoints[s + 1]),
                    repr(gf.slopes[s]), repr(gf.intercepts[s])])
    return buf.getvalue()


def _csv_floats(line, row):
    try:
        return [float(v) for v in row]
    except ValueError as exc:
        raise GrowthError(f"line {line}: {exc}") from None


def growth_from_csv(text: str) -> GrowthFunction:
    rows = list(csv.reader(text.strip().splitlines()))
    first = 1
    data_range = None
    if rows and rows[0][:1] == [_GF_RANGE]:
        if len(rows[0]) != 3:
            raise GrowthError(f"line 1: expected {_GF_RANGE},<lo>,<hi>")
        data_range = tuple(_csv_floats(1, rows[0][1:]))
        if not np.isfinite(data_range).all():
            raise GrowthError("line 1: the data range must be finite")
        rows, first = rows[1:], 2
    if not rows or rows[0] != _GF_HEADER:
        raise GrowthError(f"bad growth-function header: {rows[:1]!r}")
    if len(rows) < 2:
        raise GrowthError("growth-function file has no segments")
    segments = []
    for line, row in enumerate(rows[1:], start=first + 1):
        if len(row) != len(_GF_HEADER):
            raise GrowthError(f"line {line}: expected {len(_GF_HEADER)} values, got {len(row)}")
        segments.append(_csv_floats(line, row))
        if len(segments) > 1 and segments[-1][0] != segments[-2][1]:
            raise GrowthError(f"line {line}: q_lo {segments[-1][0]!r} is not the previous "
                              f"segment's q_hi {segments[-2][1]!r}")
    q = [segments[0][0]] + [seg[1] for seg in segments]
    return GrowthFunction(q, [seg[2] for seg in segments], [seg[3] for seg in segments],
                          data_range=data_range)


def save_growth(gf: GrowthFunction, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(growth_to_csv(gf))


def load_growth(path) -> GrowthFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return growth_from_csv(fh.read())
    except UnicodeDecodeError as exc:
        raise GrowthError(f"{path}: not UTF-8 text: {exc}") from None
    except GrowthError as exc:
        raise GrowthError(f"{path}: {exc}") from None


# -- GF instance and evaluation ---------------------------------------------------


@dataclass
class GfInstance:
    """Growth-function data of one covering instance. Outlet capacity is
    infinite: an open station serves every EV its willing nodes adopt, and
    outlets only cost budget."""

    station_ids: tuple
    willing_nodes: tuple         # per station: node ids within the consideration radius
    max_outlets: np.ndarray
    initial_outlets: np.ndarray
    population: float            # whole-city population r
    node_population: dict        # r_i by node id
    outlet_cost: float
    opening_cost: np.ndarray
    budgets: np.ndarray
    growth: GrowthFunction
    horizon: int


def build_gf_instance(instance: Instance, growth: GrowthFunction,
                      radius_km=10.0) -> GfInstance:
    """Assemble GF data from a covering instance: willing sets from the
    consideration radius, raw node populations, matching budgets, and the
    GF_OUTLET_COST / GF_OPENING_COST prices."""
    net = instance.network
    station_nodes = [s.node_id for s in instance.stations]
    dist = net.distance_matrix(station_nodes)
    willing = tuple(
        tuple(net.node_ids[ni] for ni in np.flatnonzero(dist[si] <= radius_km))
        for si in range(len(station_nodes))
    )
    return GfInstance(
        station_ids=tuple(s.id for s in instance.stations),
        willing_nodes=willing,
        max_outlets=instance.max_outlets.copy(),
        initial_outlets=instance.initial_levels.copy(),
        population=net.total_population,
        node_population={n.id: n.population for n in net.nodes},
        outlet_cost=GF_OUTLET_COST,
        opening_cost=np.full(len(station_nodes), GF_OPENING_COST),
        budgets=np.asarray(instance.cost_budget.budgets, dtype=float),
        growth=growth,
        horizon=instance.horizon,
    )


@dataclass
class GfSolution:
    open: np.ndarray     # (J, T) bool
    outlets: np.ndarray  # (J, T) cumulative outlet counts, as in the model
    status: str = ""                # how the solve that found it ended; "" when given by hand
    objective: float | None = None  # that solve's objective: final-year EVs


def extract_gf_solution(gf: GfInstance, values: dict) -> GfSolution:
    J, T = len(gf.station_ids), gf.horizon
    open_ = np.zeros((J, T), dtype=bool)
    outlets = np.zeros((J, T), dtype=int)
    for j, sid in enumerate(gf.station_ids):
        for t in range(1, T + 1):
            open_[j, t - 1] = values.get(f"gy_{sid}_t{t}", 0.0) > 0.5
            outlets[j, t - 1] = int(round(values.get(f"gx_{sid}_t{t}", 0.0)))
    return GfSolution(open_, outlets)


@dataclass
class GfOutcome:
    yearly_totals: np.ndarray   # EVs at the end of each year
    station_stocks: np.ndarray  # (J, T)
    node_ev: dict               # final-year EVs per node id


def gf_forward_recursion(gf: GfInstance, solution: GfSolution) -> GfOutcome:
    """Resolve the EV loads for a fixed station schedule by the year-by-year
    recursion: every open station takes its full growth-capped increment
    (the per-station constraints are separable, so this is the maximum)."""
    J, T = len(gf.station_ids), gf.horizon
    growth = gf.growth
    r = gf.population
    shares = np.array([
        sum(gf.node_population[i] for i in gf.willing_nodes[j]) / r for j in range(J)
    ])
    stocks = np.zeros(J)
    stock_hist = np.zeros((J, T))
    totals = np.zeros(T)
    for t in range(T):
        z = stocks.sum()
        s = growth.segment_of(z / r)
        inc_city = growth.intercepts[s] * r + (growth.slopes[s] - 1.0) * z
        inc_city = max(inc_city, 0.0)
        for j in range(J):
            if not solution.open[j, t]:
                continue
            stocks[j] += shares[j] * inc_city
        stock_hist[:, t] = stocks
        totals[t] = stocks.sum()
    node_ev = {}
    for j in range(J):
        pop_j = sum(gf.node_population[i] for i in gf.willing_nodes[j])
        if pop_j <= 0:
            continue
        for i in gf.willing_nodes[j]:
            node_ev[i] = node_ev.get(i, 0.0) + stocks[j] * gf.node_population[i] / pop_j
    return GfOutcome(totals, stock_hist, node_ev)


def _solve_gf_model(gf_inst, solver_cmd, time_limit):
    """Solve the GF model externally, or by enumeration when no solver is
    configured. The solution carries the solver's status and objective
    ("feasible-timeout" when it stopped at its limit); an enumeration is
    exhaustive, so its status is "optimal"."""
    command = resolve_solver_command(solver_cmd)
    if command is not None:
        result = solve_external(build_gf(gf_inst), command, time_limit_s=time_limit)
        if result.ok:
            return replace(extract_gf_solution(gf_inst, result.values),
                           status=result.status, objective=result.objective)
        raise GrowthError(f"GF solve failed: {result.status} {result.detail}")
    return _solve_gf_by_enumeration(gf_inst)


def _solve_gf_by_enumeration(gf_inst):
    """Exhaustive search over open patterns, valued by the forward recursion
    (which reads only `open`); desk scale only. Each station stops at its least
    open level, 1 or its initial count: the same pattern at no more spend and
    earlier in lexicographic order, so the first best schedule is unchanged."""
    T = gf_inst.horizon
    ceiling = np.maximum(gf_inst.initial_outlets, np.minimum(gf_inst.max_outlets, 1))
    # price of each station's k-th outlet; opening a station adds to its first
    step_cost = np.full((len(gf_inst.station_ids), int(gf_inst.max_outlets.max())),
                        gf_inst.outlet_cost)
    step_cost[:, 0] += np.where(gf_inst.initial_outlets == 0, gf_inst.opening_cost, 0.0)
    best, best_total = None, -np.inf
    count = 0

    def walk(t, levels):
        nonlocal best, best_total, count
        if t == T:
            outlets = np.array(levels, dtype=int).T  # (J, T) cumulative
            sol = GfSolution(open=outlets > 0, outlets=outlets)
            outcome = gf_forward_recursion(gf_inst, sol)
            if outcome.yearly_totals[-1] > best_total:
                best_total = outcome.yearly_totals[-1]
                best = sol
            return
        base = levels[-1] if levels else tuple(int(v) for v in gf_inst.initial_outlets)
        for opt in period_extensions(base, step_cost, ceiling, gf_inst.budgets[t]):
            count += 1
            if count > GF_ENUMERATION_CAP:
                raise GrowthError(f"GF enumeration exceeds the desk-scale cap of "
                                  f"{GF_ENUMERATION_CAP} schedule prefixes")
            levels.append(opt)
            walk(t + 1, levels)
            levels.pop()

    walk(0, [])
    return replace(best, status=STATUS_OPTIMAL, objective=float(best_total))


def adjust_solution_max_outlets(gf: GfInstance, solution: GfSolution) -> SolutionX:
    """Raise every opened station to its maximum outlet count from its opening
    period onward. Deliberately budget-infeasible; for comparison only."""
    J, T = len(gf.station_ids), gf.horizon
    levels = np.zeros((J, T), dtype=int)
    for j in range(J):
        opened = np.flatnonzero(solution.open[j])
        if opened.size:
            levels[j, opened[0]:] = int(gf.max_outlets[j])
    return SolutionX.from_levels(levels, int(gf.max_outlets.max()))


def gf_solution_as_x(gf: GfInstance, solution: GfSolution) -> SolutionX:
    """The GF outlet schedule in ladder form, for evaluation under f."""
    return SolutionX.from_levels(solution.outlets.astype(int), int(gf.max_outlets.max()))


def per_node_ev(instance: Instance, coverage: CoverageTensor, x: SolutionX) -> dict:
    """Covered EV mass per network node (summed over the horizon)."""
    levels = x.levels
    words = coverage.cover_words(levels)
    counts = np.bitwise_count(words).astype(np.float64)
    trip = coverage.trip
    out = {nid: 0.0 for nid in instance.network.node_ids}
    for ci, uc in enumerate(instance.user_classes):
        node = uc.home_node
        for t in range(trip.horizon):
            b = trip.block(ci, t)
            covered = counts[trip.word_start[b]: trip.word_start[b + 1]].sum()
            out[node] += trip.block_weight[b] * covered
    return out


def write_node_ev_csv(instance: Instance, node_ev: dict, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node_id", "x_km", "y_km", "population", "ev", "ev_pct"])
        for node in instance.network.nodes:
            ev = float(node_ev.get(node.id, 0.0))
            pct = 100.0 * ev / node.population if node.population > 0 else 0.0
            w.writerow([node.id, repr(node.x), repr(node.y), repr(node.population),
                        repr(ev), repr(pct)])
