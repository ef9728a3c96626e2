"""Core problem data: stations, user classes, budgets, utilities, solutions.

An Instance bundles everything a solver needs: the network, the candidate
stations, the user classes with per-period populations, per-period choice
sets, budgets and outlet costs, utility constants/increments, and the
pre-drawn error tensor. Alternatives are identified by integers: 0 is the
opt-out, -1 is home charging, positive ids are stations.

Instances are immutable after construction; every array is marked
read-only so they can be shared freely across threads. save_instance writes
an instance file: one JSON header line, then the raw float64 error tensors
(see "serialization" below); load_instance reads it, and older all-JSON
files too.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .network import Network, network_from_text, network_to_text

OPT_OUT = 0
HOME = -1

INSTANCE_SCHEMA = "evcover-instance-v3"

BUDGET_TOL = 1e-9  # slack allowed on every budget comparison

INCOME_BRACKETS = 5
# delta4 by income bracket, lowest to highest
DELTA4_BY_BRACKET = (-2.0, -1.0, 0.0, 1.0, 2.0)


class InstanceError(ValueError):
    pass


@dataclass(frozen=True)
class Station:
    id: int
    node_id: str
    max_outlets: int
    initial_outlets: int = 0
    level3: bool = True

    def __post_init__(self):
        if self.id <= 0:
            raise InstanceError(f"station ids must be positive (got {self.id})")
        if self.max_outlets < 1:
            raise InstanceError(f"station {self.id}: max_outlets must be >= 1")
        if not (0 <= self.initial_outlets <= self.max_outlets):
            raise InstanceError(
                f"station {self.id}: initial_outlets {self.initial_outlets} outside [0, {self.max_outlets}]"
            )


@dataclass(frozen=True)
class UserClass:
    id: str
    home_node: str
    populations: tuple[float, ...]  # one per period
    has_home_charging: bool = False
    income_bracket: int = 2  # 0 (lowest) .. 4 (highest)
    scenario_count: int = 15
    consideration_radius: float | None = 10.0  # km; None = unbounded

    def __post_init__(self):
        if any(p < 0 for p in self.populations):
            raise InstanceError(f"class {self.id}: negative population")
        if self.scenario_count < 1:
            raise InstanceError(f"class {self.id}: scenario_count must be >= 1")
        if not (0 <= self.income_bracket < INCOME_BRACKETS):
            raise InstanceError(f"class {self.id}: income_bracket outside 0..4")


class CostBudget:
    """Outlet costs c[j][k][t] (cost of going from k-1 to k outlets) and per-period budgets."""

    def __init__(self, outlet_cost, budgets):
        self.outlet_cost = _readonly(np.asarray(outlet_cost, dtype=float))
        self.budgets = _readonly(np.asarray(budgets, dtype=float))
        if self.outlet_cost.ndim != 3:
            raise InstanceError("outlet_cost must have shape (n_stations, max_outlets, T)")
        if (self.budgets < 0).any():
            raise InstanceError("budgets must be >= 0")

    @classmethod
    def uniform(cls, n_stations, max_outlets, horizon, first_outlet, later_outlet, budget):
        c = np.full((n_stations, max_outlets, horizon), float(later_outlet))
        c[:, 0, :] = float(first_outlet)
        return cls(c, np.full(horizon, float(budget)))


class UtilityParams:
    """Per-class alternative-specific constants and outlet-increment benefits.

    kappa[i] has shape (n_alts_i, T), aligned with ChoiceSets.alternatives[i].
    beta[i] has shape (n_alts_i, max_outlets, T); rows for exogenous
    alternatives are zero (their utility does not depend on outlets).
    """

    def __init__(self, kappa, beta):
        self.kappa = tuple(_readonly(np.asarray(a, dtype=float)) for a in kappa)
        self.beta = tuple(_readonly(np.asarray(a, dtype=float)) for a in beta)
        for ci, (k, b) in enumerate(zip(self.kappa, self.beta)):
            if not np.isfinite(k).all():
                raise InstanceError(f"class index {ci}: non-finite kappa")
            if (b < 0).any():
                raise InstanceError(f"class index {ci}: beta increments must be non-negative")


class ChoiceSets:
    """Exogenous (C0) and station (C1) alternative ids, per class and period."""

    def __init__(self, c0, c1):
        # c0[i][t], c1[i][t]: tuples of alternative ids
        self.c0 = tuple(tuple(tuple(alts) for alts in per_class) for per_class in c0)
        self.c1 = tuple(tuple(tuple(alts) for alts in per_class) for per_class in c1)
        self.alternatives = []
        for ci, (per0, per1) in enumerate(zip(self.c0, self.c1)):
            seen, ordered = set(), []
            for t in range(len(per0)):
                for alt in list(per0[t]) + list(per1[t]):
                    if alt not in seen:
                        seen.add(alt)
                        ordered.append(alt)
                if set(per0[t]) & set(per1[t]):
                    raise InstanceError(f"class index {ci}, period {t + 1}: C0 and C1 overlap")
                if OPT_OUT not in per0[t]:
                    raise InstanceError(f"class index {ci}, period {t + 1}: opt-out missing from C0")
            # opt-out first, then home, then stations ascending: stable layout
            ordered.sort(key=lambda a: (a != OPT_OUT, a != HOME, a))
            self.alternatives.append(tuple(ordered))
        self.alternatives = tuple(self.alternatives)
        self.alt_index = tuple(
            {alt: pos for pos, alt in enumerate(alts)} for alts in self.alternatives
        )


class Instance:
    """Complete, immutable input to every solver."""

    def __init__(self, network, stations, user_classes, horizon, cost_budget,
                 utility_params, choice_sets, error_tensor, metadata=None):
        self.network: Network = network
        self.stations: tuple[Station, ...] = tuple(stations)
        self.user_classes: tuple[UserClass, ...] = tuple(user_classes)
        self.horizon = int(horizon)
        self.cost_budget: CostBudget = cost_budget
        self.utility_params: UtilityParams = utility_params
        self.choice_sets: ChoiceSets = choice_sets
        self.error_tensor = tuple(_readonly(np.asarray(e, dtype=float)) for e in error_tensor)
        self.metadata = dict(metadata or {})

        self.station_index = {s.id: idx for idx, s in enumerate(self.stations)}
        if len(self.station_index) != len(self.stations):
            raise InstanceError("duplicate station ids")
        self.max_outlets = np.array([s.max_outlets for s in self.stations], dtype=int)
        self.initial_levels = np.array([s.initial_outlets for s in self.stations], dtype=int)
        self._validate()

    def _validate(self):
        T = self.horizon
        if T < 1:
            raise InstanceError("horizon must be >= 1")
        for s in self.stations:
            if s.node_id not in self.network.index_of:
                raise InstanceError(f"station {s.id}: node {s.node_id!r} not in network")
        J = len(self.stations)
        max_m = int(self.max_outlets.max()) if J else 0
        if self.cost_budget.outlet_cost.shape != (J, max_m, T):
            raise InstanceError(
                f"outlet_cost shape {self.cost_budget.outlet_cost.shape} != {(J, max_m, T)}"
            )
        if self.cost_budget.budgets.shape != (T,):
            raise InstanceError("budgets length must equal horizon")
        for j, s in enumerate(self.stations):
            if (self.cost_budget.outlet_cost[j, : s.max_outlets, :] <= 0).any():
                raise InstanceError(f"station {s.id}: outlet costs must be > 0")

        if not (len(self.user_classes) == len(self.choice_sets.c0) == len(self.choice_sets.c1)
                == len(self.utility_params.kappa) == len(self.utility_params.beta)
                == len(self.error_tensor)):
            raise InstanceError("per-class containers have mismatched lengths")
        for ci, uc in enumerate(self.user_classes):
            if len(uc.populations) != T:
                raise InstanceError(f"class {uc.id}: populations length != horizon")
            if uc.home_node not in self.network.index_of:
                raise InstanceError(f"class {uc.id}: home node {uc.home_node!r} not in network")
            if len(self.choice_sets.c0[ci]) != T or len(self.choice_sets.c1[ci]) != T:
                raise InstanceError(f"class {uc.id}: choice sets must cover every period")
            alts = self.choice_sets.alternatives[ci]
            for t in range(T):
                for alt in self.choice_sets.c1[ci][t]:
                    if alt not in self.station_index:
                        raise InstanceError(f"class {uc.id}: C1 references unknown station {alt}")
            n_alts = len(alts)
            if self.utility_params.kappa[ci].shape != (n_alts, T):
                raise InstanceError(f"class {uc.id}: kappa shape mismatch")
            if self.utility_params.beta[ci].shape != (n_alts, max_m, T):
                raise InstanceError(f"class {uc.id}: beta shape mismatch")
            if self.error_tensor[ci].shape != (n_alts, uc.scenario_count, T):
                raise InstanceError(
                    f"class {uc.id}: error tensor shape {self.error_tensor[ci].shape} "
                    f"!= {(n_alts, uc.scenario_count, T)}"
                )
            if not np.isfinite(self.error_tensor[ci]).all():
                raise InstanceError(f"class {uc.id}: non-finite error terms")

    # -- convenience ---------------------------------------------------

    @property
    def n_stations(self):
        return len(self.stations)

    @property
    def n_classes(self):
        return len(self.user_classes)

    def triplet_count(self):
        return sum(uc.scenario_count for uc in self.user_classes) * self.horizon

    def demand_mass(self):
        """Sum over all triplets of N_i^t / R_i (the objective-scale constant)."""
        return float(sum(sum(uc.populations) for uc in self.user_classes))


# -- solutions ----------------------------------------------------------


class SolutionX:
    """Outlet-ladder decision x[j][k][t] as a binary array (n_stations, max_k, T)."""

    def __init__(self, binary):
        self.binary = np.asarray(binary, dtype=np.int8)
        if self.binary.ndim != 3:
            raise InstanceError("solution array must have shape (n_stations, max_k, T)")

    @classmethod
    def from_levels(cls, levels, max_k):
        levels = np.asarray(levels, dtype=int)
        ks = np.arange(1, max_k + 1)
        binary = (levels[:, None, :] >= ks[None, :, None]).astype(np.int8)
        return cls(binary)

    @classmethod
    def zeros(cls, instance: Instance):
        J, T = instance.n_stations, instance.horizon
        max_k = int(instance.max_outlets.max()) if J else 0
        levels = np.repeat(instance.initial_levels[:, None], T, axis=1)
        return cls.from_levels(levels, max_k)

    def ladder_ok(self):
        return bool((np.diff(self.binary, axis=1) <= 0).all())

    @property
    def levels(self):
        """Outlet counts (n_stations, T); requires a valid ladder."""
        if not self.ladder_ok():
            raise InstanceError("ladder violated: x[j][k][t] > x[j][k-1][t] somewhere")
        return self.binary.sum(axis=1, dtype=int)

    def copy(self):
        return SolutionX(self.binary.copy())

    def __eq__(self, other):
        return isinstance(other, SolutionX) and np.array_equal(self.binary, other.binary)

    def __repr__(self):
        return f"SolutionX(levels=\n{self.binary.sum(axis=1)})"


def period_costs(instance: Instance, levels) -> np.ndarray:
    """Investment per period implied by an outlet-count schedule (n_stations, T):
    entry t is sum_j sum_k c[j][k][t] (x^t - x^{t-1})."""
    levels = np.asarray(levels, dtype=int)
    prev = np.concatenate([instance.initial_levels[:, None], levels[:, :-1]], axis=1)
    cost = instance.cost_budget.outlet_cost
    max_k = cost.shape[1]
    ks = np.arange(1, max_k + 1)
    bought = (levels[:, None, :] >= ks[None, :, None]) & (prev[:, None, :] < ks[None, :, None])
    return np.where(bought, cost, 0.0).sum(axis=(0, 1))


@dataclass
class FeasibilityReport:
    budget_violations: list = field(default_factory=list)       # (t, spend, budget)
    ladder_violations: list = field(default_factory=list)       # (station_id, k, t)
    persistence_violations: list = field(default_factory=list)  # (station_id, k, t)

    @property
    def ok(self):
        return not (self.budget_violations or self.ladder_violations
                    or self.persistence_violations)

    def summary(self):
        if self.ok:
            return "feasible"
        parts = []
        for name, viols in (("budget", self.budget_violations),
                            ("ladder", self.ladder_violations),
                            ("persistence", self.persistence_violations)):
            if viols:
                parts.append(f"{name}: {viols}")
        return "; ".join(parts)


def validate_solution(instance: Instance, x: SolutionX) -> FeasibilityReport:
    """Report every violated budget / ladder / persistence constraint."""
    report = FeasibilityReport()
    J, max_k, T = x.binary.shape
    if J != instance.n_stations or T != instance.horizon:
        raise InstanceError("solution dimensions do not match instance")
    b = x.binary
    for j in range(J):
        sid = instance.stations[j].id
        for t in range(T):
            for k in range(1, max_k):
                if b[j, k, t] > b[j, k - 1, t]:
                    report.ladder_violations.append((sid, k + 1, t + 1))
            if b[j, instance.stations[j].max_outlets:, t].any():
                report.ladder_violations.append((sid, instance.stations[j].max_outlets + 1, t + 1))
    # persistence against the initial state and between consecutive periods
    init = instance.initial_levels
    for j in range(J):
        sid = instance.stations[j].id
        for k in range(1, max_k + 1):
            prev = 1 if init[j] >= k else 0
            for t in range(T):
                cur = int(b[j, k - 1, t])
                if cur < prev:
                    report.persistence_violations.append((sid, k, t + 1))
                prev = max(prev, cur)
    if not report.ladder_violations:
        spends = period_costs(instance, x.levels)
        for t in range(T):
            if spends[t] > instance.cost_budget.budgets[t] + BUDGET_TOL:
                report.budget_violations.append(
                    (t + 1, float(spends[t]), float(instance.cost_budget.budgets[t]))
                )
    return report


# -- serialization -------------------------------------------------------
#
# An instance file (schema v3) is one line of compact, sorted-key JSON, a
# newline, then every class's error tensor as raw little-endian float64
# bytes, in class order, and nothing after them. Each tensor is in the
# row-major order the header records: value[(alt_pos * R + r) * T + t] =
# eps[class][alt_pos][r][t], i.e. nested (class, alternative, scenario,
# period) with alternative order given by "alternatives". The header has
# every field of the v2 document except each class's "errors".
#
# instance_to_json returns the v2 text form: one JSON document whose
# "errors" are base64 strings of the same bytes. v2 documents, and v1 ones,
# which store the values as one flat JSON number list per class, are still
# read, from a file or from text.

_V2_SCHEMA = "evcover-instance-v2"
_V1_SCHEMA = "evcover-instance-v1"
_JSON_FORMAT = {"separators": (",", ":"), "sort_keys": True}


def _header_doc(instance: Instance) -> dict:
    """The v3 header: every field of the instance but its error tensors."""
    return {
        "schema": INSTANCE_SCHEMA,
        "error_tensor_order": "(class, alternative, scenario, period); row-major",
        "metadata": instance.metadata,
        "horizon": instance.horizon,
        "network": network_to_text(instance.network),
        "stations": [
            {"id": s.id, "node_id": s.node_id, "max_outlets": s.max_outlets,
             "initial_outlets": s.initial_outlets, "level3": s.level3}
            for s in instance.stations
        ],
        "budgets": instance.cost_budget.budgets.tolist(),
        "outlet_cost": instance.cost_budget.outlet_cost.tolist(),
        "classes": [
            {
                "id": uc.id,
                "home_node": uc.home_node,
                "populations": list(uc.populations),
                "has_home_charging": uc.has_home_charging,
                "income_bracket": uc.income_bracket,
                "scenario_count": uc.scenario_count,
                "consideration_radius": uc.consideration_radius,
                "c0": [list(a) for a in instance.choice_sets.c0[ci]],
                "c1": [list(a) for a in instance.choice_sets.c1[ci]],
                "alternatives": list(instance.choice_sets.alternatives[ci]),
                "kappa": instance.utility_params.kappa[ci].tolist(),
                "beta": instance.utility_params.beta[ci].tolist(),
            }
            for ci, uc in enumerate(instance.user_classes)
        ],
    }


def instance_to_json(instance: Instance) -> str:
    """The v2 text form: one JSON document, each class's errors a base64 string."""
    doc = _header_doc(instance)
    doc["schema"] = _V2_SCHEMA
    for c, errors in zip(doc["classes"], instance.error_tensor):
        c["errors"] = base64.b64encode(np.ascontiguousarray(errors, dtype="<f8")).decode("ascii")
    return json.dumps(doc, **_JSON_FORMAT)


def _errors_from_doc(value, schema, class_id, shape) -> np.ndarray:
    """One class's error tensor from its "errors" field, refused with
    InstanceError unless it holds exactly n_alts * R * T values."""
    if schema == _V1_SCHEMA:
        flat = np.asarray(value, dtype=float)
    else:
        try:
            raw = base64.b64decode(value, validate=True)
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"class {class_id}: errors are not valid base64: {exc}") from None
        if len(raw) % 8:
            raise InstanceError(
                f"class {class_id}: errors hold {len(raw)} bytes, not a multiple of 8"
            )
        flat = np.frombuffer(raw, dtype="<f8")
    expected = shape[0] * shape[1] * shape[2]
    if flat.size != expected:
        raise InstanceError(
            f"class {class_id}: errors hold {flat.size} values, expected "
            f"{shape[0]}x{shape[1]}x{shape[2]} = {expected}"
        )
    return flat.reshape(shape)


def _errors_from_tail(fh, class_id, shape) -> np.ndarray:
    """One class's error tensor, read straight into its array from the binary
    file `fh` at the tensor's first byte; a file too short for it is refused."""
    nbytes = 8 * shape[0] * shape[1] * shape[2]
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes > left:
        raise InstanceError(
            f"malformed instance file: class {class_id}: the file ends {nbytes - left} "
            f"bytes short of its error tensor ({nbytes} bytes)"
        )
    errors = np.empty(shape, dtype="<f8")
    fh.readinto(errors)
    return errors


def instance_from_json(text: str) -> Instance:
    """An Instance from a v2 or v1 document; the schemas differ only in how
    the error tensor is encoded. A v3 header is refused: its tensors are in
    the file after it, so load_instance reads it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed instance file: {exc}") from exc
    return _instance_from_doc(doc)


def _instance_from_doc(doc, tail=None) -> Instance:
    """The Instance of a parsed document. A v3 header takes its error tensors
    from `tail`, the binary file positioned after it; a v2 or v1 document's
    errors text is freed once decoded."""
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema not in (INSTANCE_SCHEMA, _V2_SCHEMA, _V1_SCHEMA):
        raise InstanceError(
            f"schema mismatch: expected {INSTANCE_SCHEMA}, {_V2_SCHEMA} or {_V1_SCHEMA}, "
            f"got {schema!r}"
        )
    if schema == INSTANCE_SCHEMA and tail is None:
        raise InstanceError(
            f"a {INSTANCE_SCHEMA} header without its error tensors: load the file "
            "with load_instance"
        )
    try:
        network = network_from_text(doc["network"])
        stations = [Station(**s) for s in doc["stations"]]
        T = doc["horizon"]
        classes, c0, c1, kappa, beta, errors = [], [], [], [], [], []
        for c in doc["classes"]:
            uc = UserClass(
                id=c["id"], home_node=c["home_node"], populations=tuple(c["populations"]),
                has_home_charging=c["has_home_charging"], income_bracket=c["income_bracket"],
                scenario_count=c["scenario_count"],
                consideration_radius=c["consideration_radius"],
            )
            classes.append(uc)
            c0.append(c["c0"])
            c1.append(c["c1"])
            kap = np.asarray(c["kappa"], dtype=float)
            kappa.append(kap)
            beta.append(np.asarray(c["beta"], dtype=float))
            shape = (kap.shape[0], uc.scenario_count, T)
            if tail is None:
                errors.append(_errors_from_doc(c.pop("errors"), schema, uc.id, shape))
            else:
                errors.append(_errors_from_tail(tail, uc.id, shape))
        return Instance(
            network=network,
            stations=stations,
            user_classes=classes,
            horizon=T,
            cost_budget=CostBudget(np.asarray(doc["outlet_cost"]), np.asarray(doc["budgets"])),
            utility_params=UtilityParams(kappa, beta),
            choice_sets=ChoiceSets(c0, c1),
            error_tensor=errors,
            metadata=doc.get("metadata", {}),
        )
    except InstanceError:
        raise
    except KeyError as exc:
        raise InstanceError(f"malformed instance file: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"malformed instance file: {exc}") from exc


def save_instance(instance: Instance, path):
    """Write a v3 file: the header line, then the raw error tensors."""
    header = json.dumps(_header_doc(instance), **_JSON_FORMAT)
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        for errors in instance.error_tensor:
            fh.write(memoryview(np.ascontiguousarray(errors, dtype="<f8")))


def load_instance(path) -> Instance:
    """The Instance of a v3, v2 or v1 file. A v3 header line is parsed alone
    and the tensors after it are read into their arrays; any other file is
    parsed as one JSON document."""
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
            # decoded explicitly: json.loads would take bytes starting \xff\xfe as UTF-16
            try:
                doc = json.loads(head.decode("utf-8"))
            except json.JSONDecodeError:
                doc = None
            if isinstance(doc, dict) and doc.get("schema") == INSTANCE_SCHEMA:
                instance = _instance_from_doc(doc, tail=fh)
                if fh.read(1):
                    raise InstanceError("malformed instance file: bytes follow the last error tensor")
                return instance
            rest = fh.read()
        if doc is None or rest.strip():
            doc = json.loads((head + rest).decode("utf-8"))
        del head, rest  # the file's bytes, not needed once parsed
        return _instance_from_doc(doc)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}: malformed instance file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path}: not UTF-8 text: {exc}") from None
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr
