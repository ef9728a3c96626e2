"""Output checks applied to every benchmark op. Each returns a list of
failure messages; an empty list means the output passed."""

from __future__ import annotations

from evcover import covering, instance as instance_mod
from evcover.growth import GrowthError

F_REL_TOL = 1e-9          # reported f against a fresh covering.evaluate
EXACT_REL_TOL = 1e-9      # no heuristic may beat the exact optimum by more
MODEL_ABS_TOL = 1e-6      # MC value against the optimum, MC + SL against demand mass
HEURISTIC_METHODS = ("greedy-m", "greedy-h", "grasp-m", "grasp-h", "rh-even", "rh-geom")
EXTERNAL_METHODS = ("mc-external", "sl-external")


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_solution(inst, cov, method, x, f, termination):
    """Feasibility, f consistency and termination of one op's output."""
    failures = []
    report = instance_mod.validate_solution(inst, x)
    if not report.ok:
        failures.append(f"{method}: infeasible schedule ({report.summary()})")
    f_check = covering.evaluate(inst, cov, x)
    if not _close(f_check, f, F_REL_TOL):
        failures.append(f"{method}: reported f {f!r} but evaluate gives {f_check!r}")
    if method in EXTERNAL_METHODS and termination != "optimal":
        failures.append(f"{method}: solver status {termination!r}, not optimal")
    if method.startswith("grasp") and termination == "time_limit":
        failures.append(f"{method}: GRASP stopped on its time limit")
    return failures


def check_against_optimum(method, f, f_star):
    """Heuristics never beat the exact optimum; the MC solve reaches it."""
    if f_star is None:
        return []
    if method in HEURISTIC_METHODS and f > f_star + EXACT_REL_TOL * max(1.0, abs(f_star)):
        return [f"{method}: f {f!r} beats the exact optimum {f_star!r}"]
    if method == "mc-external" and abs(f - f_star) > MODEL_ABS_TOL:
        return [f"mc-external: value {f!r} differs from the exact optimum {f_star!r}"]
    return []


def check_complementarity(f_mc, f_sl, demand_mass):
    """MC maximises covered mass and SL minimises the uncovered rest, so at
    their optima MC + SL equals the total demand mass. Both objectives are
    taken as realised by the returned schedules."""
    sl_objective = demand_mass - f_sl
    if abs(f_mc + sl_objective - demand_mass) > MODEL_ABS_TOL:
        return [f"MC {f_mc!r} + SL {sl_objective!r} != demand mass {demand_mass!r}"]
    return []


def check_growth(curve):
    try:
        curve.validate()
    except GrowthError as exc:
        return [f"growth function invalid: {exc}"]
    return []


def check_solver_status(status):
    return [] if status == "optimal" else [f"GF solve status {status!r}, not optimal"]


def check_repeat(first_f, f):
    """Every op's f must repeat exactly between passes of one run."""
    if first_f is not None and not _close(first_f, f, F_REL_TOL):
        return [f"f {f!r} differs from the first pass's {first_f!r}"]
    return []
