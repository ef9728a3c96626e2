"""MILP solver adapter, plus a bundled LP-file solver.

`solve_external` writes the model as LP text and hands it to a solver that
accepts an LP file and writes a solution file. Any such solver is run
through a command template with {lp_path}, {sol_path} and {time_limit}
placeholders, e.g.

    cbc {lp_path} sec {time_limit} solve solu {sol_path}

The template is taken from the call, else from the EVCOVER_SOLVER_CMD
environment variable, else it falls back to the bundled solver below. Set
EVCOVER_SOLVER_CMD=none to declare that no solver is available; callers
then receive a 'not-configured' status and can skip or fall back.

Bundled solver: scipy's HiGHS-backed MILP routine at zero MIP gap. On the
bundled template `solve_external` still writes the LP file, then solves the
model it was given in the calling process, with no solution file. Other
templates can spawn the same solver as `evcover-lp-solve LP SOL [TIME_LIMIT]`
(`python -m evcover.solver`), which parses the LP file (only the dialect
`export_lp` writes) and writes a name/value solution file. Both routes give
the same numbers, because LP text and solution files carry every float
and the model's column order exactly, and `solve_model_inprocess` drops the
zeros that LP text leaves out.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .lp_io import export_lp, parse_lp, parse_solution_file, write_solution_pairs
from .milp import CONTINUOUS, MilpModel

SOLVER_ENV_VAR = "EVCOVER_SOLVER_CMD"
NOT_CONFIGURED = "none"

STATUS_OPTIMAL = "optimal"
STATUS_TIMEOUT = "feasible-timeout"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ERROR = "error"
STATUS_NOT_CONFIGURED = "not-configured"

BUNDLED_DETAIL = "bundled solver, in-process"


@dataclass
class SolveResult:
    status: str
    objective: float | None = None
    values: dict = field(default_factory=dict)
    wall_time: float = 0.0
    detail: str = ""

    @property
    def ok(self):
        return self.status in (STATUS_OPTIMAL, STATUS_TIMEOUT)


def bundled_solver_command():
    return f"{shlex.quote(sys.executable)} -m evcover.solver {{lp_path}} {{sol_path}} {{time_limit}}"


def resolve_solver_command(solver_command=None):
    """Resolve to a command template, or None when solving is disabled."""
    cmd = solver_command if solver_command is not None else os.environ.get(SOLVER_ENV_VAR)
    if cmd is None or cmd == "":
        return bundled_solver_command()
    if cmd.strip().lower() == NOT_CONFIGURED:
        return None
    return cmd


def solve_external(model: MilpModel, solver_command=None, time_limit_s=None) -> SolveResult:
    """Write the model as LP and solve the LP file.

    The bundled solver runs in the calling process on the given model and
    its answer is returned as HiGHS gives it; it has no grace timeout beyond
    HiGHS's own time limit, and an exception inside it becomes an 'error'
    result. Any other template runs as a subprocess, killed 60 s after the
    time limit when one is given; `detail` keeps the tail of its output, and
    a solution file that cannot be parsed is an 'error' result too. The
    reported objective includes the model's objective constant (which is
    not representable in LP text).
    """
    command = resolve_solver_command(solver_command)
    if command is None:
        return SolveResult(STATUS_NOT_CONFIGURED, detail="external solver not configured")
    limit = float(time_limit_s) if time_limit_s is not None else 1e7
    start = time.perf_counter()

    def failed(detail):
        return SolveResult(STATUS_ERROR, wall_time=time.perf_counter() - start, detail=detail)

    with tempfile.TemporaryDirectory() as tmp:
        lp_path = os.path.join(tmp, f"{model.name}.lp")
        sol_path = os.path.join(tmp, f"{model.name}.sol")
        export_lp(model, lp_path)
        if command == bundled_solver_command():
            try:
                status, objective, values = solve_model_inprocess(model, limit)
            except Exception as exc:  # the spawned program would exit without a solution
                return failed(f"bundled solver failed: {type(exc).__name__}: {exc}")
            detail = BUNDLED_DETAIL
        else:
            argv = [
                part.format(lp_path=lp_path, sol_path=sol_path, time_limit=repr(limit))
                for part in shlex.split(command)
            ]
            try:
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      timeout=None if time_limit_s is None else limit + 60.0)
            except subprocess.TimeoutExpired:
                return failed("solver subprocess exceeded the grace timeout")
            except OSError as exc:
                return failed(f"could not run solver: {exc}")
            detail = (proc.stderr or proc.stdout or "")[-400:]
            if not os.path.exists(sol_path):
                return failed(f"no solution file (exit {proc.returncode}): {detail}")
            try:
                status, objective, values = parse_solution_file(sol_path)
            except ValueError as exc:
                return failed(f"unreadable solution file: {exc}; solver output: {detail}")
    if status in (STATUS_OPTIMAL, STATUS_TIMEOUT):
        if objective is None:
            objective = sum(model.objective.get(n, 0.0) * v for n, v in values.items())
        objective += model.objective_constant
    return SolveResult(status, objective, values, time.perf_counter() - start, detail)


# -- bundled LP solver (scipy / HiGHS) -----------------------------------------


def solve_model_inprocess(model: MilpModel, time_limit_s=None):
    """Solve a MilpModel with scipy's MILP (HiGHS) in this process; returns
    (status, objective_without_constant, values). HiGHS gets the columns in
    `model.variables` order, no zero coefficient and no negative zero
    (`+ 0.0`), so a model and `parse_lp`'s reading of its LP text get the
    same answer."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    index = {v.name: i for i, v in enumerate(model.variables)}
    n = len(model.variables)
    c = np.zeros(n)
    for name, coef in model.objective.items():
        c[index[name]] = coef
    sign = -1.0 if model.sense == "max" else 1.0

    rows, cols, vals = [], [], []
    lo, hi = np.empty((2, len(model.rows)))
    for ri, row in enumerate(model.rows):
        for name, coef in row.coeffs.items():
            rows.append(ri)
            cols.append(index[name])
            vals.append(coef)
        lo[ri] = -np.inf if row.sense == "<=" else row.rhs
        hi[ri] = np.inf if row.sense == ">=" else row.rhs
    A = csr_matrix((vals, (rows, cols)), shape=(len(model.rows), n))
    A.eliminate_zeros()

    integrality = np.array([v.kind != CONTINUOUS for v in model.variables], dtype=np.uint8)
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    options = {"mip_rel_gap": 0.0, "presolve": True}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    res = milp(c=sign * c + 0.0, constraints=LinearConstraint(A, lo + 0.0, hi + 0.0),
               integrality=integrality, bounds=Bounds(lb + 0.0, ub + 0.0), options=options)

    status = {0: STATUS_OPTIMAL, 1: STATUS_TIMEOUT, 2: STATUS_INFEASIBLE,
              3: STATUS_UNBOUNDED}.get(res.status, STATUS_ERROR)
    if res.x is None:  # a limit reached without an incumbent is an error
        return (STATUS_ERROR if status == STATUS_TIMEOUT else status), None, {}
    objective = float(sign * res.fun)
    values = {v.name: float(val) for v, val in zip(model.variables, res.x)}
    return status, objective, values


def checked_number(convert, accept, what):
    """An argparse type: `convert(text)` when `accept` holds for it. Any other
    text raises argparse.ArgumentTypeError naming `what`, so the parser
    refuses it (exit 2) before a command runs."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


# a time limit: the type of the CLI's --time-limit and of evcover-lp-solve's TIME_LIMIT_S
positive_seconds = checked_number(float, lambda v: math.isfinite(v) and v > 0,
                                  "a positive, finite number of seconds")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    usage = "usage: evcover-lp-solve LP_FILE SOL_FILE [TIME_LIMIT_S]"
    if len(argv) not in (2, 3):
        print(usage, file=sys.stderr)
        return 2
    try:
        time_limit = positive_seconds(argv[2]) if len(argv) == 3 else None
    except argparse.ArgumentTypeError as exc:
        print(f"{usage}\nevcover-lp-solve: {exc}", file=sys.stderr)
        return 2
    lp_path, sol_path = argv[0], argv[1]
    try:  # nothing is written when the LP file cannot be read or parsed or the solve fails
        with open(lp_path, "r", encoding="utf-8") as fh:
            model = parse_lp(fh.read())
        status, objective, values = solve_model_inprocess(model, time_limit)
        write_solution_pairs(sol_path, status, objective, values)
    except Exception as exc:  # malformed input must not crash silently
        print(f"failed to solve {lp_path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
