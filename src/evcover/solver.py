"""MILP solver adapter.

`solve_external` writes the model as LP text and hands it to a solver that
accepts an LP file and writes a solution file. Any such solver is run
through a command template with {lp_path}, {sol_path} and {time_limit}
placeholders, e.g.

    cbc {lp_path} sec {time_limit} solve solu {sol_path}

The template is taken from the call, else from the EVCOVER_SOLVER_CMD
environment variable; unset or empty, it selects the bundled solver. Set
EVCOVER_SOLVER_CMD=none to declare that no solver is available; callers
then receive a 'not-configured' status and can skip or fall back. A template
is checked when it is resolved: it must split into words, name a program and
use no placeholder but those three.

Bundled solver: scipy's HiGHS-backed MILP routine at zero MIP gap, run in
the calling process on the model as it was built (the LP file is still
written, and nothing reads it back). A caller that needs a large solve kept
out of its own memory runs `solve_external` in a process of its own, as
`evcover solve` does for every instance.
"""

from __future__ import annotations

import os
import shlex
import string
import subprocess
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .lp_io import export_lp, parse_solution_file
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


BUNDLED = ""  # the resolved template of the bundled solver
_PLACEHOLDERS = ("lp_path", "sol_path", "time_limit")


class SolverCommandError(ValueError):
    pass


def _template_problem(cmd):
    """Why `cmd` cannot be run as a command template, or None when it can."""
    try:
        words = shlex.split(cmd)
    except ValueError as exc:
        return f"cannot be split into words: {exc}"
    if not words:
        return "names no program"
    for word in words:
        try:
            fields = [(name, conv, spec) for _, name, spec, conv in string.Formatter().parse(word)
                      if name is not None]
        except ValueError as exc:
            return f"{word!r}: {exc}"
        for name, conv, spec in fields:
            if name not in _PLACEHOLDERS or conv or spec:
                text = name + (f"!{conv}" if conv else "") + (f":{spec}" if spec else "")
                return f"{{{text}}} is not one of {{lp_path}}, {{sol_path}} and {{time_limit}}"
    return None


def resolve_solver_command(solver_command=None):
    """Resolve to a command template: BUNDLED for the bundled solver, None
    when solving is disabled. A template that cannot be run raises
    SolverCommandError naming its source and the problem."""
    source = "solver command"
    cmd = solver_command
    if cmd is None:
        source, cmd = SOLVER_ENV_VAR, os.environ.get(SOLVER_ENV_VAR)
    if cmd is None or cmd == "":
        return BUNDLED
    if cmd.strip().lower() == NOT_CONFIGURED:
        return None
    problem = _template_problem(cmd)
    if problem is not None:
        raise SolverCommandError(f"{source} {cmd!r}: {problem}")
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
    try:
        command = resolve_solver_command(solver_command)
    except SolverCommandError as exc:
        return SolveResult(STATUS_ERROR, detail=str(exc))
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
        if command == BUNDLED:
            try:
                status, objective, values = solve_model_inprocess(model, limit)
            except Exception as exc:  # noqa: BLE001 - a failed solve is an error result
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
    `model.variables` order."""
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

    integrality = np.array([v.kind != CONTINUOUS for v in model.variables], dtype=np.uint8)
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    options = {"mip_rel_gap": 0.0, "presolve": True}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    res = milp(c=sign * c, constraints=LinearConstraint(A, lo, hi), integrality=integrality,
               bounds=Bounds(lb, ub), options=options)

    status = {0: STATUS_OPTIMAL, 1: STATUS_TIMEOUT, 2: STATUS_INFEASIBLE,
              3: STATUS_UNBOUNDED}.get(res.status, STATUS_ERROR)
    if res.x is None:  # a limit reached without an incumbent is an error
        return (STATUS_ERROR if status == STATUS_TIMEOUT else status), None, {}
    objective = float(sign * res.fun)
    values = {v.name: float(val) for v, val in zip(model.variables, res.x)}
    return status, objective, values
