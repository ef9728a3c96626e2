"""LP text export, plus solver solution-file parsers.

One LP dialect is emitted (CPLEX-style LP as accepted by CBC, GLPK, HiGHS
and SCIP): an objective section, Subject To rows, Bounds, Binaries and
Generals, terminated by End. The text carries the whole model in its own
order: rows, terms, and one Bounds line per column, as built. Every
number is the shortest text that reads back as the same float, so a solver
reading the file gets the model's numbers exactly. Objective constants, not
portable in LP text, are written as a header comment and re-added by the
solver adapter. Every name is one LP token because `MilpModel` refuses any
other name when the model is built.
"""

from __future__ import annotations

import math

from .milp import BINARY, INTEGER, MilpModel, ModelError

_LINE_WIDTH = 240


def _fmt(value):
    # repr reads back as the same float; integers are written without ".0"
    return repr(float(value)).removesuffix(".0")


def _terms(coeffs, fallback_var):
    text = " ".join(f"{'-' if c < 0 else '+'} {_fmt(abs(c))} {name}"
                    for name, c in coeffs.items() if c != 0)
    if not text:
        # empty expressions are not valid LP text; emit a zero term instead
        return f"0 {fallback_var}"
    # the first term carries its sign on the number: "c x" or "-c x"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _wrap(line, indent=" "):
    if len(line) <= _LINE_WIDTH:
        return [line]
    out, cur = [], ""
    for tok in line.split(" "):
        if cur and len(cur) + 1 + len(tok) > _LINE_WIDTH:
            out.append(cur)
            cur = indent + tok
        else:
            cur = tok if not cur else f"{cur} {tok}"
    out.append(cur)
    return out


def model_to_lp(model: MilpModel) -> str:
    if not model.variables:
        raise ModelError("cannot export a model without variables")
    fallback = model.variables[0].name
    lines = [f"\\ Problem: {model.name}"]
    if model.objective_constant:
        lines.append(f"\\ ObjectiveConstant: {_fmt(model.objective_constant)}")
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    lines.extend(_wrap(" obj: " + _terms(model.objective, fallback)))
    lines.append("Subject To")
    for row in model.rows:
        body = _terms(row.coeffs, fallback)
        lines.extend(_wrap(f" {row.name}: {body} {row.sense} {_fmt(row.rhs)}"))
    lines.append("Bounds")
    for v in model.variables:
        if v.lb == v.ub:
            lines.append(f" {v.name} = {_fmt(v.lb)}")
        elif math.isinf(v.ub) and math.isinf(v.lb):
            lines.append(f" {v.name} free")
        elif math.isinf(v.ub):
            lines.append(f" {v.name} >= {_fmt(v.lb)}")
        elif math.isinf(v.lb):
            lines.append(f" -inf <= {v.name} <= {_fmt(v.ub)}")
        else:
            lines.append(f" {_fmt(v.lb)} <= {v.name} <= {_fmt(v.ub)}")
    for header, kind in (("Binaries", BINARY), ("Generals", INTEGER)):
        names = [f" {v.name}" for v in model.variables if v.kind == kind]
        if names:
            lines += [header, *names]
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_lp(model: MilpModel, path):
    """Write the model's LP text to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_lp(model))


# -- solution files -------------------------------------------------------------

def _is_number(tok):
    try:
        float(tok)  # also reads inf, -inf and +inf in any case
    except ValueError:
        return False
    return True


_STATUS_WORDS = {
    "optimal": "optimal",
    "optimum": "optimal",
    "feasible-timeout": "feasible-timeout",
    "stopped": "feasible-timeout",
    "time": "feasible-timeout",
    "limit": "feasible-timeout",
    "infeasible": "infeasible",
    "unbounded": "unbounded",
    "error": "error",
}


def _map_status(text):
    low = text.lower()
    for word, status in _STATUS_WORDS.items():
        if word in low:
            return status
    return None


def parse_solution_pairs(text: str):
    """Style A: optional leading status/objective lines, then `name value`
    rows (CBC-style `index name value [reduced cost]` rows also accepted)."""
    status, objective, values = None, None, {}
    first_content = True
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        # status sniffing only on the first content line, to avoid variable
        # names that happen to contain a status word
        if first_content and _map_status(line) is not None and not _is_number(tokens[0]):
            first_content = False
            status = _map_status(line)
            nums = [tok for tok in tokens if _is_number(tok)]
            if nums:
                objective = float(nums[-1])
            continue
        first_content = False
        if tokens[0].lower() in ("objective", "obj") and len(tokens) >= 2:
            objective = float(tokens[-1])
            continue
        if len(tokens) >= 2 and not _is_number(tokens[0]):
            values[tokens[0]] = float(tokens[1])
        elif len(tokens) >= 3 and _is_number(tokens[0]) and not _is_number(tokens[1]):
            values[tokens[1]] = float(tokens[2])
    return status or "error", objective, values


def parse_solution_sections(text: str):
    """Style B: HiGHS-like sectioned file with a model-status line, an
    objective line, and a Columns section of `name value` rows."""
    status, objective, values = None, None, {}
    in_columns = False
    remaining = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("model status") or low.startswith("status"):
            tail = line.split(":", 1)[1] if ":" in line else " ".join(line.split()[1:])
            status = _map_status(tail) or status
            continue
        if _map_status(low) == low.replace(" ", "-") and status is None:
            status = _map_status(low)
            continue
        if low.startswith("objective"):
            tokens = line.replace(":", " ").split()
            nums = [tok for tok in tokens if _is_number(tok)]
            if nums:
                objective = float(nums[-1])
            continue
        if low.startswith("# columns") or low == "columns" or low.startswith("columns"):
            in_columns = True
            tokens = line.split()
            remaining = int(tokens[-1]) if _is_number(tokens[-1]) else -1
            continue
        if low.startswith("# rows") or low.startswith("rows"):
            in_columns = False
            continue
        if in_columns and remaining != 0:
            tokens = line.split()
            if len(tokens) >= 2 and not _is_number(tokens[0]):
                values[tokens[0]] = float(tokens[1])
                if remaining > 0:
                    remaining -= 1
    return status or "error", objective, values


def parse_solution_file(path):
    """Auto-detect the solution style; returns (status, objective, values)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    low = text.lower()
    if "model status" in low or "# columns" in low or low.lstrip().startswith("columns"):
        return parse_solution_sections(text)
    return parse_solution_pairs(text)
