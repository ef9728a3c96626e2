"""LP text export and parsing, plus solver solution-file parsers.

One LP dialect is emitted (CPLEX-style LP as accepted by CBC, GLPK, HiGHS
and SCIP): an objective section, Subject To rows, Bounds, Binaries and
Generals, terminated by End. Output is deterministic: constraints in build
order, bound/binary/general lines lexicographic by variable name, numbers
with 12 significant digits. Objective constants are not representable
portably in LP text, so they are written as a header comment and re-added
by the solver adapter.
"""

from __future__ import annotations

import math
import re

from .milp import BINARY, CONTINUOUS, INTEGER, LinVar, MilpModel, ModelError

_NUM = "%.12g"
_LINE_WIDTH = 240


def _fmt(value):
    out = _NUM % value
    return out


def _terms(coeffs, var_order, fallback_var):
    parts = []
    for name in var_order:
        c = coeffs[name]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(c))} {name}")
    if not parts:
        # empty expressions are not valid LP text; emit a zero term instead
        return f"0 {fallback_var}"
    first = parts[0]
    first = first[2:] if first.startswith("+ ") else "-" + first[2:]
    return " ".join([first] + parts[1:])


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
    model.validate()
    if not model.variables:
        raise ModelError("cannot export a model without variables")
    fallback = model.variables[0].name
    lines = [f"\\ Problem: {model.name}"]
    if model.objective_constant:
        lines.append(f"\\ ObjectiveConstant: {_fmt(model.objective_constant)}")
    lines.append("Maximize" if model.sense == "max" else "Minimize")
    lines.extend(_wrap(" obj: " + _terms(model.objective, sorted(model.objective), fallback)))
    lines.append("Subject To")
    for row in model.rows:
        op = {"<=": "<=", ">=": ">=", "=": "="}[row.sense]
        body = _terms(row.coeffs, sorted(row.coeffs), fallback)
        lines.extend(_wrap(f" {row.name}: {body} {op} {_fmt(row.rhs)}"))
    lines.append("Bounds")
    for v in sorted(model.variables, key=lambda v: v.name):
        if v.kind == BINARY and v.lb == 0.0 and v.ub == 1.0:
            continue
        if v.lb == v.ub:
            lines.append(f" {v.name} = {_fmt(v.lb)}")
        elif math.isinf(v.ub) and math.isinf(v.lb):
            lines.append(f" {v.name} free")
        elif math.isinf(v.ub):
            if v.lb != 0.0:
                lines.append(f" {v.name} >= {_fmt(v.lb)}")
        elif math.isinf(v.lb):
            lines.append(f" -inf <= {v.name} <= {_fmt(v.ub)}")
        else:
            lines.append(f" {_fmt(v.lb)} <= {v.name} <= {_fmt(v.ub)}")
    binaries = sorted(v.name for v in model.variables if v.kind == BINARY)
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {n}" for n in binaries)
    generals = sorted(v.name for v in model.variables if v.kind == INTEGER)
    if generals:
        lines.append("Generals")
        lines.extend(f" {n}" for n in generals)
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_lp(model: MilpModel, path):
    text = model_to_lp(model)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- LP parsing ---------------------------------------------------------------

_SECTION = re.compile(
    r"^(maximize|maximise|minimize|minimise|subject to|st|s\.t\.|bounds|"
    r"binaries|binary|bin|generals|general|gen|end)$", re.IGNORECASE)
_NAME = r"[A-Za-z!\"#$%&(),;?@_'`{}|~.][A-Za-z0-9!\"#$%&(),;?@_'`{}|~.]*"
# One scan per expression: the scan skips whitespace, and each match is a
# token (the group) or, failing that, a stray character (the group empty).
_TOKEN = re.compile(rf"(<=|>=|=|\+|-|{_NAME}|[0-9.eE+-]+)|\S")
_ROW_START = re.compile(rf"{_NAME}\s*:")


class LpParseError(ValueError):
    pass


def _tokenize_expr(text):
    tokens = _TOKEN.findall(text)
    if "" in tokens:
        pos = next(m.start() for m in _TOKEN.finditer(text) if m.group(1) is None)
        raise LpParseError(f"cannot tokenize near {text[pos:pos+24]!r}")
    return tokens


def _parse_linear(tokens):
    """Tokens -> (coeffs dict, constant). Accepts '3 x', 'x', '- 2.5 y', '+ x'."""
    coeffs, constant = {}, 0.0
    sign, pending = 1.0, None
    for tok in tokens:
        if tok == "+":
            if pending is not None:
                constant += sign * pending
                pending = None
            sign = 1.0
        elif tok == "-":
            if pending is not None:
                constant += sign * pending
                pending = None
            sign = -1.0
        else:
            try:
                value = float(tok)
            except ValueError:
                coeff = sign * (1.0 if pending is None else pending)
                coeffs[tok] = coeffs.get(tok, 0.0) + coeff
                sign, pending = 1.0, None
            else:
                pending = value if pending is None else pending * value
    if pending is not None:
        constant += sign * pending
    return coeffs, constant


def parse_lp(text: str) -> MilpModel:
    """Parse the emitted LP dialect back into a MilpModel."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].rstrip()
        if line.strip():
            lines.append(line)
    sense = None
    sections: dict[str, list[str]] = {"objective": [], "rows": [], "bounds": [],
                                      "binaries": [], "generals": []}
    current = None
    for line in lines:
        stripped = line.strip()
        m = _SECTION.match(stripped)
        if m:
            word = m.group(1).lower()
            if word in ("maximize", "maximise"):
                sense, current = "max", "objective"
            elif word in ("minimize", "minimise"):
                sense, current = "min", "objective"
            elif word in ("subject to", "st", "s.t."):
                current = "rows"
            elif word == "bounds":
                current = "bounds"
            elif word in ("binaries", "binary", "bin"):
                current = "binaries"
            elif word in ("generals", "general", "gen"):
                current = "generals"
            elif word == "end":
                current = None
            continue
        if current is None:
            raise LpParseError(f"content outside any section: {stripped!r}")
        sections[current].append(stripped)
    if sense is None:
        raise LpParseError("no objective section")

    model = MilpModel("parsed", sense)
    obj_text = " ".join(sections["objective"])
    if ":" in obj_text:
        obj_text = obj_text.split(":", 1)[1]
    obj_coeffs, _ = _parse_linear(_tokenize_expr(obj_text))

    # rows may wrap across lines: a new row starts where 'name:' appears
    row_chunks = []
    for line in sections["rows"]:
        if _ROW_START.match(line):
            row_chunks.append(line)
        elif row_chunks:
            row_chunks[-1] += " " + line
        else:
            row_chunks.append("anon: " + line)
    seen_vars: dict[str, LinVar] = {}

    def touch(name):
        if name not in seen_vars:
            seen_vars[name] = LinVar(name, 0.0, math.inf, CONTINUOUS)

    parsed_rows = []
    for chunk in row_chunks:
        name, body = chunk.split(":", 1)
        tokens = _tokenize_expr(body)
        op_positions = [k for k, tok in enumerate(tokens) if tok in ("<=", ">=", "=")]
        if len(op_positions) != 1:
            raise LpParseError(f"row {name.strip()!r}: expected one relational operator")
        k = op_positions[0]
        coeffs, const = _parse_linear(tokens[:k])
        _, rhs = _parse_linear(tokens[k + 1:])
        for var in coeffs:
            touch(var)
        parsed_rows.append((name.strip(), coeffs, tokens[k], rhs - const))
    for var in obj_coeffs:
        touch(var)

    for line in sections["bounds"]:
        tokens = _tokenize_expr(line)
        if len(tokens) == 2 and tokens[1].lower() == "free":
            touch(tokens[0])
            seen_vars[tokens[0]].lb = -math.inf
            continue
        ops = [k for k, tok in enumerate(tokens) if tok in ("<=", ">=", "=")]
        if len(ops) == 1:
            k = ops[0]
            left, right = tokens[:k], tokens[k + 1:]
            if len(left) >= 1 and not _is_number(left[-1]):
                name = left[-1]
                touch(name)
                val = _tokens_to_number(right)
                if tokens[k] == "<=":
                    seen_vars[name].ub = val
                elif tokens[k] == ">=":
                    seen_vars[name].lb = val
                else:
                    seen_vars[name].lb = seen_vars[name].ub = val
            else:
                name = right[-1]
                touch(name)
                val = _tokens_to_number(left)
                if tokens[k] == "<=":
                    seen_vars[name].lb = val
                else:
                    seen_vars[name].ub = val
        elif len(ops) == 2:
            lo = _tokens_to_number(tokens[: ops[0]])
            name = tokens[ops[0] + 1]
            hi = _tokens_to_number(tokens[ops[1] + 1:])
            touch(name)
            seen_vars[name].lb, seen_vars[name].ub = lo, hi
        else:
            raise LpParseError(f"cannot parse bounds line {line!r}")

    for line in sections["binaries"]:
        for name in line.split():
            touch(name)
            v = seen_vars[name]
            v.kind = BINARY
            v.lb, v.ub = max(v.lb, 0.0), min(v.ub if math.isfinite(v.ub) else 1.0, 1.0)
    for line in sections["generals"]:
        for name in line.split():
            touch(name)
            seen_vars[name].kind = INTEGER

    for name in sorted(seen_vars):
        v = seen_vars[name]
        model.add_var(v.name, v.lb, v.ub, v.kind)
    for name, coeffs, op, rhs in parsed_rows:
        model.add_row(name, coeffs, op, rhs)
    model.set_objective(obj_coeffs)
    m = re.search(r"\\ ObjectiveConstant: ([-0-9.eE+]+)", text)
    if m:
        model.objective_constant = float(m.group(1))
    model.validate()
    return model


def _is_number(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return tok.lower() in ("inf", "-inf", "+inf")


def _tokens_to_number(tokens):
    text = "".join(tokens).lower()
    if text in ("inf", "+inf"):
        return math.inf
    if text == "-inf":
        return -math.inf
    return float(text)


# -- solution files -------------------------------------------------------------

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


def write_solution_pairs(path, status, objective, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"status {status}\n")
        if objective is not None:
            fh.write(f"objective {_fmt(objective)}\n")
        for name, value in values.items():
            fh.write(f"{name} {_fmt(value)}\n")
