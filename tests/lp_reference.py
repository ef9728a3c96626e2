"""The reader of the LP dialect `lp_io.model_to_lp` writes, kept as the
reference the writer is checked against: `parse_lp(model_to_lp(m))` must
hold m's columns, rows and numbers exactly, and solve as m does. It reads
exactly that dialect; any other text raises LpParseError."""

import math

from evcover.milp import BINARY, CONTINUOUS, INTEGER, MilpModel, ModelError


_HEADERS = {"Maximize", "Minimize", "Subject To", "Bounds", "Binaries", "Generals", "End"}
_CONSTANT = "\\ ObjectiveConstant: "


class LpParseError(ValueError):
    pass


def _number(tok):
    try:
        return float(tok)
    except ValueError:
        raise LpParseError(f"expected a number, got {tok!r}") from None


def _linear(entry, tokens):
    """`[-]c name` then `± c name` terms -> {name: coeff}, in written order."""
    signs = tokens[2::3]
    if len(tokens) % 3 != 2 or not {"+", "-"}.issuperset(signs):
        raise LpParseError(f"{entry!r}: expected '[-]c name' then '± c name' terms")
    try:
        values = [float(tokens[0])] + [float(s + c) for s, c in zip(signs, tokens[3::3])]
    except ValueError:
        raise LpParseError(f"{entry!r}: a coefficient is not a number") from None
    coeffs = dict(zip(tokens[1::3], values))
    if len(coeffs) != len(values):
        raise LpParseError(f"{entry!r}: a variable appears twice")
    return coeffs


def _entries(lines):
    """(name, tokens) per `name: ...` entry, run on over its wrapped lines (no colon)."""
    entries = []
    for line in lines:
        name, colon, body = line.partition(":")
        if colon:
            entries.append((name.strip(), body.split()))
        elif entries:
            entries[-1][1].extend(line.split())
        else:
            raise LpParseError(f"{line.strip()!r} does not start with 'name:'")
    return entries


def parse_lp(text: str) -> MilpModel:
    """Read back exactly the dialect `model_to_lp` writes; any other text
    raises LpParseError. The columns are the Bounds lines, in their order, so
    `parse_lp(model_to_lp(m))` has m's columns in m's order."""
    lines = text.splitlines()
    marks = [k for k, line in enumerate(lines) if line in _HEADERS] + [len(lines)]
    headers = [lines[k] for k in marks[:-1]]
    bodies = [lines[a + 1:b] for a, b in zip(marks, marks[1:])]
    optional = [h for h in ("Binaries", "Generals") if h in headers]
    if headers[:1] not in (["Maximize"], ["Minimize"]) or bodies[-1] or \
            headers[1:] != ["Subject To", "Bounds", *optional, "End"]:
        raise LpParseError("expected the sections Maximize or Minimize, Subject To, Bounds, "
                           "[Binaries], [Generals] and End, in this order, ending the text")
    comments = lines[:marks[0]]
    if not all(line.startswith("\\") for line in comments):
        raise LpParseError("only comment lines may precede the objective")
    constant = next((_number(line[len(_CONSTANT):]) for line in comments
                     if line.startswith(_CONSTANT)), 0.0)
    sections = dict(zip(headers, bodies))

    objective = _entries(sections[headers[0]])
    if [label for label, _ in objective] != ["obj"]:
        raise LpParseError("the objective section must hold the one entry 'obj:'")
    obj_coeffs = _linear(*objective[0])
    rows = []
    for name, tokens in _entries(sections["Subject To"]):
        if len(tokens) < 4 or tokens[-2] not in ("<=", ">=", "="):
            raise LpParseError(f"{name!r}: expected terms, then a relational operator and rhs")
        # + 0.0 reads a written "-0" rhs as 0
        rows.append((name, _linear(name, tokens[:-2]), tokens[-2], _number(tokens[-1]) + 0.0))

    kind = {}
    for header, var_kind in (("Binaries", BINARY), ("Generals", INTEGER)):
        for line in sections.get(header, ()):
            tokens = line.split()
            if len(tokens) != 1 or tokens[0] in kind:
                raise LpParseError(f"{header}: {line.strip()!r} is not one new name")
            kind[tokens[0]] = var_kind

    model = MilpModel("parsed", "max" if headers[0] == "Maximize" else "min")
    try:
        for line in sections["Bounds"]:
            match line.split():
                case [name, "free"]:
                    lo, hi = -math.inf, math.inf
                case [name, ">=", lo]:
                    lo, hi = _number(lo), math.inf
                case [name, "=", lo]:
                    lo = hi = _number(lo)
                case [lo, "<=", name, "<=", hi]:
                    lo, hi = _number(lo), _number(hi)
                case _:
                    raise LpParseError(f"bounds line {line.strip()!r} has none of the written "
                                       "shapes")
            model.add_var(name, lo, hi, kind.pop(name, CONTINUOUS))
        if kind:
            raise LpParseError(f"{next(iter(kind))!r} has a kind line but no bounds line")
        for name, coeffs, op, rhs in rows:
            model.add_row(name, coeffs, op, rhs)
        model.set_objective(obj_coeffs, constant)
    except ModelError as exc:
        raise LpParseError(str(exc)) from None
    return model
