import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcover.covering import build_coverage
from evcover.datasets import generate_small_instance
from evcover.lp_io import (_NAME, LpParseError, _tokenize_expr, model_to_lp, parse_lp,
                           parse_solution_pairs, parse_solution_sections,
                           write_solution_pairs, parse_solution_file)
from evcover.milp import (BINARY, CONTINUOUS, INTEGER, MilpModel, ModelError, build_mc,
                          build_sl, compute_bounds)


def toy_model():
    m = MilpModel("toy", "max")
    m.add_var("x1", 0, 1, BINARY)
    m.add_var("x2", 0, 2.5, CONTINUOUS)
    m.add_row("cap", {"x1": 150.0, "x2": 50.0}, "<=", 400.0)
    m.add_row("link", {"x1": 1.0, "x2": -1.0}, ">=", 0.0)
    m.set_objective({"x1": 2.0, "x2": 1.25})
    return m


GOLDEN = """\\ Problem: toy
Maximize
 obj: 2 x1 + 1.25 x2
Subject To
 cap: 150 x1 + 50 x2 <= 400
 link: 1 x1 - 1 x2 >= 0
Bounds
 0 <= x2 <= 2.5
Binaries
 x1
End
"""


def test_golden_lp_file():
    assert model_to_lp(toy_model()) == GOLDEN


def test_round_trip_preserves_structure():
    text = model_to_lp(toy_model())
    back = parse_lp(text)
    assert back.sense == "max"
    assert back.n_variables == 2
    assert back.n_rows == 2
    assert {v.name: v.kind for v in back.variables} == {"x1": BINARY, "x2": CONTINUOUS}
    assert back.objective == {"x1": 2.0, "x2": 1.25}
    row = {r.name: r for r in back.rows}["cap"]
    assert row.coeffs == {"x1": 150.0, "x2": 50.0}
    assert row.sense == "<=" and row.rhs == 400.0


def test_round_trip_mc_and_sl_counts():
    inst = generate_small_instance(61, n_stations=2, max_scenarios=6)
    cov = build_coverage(inst)
    for model in (build_mc(inst, cov), build_sl(inst, compute_bounds(inst))):
        back = parse_lp(model_to_lp(model))
        assert back.n_variables == model.n_variables
        assert back.n_rows == model.n_rows
        assert back.sense == model.sense
        kinds = {v.name: v.kind for v in model.variables}
        for v in back.variables:
            assert v.kind == kinds[v.name]


def test_objective_constant_survives_as_comment():
    m = toy_model()
    m.set_objective({"x1": 1.0}, constant=12.5)
    back = parse_lp(model_to_lp(m))
    assert back.objective_constant == 12.5


def test_free_and_fixed_bounds():
    m = MilpModel("b", "min")
    m.add_var("f", -math.inf, math.inf)
    m.add_var("fx", 3.0, 3.0)
    m.add_var("neg", -math.inf, 7.0)
    m.add_var("g", 0, 9, INTEGER)
    m.set_objective({"f": 1.0})
    back = parse_lp(model_to_lp(m))
    by = {v.name: v for v in back.variables}
    assert by["f"].lb == -math.inf and by["f"].ub == math.inf
    assert by["fx"].lb == by["fx"].ub == 3.0
    assert by["neg"].lb == -math.inf and by["neg"].ub == 7.0
    assert by["g"].kind == INTEGER


def test_name_collision_rejected_before_writing():
    m = MilpModel("dup", "min")
    m.add_var("a")
    m.add_row("r", {"a": 1.0}, "<=", 1.0)
    m.add_row("r", {"a": 2.0}, "<=", 2.0)
    m.set_objective({"a": 1.0})
    with pytest.raises(ModelError, match="duplicate"):
        model_to_lp(m)


def test_parse_rejects_garbage():
    with pytest.raises(LpParseError):
        parse_lp("this is not an lp file")


def test_long_rows_wrap_and_reparse():
    m = MilpModel("wide", "min")
    coeffs = {}
    for i in range(120):
        m.add_var(f"verylongvariablename_{i:04d}", 0, 1, BINARY)
        coeffs[f"verylongvariablename_{i:04d}"] = 1.0 + i / 7.0
    m.add_row("wide_row", coeffs, "<=", 10.0)
    m.set_objective(coeffs)
    back = parse_lp(model_to_lp(m))
    assert back.n_variables == 120
    got = {r.name: r for r in back.rows}["wide_row"].coeffs
    for name, c in coeffs.items():
        assert got[name] == pytest.approx(c, rel=1e-11)


# -- solution files ------------------------------------------------------------


def test_pairs_style_own_format(tmp_path):
    path = tmp_path / "a.sol"
    write_solution_pairs(path, "optimal", 181.25, {"x_1_1_1": 1.0, "w_c0_r0_t1": 0.5})
    status, obj, values = parse_solution_file(path)
    assert status == "optimal"
    assert obj == pytest.approx(181.25)
    assert values == {"x_1_1_1": 1.0, "w_c0_r0_t1": 0.5}


def test_pairs_style_cbc_like():
    text = """Optimal - objective value 16.50
0 x_1_1_1 1 0
1 w_c0_r0_t1 0.5 0
"""
    status, obj, values = parse_solution_pairs(text)
    assert status == "optimal"
    assert obj == pytest.approx(16.5)
    assert values["x_1_1_1"] == 1.0
    assert values["w_c0_r0_t1"] == 0.5


def test_sections_style_highs_like():
    text = """Model status
Optimal

# Primal solution values
Feasible
Objective 33.25
# Columns 2
x_1_1_1 1
w_c0_r0_t1 0.25
# Rows 1
cover_c0_r0_t1 0.25
"""
    status, obj, values = parse_solution_sections(text)
    assert status == "optimal"
    assert obj == pytest.approx(33.25)
    assert values == {"x_1_1_1": 1.0, "w_c0_r0_t1": 0.25}
    # row section must not leak into values
    assert "cover_c0_r0_t1" not in values


def test_infeasible_status_words():
    status, _, _ = parse_solution_pairs("Infeasible - objective value 0\n")
    assert status == "infeasible"
    status, _, _ = parse_solution_pairs("status feasible-timeout\nobjective 5\nx 1\n")
    assert status == "feasible-timeout"


# -- the one-scan tokenizer against the per-token loop it replaced -----------------

_LOOP_TOKEN = re.compile(rf"(<=|>=|=|\+|-|{_NAME}|[0-9.eE+-]+)")


def loop_tokenize(text):
    """Reference: one anchored match per token, skipping whitespace by hand."""
    pos = 0
    tokens = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _LOOP_TOKEN.match(text, pos)
        if not m:
            raise LpParseError(f"cannot tokenize near {text[pos:pos+24]!r}")
        tokens.append(m.group(0))
        pos = m.end()
    return tokens


def _outcome(tokenize, text):
    try:
        return "ok", tokenize(text)
    except LpParseError as exc:
        return "error", str(exc)


# LP text (names, numbers, operators, exponents, whitespace) plus stray
# characters no token starts with, including Unicode whitespace and letters
_LP_ALPHABET = ("abxyzEe_.0123456789+-<>=:!#(){}|~ \t\n\r\x0b\x0c"
                "*/^[]\\\x1c\xa0\u2003\u00e9\x00")
_LP_PIECES = st.sampled_from(["x_1_2_3", "w_c0_t1_r12", "1.25", "-3e-05", "2.5E+10",
                              " <= ", " >= ", " = ", " + ", " - ", "inf", "free", ".5e"])


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(alphabet=_LP_ALPHABET, max_size=80),
                 st.lists(st.one_of(_LP_PIECES, st.text(alphabet=_LP_ALPHABET, max_size=3)),
                          max_size=20).map("".join)))
def test_tokenizer_equals_per_token_loop(text):
    new, old = _outcome(_tokenize_expr, text), _outcome(loop_tokenize, text)
    assert new == old
    if new[0] == "error":
        assert new[1].startswith("cannot tokenize near ")


def test_tokenizer_reports_first_stray_character():
    with pytest.raises(LpParseError, match=r"cannot tokenize near '\* 3 y <= 4'"):
        _tokenize_expr("2 x + * 3 y <= 4")
    assert _tokenize_expr("  2 x1 -3.5e-2 y.z>=inf  ") == [
        "2", "x1", "-", "3.5e-2", "y.z", ">=", "inf"]
