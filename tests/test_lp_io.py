import math
import operator
import string
from dataclasses import replace
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcover.covering import build_coverage
from evcover.datasets import generate_small_dataset, generate_small_instance
from evcover.growth import GrowthFunction, _solve_gf_model, build_gf_instance
from evcover.instance import Instance
from evcover.lp_io import (LpParseError, model_to_lp, parse_lp, parse_solution_pairs,
                           parse_solution_sections, write_solution_pairs, parse_solution_file)
from evcover.milp import (BINARY, CONTINUOUS, INTEGER, MilpModel, ModelError, build_gf,
                          build_mc, build_sl, compute_bounds)
from evcover.network import Network


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
 0 <= x1 <= 1
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
    with pytest.raises(ModelError, match="duplicate"):
        m.add_row("r", {"a": 2.0}, "<=", 2.0)


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


_EXACT = st.one_of(st.floats(allow_nan=False),
                   st.sampled_from([-0.0, 5e-324, 0.1, 1.7976931348623157e308]))
_SOLUTION_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True).filter(
    lambda name: name not in ("obj", "objective", "inf", "infinity", "nan"))


def bits(value):
    return None if value is None else value.hex()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["optimal", "feasible-timeout", "infeasible", "unbounded", "error"]),
       st.none() | _EXACT, st.dictionaries(_SOLUTION_NAMES, _EXACT, max_size=8))
def test_solution_pairs_read_back_bit_for_bit(tmp_path_factory, status, objective, values):
    path = tmp_path_factory.mktemp("sol") / "m.sol"
    write_solution_pairs(path, status, objective, values)
    got_status, got_objective, got_values = parse_solution_file(path)
    assert (got_status, bits(got_objective)) == (status, bits(objective))
    assert [(n, bits(v)) for n, v in got_values.items()] == \
        [(n, bits(v)) for n, v in values.items()]


# -- names the dialect cannot carry -----------------------------------------------


def spaced_network_instance(inst):
    """The instance with every node id `n` renamed to `zone n`."""
    rename = {n.id: f"zone {n.id}" for n in inst.network.nodes}
    net = Network([replace(n, id=rename[n.id]) for n in inst.network.nodes],
                  [replace(e, node_a=rename[e.node_a], node_b=rename[e.node_b])
                   for e in inst.network.edges])
    return Instance(net, [replace(s, node_id=rename[s.node_id]) for s in inst.stations],
                    [replace(u, home_node=rename[u.home_node]) for u in inst.user_classes],
                    inst.horizon, inst.cost_budget, inst.utility_params, inst.choice_sets,
                    inst.error_tensor)


def test_names_outside_the_dialect_are_refused():
    m = toy_model()
    with pytest.raises(ModelError, match=r"name 'gh_zone 1_3_t1' cannot be written"):
        m.add_var("gh_zone 1_3_t1", 0, 5)
    m = toy_model()
    with pytest.raises(ModelError, match=r"name 'cap:2' cannot be written"):
        m.add_row("cap:2", {"x1": 1.0}, "<=", 1.0)


def test_gf_model_of_a_network_with_spaced_node_ids_is_refused(monkeypatch):
    monkeypatch.delenv("EVCOVER_SOLVER_CMD", raising=False)
    inst = spaced_network_instance(generate_small_dataset(53, 1, horizon=2)[0])
    curve = GrowthFunction((0.0, 0.5, 1.0), (1.2, 1.2), (0.1, 0.1))
    gf_inst = build_gf_instance(inst, curve, radius_km=1e9)
    with pytest.raises(ModelError, match=r"name 'gh_zone \S+_1_t1' cannot be written"):
        build_gf(gf_inst)
    # the solve route builds the same model, so it is refused before any LP text
    with pytest.raises(ModelError, match="cannot be written"):
        _solve_gf_model(gf_inst, None, 30)


# -- the reader against the writer ------------------------------------------------

_NAME_HEAD = string.ascii_letters + "!\"#$%&(),;?@_'`{}|~."
_NAMES = st.builds(operator.add, st.sampled_from(_NAME_HEAD),
                   st.text(_NAME_HEAD + string.digits, min_size=30, max_size=60))
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([0.0, 1.0, -1.0, 2.5e-7, -3e20]))


@st.composite
def lp_models(draw):
    """Models whose names force wrapping, with negative and exponent
    coefficients, zero and empty expressions, all kinds and infinite bounds."""
    model = MilpModel("drawn", draw(st.sampled_from(["min", "max"])))
    names = draw(st.lists(_NAMES, min_size=1, max_size=10, unique=True))
    for name in names:
        kind = draw(st.sampled_from([CONTINUOUS, BINARY, INTEGER]))
        if kind == BINARY:
            lb, ub = draw(st.sampled_from([(0, 1), (0, 0), (1, 1)]))
        else:
            lo, hi = sorted(draw(st.lists(_NUMBERS, min_size=2, max_size=2)))
            shapes = [(lo, hi), (lo, lo)]
            if kind == CONTINUOUS:
                shapes += [(0, math.inf), (-math.inf, math.inf), (lo, math.inf),
                           (-math.inf, hi)]
            lb, ub = draw(st.sampled_from(shapes))
        model.add_var(name, lb, ub, kind)
    expressions = st.dictionaries(st.sampled_from(names), _NUMBERS, max_size=len(names))
    for name in draw(st.lists(_NAMES, max_size=4, unique=True)):
        model.add_row(name, draw(expressions), draw(st.sampled_from(["<=", ">=", "="])),
                      draw(_NUMBERS))
    model.set_objective(draw(expressions), constant=draw(_NUMBERS))
    return model


def read_back_expected(model):
    """What parse_lp(model_to_lp(model)) should hold: the model's own
    columns in its order, every number exactly, zero coefficients dropped
    and an empty expression as the zero term of the first variable."""
    def expression(coeffs):
        kept = [(name, c) for name, c in coeffs.items() if c != 0]
        return kept or [(model.variables[0].name, 0.0)]

    variables = [(v.name, v.lb, v.ub, v.kind) for v in model.variables]
    rows = [(r.name, expression(r.coeffs), r.sense, r.rhs) for r in model.rows]
    return model.sense, variables, rows, expression(model.objective), model.objective_constant


def read_back(model):
    return (model.sense, [(v.name, v.lb, v.ub, v.kind) for v in model.variables],
            [(r.name, list(r.coeffs.items()), r.sense, r.rhs) for r in model.rows],
            list(model.objective.items()), model.objective_constant)


@settings(max_examples=300, deadline=None)
@given(lp_models())
def test_round_trip_equals_model_exactly(model):
    assert read_back(parse_lp(model_to_lp(model))) == read_back_expected(model)


@settings(max_examples=200, deadline=None)
@given(lp_models())
def test_columns_keep_the_model_order_with_one_bounds_line_each(model):
    text = model_to_lp(model)
    assert [v.name for v in parse_lp(text).variables] == [v.name for v in model.variables]
    lines = text.splitlines()
    bounds = takewhile(lambda line: line.startswith(" "), lines[lines.index("Bounds") + 1:])
    # the name is the first token, or the third of `lo <= name <= hi`
    assert [tokens[2] if tokens[1] == "<=" else tokens[0]
            for tokens in map(str.split, bounds)] == [v.name for v in model.variables]


def one_deletion_each(text):
    """The text with each line, and each token of each line, deleted in turn."""
    lines = text.splitlines()
    for k, line in enumerate(lines):
        yield lines[:k] + lines[k + 1:]
        tokens = line.split(" ")
        for j in range(len(tokens)):
            yield lines[:k] + [" ".join(tokens[:j] + tokens[j + 1:])] + lines[k + 1:]


@settings(max_examples=100, deadline=None)
@given(lp_models())
def test_deleting_a_line_or_token_parses_or_raises(model):
    for lines in one_deletion_each(model_to_lp(model)):
        try:
            parse_lp("\n".join(lines) + "\n")
        except (LpParseError, ModelError):
            pass


def test_text_outside_the_dialect_raises():
    for text in ["", "Maximize\n obj: 1 x\nEnd\n",
                 GOLDEN.replace("Subject To", "subject to"),
                 GOLDEN.replace(" cap: 150 x1 + 50 x2", " cap: 150 x1 50 x2"),
                 GOLDEN.replace(" 0 <= x2 <= 2.5", " x2 <= 2.5"),
                 # a name used without a Bounds line, in a row and the objective or a kind line
                 GOLDEN.replace(" 0 <= x2 <= 2.5\n", ""),
                 GOLDEN.replace(" 0 <= x1 <= 1\n", ""),
                 GOLDEN.replace(" x1\nEnd", " x1 x2\nEnd"),
                 GOLDEN + "\n", GOLDEN.replace("Bounds", "Generals\nBounds")]:
        with pytest.raises(LpParseError):
            parse_lp(text)
