import math
import shlex
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcover import solver
from evcover.covering import build_coverage
from evcover.datasets import generate_small_instance
from evcover.exact import brute_force_optimum
from evcover.growth import build_gf_instance, generate_growth_function
from evcover.heuristics import GreedyConfig, greedy
from evcover.lp_io import model_to_lp
from evcover.milp import (BINARY, CONTINUOUS, INTEGER, MilpModel, build_gf, build_mc,
                          build_mc_period, build_sl, compute_bounds, extract_solution_x)
from evcover.solver import (BUNDLED, BUNDLED_DETAIL, STATUS_ERROR, STATUS_INFEASIBLE,
                            STATUS_NOT_CONFIGURED, STATUS_OPTIMAL, STATUS_TIMEOUT,
                            SolverCommandError, resolve_solver_command, solve_external,
                            solve_model_inprocess)

from lp_reference import parse_lp


def infeasible_toy():
    # forced opening with a budget below the opening cost
    m = MilpModel("inf", "max")
    m.add_var("x", 0, 1, BINARY)
    m.add_row("budget", {"x": 150.0}, "<=", 100.0)
    m.add_row("force_open", {"x": 1.0}, ">=", 1.0)
    m.set_objective({"x": 1.0})
    return m


def test_infeasible_toy_status():
    res = solve_external(infeasible_toy(), time_limit_s=30)
    assert res.status == STATUS_INFEASIBLE
    assert not res.ok


def test_mc_toy_matches_brute_force():
    inst = generate_small_instance(71, n_stations=2, max_scenarios=6)
    cov = build_coverage(inst)
    _, f_star = brute_force_optimum(inst, cov)
    res = solve_external(build_mc(inst, cov), time_limit_s=60)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(f_star, abs=1e-6)
    x = extract_solution_x(inst, res.values)
    from evcover.covering import evaluate
    assert evaluate(inst, cov, x) == pytest.approx(f_star, abs=1e-6)


def test_solve_without_time_limit_runs_untimed():
    m = MilpModel("toy", "max")
    m.add_var("x", 0, 1, BINARY)
    m.add_row("budget", {"x": 150.0}, "<=", 200.0)
    m.set_objective({"x": 1.0})
    res = solve_external(m)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(1.0)


def test_not_configured_paths(monkeypatch):
    assert resolve_solver_command("none") is None
    monkeypatch.setenv("EVCOVER_SOLVER_CMD", "none")
    assert resolve_solver_command(None) is None
    res = solve_external(infeasible_toy(), solver_command="none")
    assert res.status == STATUS_NOT_CONFIGURED
    assert "not configured" in res.detail
    monkeypatch.setenv("EVCOVER_SOLVER_CMD", "custom {lp_path} {sol_path} {time_limit}")
    assert resolve_solver_command(None).startswith("custom ")
    monkeypatch.delenv("EVCOVER_SOLVER_CMD")
    assert resolve_solver_command(None) == BUNDLED
    assert solve_external(infeasible_toy(), BUNDLED).detail == BUNDLED_DETAIL


MALFORMED_TEMPLATES = [
    ("cbc {lp_path} {foo} {sol_path}",
     "{foo} is not one of {lp_path}, {sol_path} and {time_limit}"),
    ("   ", "names no program"),
    ("echo {lp_path} {0}", "{0} is not one of {lp_path}, {sol_path} and {time_limit}"),
    ("cbc {lp_path", "'{lp_path': expected '}' before end of string"),
    ("cbc 'a {lp_path}", "cannot be split into words: No closing quotation"),
    ("cbc {lp_path!r} {sol_path}", "{lp_path!r} is not one of"),
]


@pytest.mark.parametrize("template, problem", MALFORMED_TEMPLATES)
def test_a_malformed_template_is_refused_when_resolved(template, problem):
    with pytest.raises(SolverCommandError) as refused:
        resolve_solver_command(template)
    assert str(refused.value).startswith(f"solver command {template!r}: {problem}")


@pytest.mark.parametrize("template, problem", MALFORMED_TEMPLATES)
def test_a_malformed_template_in_the_environment_is_an_error_result(monkeypatch, template,
                                                                    problem):
    monkeypatch.setenv("EVCOVER_SOLVER_CMD", template)
    res = solve_external(infeasible_toy(), time_limit_s=5)
    assert res.status == STATUS_ERROR and not res.ok
    assert res.detail.startswith(f"EVCOVER_SOLVER_CMD {template!r}: {problem}")


def test_solver_subprocess_failure_reports_error():
    res = solve_external(infeasible_toy(),
                         solver_command=f"{sys.executable} -c import_sys_exit_1",
                         time_limit_s=5)
    assert res.status == STATUS_ERROR
    assert "no solution file" in res.detail


def test_missing_binary_reports_error():
    res = solve_external(infeasible_toy(),
                         solver_command="definitely-not-a-solver {lp_path} {sol_path}",
                         time_limit_s=5)
    assert res.status == STATUS_ERROR


def test_objective_constant_added_back():
    inst = generate_small_instance(72, n_stations=2, max_scenarios=6)
    cov = build_coverage(inst)
    model = build_mc(inst, cov)
    model.objective_constant = 10.0
    base = solve_external(build_mc(inst, cov), time_limit_s=60)
    shifted = solve_external(model, time_limit_s=60)
    assert shifted.objective == pytest.approx(base.objective + 10.0, abs=1e-6)


def test_status_mapping_inprocess():
    status, obj, values = solve_model_inprocess(infeasible_toy())
    assert status == STATUS_INFEASIBLE
    m = MilpModel("unbounded", "max")
    m.add_var("y")  # default [0, inf)
    m.set_objective({"y": 1.0})
    status, _, _ = solve_model_inprocess(m)
    assert status in ("unbounded", STATUS_ERROR)


def test_timeout_returns_incumbent():
    # hard random packing model; a microscopic limit either times out with an
    # incumbent or (if presolve happens to finish it) proves optimality
    rng = np.random.default_rng(4)
    m = MilpModel("slow", "max")
    n_items, n_rows = 260, 420
    for i in range(n_items):
        m.add_var(f"b{i:03d}", 0, 1, BINARY)
    m.set_objective({f"b{i:03d}": float(rng.integers(1, 100)) for i in range(n_items)})
    for rix in range(n_rows):
        members = rng.choice(n_items, size=14, replace=False)
        m.add_row(f"r{rix:03d}", {f"b{i:03d}": float(rng.integers(1, 9)) for i in members},
                  "<=", float(rng.integers(8, 30)))
    res = solve_external(m, time_limit_s=0.25)
    assert res.status in (STATUS_TIMEOUT, STATUS_OPTIMAL)
    if res.status == STATUS_TIMEOUT:
        assert res.values  # incumbent present
        assert res.objective is not None


def reference_models(small_dataset):
    """MC, SL and first-period MC models of three tiny instances, a GF model
    and the infeasible toy."""
    models = []
    for seed in (81, 82, 83):
        inst = generate_small_instance(seed, n_stations=3, horizon=2, max_outlets=2,
                                       max_scenarios=8)
        cov = build_coverage(inst)
        models += [build_mc(inst, cov), build_sl(inst, compute_bounds(inst)),
                   build_mc_period(inst, cov, 1, inst.initial_levels)]
    covs = [build_coverage(i) for i in small_dataset]
    ref = greedy(small_dataset[0], covs[0], GreedyConfig(mode="hyperoptic")).x
    curve = generate_growth_function(small_dataset, ref, covs)
    models.append(build_gf(build_gf_instance(small_dataset[0], curve, radius_km=10.0)))
    models.append(infeasible_toy())
    return models


def test_built_models_solve_as_their_lp_text(small_dataset):
    # an LP-file solver reads the text, which leaves out zero coefficients (the
    # SL models hold some); repr compares every float bit for bit
    for model in reference_models(small_dataset):
        assert repr(solve_model_inprocess(model, 60)) == \
            repr(solve_model_inprocess(parse_lp(model_to_lp(model)), 60)), model.name


def test_default_route_starts_no_process(monkeypatch):
    def no_spawn(*args, **kwargs):
        raise AssertionError("the bundled solver must not be spawned")

    monkeypatch.delenv("EVCOVER_SOLVER_CMD", raising=False)
    monkeypatch.setattr(solver.subprocess, "run", no_spawn)
    res = solve_external(infeasible_toy(), time_limit_s=30)
    assert res.status == STATUS_INFEASIBLE
    assert res.detail == BUNDLED_DETAIL


@pytest.mark.parametrize("target", ["solve_model_inprocess"])
def test_inprocess_exception_becomes_error_result(target, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom inside the bundled solver")

    monkeypatch.delenv("EVCOVER_SOLVER_CMD", raising=False)
    monkeypatch.setattr(solver, target, boom)
    res = solve_external(infeasible_toy(), time_limit_s=30)
    assert res.status == STATUS_ERROR
    assert not res.ok and res.values == {} and res.objective is None
    assert "RuntimeError: boom inside the bundled solver" in res.detail


def thirds_model():
    m = MilpModel("thirds", "max")
    m.add_var("a", 0, 1, BINARY)
    m.add_var("b", 0, 1, BINARY)
    m.add_row("cap", {"a": 1.0, "b": 1.0}, "<=", 2.0)
    m.set_objective({"a": 1 / 3, "b": 1234567.891234567}, constant=0.1)
    return m


def test_objective_is_the_exact_sum_on_both_routes():
    # a spawned solver's file without an objective line: the adapter sums the values
    writer = "import sys; open(sys.argv[1], 'w').write('status optimal\\na 1\\nb 1\\n')"
    spawned = f"{shlex.quote(sys.executable)} -c \"{writer}\" {{sol_path}}"
    for command in (None, spawned):
        res = solve_external(thirds_model(), command, time_limit_s=30)
        assert res.status == STATUS_OPTIMAL and res.values == {"a": 1.0, "b": 1.0}
        assert res.objective == 1 / 3 + 1234567.891234567 + 0.1


def test_default_route_reads_and_writes_no_solution_file(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the in-process route must not use a solution file")

    monkeypatch.delenv("EVCOVER_SOLVER_CMD", raising=False)
    monkeypatch.setattr(solver, "parse_solution_file", boom)
    res = solve_external(thirds_model(), time_limit_s=30)
    assert res.status == STATUS_OPTIMAL and res.detail == BUNDLED_DETAIL
    assert res.objective == 1 / 3 + 1234567.891234567 + 0.1


def test_default_route_solves_the_model_it_was_given(monkeypatch):
    def garbage(model, path):  # what the LP file holds does not reach the solve
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not an LP file\n")

    monkeypatch.delenv("EVCOVER_SOLVER_CMD", raising=False)
    monkeypatch.setattr(solver, "export_lp", garbage)
    res = solve_external(thirds_model(), time_limit_s=30)
    assert res.status == STATUS_OPTIMAL and res.detail == BUNDLED_DETAIL
    assert res.values == {"a": 1.0, "b": 1.0}
    assert res.objective == 1 / 3 + 1234567.891234567 + 0.1


_COEFFS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1 / 3, 7.0])
_SMALL = st.sampled_from([0.0, -0.0, 1.0, 2.0, 5.0, -2.0, 0.5])


@st.composite
def solvable_models(draw):
    """Small models, variables declared out of name order, with zero
    coefficients, an empty row and variables no row or objective uses."""
    model = MilpModel("drawn", draw(st.sampled_from(["min", "max"])))
    names = draw(st.lists(st.text("abxyz_", min_size=1, max_size=3), min_size=1, max_size=6,
                          unique=True))
    for name in names:
        kind = draw(st.sampled_from([CONTINUOUS, BINARY, INTEGER]))
        lb = draw(st.sampled_from([0.0, -0.0, -2.0]))
        ub = draw(st.sampled_from([1.0, 3.0] + ([math.inf] if kind == CONTINUOUS else [])))
        model.add_var(name, lb, ub, kind)
    expressions = st.dictionaries(st.sampled_from(names), _COEFFS, max_size=len(names))
    rows = draw(st.lists(expressions, max_size=5))
    rows.insert(draw(st.integers(0, len(rows))), {})
    for i, coeffs in enumerate(rows):
        model.add_row(f"r{i}", coeffs, draw(st.sampled_from(["<=", ">=", "="])), draw(_SMALL))
    model.set_objective(draw(expressions))
    return model


@settings(max_examples=200, deadline=None)
@given(solvable_models())
def test_inprocess_solve_of_a_model_equals_the_solve_of_its_lp_text(model):
    # repr compares every float bit for bit, the sign of a zero included
    assert repr(solve_model_inprocess(model)) == \
        repr(solve_model_inprocess(parse_lp(model_to_lp(model))))


def test_spawned_solver_output_kept_on_success():
    writer = ("import sys; open(sys.argv[1], 'w').write('status optimal\\nx 1\\n'); "
              "print('x' * 500 + 'solver chatter')")
    python = shlex.quote(sys.executable)
    res = solve_external(infeasible_toy(),
                         solver_command=f"{python} -c \"{writer}\" {{sol_path}}",
                         time_limit_s=5)
    assert res.status == STATUS_OPTIMAL and res.values == {"x": 1.0}
    assert res.detail.endswith("solver chatter\n")
    assert len(res.detail) == 400


@pytest.mark.parametrize("line", ["x 1.0e", "# Columns 1.5", "objective n/a"])
def test_garbled_solution_file_becomes_error_result(line):
    writer = (f"import sys; open(sys.argv[1], 'w').write('status optimal\\n{line}\\n'); "
              "print('solver chatter')")
    python = shlex.quote(sys.executable)
    res = solve_external(infeasible_toy(),
                         solver_command=f"{python} -c \"{writer}\" {{sol_path}}",
                         time_limit_s=5)
    assert res.status == STATUS_ERROR
    assert not res.ok and res.values == {} and res.objective is None
    assert res.detail.startswith("unreadable solution file: ")
    assert repr(line.split()[-1]) in res.detail
    assert res.detail.endswith("solver output: solver chatter\n")
