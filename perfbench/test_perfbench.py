"""Tests for the benchmark itself: workloads at reduced scale, the output
checks on tampered results, self-time arithmetic, and repeatability."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (HERE, os.path.join(ROOT, "src")) if p not in sys.path]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from evcover import covering, datasets, growth, heuristics  # noqa: E402
from evcover.instance import SolutionX  # noqa: E402


@pytest.fixture
def solver_env(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    monkeypatch.delenv("EVCOVER_SOLVER_CMD", raising=False)


def reduced(workload):
    """A small variant of a workload: one tiny instance, or (LongSpan, whose
    network cannot shrink) one GRASP solution."""
    if workload.source == "LongSpan":
        return replace(workload, grasp_solutions=1)
    return replace(workload, instances=1, nodes=6, stations=3, horizon=2, max_scenarios=8,
                   grasp_solutions=min(workload.grasp_solutions, 12))


def _run(name, tmp_path, trace):
    w = reduced(workloads.WORKLOADS[name])
    setup = worker.setup_phase(w, 3, str(tmp_path / "data"), trace=trace, min_reps=1,
                               max_reps=1)
    timed = worker.timed_phase(w, 3, setup["data"], seconds=0.0, trace=trace)
    return w, setup, timed


def test_longspan_completes_at_reduced_scale(tmp_path):
    w, setup, timed = _run("longspan-grasp", tmp_path, trace=False)
    assert timed["failures"] == [] and timed["attempted"] == len(w.methods)
    assert len(timed["pass_seconds"]) == 1 and timed["pass_seconds"][0] > 0
    assert timed["report_methods"] == sorted(w.methods)
    assert 99.0 < timed["quality"]["quality_pct.mean"] <= 100.0
    assert setup["instance_file_mb"] > 0 and len(setup["setup_s"]) == 1


@pytest.mark.parametrize("name", ["oracle-desk", "formulations-tiny"])
def test_workload_counts_and_gaps_repeat(name, tmp_path, solver_env):
    """Each workload completes at reduced scale, and two traced runs of the
    same seed give identical counts, sizes and gaps."""
    runs = [_run(name, tmp_path / str(i), trace=True) for i in range(2)]
    w = runs[0][0]
    for _, setup, timed in runs:
        assert timed["failures"] == []
        assert timed["attempted"] == w.instances * len(w.methods) + w.gf_leg
        assert set(setup["per_layer"]) == {"network.generate_s", "datasets.generate_s",
                                           "errors.draw_s", "instance.save_s",
                                           "instance.file_mb"}
    counts = [{k: v for k, v in t["per_layer"].items()
               if run.unit_of(k) in ("count", "%") or k.endswith("_mb")}
              for _, _, t in runs]
    assert counts[0] == counts[1]
    assert runs[0][2]["quality"] == runs[1][2]["quality"]
    assert runs[0][2]["ops"][0]["f"] == runs[1][2]["ops"][0]["f"]
    layer = counts[0]
    if name == "oracle-desk":
        assert layer["exact.schedules"] > 0
        assert layer["heuristics.grasp_solutions"] == 2 * w.grasp_solutions
        assert layer["covering.evaluate_calls"] > layer["exact.schedules"]
    else:
        assert layer["solver.calls"] == 3 and layer["solver.non_optimal"] == 0
        assert layer["milp.mc_vars"] > 0 and layer["milp.sl_nonzeros"] > 0
        assert layer["lp_io.lp_mb"] > 0
    # tracing left no wrapper behind
    assert covering.evaluate.__module__ == "evcover.covering"
    assert not hasattr(covering.evaluate, "__wrapped__")


# -- output checks --------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    inst = datasets.generate_small_instance(5, n_nodes=6, n_stations=3, horizon=2)
    cov = covering.build_coverage(inst)
    res = heuristics.greedy(inst, cov)
    return inst, cov, res


def test_checks_pass_on_untampered_results(tiny):
    inst, cov, res = tiny
    assert checks.check_solution(inst, cov, "greedy-m", res.x, res.f, "completed") == []
    assert checks.check_against_optimum("greedy-m", res.f, res.f) == []
    assert checks.check_against_optimum("mc-external", res.f, res.f) == []
    assert checks.check_complementarity(res.f, res.f, inst.demand_mass()) == []
    assert checks.check_repeat(res.f, res.f) == []
    assert checks.check_solver_status("optimal") == []


def test_check_fires_on_f_off_by_1e_3(tiny):
    inst, cov, res = tiny
    assert checks.check_solution(inst, cov, "greedy-m", res.x, res.f + 1e-3, "completed")
    assert checks.check_repeat(res.f, res.f + 1e-3)


def test_check_fires_on_over_budget_schedule(tiny):
    inst, cov, _ = tiny
    levels = np.repeat(inst.max_outlets[:, None], inst.horizon, axis=1)
    x = SolutionX.from_levels(levels, int(inst.max_outlets.max()))
    f = covering.evaluate(inst, cov, x)
    failures = checks.check_solution(inst, cov, "greedy-m", x, f, "completed")
    assert any("infeasible" in msg for msg in failures)


def test_check_fires_on_mc_objective_off_by_1e_3(tiny):
    inst, _, res = tiny
    assert checks.check_against_optimum("mc-external", res.f + 1e-3, res.f)
    assert checks.check_against_optimum("mc-external", res.f - 1e-3, res.f)
    assert checks.check_complementarity(res.f + 1e-3, res.f, inst.demand_mass())
    assert checks.check_against_optimum("grasp-m", res.f + 1e-3, res.f)


def test_check_fires_on_time_limit_termination(tiny):
    inst, cov, res = tiny
    assert checks.check_solution(inst, cov, "grasp-m", res.x, res.f, "time_limit")
    assert checks.check_solution(inst, cov, "grasp-m", res.x, res.f, "max_solutions") == []
    assert checks.check_solution(inst, cov, "mc-external", res.x, res.f, "feasible-timeout")


def test_check_fires_on_invalid_growth_function():
    curve = growth.GrowthFunction.identity()
    assert checks.check_growth(curve) == []
    curve.slopes = tuple(-1.0 for _ in curve.slopes)
    assert checks.check_growth(curve)


# -- span arithmetic ------------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(1, None, 1, "x.a", 0.0, 10.0, 0, {"y.leaf": [3, 0.5], "x.leaf": [2, 0.25]}),
        S(2, 1, 1, "y.b", 1.0, 4.0, 1),
        S(3, 1, 1, "x.c", 5.0, 9.0, 1),
        S(4, 3, 1, "y.d", 6.0, 7.0, 2),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 10 - 3 - 4 - 0.75, 2: 3.0, 3: 3.0, 4: 1.0})
    entries = tracing.entry_self_times(spans)
    # x.c and x.leaf are charged to the x-layer entry x.a
    assert entries == pytest.approx({"x.a": 2.25 + 3.0 + 0.25, "y.b": 3.0, "y.d": 1.0,
                                     "y.leaf": 0.5})
    assert tracing.layer_self_times(entries) == pytest.approx({"x": 5.5, "y": 4.5})
    assert math.isclose(sum(entries.values()), 10.0)
    assert tracing.calls_under(spans, "x.a", "y.leaf") == 3
    assert tracing.calls_under(spans, "x.a", "y.b") == 1


def test_self_time_counts_overlapping_children_once():
    S = tracing.Span
    spans = [S(1, None, 0, "x.a", 0.0, 10.0), S(2, 1, 0, "y.b", 2.0, 6.0),
             S(3, 1, 0, "y.c", 4.0, 8.0), S(4, 1, 0, "y.d", 9.0, 12.0)]
    assert tracing.self_times(spans)[1] == pytest.approx(10 - 6 - 1)


def test_tracer_folds_hot_leaves_and_keeps_time():
    tr = tracing.Tracer(leaf_span_limit=2)
    leaf = tr._wrap("y.leaf", lambda: None)
    outer = tr._wrap("x.outer", lambda: [leaf() for _ in range(5)])
    outer()
    names = [s.name for s in tr.spans]
    assert names.count("y.leaf") == 2 and names.count("x.outer") == 1
    top = next(s for s in tr.spans if s.name == "x.outer")
    assert top.folded["y.leaf"][0] == 3
    assert tr.calls["y.leaf"] == 5
    assert tracing.calls_under(tr.spans, "x.outer", "y.leaf") == 5


# -- the command and its declared metrics ------------------------------------------------


def test_names_agree_with_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
