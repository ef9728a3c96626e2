"""The benchmark's workloads: set-up (instance generation and writes) and
one timed pass (every op, then the report leg and, where asked, the
growth-function leg).

One op is one (instance, method) pair run the way `evcover solve` runs it:
load the instance, build its coverage tensor, run the method through
`cli.run_method`, then check the output. Every op pays load and coverage, as
a CLI user does per method. GRASP ops are the exception: they call
`heuristics.grasp` with a fixed `max_solutions`, because `run_method` only
exposes a time limit, and a time-limited GRASP would make solution quality
depend on machine speed.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

from evcover import cli, covering, datasets, growth, heuristics, instance, milp, network, solver

import checks

TIME_LIMIT_S = cli.DEFAULT_TIME_LIMIT


@dataclass(frozen=True)
class Workload:
    name: str
    source: str                 # "small-instances", "small-dataset" or a dataset kind
    instances: int
    nodes: int
    methods: tuple
    stations: int = 0
    horizon: int = 0
    max_outlets: int = 0
    max_scenarios: int = 15
    budget: float | None = None
    grasp_solutions: int = 0
    gf_leg: bool = False


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # With the budget fixed at 250, every seed has the same 23,331 feasible
    # schedules, so the oracle's work does not change with the seed. GRASP
    # runs enough solutions here for its candidate filter to switch on.
    Workload(
        name="oracle-desk",
        source="small-instances", instances=6, nodes=12, stations=5, horizon=4,
        max_outlets=2, max_scenarios=15, budget=250.0, grasp_solutions=50,
        methods=("exact-enum", "greedy-m", "greedy-h", "grasp-m", "grasp-h", "rh-even")),
    # 30 nodes is the smallest LongSpan network (it has 30 candidate stations).
    # At 80 nodes one set-up writes 220 MB of JSON in ~11 s, too slow for
    # three set-up reps and a pass per run.
    Workload(
        name="longspan-grasp",
        source="LongSpan", instances=1, nodes=30, grasp_solutions=4,
        methods=("greedy-h", "grasp-m")),
    # Each solve starts the bundled solver as a child interpreter.
    Workload(
        name="formulations-tiny",
        source="small-dataset", instances=6, nodes=8, stations=3, horizon=2,
        max_outlets=2, max_scenarios=15, gf_leg=True,
        methods=("exact-enum", "mc-external", "sl-external")),
)}


# -- set-up --------------------------------------------------------------------------


def generate(workload: Workload, seed: int, out_dir: str) -> list[str]:
    """Generate the workload's instances from `seed` and write them with a
    manifest into out_dir, as `evcover generate` does; return their paths."""
    os.makedirs(out_dir, exist_ok=True)
    w = workload
    if w.source == "small-instances":
        insts = [datasets.generate_small_instance(
            seed * 1000 + i, n_nodes=w.nodes, n_stations=w.stations, horizon=w.horizon,
            max_outlets=w.max_outlets, max_scenarios=w.max_scenarios, budget=w.budget)
            for i in range(w.instances)]
    elif w.source == "small-dataset":
        insts = datasets.generate_small_dataset(
            seed, w.instances, n_nodes=w.nodes, n_stations=w.stations, horizon=w.horizon,
            max_outlets=w.max_outlets, max_scenarios=w.max_scenarios, budget=w.budget)
    else:
        net = network.generate_network(w.nodes, seed=seed)
        network.save_network(net, os.path.join(out_dir, "network.csv"))
        insts = datasets.generate_dataset(datasets.DatasetSpec(
            kind=w.source, network=net, instance_count=w.instances, base_seed=seed))
    entries = []
    for idx, inst in enumerate(insts):
        fname = f"instance_{idx:03d}.json"
        instance.save_instance(inst, os.path.join(out_dir, fname))
        entries.append({"path": fname, "seed": seed, "index": idx})
    datasets.write_manifest(out_dir, w.source, seed, entries)
    return manifest_paths(out_dir)


def manifest_paths(data_dir):
    doc = datasets.read_manifest(os.path.join(data_dir, datasets.MANIFEST_NAME))
    return [os.path.join(data_dir, e["path"]) for e in doc["instances"]]


# -- one timed pass -------------------------------------------------------------------


@dataclass
class OpResult:
    op: int
    instance: str
    method: str
    seconds: float = 0.0
    f: float | None = None
    termination: str = ""
    failures: list = field(default_factory=list)
    grasp_trace: list | None = None


def _untraced(tracer):
    return tracer.pause() if tracer is not None else contextlib.nullcontext()


def _set_op(tracer, op_id):
    if tracer is not None:
        tracer.op = op_id


def _solve(inst, cov, method, workload, seed):
    """Run one method; returns (x, f, termination, GRASP trace or None)."""
    if method in ("grasp-m", "grasp-h"):
        res = heuristics.grasp(inst, cov, heuristics.GraspConfig(
            mode="myopic" if method.endswith("-m") else "hyperoptic",
            max_solutions=workload.grasp_solutions, time_limit_s=TIME_LIMIT_S, seed=seed))
        return res.x, res.f, res.termination, res.trace
    solver_cmd = "none" if method.startswith("rh-") else None
    x, f, _, termination, _, _ = cli.run_method(inst, cov, method, solver_cmd=solver_cmd,
                                                seed=seed, time_limit=TIME_LIMIT_S)
    return x, f, termination, None


def run_pass(workload: Workload, paths, seed, tracer=None, first=None):
    """Run every op of the workload once, then its report (and GF) leg.

    Returns a dict with the pass's seconds (its ops plus the report leg),
    per-op results and quality records. `first` is an earlier pass of the same
    run, whose f values every op must repeat. An op's seconds cover load,
    coverage and solve; its output checks run after them, untraced.
    """
    ops, quality, optimum = [], [], {}
    first_f = {(r.instance, r.method): r.f for r in first["ops"]} if first else {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        f_by_method = {}
        for method in workload.methods:
            rec = OpResult(len(ops) + 1, name, method)
            _set_op(tracer, rec.op)
            t0 = time.perf_counter()
            try:
                inst = instance.load_instance(path)
                cov = covering.build_coverage(inst)
                x, f, termination, trace = _solve(inst, cov, method, workload, seed)
                rec.seconds = time.perf_counter() - t0
                rec.f, rec.termination, rec.grasp_trace = float(f), termination, trace
                with _untraced(tracer):
                    rec.failures += checks.check_solution(inst, cov, method, x, f, termination)
                rec.failures += checks.check_against_optimum(method, f, optimum.get(name))
                rec.failures += checks.check_repeat(first_f.get((name, method)), f)
                if method == "exact-enum":
                    optimum[name] = rec.f
                f_by_method[method] = rec.f
            except Exception as exc:  # one bad op must not stop the pass
                rec.seconds = rec.seconds or time.perf_counter() - t0
                rec.failures.append(f"{method}: raised {type(exc).__name__}: {exc}")
            ops.append(rec)
        if "mc-external" in f_by_method and "sl-external" in f_by_method:
            ops[-1].failures += checks.check_complementarity(
                f_by_method["mc-external"], f_by_method["sl-external"], inst.demand_mass())
        quality += _quality(name, f_by_method, optimum.get(name))

    _set_op(tracer, 0)
    rows = [{"instance": r.instance, "method": r.method,
             "status": "ok" if r.f is not None else "skipped",
             "f": r.f if r.f is not None else "", "wall_time_s": r.seconds,
             "termination": r.termination, "detail": ""} for r in ops]
    t0 = time.perf_counter()
    aggregates = cli.RunReport(rows).aggregates()
    report_seconds = time.perf_counter() - t0
    gf_values = None
    if workload.gf_leg:
        rec = OpResult(len(ops) + 1, "gf-leg", "compare-gf")
        _set_op(tracer, rec.op)
        gf_values, gf_quality = _gf_leg(rec, paths, tracer, optimum,
                                        first["gf"] if first else None)
        ops.append(rec)
        quality += gf_quality
    return {"seconds": sum(r.seconds for r in ops) + report_seconds, "ops": ops,
            "quality": quality, "report_methods": sorted(aggregates), "gf": gf_values}


def _quality(instance_name, f_by_method, f_star):
    """Quality of each op's schedule against the instance reference: the
    exact optimum where the workload has one, else the best f found on it."""
    if not f_by_method:
        return []
    ref = f_star if f_star is not None else max(f_by_method.values())
    return [_quality_record(instance_name, m, f, ref) for m, f in f_by_method.items()]


def _quality_record(instance_name, method, f, ref):
    return {"instance": instance_name, "method": method, "f": f, "reference": ref,
            "heuristic": method in checks.HEURISTIC_METHODS,
            "quality_pct": 100.0 * f / ref, "gap_pct": covering.gap(ref, f)}


def _gf_leg(rec, paths, tracer, optimum, first_values):
    """The growth-function comparison as `evcover compare-gf` runs it, with a
    greedy-h reference; the GF schedules are evaluated under MC."""
    values, quality = {}, []
    t0 = time.perf_counter()
    try:
        insts = [instance.load_instance(p) for p in paths]
        covs = [covering.build_coverage(i) for i in insts]
        ref = heuristics.greedy(insts[0], covs[0], heuristics.GreedyConfig(mode="hyperoptic"))
        curve = growth.generate_growth_function(insts, ref.x, covs)
        gf_inst = growth.build_gf_instance(insts[0], curve, radius_km=10.0)
        result = solver.solve_external(milp.build_gf(gf_inst),
                                       solver.resolve_solver_command(None),
                                       time_limit_s=TIME_LIMIT_S)
        gf_sol = growth.extract_gf_solution(gf_inst, result.values)
        x_gf = growth.gf_solution_as_x(gf_inst, gf_sol)
        x_adj = growth.adjust_solution_max_outlets(gf_inst, gf_sol)
        f_gf = [covering.evaluate(i, c, x_gf) for i, c in zip(insts, covs)]
        f_adj = [covering.evaluate(i, c, x_adj) for i, c in zip(insts, covs)]
        outcome = growth.gf_forward_recursion(gf_inst, gf_sol)
        rec.seconds = time.perf_counter() - t0
        rec.f, rec.termination = float(ref.f), result.status
        values = {"greedy_h_f": rec.f, "gf_mean_f": sum(f_gf) / len(f_gf),
                  "gf_adjusted_mean_f": sum(f_adj) / len(f_adj),
                  "gf_final_year_evs": float(outcome.yearly_totals[-1])}
        rec.failures += checks.check_solver_status(result.status)
        rec.failures += checks.check_growth(curve)
        with _untraced(tracer):
            rec.failures += checks.check_solution(insts[0], covs[0], "greedy-h", ref.x,
                                                  ref.f, ref.termination)
        name = os.path.splitext(os.path.basename(paths[0]))[0]
        f_star = optimum.get(name)
        rec.failures += checks.check_against_optimum("greedy-h", ref.f, f_star)
        for key, value in values.items():
            rec.failures += checks.check_repeat((first_values or {}).get(key), value)
        quality.append(_quality_record(name, "greedy-h", rec.f,
                                       f_star if f_star is not None else rec.f))
    except Exception as exc:  # the leg counts as one failed op
        rec.seconds = rec.seconds or time.perf_counter() - t0
        rec.failures.append(f"compare-gf: raised {type(exc).__name__}: {exc}")
    return values, quality
