"""One benchmark phase in its own process: `setup` generates and writes a
workload's instances, `timed` runs passes over them. Each prints one JSON
object as its last line of standard output. run.py starts these; the
functions are importable so tests can run a phase in-process.

    python3 perfbench/worker.py setup --workload W --seed N --out DIR --trace 0|1
    python3 perfbench/worker.py timed --workload W --seed N --data DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

from evcover import solver

import tracer as tracing
import workloads

MB = 1e6


def _maxrss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


# -- set-up phase ----------------------------------------------------------------------


def setup_phase(workload, seed, out_dir, trace=False, min_reps=3, max_reps=9,
                min_total_s=2.0):
    """Generate and write the workload's instances several times (once when
    tracing), each into its own directory under out_dir. Reps continue past
    `min_reps` while their total time is under `min_total_s`. Only the last
    rep's directory is kept; its path is returned as "data"."""
    tr = tracing.Tracer().install() if trace else None
    times, data = [], None
    try:
        while True:
            rep_dir = os.path.join(out_dir, f"rep{len(times)}")
            t0 = time.perf_counter()
            paths = workloads.generate(workload, seed, rep_dir)
            times.append(time.perf_counter() - t0)
            file_mb = sum(os.path.getsize(p) for p in paths) / MB
            if data is not None:
                shutil.rmtree(data)
            data = rep_dir
            if trace or len(times) >= max_reps or (
                    len(times) >= min_reps and sum(times) >= min_total_s):
                break
    finally:
        if tr is not None:
            tr.uninstall()
    out = {"setup_s": times, "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
           "instance_file_mb": file_mb, "data": data}
    if tr is not None:
        entries = tracing.entry_self_times(tr.spans)
        layers = tracing.layer_self_times(entries)
        out["per_layer"] = {
            "network.generate_s": entries.get("network.generate_network", 0.0),
            "datasets.generate_s": layers.get("datasets", 0.0),
            "errors.draw_s": layers.get("errors", 0.0),
            "instance.save_s": entries.get("instance.save_instance", 0.0),
            "instance.file_mb": file_mb,
        }
        out["layer_self_s"] = layers
        out["entry_self_s"] = entries
    return out


# -- timed phase -----------------------------------------------------------------------


class _Sizes:
    """Counts taken from traced calls' return values and arguments."""

    def __init__(self, tr):
        self.tensor_bytes = 0
        self.model = {}
        self.lp_bytes = 0
        self.non_optimal = 0
        tr.on_return("covering.build_coverage", self._coverage)
        tr.on_return("milp.build_mc", lambda m, a, k: self._model("mc", m))
        tr.on_return("milp.build_sl", lambda m, a, k: self._model("sl", m))
        tr.on_return("lp_io.export_lp", self._lp)
        tr.on_return("solver.solve_external", self._solved)

    def _coverage(self, cov, args, kwargs):
        self.tensor_bytes = max(self.tensor_bytes, cov.a_bits.nbytes + cov.min_k.nbytes)

    def _model(self, kind, model):
        for key, value in (("vars", model.n_variables), ("rows", model.n_rows),
                           ("nonzeros", sum(len(r.coeffs) for r in model.rows))):
            self.model[f"{kind}_{key}"] = self.model.get(f"{kind}_{key}", 0) + value

    def _lp(self, result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.lp_bytes += os.path.getsize(path)

    def _solved(self, result, args, kwargs):
        self.non_optimal += result.status != solver.STATUS_OPTIMAL


def quality_metrics(quality):
    """Mean quality over every op's schedule; gaps over the heuristic ops."""
    gaps = [r["gap_pct"] for r in quality if r["heuristic"]]
    return {"quality_pct.mean": statistics.fmean(r["quality_pct"] for r in quality),
            "gap_pct.mean": statistics.fmean(gaps) if gaps else 0.0,
            "gap_pct.max": max(gaps, default=0.0)}


def grasp_counts(ops):
    traces = [r.grasp_trace for r in ops if r.grasp_trace is not None]
    examined = sum(len(t) for t in traces)
    filtered = sum(1 for t in traces for e in t if e["filtered"])
    return examined, filtered


def traced_layer_metrics(tr, sizes, pass_result):
    spans = tr.spans
    entries = tracing.entry_self_times(spans)
    layers = tracing.layer_self_times(entries)

    def entry(*names):
        return sum(entries.get(n, 0.0) for n in names)

    schedules = tracing.calls_under(spans, "exact.brute_force_optimum", "covering.evaluate")
    exact_wall = tracing.inclusive_time(spans, "exact.brute_force_optimum")
    examined, filtered = grasp_counts(pass_result["ops"])
    grasp_s = entry("heuristics.grasp")
    q = quality_metrics(pass_result["quality"])
    model = {k: sizes.model.get(k, 0) for k in
             ("mc_vars", "mc_rows", "mc_nonzeros", "sl_vars", "sl_rows", "sl_nonzeros")}
    metrics = {
        "instance.load_s": entry("instance.load_instance"),
        "covering.build_s": entry("covering.build_coverage"),
        "covering.tensor_mb": sizes.tensor_bytes / MB,
        "covering.evaluate_calls": tr.calls["covering.evaluate"],
        "covering.evaluate_s": entry("covering.evaluate", "covering.evaluate_per_period"),
        "exact.schedules": schedules,
        "exact.self_s": layers.get("exact", 0.0),
        "exact.schedules_per_s": schedules / exact_wall if exact_wall else 0.0,
        "heuristics.grasp_s": grasp_s,
        "heuristics.grasp_s_per_solution": grasp_s / examined if examined else 0.0,
        "heuristics.grasp_solutions": examined,
        "heuristics.grasp_filtered_frac": filtered / examined if examined else 0.0,
        "heuristics.greedy_s": entry("heuristics.greedy"),
        "heuristics.rolling_horizon_s": entry("heuristics.rolling_horizon"),
        "heuristics.gap_pct.mean": q["gap_pct.mean"],
        "heuristics.gap_pct.max": q["gap_pct.max"],
        "milp.build_mc_s": entry("milp.build_mc"),
        "milp.build_sl_s": entry("milp.build_sl", "milp.compute_bounds"),
        "milp.build_gf_s": entry("milp.build_gf"),
        **{f"milp.{k}": v for k, v in model.items()},
        "lp_io.export_s": entry("lp_io.export_lp"),
        "lp_io.lp_mb": sizes.lp_bytes / MB,
        "lp_io.parse_solution_s": entry("lp_io.parse_solution_file"),
        "solver.calls": tr.calls["solver.solve_external"],
        "solver.self_s": layers.get("solver", 0.0),
        "solver.non_optimal": sizes.non_optimal,
        "growth.generate_s": entry("growth.generate_growth_function"),
        "growth.forward_s": entry("growth.gf_forward_recursion"),
        "cli.run_method_s": entry("cli.run_method"),
        "cli.report_s": entry("cli.RunReport.aggregates"),
    }
    return metrics, layers, entries


def timed_phase(workload, seed, data_dir, seconds, trace=False, spans_path=None):
    """Run passes until the next one would end after `seconds` (at least
    one; exactly one when tracing). Returns per-pass seconds, op outcomes,
    quality metrics and, when tracing, per-layer metrics."""
    paths = workloads.manifest_paths(data_dir)
    tr = tracing.Tracer().install() if trace else None
    sizes = _Sizes(tr) if tr is not None else None
    passes = []
    start = time.perf_counter()
    try:
        while True:
            passes.append(workloads.run_pass(workload, paths, seed, tr,
                                             first=passes[0] if passes else None))
            elapsed = time.perf_counter() - start
            if trace or elapsed + elapsed / len(passes) > seconds:
                break
    finally:
        if tr is not None:
            tr.uninstall()
    ops = [r for p in passes for r in p["ops"]]
    failures = [f"pass {i + 1} op {r.op} {r.instance} {r.method}: {msg}"
                for i, p in enumerate(passes) for r in p["ops"] for msg in r.failures]
    out = {
        "wall_s": statistics.median(p["seconds"] for p in passes),
        "pass_seconds": [p["seconds"] for p in passes],
        "attempted": len(ops),
        "failed": sum(1 for r in ops if r.failures),
        "failures": failures,
        "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF) + _maxrss_mb(resource.RUSAGE_CHILDREN),
        "quality": quality_metrics(passes[0]["quality"]),
        "ops": [{"op": r.op, "instance": r.instance, "method": r.method, "f": r.f,
                 "termination": r.termination, "seconds": r.seconds}
                for r in passes[0]["ops"]],
        "gf": passes[0]["gf"],
        "report_methods": passes[0]["report_methods"],
        "solver_command": solver.resolve_solver_command(None),
        "versions": versions(),
    }
    if tr is not None:
        out["per_layer"], out["layer_self_s"], out["entry_self_s"] = traced_layer_metrics(
            tr, sizes, passes[0])
        out["spans"] = len(tr.spans)
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                for s in tr.spans:
                    fh.write(json.dumps(s.to_json()) + "\n")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("phase", choices=["setup", "timed"])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="set-up: directory to write the instances into")
    p.add_argument("--data", help="timed: directory written by the set-up phase")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--spans", help="timed, traced: write spans here as JSON lines")
    args = p.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.phase == "setup":
        result = setup_phase(workload, args.seed, args.out, bool(args.trace))
    else:
        result = timed_phase(workload, args.seed, args.data, args.seconds,
                             bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
