"""Command-line entry point: generate datasets, solve manifests, aggregate
reports, run the growth-function comparison, export formulations.

Every command is deterministic given its inputs, seed and config (solver
wall times excepted). Outputs are plain files: instances as a JSON header
line followed by the raw error tensors, manifests as JSON, rows and reports
as CSV, models as LP text, per-node results as CSV and GeoJSON. `solve`
hands one instance at a time to each of up to `--threads` worker processes.
Each worker caps its address space at its share of physical memory, and a
worker that dies, or has no result `--time-limit` + SOLVER_GRACE_S after it
took its instance, is killed with everything it started: that instance gets
an error row, a fresh worker takes the next one, and no instance is solved
twice. Exit code 2 flags runs in which at least one instance was skipped
because a prerequisite (a configured solver, or an enumeration within its
cap) was missing, or failed with an error (a solver that ran and failed, a
dead or overrunning worker, say); every other instance of the batch is still
solved.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import multiprocessing
import os
import resource
import signal
import sys
import time
from multiprocessing.connection import wait

import numpy as np

from .covering import build_coverage, evaluate, gap
from .datasets import (DatasetSpec, generate_dataset, read_manifest,
                       write_manifest)
from .errors import ErrorSimError
from .exact import EnumerationCapExceeded, brute_force_optimum
from .growth import (GrowthError, _solve_gf_model, adjust_solution_max_outlets,
                     build_gf_instance, generate_growth_function, gf_forward_recursion,
                     gf_solution_as_x, load_growth, per_node_ev, save_growth,
                     write_node_ev_csv)
from .heuristics import (GraspConfig, GreedyConfig, HeuristicError, RollingHorizonConfig,
                         grasp, greedy, rolling_horizon)
from .instance import Instance, InstanceError, load_instance, save_instance
from .milp import ModelError, build_gf, build_mc, build_sl, compute_bounds, extract_solution_x
from .network import NetworkError, generate_network, load_network, save_network
from .lp_io import export_lp
from .solver import (SOLVER_GRACE_S, STATUS_TIMEOUT, SolverCommandError,
                     resolve_solver_command, solve_external)

METHODS = ("exact-enum", "mc-external", "sl-external", "greedy-m", "greedy-h",
           "grasp-m", "grasp-h", "rh-even", "rh-geom")

DEFAULT_TIME_LIMIT = 7200.0
BEST_EQUAL_TOL = 1e-9
# terminations of a row whose method stopped at its time limit, with an answer
# it did not finish: a solver's incumbent, or GRASP's incumbent so far
CUT_SHORT = (STATUS_TIMEOUT, "time_limit")

ROW_FIELDS = ["instance", "method", "status", "f", "wall_time_s", "termination", "detail"]


# -- report aggregation ------------------------------------------------------------


def nearest_rank_percentile(values, p):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    vals = sorted(values)
    if not vals:
        raise ValueError("no values")
    rank = math.ceil(p / 100.0 * len(vals))
    rank = min(max(rank, 1), len(vals))
    return vals[rank - 1]


class RunReport:
    """Per-instance rows plus per-method aggregates (times, gaps, # of best,
    # of rows cut short at a time limit)."""

    def __init__(self, rows):
        self.rows = [dict(r) for r in rows]

    def aggregates(self):
        solved = [r for r in self.rows if r["status"] == "ok"]
        best_by_instance = {}
        for r in solved:
            key = r["instance"]
            best_by_instance[key] = max(best_by_instance.get(key, -np.inf), float(r["f"]))
        per_method = {}
        for r in solved:
            per_method.setdefault(r["method"], []).append(r)
        out = {}
        for method, rows in sorted(per_method.items()):
            gaps, times, n_best = [], [], 0
            for r in rows:
                best = best_by_instance[r["instance"]]
                f = float(r["f"])
                gaps.append(gap(best, f) if best > 0 else 0.0)
                times.append(float(r["wall_time_s"]))
                if abs(f - best) <= BEST_EQUAL_TOL:
                    n_best += 1
            out[method] = {
                "n": len(rows),
                "gap_p5": nearest_rank_percentile(gaps, 5),
                "gap_avg": float(np.mean(gaps)),
                "gap_median": float(np.median(gaps)),
                "gap_p95": nearest_rank_percentile(gaps, 95),
                "n_best": n_best,
                "time_p5": nearest_rank_percentile(times, 5),
                "time_avg": float(np.mean(times)),
                "time_p95": nearest_rank_percentile(times, 95),
                "n_cut": sum(r["termination"] in CUT_SHORT for r in rows),
            }
        return out

    @property
    def skipped(self):
        return [r for r in self.rows if r["status"] != "ok"]


def write_rows_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=ROW_FIELDS)
        w.writeheader()
        for r in rows:
            w.writerow({k: r.get(k, "") for k in ROW_FIELDS})


class RowsError(ValueError):
    pass


def read_rows_csv(path):
    """The rows of a rows CSV; an `ok` row needs finite numbers as f and wall_time_s."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, restval="")
            missing = [c for c in ROW_FIELDS if c not in (reader.fieldnames or ())]
            if missing:
                raise RowsError(f"{path}: not a rows file, missing columns {', '.join(missing)}")
            rows = []
            for row in reader:
                for column in ("f", "wall_time_s") if row["status"] == "ok" else ():
                    try:
                        FINITE(row[column])
                    except argparse.ArgumentTypeError as exc:
                        raise RowsError(f"{path}: line {reader.line_num}: ok row's {column} "
                                        f"{exc}") from None
                rows.append(row)
            return rows
    except UnicodeDecodeError as exc:
        raise RowsError(f"{path}: not UTF-8 text: {exc}") from None


def write_report_csv(path, aggregates):
    cols = ["method", "n", "gap_p5", "gap_avg", "gap_median", "gap_p95", "n_best",
            "time_p5", "time_avg", "time_p95", "n_cut"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for method, agg in aggregates.items():
            w.writerow([method] + [agg[c] for c in cols[1:]])


# -- method dispatch ----------------------------------------------------------------


def run_method(instance: Instance, coverage, method, *, time_limit=DEFAULT_TIME_LIMIT,
               solver_cmd=None, alpha=0.85, seed=0):
    """Run one solve method; returns a HeuristicResult-shaped tuple
    (x, f, wall_time, termination, detail, trace). The method name alone
    selects the variant: `-m` / `-h` the myopic / hyperoptic search mode,
    `rh-even` / `rh-geom` the rolling-horizon time allocation."""
    start = time.perf_counter()
    if method == "exact-enum":
        x, f = brute_force_optimum(instance, coverage)
        return x, f, time.perf_counter() - start, "completed", "", []
    if method in ("mc-external", "sl-external"):
        if method == "mc-external":
            model = build_mc(instance, coverage)
        else:
            model = build_sl(instance, compute_bounds(instance))
        result = solve_external(model, solver_cmd, time_limit_s=time_limit)
        if not result.ok:
            raise HeuristicError(f"solver status {result.status}: {result.detail}")
        x = extract_solution_x(instance, result.values)
        f = evaluate(instance, coverage, x)
        return x, f, time.perf_counter() - start, result.status, result.detail, []
    if method in ("greedy-m", "greedy-h"):
        cfg = GreedyConfig(mode="myopic" if method.endswith("-m") else "hyperoptic")
        res = greedy(instance, coverage, cfg)
        return res.x, res.f, res.wall_time, res.termination, "", res.trace
    if method in ("grasp-m", "grasp-h"):
        cfg = GraspConfig(alpha=alpha,
                          mode="myopic" if method.endswith("-m") else "hyperoptic",
                          time_limit_s=time_limit, seed=seed)
        res = grasp(instance, coverage, cfg)
        return res.x, res.f, res.wall_time, res.termination, "", res.trace
    if method in ("rh-even", "rh-geom"):
        cfg = RollingHorizonConfig(allocation="even" if method == "rh-even" else "geometric",
                                   total_time_limit_s=time_limit)
        res = rolling_horizon(instance, coverage, cfg, solver=solver_cmd)
        return res.x, res.f, res.wall_time, res.termination, "", res.trace
    raise ValueError(f"unknown method {method!r}")


def _instance_name(path):
    return os.path.splitext(os.path.basename(path))[0]


def _failed_row(path, method, status, detail):
    return {"instance": _instance_name(path), "method": method, "status": status, "f": "",
            "wall_time_s": "", "termination": "", "detail": detail}


def _error_row(path, method, exc):
    return _failed_row(path, method, "error", f"{type(exc).__name__}: {exc}")


def _solve_one(args):
    """Solve one instance into a (row, solution) pair. A missing prerequisite
    (no solver configured for an `-external` method) and an enumeration past
    its cap give a "skipped" row; any other failure, a solver that ran and
    failed included, gives an "error" row, so one bad instance never sinks
    the batch."""
    path, method, options = args
    try:
        if method.endswith("-external") and resolve_solver_command(options["solver_cmd"]) is None:
            return _failed_row(path, method, "skipped", "external solver not configured"), None
        inst = load_instance(path)
        cov = build_coverage(inst)
        x, f, wall, termination, detail, trace = run_method(inst, cov, method, **options)
    except EnumerationCapExceeded as exc:
        return _failed_row(path, method, "skipped", str(exc)), None
    except Exception as exc:  # noqa: BLE001 - isolate the failure to this instance
        return _error_row(path, method, exc), None
    name = _instance_name(path)
    sol = {"instance": name, "method": method, "f": f, "x_levels": x.levels.tolist(),
           "trace": trace}
    return {"instance": name, "method": method, "status": "ok", "f": f,
            "wall_time_s": wall, "termination": termination, "detail": detail}, sol


def _address_space_cap(workers):
    """Each worker's address-space cap in bytes: an equal share of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // workers


def _work(conn, supervisor_end, cap):
    """A worker: it leads a process group of its own, so a solver it starts is
    killed with it, caps its address space at `cap` bytes, so an over-large
    solve fails in this worker, and then solves one task at a time. It closes
    its copy of the supervisor's end of the pipe, so that it sees the end of
    the pipe, and exits, when the supervisor is gone."""
    supervisor_end.close()
    os.setpgid(0, 0)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        while True:
            conn.send(_solve_one(conn.recv()))
    except (EOFError, BrokenPipeError):  # the supervisor is gone
        pass


def _start_worker(ctx, cap):
    conn, child = ctx.Pipe()
    process = ctx.Process(target=_work, args=(child, conn, cap))
    process.start()
    child.close()
    return process, conn


def _kill_group(process):
    """Kill a worker and every process it started, and reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:  # the worker has not made its group yet
        process.kill()
    process.join()


def _supervise(tasks, workers, deadline_s):
    """Each task's `_solve_one` result, from up to `workers` worker processes
    that are handed one task at a time, so no solve runs in the calling
    process. A task whose worker dies, or that has no result `deadline_s`
    after it was handed over, gets an error row; its worker is killed with
    its process group, a fresh worker takes the next task, and no task runs
    twice. Every worker is killed before this returns or raises."""
    results = [None] * len(tasks)
    n = min(workers, len(tasks))
    ctx = multiprocessing.get_context()
    todo = list(reversed(range(len(tasks))))
    idle, busy = [], {}  # busy: result pipe -> (worker, task index, deadline)
    try:
        while todo or busy:
            while todo and len(busy) < n:
                process, conn = idle.pop() if idle else _start_worker(ctx, _address_space_cap(n))
                i = todo.pop()
                try:
                    conn.send(tasks[i])
                except OSError:  # a worker killed while idle is found dead below
                    pass
                busy[conn] = (process, i, time.monotonic() + deadline_s)
            soonest = min(deadline for _, _, deadline in busy.values())
            ready = wait([*busy, *(process.sentinel for process, _, _ in busy.values())],
                         max(0.0, soonest - time.monotonic()))
            for conn, (process, i, deadline) in list(busy.items()):
                dead = process.sentinel in ready
                if conn.poll():  # a result, or the end of a dead worker's pipe
                    try:
                        result = conn.recv()
                    except (EOFError, OSError):
                        dead = True
                    else:
                        results[i] = result
                        del busy[conn]
                        idle.append((process, conn))
                        continue
                if not dead and time.monotonic() < deadline:
                    continue
                del busy[conn]
                _kill_group(process)
                if not dead:
                    detail = f"worker killed: no result within {deadline_s:g} s"
                elif process.exitcode >= 0:
                    detail = f"worker died: exit code {process.exitcode}"
                else:
                    detail = f"worker died: signal {-process.exitcode}"
                results[i] = _failed_row(tasks[i][0], tasks[i][1], "error", detail), None
    finally:
        for process in [p for p, _ in idle] + [p for p, _, _ in busy.values()]:
            _kill_group(process)
    return results


# -- commands ------------------------------------------------------------------------


def cmd_generate(args):
    # the whole dataset is built before the first file is written, so a
    # network that cannot hold the kind's stations leaves nothing behind
    if args.network:
        net = load_network(args.network)
    else:
        net = generate_network(args.nodes, seed=args.seed)
    spec = DatasetSpec(kind=args.kind, network=net, instance_count=args.count,
                       base_seed=args.seed)
    instances = generate_dataset(spec)
    os.makedirs(args.out, exist_ok=True)
    save_network(net, os.path.join(args.out, "network.csv"))
    entries = []
    for inst in instances:
        idx = inst.metadata["instance_index"]
        fname = f"instance_{idx:03d}.json"
        save_instance(inst, os.path.join(args.out, fname))
        entries.append({"path": fname, "seed": spec.base_seed, "index": idx})
    manifest = write_manifest(args.out, args.kind, args.seed, entries)
    print(f"wrote {len(entries)} instance(s) and {manifest}")
    return 0


def _manifest_paths(manifest_path):
    doc = read_manifest(manifest_path)
    root = os.path.dirname(os.path.abspath(manifest_path))
    return [os.path.join(root, e["path"]) for e in doc["instances"]]


def cmd_solve(args):
    paths = _manifest_paths(args.manifest)
    os.makedirs(args.out, exist_ok=True)
    options = {"time_limit": args.time_limit, "solver_cmd": args.solver_cmd,
               "alpha": args.alpha, "seed": args.seed}
    tasks = [(p, args.method, options) for p in paths]
    rows = []
    for row, sol in _supervise(tasks, args.threads, args.time_limit + SOLVER_GRACE_S):
        rows.append(row)
        if sol is not None:
            trace = sol.pop("trace")
            sol_path = os.path.join(args.out, f"{sol['instance']}.{args.method}.solution.json")
            with open(sol_path, "w", encoding="utf-8") as fh:
                json.dump(sol, fh, sort_keys=True, default=float)
            trace_path = os.path.join(args.out, f"{sol['instance']}.{args.method}.trace.jsonl")
            with open(trace_path, "w", encoding="utf-8") as fh:
                for entry in trace:
                    fh.write(json.dumps(entry, sort_keys=True, default=float) + "\n")
    rows_path = os.path.join(args.out, f"rows.{args.method}.csv")
    write_rows_csv(rows_path, rows)
    n_skipped = sum(1 for r in rows if r["status"] == "skipped")
    n_error = sum(1 for r in rows if r["status"] == "error")
    print(f"{args.method}: {len(rows) - n_skipped - n_error} solved, {n_skipped} skipped, "
          f"{n_error} failed -> {rows_path}")
    for r in rows:
        if r["status"] != "ok":
            print(f"  {r['status']} {r['instance']}: {r['detail']}")
    return 2 if n_skipped or n_error else 0


def cmd_report(args):
    rows = []
    for path in args.rows:
        rows.extend(read_rows_csv(path))
    if not rows:
        print("evcover report: no rows", file=sys.stderr)
        return 1
    report = RunReport(rows)
    agg = report.aggregates()
    write_report_csv(args.out, agg)
    header = f"{'method':<14} {'n':>3} {'gap%_p5':>8} {'gap%_avg':>9} {'gap%_p95':>9} " \
             f"{'#best':>5} {'t_p5':>8} {'t_avg':>8} {'t_p95':>8} {'#cut':>4}"
    print(header)
    for method, a in agg.items():
        print(f"{method:<14} {a['n']:>3} {a['gap_p5']:>8.3f} {a['gap_avg']:>9.3f} "
              f"{a['gap_p95']:>9.3f} {a['n_best']:>5} {a['time_p5']:>8.2f} "
              f"{a['time_avg']:>8.2f} {a['time_p95']:>8.2f} {a['n_cut']:>4}")
    if report.skipped:
        print(f"({len(report.skipped)} skipped rows excluded)")
    print(f"report -> {args.out}")
    return 0


def write_node_geojson(instance, node_ev, path):
    feats = []
    for node in instance.network.nodes:
        ev = float(node_ev.get(node.id, 0.0))
        pct = 100.0 * ev / node.population if node.population > 0 else 0.0
        feats.append({
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [node.x, node.y]},
            "properties": {"node_id": node.id, "population": node.population,
                           "ev": ev, "ev_pct": pct},
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": feats}, fh)


def cmd_compare_gf(args):
    # every instance is loaded, the GF model solved and the MC method run on
    # every instance before --out is created
    paths = _manifest_paths(args.manifest)
    if not paths:
        raise InstanceError(f"{args.manifest}: manifest lists no instances")
    instances = [load_instance(path) for path in paths]
    coverages = [build_coverage(inst) for inst in instances]

    # reference covering solution drives the growth function
    ref = greedy(instances[0], coverages[0], GreedyConfig(mode="hyperoptic")).x
    gf_curve = generate_growth_function(instances, ref, coverages)
    gf_inst = build_gf_instance(instances[0], gf_curve, radius_km=args.radius)
    gf_sol = _solve_gf_model(gf_inst, args.solver_cmd, args.time_limit)
    x_gf = gf_solution_as_x(gf_inst, gf_sol)
    x_adj = adjust_solution_max_outlets(gf_inst, gf_sol)

    rows, mc_xs = [], []
    for inst, cov, path in zip(instances, coverages, paths):
        x_mc, f_mc, _, _, _, _ = run_method(
            inst, cov, args.mc_method, time_limit=args.time_limit,
            solver_cmd=args.solver_cmd, seed=args.seed)
        mc_xs.append(x_mc)
        rows.append({"instance": _instance_name(path), "gf": evaluate(inst, cov, x_gf),
                     "gf_adjusted": evaluate(inst, cov, x_adj), "mc": f_mc})
    os.makedirs(args.out, exist_ok=True)
    save_growth(gf_curve, os.path.join(args.out, "growth_function.csv"))
    with open(os.path.join(args.out, "comparison_rows.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=["instance", "gf", "gf_adjusted", "mc"])
        w.writeheader()
        w.writerows(rows)

    summary_path = os.path.join(args.out, "comparison_summary.csv")
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["statistic", "GF", "GF (Adjusted)", "MC"])
        for stat, p in (("5th percentile", 5), ("Median", 50), ("95th percentile", 95)):
            w.writerow([stat] + [
                nearest_rank_percentile([r[c] for r in rows], p)
                for c in ("gf", "gf_adjusted", "mc")
            ])

    # per-node maps for the first instance, both model semantics
    outcome = gf_forward_recursion(gf_inst, gf_sol)
    write_node_ev_csv(instances[0], outcome.node_ev,
                      os.path.join(args.out, "nodes_gf.csv"))
    mc_nodes = per_node_ev(instances[0], coverages[0], mc_xs[0])
    write_node_ev_csv(instances[0], mc_nodes, os.path.join(args.out, "nodes_mc.csv"))
    write_node_geojson(instances[0], mc_nodes, os.path.join(args.out, "nodes_mc.geojson"))
    print(f"GF solve: {gf_sol.status}, objective {gf_sol.objective!r}")
    print(f"comparison -> {summary_path}")
    return 0


def cmd_export(args):
    inst = load_instance(args.instance)
    if args.formulation == "mc":
        model = build_mc(inst, build_coverage(inst))
    elif args.formulation == "sl":
        model = build_sl(inst, compute_bounds(inst))
    else:
        if not args.growth:
            print("evcover export: gf export needs --growth FILE", file=sys.stderr)
            return 1
        growth = load_growth(args.growth)
        gf_inst = build_gf_instance(inst, growth, radius_km=args.radius)
        model = build_gf(gf_inst)
    export_lp(model, args.out)
    print(f"{args.formulation}: {model.n_variables} variables, {model.n_rows} constraints "
          f"-> {args.out}")
    return 0


# -- argument parsing -----------------------------------------------------------------


def checked_number(convert, accept, what):
    """An argparse type: `convert(text)` when `accept` holds for it. Any other
    text raises argparse.ArgumentTypeError naming `what`, so the parser
    refuses it (exit 2) before a command runs."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


def solver_template(text):
    """An argparse type: a --solver-cmd that resolves, so a malformed
    template is refused (exit 2) before a command runs."""
    try:
        resolve_solver_command(text)
    except SolverCommandError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


POSITIVE_SECONDS = checked_number(float, lambda v: math.isfinite(v) and v > 0,
                                  "a positive, finite number of seconds")
ALPHA = checked_number(float, lambda a: 0.0 <= a <= 1.0, "a number in [0, 1]")
THREADS = checked_number(int, lambda n: n >= 1, "a whole number of at least 1")
RADIUS_KM = checked_number(float, lambda r: r >= 0.0, "a non-negative number of km")
FINITE = checked_number(float, math.isfinite, "a finite number")  # an ok row's f and time


def make_parser():
    p = argparse.ArgumentParser(prog="evcover",
                                description="EV charging-station placement toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a dataset and manifest")
    g.add_argument("kind", choices=["Simple", "Distance", "HomeCharging", "LongSpan", "Price"])
    g.add_argument("--nodes", type=int, default=40, help="synthetic network size")
    g.add_argument("--network", help="use this network file instead of generating one")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=20)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run one method over a manifest")
    s.add_argument("manifest")
    s.add_argument("--method", choices=METHODS, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--time-limit", type=POSITIVE_SECONDS, default=DEFAULT_TIME_LIMIT)
    s.add_argument("--solver-cmd", type=solver_template, default=None,
                   help="command template with {lp_path} {sol_path} {time_limit}; "
                        "'none' disables the solver")
    s.add_argument("--alpha", type=ALPHA, default=0.85)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--threads", type=THREADS, default=1)
    s.set_defaults(func=cmd_solve)

    r = sub.add_parser("report", help="aggregate rows CSVs into a report")
    r.add_argument("rows", nargs="+")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)

    c = sub.add_parser("compare-gf", help="growth-function vs covering comparison")
    c.add_argument("manifest")
    c.add_argument("--out", required=True)
    c.add_argument("--time-limit", type=POSITIVE_SECONDS, default=DEFAULT_TIME_LIMIT)
    c.add_argument("--solver-cmd", type=solver_template, default=None)
    c.add_argument("--mc-method", choices=METHODS, default="greedy-h")
    c.add_argument("--radius", type=RADIUS_KM, default=10.0)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_compare_gf)

    e = sub.add_parser("export", help="build and export one formulation as LP")
    e.add_argument("instance")
    e.add_argument("--formulation", choices=["mc", "sl", "gf"], required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--growth", help="growth-function CSV (gf only)")
    e.add_argument("--radius", type=RADIUS_KM, default=10.0)
    e.set_defaults(func=cmd_export)
    return p


def main(argv=None):
    """Run one command; bad input to any command is one error line and exit 1."""
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, InstanceError, NetworkError, ErrorSimError, GrowthError, RowsError,
            ModelError, HeuristicError, EnumerationCapExceeded, SolverCommandError) as exc:
        print(f"evcover {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
