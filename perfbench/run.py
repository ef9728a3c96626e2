#!/usr/bin/env python3
"""evcover benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The set-up phase generates the workload's
instances from the seed and writes them, several times, in a process of its
own; the timed phase then runs passes over them in a second process, until
the next pass would end after S seconds, and checks every output. With
--trace 0 the end-to-end metrics are reported; with --trace 1 the per-layer
metrics of one traced set-up and one traced pass, plus the tracing overhead
against untraced passes. A human-readable summary is printed first, the full
record goes to .perfbench-work/results/, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when every op passed its checks, 1 when an op failed or a
phase crashed or ran out of time, 2 on bad arguments or missing sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
RUN_DEADLINE_S = 170.0

WORKLOADS = ("oracle-desk", "longspan-grasp", "formulations-tiny")

END_TO_END = ("wall_s", "setup_s", "setup_peak_rss_mb", "peak_rss_mb",
              "quality_pct.mean", "ok_frac")
# Reported on the last line with --trace 1: times of layers that work on every
# workload, plus counts and sizes. Times of layers that only some workloads
# use (exact, GRASP, MILP build, LP I/O, solver, growth) are in the full record.
PER_LAYER = (
    "network.generate_s", "datasets.generate_s", "errors.draw_s", "instance.save_s",
    "instance.file_mb", "instance.load_s", "covering.build_s", "covering.tensor_mb",
    "covering.evaluate_calls", "covering.evaluate_s", "exact.schedules",
    "heuristics.grasp_solutions", "heuristics.grasp_filtered_frac", "heuristics.greedy_s",
    "heuristics.gap_pct.mean", "heuristics.gap_pct.max", "milp.mc_vars", "milp.mc_rows",
    "milp.mc_nonzeros", "milp.sl_vars", "milp.sl_rows", "milp.sl_nonzeros", "lp_io.lp_mb",
    "solver.calls", "solver.non_optimal", "cli.run_method_s", "cli.report_s",
    "trace.overhead_s",
)


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s_per_" in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if "pct" in name:
        return "%"
    return "count"


class PhaseError(RuntimeError):
    pass


class Run:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.dir = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-"
                                          f"trace{args.trace}-{os.getpid()}")
        self.env = dict(os.environ)
        self.env.pop("EVCOVER_SOLVER_CMD", None)  # always the bundled solver
        self.env["PYTHONPATH"] = SRC              # also reaches the solver child
        self.env["TMPDIR"] = os.path.join(self.dir, "tmp")

    def phase(self, phase, trace, **options):
        argv = [sys.executable, WORKER, phase, "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--trace", str(trace)]
        for key, value in options.items():
            argv += [f"--{key}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PhaseError(f"no time left for the {phase} phase")
        # A session of its own, so a timeout also stops the solver child.
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PhaseError(f"{phase} phase exceeded the {RUN_DEADLINE_S:.0f} s run limit")
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise PhaseError(f"{phase} phase exited with {proc.returncode}: {stderr[-2000:]}")
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            raise PhaseError(f"{phase} phase printed no result: {lines[-1][:200]}")

    def untraced(self):
        setup = self.phase("setup", 0, out=os.path.join(self.dir, "data"))
        timed = self.phase("timed", 0, data=setup["data"], seconds=self.args.seconds)
        metrics = {
            "wall_s": timed["wall_s"],
            "setup_s": statistics.median(setup["setup_s"]),
            "setup_peak_rss_mb": setup["peak_rss_mb"],
            "peak_rss_mb": timed["peak_rss_mb"],
            "quality_pct.mean": timed["quality"]["quality_pct.mean"],
            "ok_frac": 1.0 - timed["failed"] / timed["attempted"],
        }
        return metrics, {"setup": setup, "timed": timed}, [timed]

    def traced(self, spans_path):
        setup = self.phase("setup", 1, out=os.path.join(self.dir, "data"))
        base = self.phase("timed", 0, data=setup["data"], seconds=self.args.seconds / 2)
        traced = self.phase("timed", 1, data=setup["data"], spans=spans_path)
        metrics = {**setup["per_layer"], **traced["per_layer"],
                   "trace.overhead_s": traced["wall_s"] - base["wall_s"]}
        return metrics, {"setup": setup, "untraced": base, "timed": traced}, [base, traced]


def source_digest():
    """sha256 over the paths and contents of every .py file of evcover and the
    benchmark; the checkout the benchmark runs in is not a git repository."""
    h = hashlib.sha256()
    paths = sorted(os.path.join(d, f) for top in (SRC, HERE)
                   for d, _, files in os.walk(top) for f in files if f.endswith(".py"))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine():
    return {"nproc": os.cpu_count(),
            "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evcover", "__init__.py")):
        print(f"evcover sources not found under {SRC}", file=sys.stderr)
        return 2
    run = Run(args)
    results = os.path.join(WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    os.makedirs(run.env["TMPDIR"], exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        if args.trace:
            metrics, phases, timed = run.traced(stem + ".spans.jsonl")
        else:
            metrics, phases, timed = run.untraced()
    except PhaseError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    attempted = sum(t["attempted"] for t in timed)
    failed = sum(t["failed"] for t in timed)
    failures = [msg for t in timed for msg in t["failures"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(), "source_sha256": source_digest(),
        **machine(), "versions": phases["timed"]["versions"],
        "solver_command": phases["timed"]["solver_command"],
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "phases": phases,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(phases['timed']['pass_seconds'])}  "
          f"set-up reps {len(phases['setup']['setup_s'])}")
    print(f"code {record['git_revision'] or 'no git'}  source {record['source_sha256'][:16]}  "
          f"python {record['versions']['python']}  numpy {record['versions']['numpy']}  "
          f"scipy {record['versions']['scipy']}  nproc {record['nproc']}  "
          f"ram {record['ram_gb']:.1f} GB")
    print(f"solver {record['solver_command']}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit_of(name)}")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    print(f"record -> {os.path.relpath(stem + '.json', ROOT)}")
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in names},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
