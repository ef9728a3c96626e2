import csv
import json
import multiprocessing
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from evcover import cli, exact
from evcover.cli import (RunReport, main, nearest_rank_percentile, read_rows_csv,
                         write_rows_csv)
from evcover.covering import build_coverage, evaluate
from evcover.datasets import MANIFEST_SCHEMA, generate_small_dataset, write_manifest
from evcover.exact import brute_force_optimum
from evcover.growth import GrowthError, growth_from_csv
from evcover.instance import SolutionX, load_instance, save_instance
from evcover.network import generate_network, save_network
from evcover.solver import BUNDLED_DETAIL

from lp_reference import parse_lp
from mc_reference import cover_patterns

SOLVE_ONE = cli._solve_one


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    insts = generate_small_dataset(81, 3, max_scenarios=6)
    entries = []
    for inst in insts:
        idx = inst.metadata["instance_index"]
        name = f"instance_{idx:03d}.json"
        save_instance(inst, root / name)
        entries.append({"path": name, "seed": 81, "index": idx})
    manifest = write_manifest(root, "small", 81, entries)
    return manifest, insts


def test_generate_writes_instances_and_manifest(tmp_path):
    out = tmp_path / "ds"
    rc = main(["generate", "Simple", "--nodes", "12", "--seed", "3",
               "--count", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.json").exists()
    assert (out / "network.csv").exists()
    files = sorted(p.name for p in out.glob("instance_*.json"))
    assert files == ["instance_000.json", "instance_001.json"]
    inst = load_instance(out / "instance_000.json")
    assert inst.metadata["dataset_kind"] == "Simple"


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["generate", "Simple", "--nodes", "12", "--seed", "5",
              "--count", "1", "--out", str(out)])
    assert (a / "instance_000.json").read_bytes() == (b / "instance_000.json").read_bytes()


@pytest.mark.parametrize("nodes, rc", [(8, 1), (10, 0)])
def test_generate_on_a_network_too_small_for_the_stations(tmp_path, capsys, nodes, rc):
    # Simple needs 10 station nodes
    out = tmp_path / "ds"
    assert main(["generate", "Simple", "--nodes", str(nodes), "--seed", "1",
                 "--count", "1", "--out", str(out)]) == rc
    err = capsys.readouterr().err
    if rc:
        assert err.strip().splitlines() == [
            "evcover generate: need 10 station nodes, network has 8"]
        assert not out.exists()
    else:
        assert err == ""
        assert (out / "network.csv").exists() and (out / "instance_000.json").exists()


def test_generate_count_zero(tmp_path):
    out = tmp_path / "empty"
    rc = main(["generate", "Simple", "--nodes", "12", "--count", "0",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["instances"] == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_solving_an_empty_manifest_writes_only_the_header(tmp_path, threads):
    data = tmp_path / "empty"
    assert main(["generate", "Simple", "--nodes", "10", "--count", "0", "--out", str(data)]) == 0
    runs = tmp_path / "runs"
    assert main(["solve", str(data / "manifest.json"), "--method", "greedy-m",
                 "--threads", threads, "--out", str(runs)]) == 0
    assert (runs / "rows.greedy-m.csv").read_text().splitlines() == [",".join(cli.ROW_FIELDS)]


def test_solve_greedy_then_exact_gaps_nonnegative(tmp_path, tiny_manifest):
    manifest, insts = tiny_manifest
    out = tmp_path / "runs"
    assert main(["solve", str(manifest), "--method", "greedy-m",
                 "--out", str(out)]) == 0
    assert main(["solve", str(manifest), "--method", "exact-enum",
                 "--out", str(out)]) == 0
    rows = read_rows_csv(out / "rows.greedy-m.csv") + read_rows_csv(out / "rows.exact-enum.csv")
    report = RunReport(rows)
    agg = report.aggregates()
    assert agg["exact-enum"]["gap_avg"] == pytest.approx(0.0, abs=1e-9)
    assert agg["exact-enum"]["n_best"] == len(insts)
    assert agg["greedy-m"]["gap_avg"] >= -1e-12
    # solutions persisted
    assert (out / "instance_000.greedy-m.solution.json").exists()


def test_solve_skips_without_solver(tmp_path, tiny_manifest, monkeypatch):
    manifest, _ = tiny_manifest
    out = tmp_path / "skip"
    rc = main(["solve", str(manifest), "--method", "mc-external",
               "--solver-cmd", "none", "--out", str(out)])
    assert rc == 2  # nonzero summary flag
    rows = read_rows_csv(out / "rows.mc-external.csv")
    assert all(r["status"] == "skipped" for r in rows)
    assert all("not configured" in r["detail"] for r in rows)


@pytest.mark.parametrize("method", ["mc-external", "rh-even"])
def test_a_solver_that_runs_and_fails_gives_error_rows(tmp_path, tiny_manifest, capsys,
                                                       method):
    # the solver runs, exits 0 and writes no solution file: a failure, not a
    # missing prerequisite
    manifest, insts = tiny_manifest
    out = tmp_path / "failed"
    rc = main(["solve", str(manifest), "--method", method, "--out", str(out),
               "--solver-cmd", f"{shlex.quote(sys.executable)} -c pass {{lp_path}}"])
    assert rc == 2
    rows = read_rows_csv(out / f"rows.{method}.csv")
    assert [r["status"] for r in rows] == ["error"] * len(insts)
    for row in rows:
        assert row["detail"].startswith("HeuristicError: ")
        assert "status error" in row["detail"] and "no solution file (exit 0)" in row["detail"]
    assert f"{method}: 0 solved, 0 skipped, {len(insts)} failed" in capsys.readouterr().out


def test_rh_geom_under_an_hour_solves_every_period(tmp_path, tiny_manifest):
    manifest, insts = tiny_manifest
    out = tmp_path / "rh"
    assert main(["solve", str(manifest), "--method", "rh-geom", "--time-limit", "60",
                 "--out", str(out)]) == 0
    assert [r["status"] for r in read_rows_csv(out / "rows.rh-geom.csv")] == ["ok"] * len(insts)


def test_mc_external_rows_say_where_the_answer_came_from(tmp_path, tiny_manifest,
                                                         monkeypatch):
    monkeypatch.delenv("EVCOVER_SOLVER_CMD", raising=False)
    manifest, insts = tiny_manifest
    out = tmp_path / "mc"
    assert main(["solve", str(manifest), "--method", "mc-external", "--out", str(out),
                 "--time-limit", "60"]) == 0
    rows = read_rows_csv(out / "rows.mc-external.csv")
    assert [r["detail"] for r in rows] == [BUNDLED_DETAIL] * len(insts)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_one_corrupt_instance_does_not_sink_the_batch(tmp_path, tiny_manifest, threads):
    manifest, insts = tiny_manifest
    root = tmp_path / "ds"
    root.mkdir()
    entries = []
    for idx in range(len(insts)):
        name = f"instance_{idx:03d}.json"
        data = (Path(manifest).parent / name).read_bytes()
        (root / name).write_bytes(data[: len(data) // 2] if idx == 1 else data)
        entries.append({"path": name, "seed": 81, "index": idx})
    bad_manifest = write_manifest(root, "small", 81, entries)
    out = tmp_path / "runs"
    rc = main(["solve", str(bad_manifest), "--method", "greedy-m", "--threads", threads,
               "--out", str(out)])
    assert rc == 2
    rows = read_rows_csv(out / "rows.greedy-m.csv")
    assert [r["instance"] for r in rows] == [f"instance_{i:03d}" for i in range(len(insts))]
    assert [r["status"] for r in rows] == ["ok", "error"] + ["ok"] * (len(insts) - 2)
    bad_path = os.path.join(root, "instance_001.json")
    assert rows[1]["detail"].startswith(f"InstanceError: {bad_path}: malformed instance file")
    assert (out / "instance_000.greedy-m.solution.json").exists()


FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched solve reaches the workers only when they are forked")


@pytest.fixture
def six_instances(tmp_path, tiny_manifest):
    """A manifest of six instances (the tiny three, twice) and its serial greedy-m rows."""
    manifest, insts = tiny_manifest
    root = tmp_path / "ds"
    root.mkdir()
    entries = []
    for idx in range(6):
        name = f"instance_{idx:03d}.json"
        shutil.copy(Path(manifest).parent / f"instance_{idx % len(insts):03d}.json", root / name)
        entries.append({"path": name, "seed": 81, "index": idx})
    six = write_manifest(root, "small", 81, entries)
    assert main(["solve", str(six), "--method", "greedy-m", "--out", str(tmp_path / "serial")]) == 0
    return six, read_rows_csv(tmp_path / "serial" / "rows.greedy-m.csv")


def _only_instance_000_fails(rows, serial, detail):
    assert [r["status"] for r in rows] == ["error"] + ["ok"] * 5
    assert rows[0]["detail"] == detail
    assert [r["f"] for r in rows[1:]] == [r["f"] for r in serial[1:]]
    assert not multiprocessing.active_children()


def _dies_on_instance_000(task):
    if task[0].endswith("instance_000.json"):
        os._exit(1)
    time.sleep(0.2)  # the other worker is still solving when instance 0's worker dies
    return SOLVE_ONE(task)


@FORK_ONLY
@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_dying_worker_costs_only_its_own_row(tmp_path, six_instances, monkeypatch, threads):
    six, serial = six_instances
    monkeypatch.setattr(cli, "_solve_one", _dies_on_instance_000)
    out = tmp_path / "runs"
    assert main(["solve", str(six), "--method", "greedy-m", "--threads", threads,
                 "--out", str(out)]) == 2
    _only_instance_000_fails(read_rows_csv(out / "rows.greedy-m.csv"), serial,
                             "worker died: exit code 1")


def _sleeps_on_instance_000(task):
    if task[0].endswith("instance_000.json"):
        time.sleep(60)
    return SOLVE_ONE(task)


@FORK_ONLY
@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_solve_past_its_deadline_costs_only_its_own_row(tmp_path, six_instances, monkeypatch,
                                                          threads):
    six, serial = six_instances
    monkeypatch.setattr(cli, "_solve_one", _sleeps_on_instance_000)
    monkeypatch.setattr(cli, "SOLVER_GRACE_S", 0.5)
    out = tmp_path / "runs"
    start = time.monotonic()
    assert main(["solve", str(six), "--method", "greedy-m", "--threads", threads,
                 "--time-limit", "1", "--out", str(out)]) == 2
    assert time.monotonic() - start < 30
    _only_instance_000_fails(read_rows_csv(out / "rows.greedy-m.csv"), serial,
                             "worker killed: no result within 1.5 s")


def _address_space_in_use():
    with open("/proc/self/status", encoding="utf-8") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))


@FORK_ONLY
@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_solve_past_the_memory_cap_costs_only_its_own_row(tmp_path, six_instances, monkeypatch,
                                                            threads):
    """Instance 0 asks for more address space than its worker's cap leaves:
    the allocation fails in that solve, and the same worker goes on to solve
    other instances."""
    six, serial = six_instances
    cap = _address_space_in_use() + (1 << 30)

    def load_past_the_cap(path):
        if path.endswith("instance_000.json"):
            np.empty(cap, dtype=np.uint8)  # address space only: no page is touched
        return load_instance(path)

    def solve_naming_the_worker(task):
        row, sol = SOLVE_ONE(task)
        return dict(row, detail=f"{os.getpid()} {row['detail']}"), sol

    monkeypatch.setattr(cli, "_address_space_cap", lambda workers: cap)
    monkeypatch.setattr(cli, "load_instance", load_past_the_cap)
    monkeypatch.setattr(cli, "_solve_one", solve_naming_the_worker)
    out = tmp_path / "runs"
    assert main(["solve", str(six), "--method", "greedy-m", "--threads", threads,
                 "--out", str(out)]) == 2
    rows = read_rows_csv(out / "rows.greedy-m.csv")
    pids = [r["detail"].split(" ", 1)[0] for r in rows]
    assert len(set(pids)) == int(threads) and pids[0] in pids[1:]  # no worker was replaced
    assert "MemoryError: Unable to allocate" in rows[0]["detail"]
    _only_instance_000_fails(rows, serial, rows[0]["detail"])


def _gone(pid):
    """Whether process `pid` has exited (a zombie that no one has reaped yet counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0] == "Z"


@FORK_ONLY
def test_a_deadline_kills_the_solver_a_worker_started(tmp_path, tiny_manifest, monkeypatch):
    """Instance 0's solve runs a command-template solver that sleeps: at the
    deadline its worker and the solver are killed, and the other instances
    are solved by the bundled solver as in the serial run."""
    manifest, insts = tiny_manifest
    pid_file = tmp_path / "solver.pid"
    sleeper = (f"{shlex.quote(sys.executable)} -c "
               + shlex.quote("import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid()));"
                             " time.sleep(120)")
               + f" {shlex.quote(str(pid_file))} {{lp_path}}")

    def solve_instance_000_with_the_sleeper(task):
        path, method, options = task
        if path.endswith("instance_000.json"):
            options = dict(options, solver_cmd=sleeper)
        return SOLVE_ONE((path, method, options))

    assert main(["solve", str(manifest), "--method", "mc-external", "--out",
                 str(tmp_path / "serial")]) == 0
    serial = read_rows_csv(tmp_path / "serial" / "rows.mc-external.csv")
    monkeypatch.setattr(cli, "_solve_one", solve_instance_000_with_the_sleeper)
    monkeypatch.setattr(cli, "SOLVER_GRACE_S", 1.0)
    out = tmp_path / "runs"
    assert main(["solve", str(manifest), "--method", "mc-external", "--threads", "2",
                 "--time-limit", "4", "--out", str(out)]) == 2
    rows = read_rows_csv(out / "rows.mc-external.csv")
    assert [r["status"] for r in rows] == ["error"] + ["ok"] * (len(insts) - 1)
    assert rows[0]["detail"] == "worker killed: no result within 5 s"
    assert [r["f"] for r in rows[1:]] == [r["f"] for r in serial[1:]]
    assert not multiprocessing.active_children()
    deadline = time.monotonic() + 10
    while not _gone(int(pid_file.read_text())) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(int(pid_file.read_text()))


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_workers_exit_after_their_solve_when_the_supervisor_is_killed(tmp_path, tiny_manifest):
    """`evcover solve` killed outright runs no `finally`: each worker finishes
    the solve it holds, finds the supervisor gone and exits."""
    manifest, _ = tiny_manifest
    marks = tmp_path / "marks"  # the sleeping solver names the worker that started it
    marks.mkdir()
    sleeper = (f"{shlex.quote(sys.executable)} -c "
               + shlex.quote("import os, sys, time; "
                             "open(os.path.join(sys.argv[1], str(os.getppid())), 'w').close(); "
                             "time.sleep(2)")
               + f" {shlex.quote(str(marks))} {{lp_path}}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.Popen([sys.executable, "-m", "evcover.cli", "solve", str(manifest),
                             "--method", "mc-external", "--threads", "2", "--solver-cmd", sleeper,
                             "--out", str(tmp_path / "runs")],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while len(os.listdir(marks)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait()
    workers = [int(name) for name in os.listdir(marks)]
    assert len(workers) == 2
    deadline = time.monotonic() + 30
    while not all(map(_gone, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if not _gone(pid)]
    for pid in left:
        os.killpg(pid, signal.SIGKILL)
    assert not left


def test_no_worker_outlives_a_supervisor_that_fails(tmp_path, tiny_manifest, monkeypatch):
    manifest, _ = tiny_manifest

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "wait", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["solve", str(manifest), "--method", "greedy-m", "--threads", "2",
              "--out", str(tmp_path / "runs")])
    assert not multiprocessing.active_children()


def test_solve_mc_external_matches_exact(tmp_path, tiny_manifest):
    manifest, insts = tiny_manifest
    out = tmp_path / "mc"
    assert main(["solve", str(manifest), "--method", "mc-external",
                 "--out", str(out), "--time-limit", "60"]) == 0
    rows = read_rows_csv(out / "rows.mc-external.csv")
    for row, inst in zip(rows, insts):
        cov = build_coverage(inst)
        _, f_star = brute_force_optimum(inst, cov)
        assert float(row["f"]) == pytest.approx(f_star, abs=1e-6)


def test_report_single_row_percentiles(tmp_path):
    rows = [{"instance": "i0", "method": "m", "status": "ok", "f": 10.0,
             "wall_time_s": 1.5, "termination": "done", "detail": ""}]
    path = tmp_path / "rows.csv"
    write_rows_csv(path, rows)
    agg = RunReport(read_rows_csv(path)).aggregates()["m"]
    assert agg["time_p5"] == agg["time_p95"] == 1.5
    assert agg["gap_p5"] == agg["gap_p95"] == 0.0


@pytest.mark.parametrize("value", ["abc", "", "nan"])
@pytest.mark.parametrize("column", ["f", "wall_time_s"])
def test_an_ok_row_without_a_finite_number_is_one_error_line(tmp_path, capsys, column, value):
    good = {"instance": "i0", "method": "m", "status": "ok", "f": 10.0, "wall_time_s": 1.5}
    path = tmp_path / "rows.csv"
    write_rows_csv(path, [good, {**good, "status": "skipped", "f": "", "wall_time_s": ""},
                          {**good, column: value}])
    out = tmp_path / "report.csv"
    assert main(["report", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"evcover report: {path}: line 4: ok row's {column} {value!r} is not a finite number"]
    assert not out.exists()


def test_nearest_rank_definition():
    values = list(range(101))  # 0..100
    assert nearest_rank_percentile(values, 5) == 5
    assert nearest_rank_percentile(values, 95) == 95
    assert nearest_rank_percentile([7.0], 5) == 7.0


def test_report_permutation_invariant(tmp_path):
    rng = np.random.default_rng(0)
    rows = [{"instance": f"i{k}", "method": "m", "status": "ok",
             "f": float(rng.integers(50, 100)), "wall_time_s": float(rng.random()),
             "termination": "done", "detail": ""} for k in range(20)]
    rows += [{"instance": f"i{k}", "method": "x", "status": "ok",
              "f": float(rng.integers(50, 100)), "wall_time_s": float(rng.random()),
              "termination": "done", "detail": ""} for k in range(20)]
    agg1 = RunReport(rows).aggregates()
    shuffled = list(rows)
    rng.shuffle(shuffled)
    agg2 = RunReport(shuffled).aggregates()
    assert agg1 == agg2


def test_report_cli_end_to_end(tmp_path, tiny_manifest):
    manifest, _ = tiny_manifest
    out = tmp_path / "rep"
    main(["solve", str(manifest), "--method", "greedy-h", "--out", str(out)])
    rc = main(["report", str(out / "rows.greedy-h.csv"), "--out",
               str(out / "report.csv")])
    assert rc == 0
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["method"] == "greedy-h"


def test_export_mc_counts(tmp_path, tiny_manifest):
    manifest, insts = tiny_manifest
    inst_path = os.path.join(os.path.dirname(manifest), "instance_000.json")
    out = tmp_path / "m.lp"
    assert main(["export", inst_path, "--formulation", "mc", "--out", str(out)]) == 0
    model = parse_lp(out.read_text())
    cov = build_coverage(insts[0])
    n_cover = sum(1 for r in model.rows if r.name.startswith("cover_"))
    n_patterns = sum(len(cover_patterns(insts[0], cov, t))
                     for t in range(1, insts[0].horizon + 1))
    assert n_cover == n_patterns < cov.trip.n_triplets
    out_sl = tmp_path / "s.lp"
    assert main(["export", inst_path, "--formulation", "sl", "--out", str(out_sl)]) == 0
    sl_model = parse_lp(out_sl.read_text())
    assert sl_model.n_rows > model.n_rows


def test_export_gf_requires_growth(tmp_path, tiny_manifest):
    manifest, _ = tiny_manifest
    inst_path = os.path.join(os.path.dirname(manifest), "instance_000.json")
    rc = main(["export", inst_path, "--formulation", "gf", "--out",
               str(tmp_path / "g.lp")])
    assert rc == 1


@pytest.mark.parametrize("text", [
    "q_lo,q_hi,slope,intercept\n",                  # header only
    "q_lo,q_hi,slope,intercept\n0.0,1.0,1.0\n",     # short row
    "q_lo,q_hi,slope,intercept\n0.0,1.0,one,0.0\n",  # not a number
    "q_lo,q_hi,slope,intercept\n0.0,0.5,1.0,0.0\n0.7,1.0,1.0,0.0\n",  # segments do not chain
    "q_lo,q_hi,slope,intercept\n0.0,nan,1.0,0.0\nnan,1.0,1.0,0.0\n",  # nan breakpoint
    "q_lo,q_hi,slope,intercept\n0.0,1.0,nan,0.0\n",  # nan slope
    "q_lo,q_hi,slope,intercept\n0.0,1.0,inf,0.0\n",  # inf slope
])
def test_malformed_growth_csv_is_one_error_line(tmp_path, tiny_manifest, capsys, text):
    with pytest.raises(GrowthError):
        growth_from_csv(text)
    manifest, _ = tiny_manifest
    inst_path = os.path.join(os.path.dirname(manifest), "instance_000.json")
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    out = tmp_path / "g.lp"
    rc = main(["export", inst_path, "--formulation", "gf", "--growth", str(bad),
               "--out", str(out)])
    assert rc == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


MANIFESTS = {
    "not JSON": "{not json",
    "wrong schema": json.dumps({"schema": "other", "instances": []}),
    "entry without a path": json.dumps({"schema": MANIFEST_SCHEMA, "instances": [{"seed": 1}]}),
    "no instances": json.dumps({"schema": MANIFEST_SCHEMA, "instances": []}),
    "missing instance": json.dumps({"schema": MANIFEST_SCHEMA,
                                    "instances": [{"path": "nope.json"}]}),
    "unreadable instance": json.dumps({"schema": MANIFEST_SCHEMA,
                                       "instances": [{"path": "bad.json"}]}),
}


def spaced_node_dataset(tmp_path):
    """A dataset on a network whose node ids `n<k>` are renamed `zone <k>`:
    the GF model of its instances has names that are not LP tokens."""
    net = tmp_path / "spaced.csv"
    save_network(generate_network(10, seed=4), net)
    net.write_text(re.sub(r"(?m)(?<![^,\n])n(\d+)(?=,)", r"zone \1", net.read_text()))
    ds = tmp_path / "spaced"
    assert main(["generate", "Simple", "--network", str(net), "--count", "2",
                 "--out", str(ds)]) == 0
    return ds


@pytest.mark.parametrize("command, bad", [
    ("generate", None),
    ("generate", "missing network"),
    ("generate", "cut network row"),
    ("solve", "missing"),
    ("solve", "not JSON"),
    ("solve", "wrong schema"),
    ("solve", "entry without a path"),
    ("compare-gf", "missing"),
    ("compare-gf", "not JSON"),
    ("compare-gf", "wrong schema"),
    ("compare-gf", "no instances"),
    ("compare-gf", "missing instance"),
    ("compare-gf", "unreadable instance"),
    ("compare-gf", "spaced node ids"),
    ("export", "missing"),
    ("export", "spaced node ids"),
    ("report", "missing"),
    ("report", "not a rows file"),
])
def test_bad_input_is_one_error_line(tmp_path, capsys, command, bad):
    out = tmp_path / "out"
    missing = str(tmp_path / "missing")
    (tmp_path / "bad.json").write_text('{"schema": "evcover-instance-v2"}')
    if command == "generate":
        source = ["--count", "-1"] if bad is None else ["--network", missing]
        if bad == "cut network row":
            net = tmp_path / "network.csv"
            save_network(generate_network(10, seed=1), net)
            lines = net.read_text().splitlines()
            lines[lines.index("[nodes]") + 3] = "n1,1"  # the second node row, cut short
            net.write_text("\n".join(lines) + "\n")
            source = ["--network", str(net)]
        argv = ["generate", "Simple", "--nodes", "10", *source, "--out", str(out)]
    elif command == "export" and bad == "spaced node ids":
        growth = tmp_path / "g.csv"
        growth.write_text("q_lo,q_hi,slope,intercept\n0.0,0.5,1.2,0.1\n0.5,1.0,1.2,0.1\n")
        argv = ["export", str(spaced_node_dataset(tmp_path) / "instance_000.json"),
                "--formulation", "gf", "--growth", str(growth), "--out", str(out)]
    elif command == "export":
        argv = ["export", missing, "--formulation", "mc", "--out", str(out)]
    elif bad == "spaced node ids":
        argv = [command, str(spaced_node_dataset(tmp_path) / "manifest.json"), "--out", str(out)]
    elif command == "report":
        rows = missing
        if bad == "not a rows file":
            rows = tmp_path / "rows.csv"
            rows.write_text("a,b\n1,2\n")
        argv = ["report", str(rows), "--out", str(out)]
    else:
        path = tmp_path / "manifest.json"
        if bad != "missing":
            path.write_text(MANIFESTS[bad])
        argv = [command, str(path), "--out", str(out)]
        if command == "solve":
            argv += ["--method", "greedy-m"]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"evcover {command}: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["export", "{bin}", "--formulation", "mc", "--out", "{out}"],
    ["generate", "Simple", "--network", "{bin}", "--out", "{out}"],
    ["report", "{bin}", "--out", "{out}"],
    ["export", "{inst}", "--formulation", "gf", "--growth", "{bin}", "--out", "{out}"],
])
def test_a_file_that_is_not_utf8_is_one_error_line(tmp_path, tiny_manifest, capsys, argv):
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe\x00 not text")
    out = tmp_path / "out"
    inst = os.path.join(os.path.dirname(tiny_manifest[0]), "instance_000.json")
    assert main([a.format(bin=binary, out=out, inst=inst) for a in argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"evcover {argv[0]}: {binary}: not UTF-8 text")
    assert not out.exists()


@pytest.mark.parametrize("limit", ["0", "-5", "nan", "abc"])
@pytest.mark.parametrize("command", ["solve", "compare-gf"])
def test_a_time_limit_that_is_not_positive_seconds_is_refused(tmp_path, tiny_manifest, capsys,
                                                              command, limit):
    out = tmp_path / "out"
    argv = [command, str(tiny_manifest[0]), "--out", str(out), f"--time-limit={limit}"]
    with pytest.raises(SystemExit) as exit_:
        main(argv + (["--method", "grasp-m"] if command == "solve" else []))
    assert exit_.value.code == 2
    assert f"{limit!r} is not a positive, finite number of seconds" in capsys.readouterr().err
    assert not out.exists()


def refused_with_exit_2(argv, out, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["-0.1", "1.5", "nan", "abc"])
def test_an_alpha_outside_0_1_is_refused(tmp_path, tiny_manifest, capsys, alpha):
    out = tmp_path / "out"
    refused_with_exit_2(["solve", str(tiny_manifest[0]), "--method", "grasp-m", "--out", str(out),
                         f"--alpha={alpha}"], out, f"{alpha!r} is not a number in [0, 1]", capsys)


@pytest.mark.parametrize("threads", ["0", "-2", "1.5"])
def test_threads_below_one_are_refused(tmp_path, tiny_manifest, capsys, threads):
    out = tmp_path / "out"
    refused_with_exit_2(["solve", str(tiny_manifest[0]), "--method", "greedy-m", "--out", str(out),
                         f"--threads={threads}"], out,
                        f"{threads!r} is not a whole number of at least 1", capsys)


def test_solve_refuses_a_solver_cmd_with_an_unknown_placeholder(tmp_path, tiny_manifest,
                                                               capsys):
    out = tmp_path / "out"
    refused_with_exit_2(["solve", str(tiny_manifest[0]), "--method", "mc-external",
                         "--out", str(out), "--solver-cmd", "cbc {lp_path} {foo}"], out,
                        "argument --solver-cmd: solver command 'cbc {lp_path} {foo}': {foo} is "
                        "not one of {lp_path}, {sol_path} and {time_limit}", capsys)


def test_compare_gf_refuses_a_solver_cmd_that_names_no_program(tmp_path, tiny_manifest,
                                                               capsys):
    out = tmp_path / "out"
    refused_with_exit_2(["compare-gf", str(tiny_manifest[0]), "--out", str(out),
                         "--solver-cmd", "   "], out,
                        "argument --solver-cmd: solver command '   ': names no program", capsys)


@pytest.mark.parametrize("method", ["mc-external", "rh-even"])
def test_a_malformed_solver_template_in_the_environment_gives_error_rows(
        tmp_path, tiny_manifest, monkeypatch, method):
    monkeypatch.setenv("EVCOVER_SOLVER_CMD", "cbc {lp_path} {foo}")
    manifest, insts = tiny_manifest
    out = tmp_path / "runs"
    assert main(["solve", str(manifest), "--method", method, "--out", str(out)]) == 2
    rows = read_rows_csv(out / f"rows.{method}.csv")
    assert [r["status"] for r in rows] == ["error"] * len(insts)
    assert {r["detail"] for r in rows} == {
        "SolverCommandError: EVCOVER_SOLVER_CMD 'cbc {lp_path} {foo}': {foo} is not one of "
        "{lp_path}, {sol_path} and {time_limit}"}


def test_compare_gf_with_a_malformed_solver_template_in_the_environment_is_one_error_line(
        tmp_path, tiny_manifest, monkeypatch, capsys):
    monkeypatch.setenv("EVCOVER_SOLVER_CMD", "   ")
    out = tmp_path / "cmp"
    assert main(["compare-gf", str(tiny_manifest[0]), "--out", str(out),
                 "--mc-method", "greedy-m"]) == 1
    assert capsys.readouterr().err == \
        "evcover compare-gf: EVCOVER_SOLVER_CMD '   ': names no program\n"
    assert not out.exists()


@pytest.mark.parametrize("radius", ["-5", "nan", "abc"])
@pytest.mark.parametrize("command", ["compare-gf", "export"])
def test_a_radius_that_is_negative_or_nan_is_refused(tmp_path, tiny_manifest, capsys, command,
                                                      radius):
    manifest = str(tiny_manifest[0])
    out = tmp_path / "out"
    growth = tmp_path / "g.csv"
    growth.write_text("q_lo,q_hi,slope,intercept\n0.0,1.0,1.0,0.0\n")
    argv = (["compare-gf", manifest, "--mc-method", "greedy-m", "--solver-cmd", "none"]
            if command == "compare-gf" else
            ["export", os.path.join(os.path.dirname(manifest), "instance_000.json"),
             "--formulation", "gf", "--growth", str(growth)])
    refused_with_exit_2(argv + ["--out", str(out), f"--radius={radius}"], out,
                        f"{radius!r} is not a non-negative number of km", capsys)


def test_compare_gf_workflow(tmp_path, tiny_manifest):
    manifest, insts = tiny_manifest
    out = tmp_path / "cmp"
    rc = main(["compare-gf", str(manifest), "--out", str(out),
               "--mc-method", "exact-enum", "--time-limit", "60"])
    assert rc == 0
    with open(out / "comparison_summary.csv") as fh:
        rows = {r["statistic"]: r for r in csv.DictReader(fh)}
    for stat in ("5th percentile", "Median", "95th percentile"):
        gf = float(rows[stat]["GF"])
        adj = float(rows[stat]["GF (Adjusted)"])
        mc = float(rows[stat]["MC"])
        assert gf <= adj + 1e-9
        assert adj <= mc + 1e-9
    # the growth function written here feeds the gf export
    inst_path = os.path.join(os.path.dirname(manifest), "instance_000.json")
    assert main(["export", inst_path, "--formulation", "gf",
                 "--growth", str(out / "growth_function.csv"), "--out", str(tmp_path / "gf.lp")]) == 0
    for name in ("nodes_gf.csv", "nodes_mc.csv"):
        with open(out / name, encoding="utf-8") as fh:
            nodes = list(csv.DictReader(fh))
        assert [r["node_id"] for r in nodes] == list(insts[0].network.node_ids)
        for row in nodes:
            [float(row[c]) for c in ("x_km", "y_km", "population", "ev", "ev_pct")]
    geo = json.loads((out / "nodes_mc.geojson").read_text())
    assert geo["type"] == "FeatureCollection"
    assert len(geo["features"]) == len(insts[0].network.nodes)


def test_compare_gf_runs_the_mc_method_once_per_instance(tmp_path, tiny_manifest,
                                                         monkeypatch):
    import evcover.cli as cli
    calls = []
    run_method = cli.run_method

    def counted(inst, *args, **kwargs):
        calls.append(inst)
        return run_method(inst, *args, **kwargs)

    monkeypatch.setattr(cli, "run_method", counted)
    manifest, insts = tiny_manifest
    rc = main(["compare-gf", str(manifest), "--out", str(tmp_path / "cmp"),
               "--mc-method", "exact-enum", "--solver-cmd", "none"])
    assert rc == 0
    assert len(calls) == len(insts)


@pytest.mark.parametrize("mc_method, message", [
    ("mc-external", "external solver not configured"),
    ("exact-enum", "more than 1 reachable states"),
])
def test_compare_gf_whose_mc_method_cannot_run_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                                  mc_method, message):
    monkeypatch.setattr(exact, "MAX_STATES", 1)
    root = tmp_path / "ds"
    root.mkdir()
    entries = []
    for inst in generate_small_dataset(3, 2, n_nodes=6, n_stations=3, horizon=2):
        idx = inst.metadata["instance_index"]
        save_instance(inst, root / f"instance_{idx:03d}.json")
        entries.append({"path": f"instance_{idx:03d}.json", "seed": 3, "index": idx})
    out = tmp_path / "cmp"
    rc = main(["compare-gf", str(write_manifest(root, "small", 3, entries)), "--out", str(out),
               "--mc-method", mc_method, "--solver-cmd", "none"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("evcover compare-gf: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_solve_writes_machine_readable_trace(tmp_path, tiny_manifest):
    manifest, _ = tiny_manifest
    out = tmp_path / "trace"
    assert main(["solve", str(manifest), "--method", "greedy-m",
                 "--out", str(out)]) == 0
    trace_path = out / "instance_000.greedy-m.trace.jsonl"
    assert trace_path.exists()
    lines = [json.loads(ln) for ln in trace_path.read_text().splitlines()]
    assert lines, "greedy must have accepted at least one move"
    for entry in lines:
        assert {"period", "station", "k", "score", "elapsed"} <= set(entry)



# Load, coverage, the solver-free methods and distance queries need no scipy.
NO_SCIPY_ROUTE = """
import sys
from evcover import cli
from evcover.covering import build_coverage
from evcover.instance import load_instance, save_instance

src, copy = sys.argv[1:3]
save_instance(load_instance(src), copy)
inst = load_instance(copy)
cov = build_coverage(inst)
for method in ("greedy-m", "grasp-m", "exact-enum", "rh-even"):
    cli.run_method(inst, cov, method, solver_cmd="none", time_limit=2.0)
loaded = sorted(m for m in sys.modules
                if m.startswith(("scipy.sparse", "scipy.spatial", "scipy.optimize")))
assert not loaded, loaded
inst.network.distance_matrix([inst.network.node_ids[0]])
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
assert not loaded, loaded
"""

# Generating a network and a dataset, and building and writing the GF model of
# an instance, need no scipy.
NO_SCIPY_GENERATION = """
import sys
from evcover.datasets import DatasetSpec, generate_dataset
from evcover.growth import GrowthFunction, build_gf_instance
from evcover.instance import save_instance
from evcover.lp_io import export_lp
from evcover.milp import build_gf
from evcover.network import generate_network

out = sys.argv[1]
net = generate_network(40, seed=3)
inst = generate_dataset(DatasetSpec("Distance", net, instance_count=1, base_seed=3))[0]
save_instance(inst, out + "/instance.json")
gfi = build_gf_instance(inst, GrowthFunction((0.0, 0.5, 1.0), (1.2, 1.2), (0.1, 0.1)))
export_lp(build_gf(gfi), out + "/gf.lp")
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
assert not loaded, loaded
"""


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_load_and_solver_free_methods_import_no_scipy(tmp_path):
    src = tmp_path / "instance.json"
    save_instance(generate_small_dataset(5, 1, n_nodes=8, n_stations=3, horizon=2)[0], src)
    proc = run_script(NO_SCIPY_ROUTE, src, tmp_path / "copy.json")
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_generation_and_gf_export_import_no_scipy(tmp_path):
    proc = run_script(NO_SCIPY_GENERATION, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "instance.json").exists() and (tmp_path / "gf.lp").stat().st_size > 0
