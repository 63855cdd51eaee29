"""The repo's benchmark: four workloads, end-to-end metrics and a per-layer ledger.

Usage::

    python3 benchmarks/suite/run.py [--seed N] [--smoke] [--out FILE]
    python3 benchmarks/suite/run.py --workload sim_lfsc --seed 3 --seconds 15 --trace 0
    python3 benchmarks/suite/run.py --compare PARENT.jsonl CHANGE.jsonl

The program under test is imported from ``src/`` of the checkout this file
sits in.  Without ``--workload`` every workload runs, untraced and then
traced, and every metric is printed by name and unit.  When exactly one
run is requested the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"setup_s": {"value": 0.61, "unit": "s"}, ...}}

holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Every timed repeat runs in a fresh child process, so
set-up time and peak memory are per run.  Before any number is published
the identity gates run and every output digest is checked; a failed check
exits with status 1 and prints no result.  Bad arguments exit with status 2.
``--out`` appends one JSON record per run, and ``--compare`` reads two such
files and prints a verdict per workload and end-to-end metric.

Scratch files (the native-kernel cache, checkpoints, child logs) go under
``.bench_build/suite/`` in the checkout; nothing is written elsewhere.

Every process a run starts, however deep, has ended when the run returns:
this process is the child subreaper of its descendants and waits for each.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "suite"
GOLDENS = HERE / "goldens.json"
BENCHMARK = ROOT / "BENCHMARK.json"

if not (SRC / "repro").is_dir():
    sys.exit(f"error: no source tree at {SRC}; run the benchmark from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import stats  # noqa: E402
from ledger import PER_LAYER_UNITS, layer_metrics  # noqa: E402
from repro.metrics.latency import percentile  # noqa: E402
from repro.utils.timing import monotonic  # noqa: E402
from serving import (  # noqa: E402
    ServeError,
    closed_loop,
    open_loop,
    poisson_schedule,
    wait,
    start_daemon,
    stop_daemon,
)
from workloads import (  # noqa: E402
    BATCH,
    RUNG_P99_LIMIT_MS,
    WORKLOADS,
    assignments_digest,
    experiment_config,
    serve_args,
    session_assignments,
    sizes_for,
)

#: End-to-end metrics and their units, in print order.
E2E_UNITS = {
    "setup_s": "s",
    "slots_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Environment variables that would change what the program does or where
#: it writes; children never inherit them.
AMBIENT_KNOBS = ("REPRO_CACHE_DIR", "REPRO_TRACE_DIR", "REPRO_TRACE_SAMPLE", "REPRO_NATIVE")

#: Upper bound on batch repeats when jobs are short against ``--seconds``.
MAX_REPEATS = 20
#: A child that has not finished after this long is killed.
CHILD_TIMEOUT_S = 170.0
#: An adopted descendant still running this long after it was orphaned is killed.
REAP_TIMEOUT_S = 30.0
#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36


class CheckFailed(RuntimeError):
    """A correctness gate or digest check failed: publish nothing."""


# -- arguments -------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/suite/run.py",
        description="Run the benchmark workloads, check their outputs, print their metrics.",
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS, help="run only this workload (repeatable)"
    )
    parser.add_argument("--seed", type=int, default=0, help="seeds every input (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="measured seconds per run (default 15)"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics, 1: the per-layer ledger (default: both)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="fresh-process repeats per run (default 5)"
    )
    parser.add_argument("--horizon", type=int, default=None, help="override the slot horizon")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out", type=Path, default=None, help="append JSON records to FILE")
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
        help="compare two --out files and print a verdict per workload and metric",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be > 0, got {args.seconds}")
    if args.repeats <= 0:
        parser.error(f"--repeats must be > 0, got {args.repeats}")
    if args.horizon is not None and args.horizon <= 0:
        parser.error(f"--horizon must be > 0, got {args.horizon}")
    if args.out is not None and (args.out.is_dir() or not args.out.parent.is_dir()):
        parser.error(f"--out {args.out}: not a file path in an existing directory")
    for path in args.compare or ():
        if not path.is_file():
            parser.error(f"--compare: no such file {path}")
    return args


# -- processes -----------------------------------------------------------------------------


def prepare_environment() -> None:
    """Point this process and every child at this checkout's sources and scratch dir."""
    for knob in AMBIENT_KNOBS:
        os.environ.pop(knob, None)
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["REPRO_NATIVE_CACHE"] = str(SCRATCH / "native")
    SCRATCH.mkdir(parents=True, exist_ok=True)


def adopt_descendants() -> None:
    """Become the reaper of every process this run starts, however deep.

    A shard or pool worker that creates shm starts a resource-tracker
    process which outlives the worker by a moment; orphaned, it would be
    left behind when the run ends.  Adopted, :func:`reap_adopted` waits
    for it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def reap_adopted(timeout_s: float = REAP_TIMEOUT_S) -> None:
    """Wait until this process has no children left; kill any alive at the deadline.

    Called only when every child started here has been waited for, so what
    remains are adopted orphans.  This process itself starts no
    multiprocessing helpers (the gates run in a child), so none of its own
    children waits on it to exit.
    """
    deadline = monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if monotonic() > deadline:
            for child in live_children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def live_children() -> list[int]:
    """Pids whose parent is this process, from ``/proc/<pid>/stat``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def spawn_child(spec: dict) -> tuple[float, dict]:
    """Run ``child.py`` on ``spec``; return ``(setup_s, result)``."""
    log = SCRATCH / f"child-{os.getpid()}.log"
    with open(log, "wb") as err:
        spawned = monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=ROOT,
        )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = monotonic()
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = wait(proc, 30.0)
        reap_adopted()
    if code != 0 or first.strip() != b"READY":
        raise RuntimeError(
            f"{spec['workload']} {spec['job']} child failed (status {code}):\n"
            + log.read_text(errors="replace")[-3000:]
        )
    log.unlink()
    return ready - spawned, json.loads(rest.splitlines()[-1])


def child_spec(workload: str, args, job: str, traced: bool = False) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "horizon": args.horizon,
        "job": job,
        "traced": traced,
        "tmp": str(SCRATCH),
    }


# -- correctness -------------------------------------------------------------------------------


def golden(workload: str, args) -> str | None:
    """The pinned seed-0 digest, when this run uses the pinned inputs."""
    if args.seed != 0 or args.smoke or args.horizon is not None:
        return None
    return json.loads(GOLDENS.read_text()).get(workload)


def check_digests(workload: str, args, digests: list[str]) -> str:
    """All digests equal each other, and the golden when one applies."""
    if len(set(digests)) != 1:
        raise CheckFailed(f"{workload}: outputs differ between runs: {sorted(set(digests))}")
    expected = golden(workload, args)
    if expected is not None and digests[0] != expected:
        raise CheckFailed(f"{workload}: digest {digests[0]} != pinned golden {expected}")
    return digests[0]


def run_gates(workload: str, args) -> None:
    """The workload's identity gates, in a fresh process like every job."""
    _, result = spawn_child(child_spec(workload, args, "gates"))
    if result["problem"]:
        raise CheckFailed(f"{workload}: {result['problem']}")


def expected_warmup(sizes, seed: int) -> str:
    """The in-process session's warm-up assignments, which the daemon must repeat."""
    return assignments_digest(session_assignments(experiment_config(sizes, seed), sizes.warmup))


# -- untraced runs: the end-to-end metrics ----------------------------------------------------


def timed_batch(workload: str, args) -> dict:
    """Fresh-process repeats of one batch job until ``--seconds`` are measured."""
    reps = []
    measured = 0.0
    while len(reps) < args.repeats or (measured < args.seconds and len(reps) < MAX_REPEATS):
        setup_s, result = spawn_child(child_spec(workload, args, "e2e"))
        reps.append({"setup_s": setup_s, **result})
        measured += result["wall_s"]
    digest = check_digests(workload, args, [r["digest"] for r in reps])
    walls = [r["wall_s"] for r in reps]
    q, tail_s = stats.tail(walls)
    metrics = {
        "setup_s": stats.median([r["setup_s"] for r in reps]),
        "slots_per_s": stats.median([r["units"] / r["wall_s"] for r in reps]),
        "latency_p50_ms": 1e3 * percentile(walls, 0.5),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in reps]),
    }
    detail = {
        "repeats": len(reps),
        "digest": digest,
        "latency": f"time to result of one job; tail = p{round(100 * q)} of {len(walls)} jobs",
        "walls_s": walls,
    }
    return record(workload, args, 0, metrics, sum(r["units"] for r in reps), 0, detail)


def timed_serve(workload: str, args, sizes, expected: str) -> dict:
    """Fresh daemons: warm-up (digested), closed loop, then one open-loop phase each."""
    rate = sizes.decide_rate
    phase_s = args.seconds / args.repeats
    reps = [
        serve_repeat(args, sizes, [poisson_schedule(rate, phase_s, args.seed, k)])
        for k in range(args.repeats)
    ]
    digest = check_digests(workload, args, [r["digest"] for r in reps] + [expected])
    latency = np.concatenate([r["phases"][0].latency_s for r in reps])
    latency = latency[np.isfinite(latency)]
    q, tail_s = stats.tail(latency)
    lateness = np.concatenate([r["phases"][0].lateness_s for r in reps])
    # The rate at the median round trip: a few preempted decides stretch a
    # loop's wall time on a shared host, but not its median.
    rtt = np.concatenate([r["closed"].rtt_s for r in reps])
    metrics = {
        "setup_s": stats.median([r["setup_s"] for r in reps]),
        "slots_per_s": 1.0 / percentile(rtt, 0.5),
        "latency_p50_ms": 1e3 * percentile(latency, 0.5),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in reps]),
    }
    detail = {
        "repeats": len(reps),
        "digest": digest,
        "latency": f"decide from due time to reply at {rate:g}/s open loop; "
        f"tail = p{round(100 * q)} of {len(latency)} pooled samples",
        "late_p99_ms": 1e3 * percentile(lateness, 0.99),
    }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return record(workload, args, 0, metrics, attempted, failed, detail)


def serve_repeat(args, sizes, schedules: list[np.ndarray]) -> dict:
    """One fresh daemon: warm-up, closed loop, then one open-loop phase per schedule."""
    attempted = sizes.warmup + sizes.closed + sum(len(due) for due in schedules)
    horizon = experiment_config(sizes, args.seed).horizon
    if attempted > horizon:
        raise ServeError(f"{attempted} decides exceed the daemon horizon {horizon}")
    log = SCRATCH / f"daemon-{os.getpid()}.log"
    daemon = start_daemon(serve_args(sizes, args.seed), cwd=ROOT, log=log)
    try:
        warm = closed_loop(daemon.conn, sizes.warmup)
        closed = closed_loop(daemon.conn, sizes.closed)
        status = daemon.conn.request({"op": "status"})
        phases = [open_loop(daemon.conn, due) for due in schedules]
    finally:
        rss_mb = stop_daemon(daemon)
    log.unlink()
    assignments = [(r["assignment"]["task"], r["assignment"]["scn"]) for r in warm.replies if r.get("ok")]
    return {
        "setup_s": daemon.setup_s,
        "peak_rss_mb": rss_mb,
        "digest": assignments_digest(assignments),
        "closed": closed,
        "status": status,
        "phases": phases,
        "attempted": attempted,
        "failed": warm.failed + closed.failed + sum(p.failed for p in phases),
    }


# -- traced runs: the per-layer ledger ----------------------------------------------------------


def traced_run(workload: str, args, sizes, expected: str | None) -> dict:
    """Untraced and traced ledger passes in fresh processes, plus the runs around them."""
    phase = None
    rungs = None
    if workload in BATCH:
        _, e2e = spawn_child(child_spec(workload, args, "e2e"))
        check_digests(workload, args, [e2e["digest"]])
        attempted, failed = e2e["units"], 0
    else:
        e2e = {}
        phase = traced_serve_phase(args, sizes, expected)
        attempted, failed = phase.pop("attempted"), phase.pop("failed")
        rungs = phase.pop("rungs")
    _, untraced = spawn_child(child_spec(workload, args, "ledger", traced=False))
    _, traced = spawn_child(child_spec(workload, args, "ledger", traced=True))
    if untraced["digest"] != traced["digest"]:
        raise CheckFailed(
            f"{workload}: traced pass {traced['digest']} != untraced pass {untraced['digest']}"
        )
    if workload == "fleet_metro" and untraced["serial_digest"] != e2e["digest"]:
        raise CheckFailed(f"{workload}: one serial shard diverged from two shard processes")
    metrics = layer_metrics(workload, untraced, traced, e2e, phase)
    detail = {
        "digest": traced["digest"],
        "rungs": rungs,
        "ledger_ms": {
            name: 1e3 * seconds / traced["slots"]
            for name, seconds in sorted(traced["totals"].items())
        },
    }
    attempted += untraced["slots"] + traced["slots"]
    return record(workload, args, 1, metrics, attempted, failed, detail)


def traced_serve_phase(args, sizes, expected: str) -> dict:
    """Daemon-side layer numbers: transport share, the rate ladder, generator lateness."""
    schedules = [
        poisson_schedule(rate, sizes.rung_samples / rate, args.seed, 100 + i)
        for i, rate in enumerate(sizes.ladder)
    ]
    rep = serve_repeat(args, sizes, schedules)
    check_digests("serve_decide", args, [rep["digest"], expected])
    rtt_p50_ms = 1e3 * percentile(rep["closed"].rtt_s, 0.5)
    server_p50_ms = rep["status"]["latency_p50_ms"]
    rungs = {}
    for rate, phase in zip(sizes.ladder, rep["phases"]):
        latency = phase.latency_s[np.isfinite(phase.latency_s)]
        q, tail_s = stats.tail(latency)
        growing = stats.backlog_growing(latency)
        rungs[rate] = {
            f"p{round(100 * q)}_ms": 1e3 * tail_s,
            "backlog_growing": growing,
            "failed": phase.failed,
            "met": phase.failed == 0 and 1e3 * tail_s <= RUNG_P99_LIMIT_MS and not growing,
            "late_p99_pct": 100.0 * percentile(phase.lateness_s, 0.99) * rate,
        }
    return {
        "transport_share": 100.0 * (rtt_p50_ms - server_p50_ms) / rtt_p50_ms,
        "max_rate_per_s": max((rate for rate, r in rungs.items() if r["met"]), default=0.0),
        "late_p99_pct": max(r["late_p99_pct"] for r in rungs.values()),
        "rungs": rungs,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
    }


# -- records and output -------------------------------------------------------------------------


def record(workload, args, trace, metrics, attempted, failed, detail) -> dict:
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    return {
        "schema": "bench-suite/v1",
        "workload": workload,
        "seed": args.seed,
        "trace": trace,
        "smoke": args.smoke,
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "detail": detail,
    }


def run_one(workload: str, args, trace: int) -> dict:
    sizes = sizes_for(args.smoke, args.horizon)
    run_gates(workload, args)
    expected = None if workload in BATCH else expected_warmup(sizes, args.seed)
    if trace:
        return traced_run(workload, args, sizes, expected)
    if workload in BATCH:
        return timed_batch(workload, args)
    return timed_serve(workload, args, sizes, expected)


def print_record(rec: dict) -> None:
    kind = "per-layer ledger (traced)" if rec["trace"] else "end-to-end (untraced)"
    print(f"== {rec['workload']}, seed {rec['seed']}: {kind} ==")
    for name, metric in rec["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  attempted {rec['attempted']}, failed {rec['failed']}")
    for key, value in rec["detail"].items():
        if key != "ledger_ms":
            print(f"  {key}: {value}")
    for name, ms in rec["detail"].get("ledger_ms", {}).items():
        print(f"    {name:<42} {ms:>10.4f} ms/slot, inclusive")


def compare(parent_path: Path, change_path: Path) -> int:
    """One row per workload and end-to-end metric: quartiles per side and a verdict."""
    bench = json.loads(BENCHMARK.read_text())
    parent, change = load_runs(parent_path), load_runs(change_path)
    print(
        f"{'workload':<16} {'metric':<16} {'unit':<5} {'parent median [q1, q3]':<36} "
        f"{'change median [q1, q3]':<36} {'delta':>8}  verdict"
    )
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        p_runs, c_runs = pair_runs(parent[workload], change[workload])
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [run[name] for run in p_runs]
            c = [run[name] for run in c_runs]
            p1, pm, p3 = stats.quartiles(p)
            c1, cm, c3 = stats.quartiles(c)
            verdict = stats.verdict(p, c, better=metric["better"], bound=metric["bound"])
            p_cell = f"{pm:.5g} [{p1:.5g}, {p3:.5g}]"
            c_cell = f"{cm:.5g} [{c1:.5g}, {c3:.5g}]"
            delta = 100.0 * (cm - pm) / pm
            print(
                f"{workload:<16} {name:<16} {metric['unit']:<5} {p_cell:<36} "
                f"{c_cell:<36} {delta:>+7.1f}%  {verdict}"
            )
    return 0


def load_runs(path: Path) -> dict[str, list[tuple[int, dict]]]:
    """Untraced records of a ``--out`` file: workload -> [(seed, {metric: value})]."""
    runs: dict[str, list[tuple[int, dict]]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                values = {name: m["value"] for name, m in rec["metrics"].items()}
                runs.setdefault(rec["workload"], []).append((rec["seed"], values))
    return runs


def pair_runs(parent: list, change: list) -> tuple[list[dict], list[dict]]:
    """Pair runs by seed when both sides ran the same seeds, else in file order."""
    if sorted(s for s, _ in parent) == sorted(s for s, _ in change):
        parent = sorted(parent, key=lambda run: run[0])
        change = sorted(change, key=lambda run: run[0])
    return [v for _, v in parent], [v for _, v in change]


# -- entry point ---------------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    prepare_environment()
    adopt_descendants()
    traces = [args.trace] if args.trace is not None else [0, 1]
    records = []
    try:
        for workload in args.workload or WORKLOADS:
            for trace in traces:
                rec = run_one(workload, args, trace)
                print_record(rec)
                records.append(rec)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        reap_adopted()
    if args.out is not None:
        with open(args.out, "a") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    if len(records) == 1:
        print(json.dumps({key: records[0][key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
