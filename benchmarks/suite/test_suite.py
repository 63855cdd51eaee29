"""Tests of the benchmark's own arithmetic, contracts and an end-to-end smoke run.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

import stats
from ledger import LAYERS, PER_LAYER_UNITS, Ledger, Timed, layer_shares, self_times
from run import BENCHMARK, E2E_UNITS, HERE, ROOT
from serving import poisson_schedule
from workloads import WORKLOADS, digest

RUN = [sys.executable, str(HERE / "run.py")]


# -- the Poisson schedule ---------------------------------------------------------


def test_schedule_is_a_pure_function_of_its_arguments():
    a = poisson_schedule(400.0, 2.0, seed=3, stream=1)
    assert np.array_equal(a, poisson_schedule(400.0, 2.0, seed=3, stream=1))
    assert not np.array_equal(a, poisson_schedule(400.0, 2.0, seed=4, stream=1))
    assert not np.array_equal(a, poisson_schedule(400.0, 2.0, seed=3, stream=2))


def test_schedule_has_exponential_gaps_at_the_requested_rate():
    due = poisson_schedule(400.0, 10.0, seed=0, stream=0)
    gaps = np.diff(np.concatenate([[0.0], due]))
    assert len(due) == 4000 and np.all(gaps > 0)
    assert due[-1] == pytest.approx(10.0, rel=0.02)
    # Stratified draws: the gap quantiles match the exponential's closely.
    for q in (0.5, 0.9, 0.99):
        assert np.quantile(gaps, q) == pytest.approx(-np.log(1 - q) / 400.0, rel=0.02)


def test_seeds_reorder_the_same_gap_distribution():
    a = np.diff(poisson_schedule(200.0, 5.0, seed=1, stream=0), prepend=0.0)
    b = np.diff(poisson_schedule(200.0, 5.0, seed=2, stream=0), prepend=0.0)
    assert not np.array_equal(a, b)
    for q in (0.1, 0.5, 0.9, 0.99):
        assert np.quantile(a, q) == pytest.approx(np.quantile(b, q), rel=0.02)


def test_schedule_rejects_non_positive_rate_or_duration():
    with pytest.raises(ValueError):
        poisson_schedule(0.0, 1.0, seed=0, stream=0)
    with pytest.raises(ValueError):
        poisson_schedule(100.0, 0.0, seed=0, stream=0)


# -- summary arithmetic -----------------------------------------------------------


def test_backlog_detector():
    assert not stats.backlog_growing([1.0] * 100)
    assert not stats.backlog_growing(list(np.linspace(1.0, 1.9, 100)))
    assert stats.backlog_growing(list(np.linspace(1.0, 10.0, 100)))
    assert not stats.backlog_growing([1.0, 50.0, 100.0])  # too short to judge


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, mid, q3 = stats.quartiles(values)
    assert [q1, mid, q3] == statistics.quantiles(values, n=4)
    assert mid == statistics.median(values)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / mid)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_supported_tail_needs_ten_samples_beyond_it():
    assert stats.supported_tail(1000) == 0.99
    assert stats.supported_tail(999) == 0.90
    assert stats.supported_tail(100) == 0.90
    assert stats.supported_tail(99) == 0.50
    assert stats.supported_tail(20) == 0.50
    assert stats.supported_tail(19) is None
    assert stats.tail([3.0, 1.0, 2.0]) == (0.5, 2.0)  # too few samples: the median
    with pytest.raises(ValueError):
        stats.tail([])


def test_tail_reuses_the_nearest_rank_percentile():
    from repro.metrics.latency import percentile

    samples = list(np.random.default_rng(0).exponential(1.0, 2000))
    assert stats.tail(samples) == (0.99, percentile(samples, 0.99))


@pytest.mark.parametrize(
    "parent, change, better, bound, expected",
    [
        # Within the bound and no consistent win: unchanged.
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [101, 100, 100, 99, 101, 100, 99, 102, 100, 98], "lower", 0.1, "unchanged"),
        # Median 20% higher on a lower-is-better metric with a 10% bound: worse.
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "lower", 0.1, "worse"),
        # The same change on a higher-is-better metric: a clean win.
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "higher", 0.1, "better"),
        # Wins every pair but by less than the parent's own spread: unchanged.
        ([100, 104, 96, 100, 108, 92, 100, 104, 96, 100], [99, 103, 95, 99, 107, 91, 99, 103, 95, 99], "lower", 0.1, "unchanged"),
        # Parent spread wider than the bound: unresolved ...
        ([50, 150, 80, 120, 100, 60, 140, 90, 110, 100], [55, 150, 85, 125, 100, 65, 140, 95, 115, 100], "lower", 0.1, "unresolved"),
        # ... unless every change run beats every parent run.
        ([50, 150, 80, 120, 100, 60, 140, 90, 110, 100], [10, 12, 11, 10, 13, 12, 11, 10, 12, 11], "lower", 0.1, "better"),
    ],
)
def test_verdict(parent, change, better, bound, expected):
    assert stats.verdict(parent, change, better=better, bound=bound) == expected


def test_verdict_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.verdict([1.0], [1.0], better="up", bound=0.1)
    with pytest.raises(ValueError):
        stats.verdict([], [1.0], better="lower", bound=0.1)


# -- the ledger -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    totals = {"select": 10.0, "alg2": 3.0, "depround": 2.0, "greedy": 1.0, "walk": 0.5}
    children = {"select": ("alg2", "depround", "greedy"), "depround": ("walk",)}
    own = self_times(totals, children)
    assert own == {"select": 4.0, "alg2": 3.0, "depround": 1.5, "greedy": 1.0, "walk": 0.5}


def test_layer_shares_and_remainder_account_for_the_wall():
    totals = {
        "select.LFSC": 4.0,
        "lfsc.alg2": 1.0,
        "lfsc.depround": 1.0,
        "lfsc.greedy": 1.0,
        "update.LFSC": 2.0,
        "lfsc.multipliers": 0.5,
        "truth.realize": 1.0,
    }
    shares = layer_shares(totals, wall_s=10.0)
    assert shares["core.lfsc.select_self_share"] == pytest.approx(10.0)
    assert shares["core.lfsc.update_share"] == pytest.approx(15.0)
    assert shares["core.lfsc.multipliers_share"] == pytest.approx(5.0)
    assert shares["ledger.remainder_share"] == pytest.approx(30.0)
    assert sum(shares.values()) == pytest.approx(100.0)
    assert set(shares) == set(LAYERS) | {"ledger.remainder_share"}


def test_timed_proxy_forwards_attributes_and_times_methods():
    class Inner:
        name = "inner"

        def select(self, x):
            return x + 1

    inner = Inner()
    ledger = Ledger()
    proxy = Timed(inner, ledger, {"select": "select.x", "absent": "never"})
    assert proxy.select(1) == 2
    assert proxy.name == "inner"
    assert not hasattr(proxy, "absent")
    proxy.flag = True
    assert inner.flag is True
    assert set(ledger.total) == {"select.x"}


# -- digests ------------------------------------------------------------------------


def test_digest_is_stable_and_sensitive_to_dtype_shape_and_values():
    a = np.arange(6, dtype=np.int64)
    assert digest([a]) == digest([a.copy()])
    assert digest([a]) == "b4c39036ba738b144fae2f4f86ff0169"
    assert digest([a]) != digest([a.astype(np.int32)])
    assert digest([a]) != digest([a.reshape(2, 3)])
    assert digest([a]) != digest([a + 1])
    assert digest([a, a]) != digest([a])


# -- BENCHMARK.json agrees with what the suite emits -----------------------------------


def test_benchmark_json_matches_the_suite():
    bench = json.loads(BENCHMARK.read_text())
    assert bench["command"] == ["python3", "benchmarks/suite/run.py"]
    assert bench["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# -- the command line ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--horizon", "0"],
        ["--horizon", "-5"],
        ["--repeats", "0"],
        ["--repeats", "-1"],
        ["--seconds", "0"],
        ["--seed", "-1"],
        ["--workload", "no_such_workload"],
        ["--out", "/nonexistent-dir/records.jsonl"],
        ["--out", str(HERE)],
    ],
)
def test_bad_arguments_exit_2_with_a_message(argv):
    proc = subprocess.run(RUN + argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "error" in proc.stderr
    assert proc.stdout == ""


def test_a_directory_without_the_sources_fails_without_a_result(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "sim_lfsc", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


#: Runs argv[1:] as a child subreaper, then reports its exit code and whether
#: any descendant outlived it (an orphan is re-parented to this wrapper).
ORPHAN_WATCH = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
try:
    os.waitpid(-1, os.WNOHANG)
    left = "orphans-left"
except ChildProcessError:
    left = "none-left"
print(code, left)
"""


def test_a_run_leaves_no_process_behind():
    # fleet_metro's shard workers create shm, so each starts a resource
    # tracker that outlives it; the run must wait for those too.
    argv = ["--smoke", "--workload", "fleet_metro", "--seconds", "0.01", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "-c", ORPHAN_WATCH, *RUN, *argv],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.stdout.split() == ["0", "none-left"], proc.stderr


def test_smoke_run_checks_outputs_and_prints_every_metric(tmp_path):
    out = tmp_path / "records.jsonl"
    proc = subprocess.run(
        RUN + ["--smoke", "--seconds", "0.01", "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["workload"], r["trace"]) for r in records] == [
        (w, t) for w in WORKLOADS for t in (0, 1)
    ]
    for rec in records:
        assert rec["correct"] and rec["attempted"] >= 1 and rec["failed"] == 0
        expected = PER_LAYER_UNITS if rec["trace"] else E2E_UNITS
        assert {n: m["unit"] for n, m in rec["metrics"].items()} == expected
        for name in expected:
            assert name in proc.stdout
    compared = subprocess.run(
        RUN + ["--compare", str(out), str(out)], capture_output=True, text=True, timeout=60
    )
    assert compared.returncode == 0, compared.stderr
    rows = [line for line in compared.stdout.splitlines()[1:] if line.strip()]
    assert len(rows) == len(WORKLOADS) * len(E2E_UNITS)
    assert all(row.endswith("unchanged") for row in rows)
