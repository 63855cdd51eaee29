"""The per-layer ledger: timing proxies, span self-times and the ledger passes.

A ledger pass runs one workload's slot path in-process and splits its wall
time into named layers.  Two sources feed it, both from outside ``src/``:

- :class:`Timed` proxies forward every attribute to the policy, the truth
  and the workload, and time their public methods (``select``/``update``;
  ``realize``, ``slot_pair_stats``, ``expected_compound_pairs``,
  ``means_pairs``, ``advance``, ``context_cells``; ``sample_slots``,
  ``slot``).  They reach the program through public constructors and
  public attributes only (``Simulation(...)``, ``TileSim.policy``,
  ``OnlineSession.truth``, ...).
- ``repro.obs.observe`` exposes the program's own span histograms
  (``sim.*``, ``lfsc.*``, ``oracle.*``, ``service.*``) and counters.

Spans nest (``select`` contains Alg. 2, DepRound and Alg. 4), so each layer
reports its *self* time: its total minus the totals of the layers inside
it.  Whatever no named layer covers is the remainder: validation,
bookkeeping and the loop itself.  Every pass runs twice in fresh
processes, untraced and traced; the untraced wall gives ``trace.overhead_pct``
and the digests of the two must match.
"""

from __future__ import annotations

import os
import pickle
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.utils.timing import monotonic

import stats
from workloads import (
    FIG2_SEEDS,
    LINEUP,
    WORKERS,
    Sizes,
    assignments_digest,
    experiment_config,
    fleet_config,
    fleet_digest,
    sim_digest,
    summary_means_digest,
)


class Ledger:
    """Accumulates timed calls by label, plus the input sizes the calls saw."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.select_samples: list[float] = []
        self.edges = 0
        self.slots_seen = 0
        self.assigned = 0
        self.selects = 0

    def add(self, label: str, seconds: float) -> None:
        self.total[label] += seconds

    def saw_slots(self, slots) -> None:
        for slot in slots:
            self.slots_seen += 1
            self.edges += sum(len(cov) for cov in slot.coverage)

    def saw_assignment(self, assignment) -> None:
        self.selects += 1
        self.assigned += len(assignment)


class Timed:
    """Forwards every attribute to ``inner`` and times the methods in ``labels``.

    ``labels`` maps a method name to its ledger label; methods the inner
    object lacks are not wrapped, so ``hasattr`` probes still see the inner
    object's true surface.  ``after`` maps a method name to a callback that
    inspects the return value outside the timed interval.
    """

    def __init__(self, inner, ledger: Ledger, labels: dict[str, str], after: dict | None = None):
        object.__setattr__(self, "_inner", inner)
        after = after or {}
        for method, label in labels.items():
            fn = getattr(inner, method, None)
            if callable(fn):
                object.__setattr__(self, method, _timed(fn, ledger, label, after.get(method)))

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)

    def __setattr__(self, name, value):
        setattr(object.__getattribute__(self, "_inner"), name, value)


def _timed(fn, ledger: Ledger, label: str, after):
    def call(*args, **kwargs):
        start = monotonic()
        out = fn(*args, **kwargs)
        seconds = monotonic() - start
        ledger.add(label, seconds)
        if after is not None:
            after(out, seconds)
        return out

    return call


def traced_policy(policy, ledger: Ledger) -> Timed:
    lfsc = policy.name == "LFSC"

    def on_select(assignment, seconds):
        ledger.saw_assignment(assignment)
        if lfsc:
            ledger.select_samples.append(seconds)

    return Timed(
        policy,
        ledger,
        {"select": f"select.{policy.name}", "update": f"update.{policy.name}"},
        {"select": on_select},
    )


def traced_truth(truth, ledger: Ledger) -> Timed:
    return Timed(
        truth,
        ledger,
        {
            "realize": "truth.realize",
            "slot_pair_stats": "truth.pair_stats",
            "expected_compound_pairs": "truth.pair_stats",
            "means_pairs": "truth.pair_stats",
            "advance": "truth.advance",
            "context_cells": "truth.context_cells",
        },
    )


def traced_workload(workload, ledger: Ledger) -> Timed:
    return Timed(
        workload,
        ledger,
        {"sample_slots": "workload.slots", "slot": "workload.slots"},
        {
            "sample_slots": lambda slots, _s: ledger.saw_slots(slots),
            "slot": lambda slot, _s: ledger.saw_slots([slot]),
        },
    )


def self_times(totals: dict[str, float], children: dict[str, tuple[str, ...]]) -> dict[str, float]:
    """Each layer's total minus the totals of the layers directly inside it."""
    return {
        name: total - sum(totals.get(child, 0.0) for child in children.get(name, ()))
        for name, total in totals.items()
    }


# -- ledger passes (each runs in a fresh child process) --------------------------


def _observe(traced: bool):
    if not traced:
        return nullcontext()
    from repro import obs

    return obs.observe(registry=obs.global_registry())


def _span_totals() -> dict[str, float]:
    from repro import obs

    hists = obs.global_registry().snapshot()["histograms"]
    return {name[len("span."):]: h["sum"] for name, h in hists.items() if name.startswith("span.")}


def _traced_simulation(base, ledger: Ledger):
    from repro.env.simulator import Simulation

    return Simulation(
        network=base.network,
        workload=traced_workload(base.workload, ledger),
        truth=traced_truth(base.truth, ledger),
        channel=base.channel,
        seed=base.seed,
        validate_assignments=base.validate_assignments,
        solver_cache=base.solver_cache,
        window_cache=base.window_cache,
    )


def run_pass(workload: str, sizes: Sizes, seed: int, traced: bool, tmp: Path) -> dict:
    """One ledger pass; returns its wall, slots, digest and (traced) layer totals."""
    ledger = Ledger()
    out: dict = {"policy_wall": defaultdict(float)}
    with _observe(traced):
        if workload == "sim_lfsc":
            _sim_pass(sizes, seed, traced, ledger, out)
        elif workload == "fig2_replicate":
            _fig2_pass(sizes, seed, traced, ledger, out)
        elif workload == "fleet_metro":
            _fleet_pass(sizes, seed, traced, ledger, out)
        else:
            _serve_pass(sizes, seed, traced, ledger, out, tmp)
    out["policy_wall"] = dict(out["policy_wall"])
    if traced:
        out["totals"] = {**_span_totals(), **ledger.total}
        out["select_samples"] = ledger.select_samples
        out["edges_per_slot"] = ledger.edges / max(ledger.slots_seen, 1)
        out["assigned_per_slot"] = ledger.assigned / max(ledger.selects, 1)
    return out


def _sim_pass(sizes, seed, traced, ledger, out) -> None:
    from repro.experiments.runner import build_simulation, make_policy

    cfg = experiment_config(sizes, seed, sizes.sim_horizon)
    sim = build_simulation(cfg)
    policy = make_policy("LFSC", cfg, sim.truth)
    if traced:
        sim = _traced_simulation(sim, ledger)
        policy = traced_policy(policy, ledger)
    start = monotonic()
    result = sim.run(policy, cfg.horizon, window=cfg.window)
    out["wall_s"] = monotonic() - start
    out["policy_wall"]["LFSC"] = out["wall_s"]
    out["slots"] = cfg.horizon
    out["digest"] = sim_digest(result)


def _fig2_pass(sizes, seed, traced, ledger, out) -> None:
    """The replicated line-up run serially, one fresh simulation per policy.

    Mirrors what each replication worker does: per seed, the five policies
    share the process-wide window and solver caches.
    """
    from repro.env.window_cache import reset_shared_window_cache
    from repro.experiments.replication import replication_seed_list
    from repro.experiments.runner import build_simulation, make_policy
    from repro.solvers.cache import reset_shared_cache

    cfg = experiment_config(sizes, seed, sizes.fig2_horizon)
    per_seed = []
    wall = 0.0
    for s in replication_seed_list(cfg.seed, FIG2_SEEDS):
        reset_shared_window_cache()
        reset_shared_cache()
        cfg_s = cfg.with_overrides(seed=s)
        summaries = {}
        for name in LINEUP:
            sim = build_simulation(cfg_s)
            policy = make_policy(name, cfg_s, sim.truth)
            if traced:
                sim = _traced_simulation(sim, ledger)
                policy = traced_policy(policy, ledger)
            start = monotonic()
            result = sim.run(policy, cfg_s.horizon, window=cfg_s.window)
            seconds = monotonic() - start
            wall += seconds
            out["policy_wall"][name] += seconds
            summaries[name] = result.summary()
        per_seed.append(summaries)
    means = {
        p: {m: float(np.array([run[p][m] for run in per_seed], dtype=float).mean()) for m in per_seed[0][p]}
        for p in LINEUP
    }
    out["wall_s"] = wall
    out["slots"] = len(LINEUP) * len(per_seed) * cfg.horizon
    out["digest"] = summary_means_digest(means)
    out["result_mb"] = sum(len(pickle.dumps(run)) for run in per_seed) / 1e6


def _fleet_pass(sizes, seed, traced, ledger, out) -> None:
    """The first tiles of the grid stepped in-process, without border exchange.

    The untraced pass also runs the whole fleet on one serial shard: its
    wall is the serial time of the parallel-efficiency ratio, and its series
    must equal the two-process run's.
    """
    from repro import api
    from repro.fleet.tile import TileSim

    cfg = fleet_config(sizes, seed)
    if not traced:
        serial = api.run_fleet(cfg, shards=1, mode="serial")
        out["serial_wall_s"] = serial.wall_s
        out["serial_digest"] = fleet_digest(serial.tile_series)
    tiles = [TileSim(cfg, k) for k in range(min(sizes.fleet_ledger_tiles, cfg.num_tiles))]
    if traced:
        for tile in tiles:
            tile.policy = traced_policy(tile.policy, ledger)
            tile.truth = traced_truth(tile.truth, ledger)
            tile.workload = traced_workload(tile.workload, ledger)
    start = monotonic()
    for tile in tiles:
        tile.run_slots(cfg.horizon)
    out["wall_s"] = monotonic() - start
    out["policy_wall"]["LFSC"] = out["wall_s"]
    out["slots"] = len(tiles) * cfg.horizon
    out["digest"] = fleet_digest([tile.series() for tile in tiles])


def _serve_pass(sizes, seed, traced, ledger, out, tmp: Path) -> None:
    """``PolicyDaemon.handle`` driven in-process (no socket), then save/restore costs."""
    from repro.service import OnlineSession, PolicyDaemon

    session = OnlineSession(experiment_config(sizes, seed), policy="LFSC")
    if traced:
        session.policy = traced_policy(session.policy, ledger)
        session.truth = traced_truth(session.truth, ledger)
        session.workload = traced_workload(session.workload, ledger)
    daemon = PolicyDaemon(session)
    assignments = []
    wall = 0.0
    for _ in range(sizes.serve_ledger_slots):
        start = monotonic()
        reply = daemon.handle({"op": "decide"})
        wall += monotonic() - start
        if not reply.get("ok"):
            raise RuntimeError(f"decide failed in the ledger pass: {reply}")
        assignments.append((reply["assignment"]["task"], reply["assignment"]["scn"]))
    ledger.add("handle", wall)
    out["wall_s"] = wall
    out["policy_wall"]["LFSC"] = wall
    out["slots"] = sizes.serve_ledger_slots
    out["digest"] = assignments_digest(assignments)
    if not traced:
        out["checkpoint"] = _checkpoint_costs(session, tmp / f"ledger-{os.getpid()}.ckpt")


def _checkpoint_costs(session, path: Path, repeats: int = 3) -> dict:
    """Median save and restore times of the session's ``repro-checkpoint/v1`` file.

    The first save writes a new file; later ones replace it, as every
    daemon autosave after the first does.
    """
    from repro.service import OnlineSession

    save_s, restore_s = [], []
    try:
        for _ in range(repeats):
            start = monotonic()
            session.save(path)
            save_s.append(monotonic() - start)
            start = monotonic()
            OnlineSession.from_checkpoint(path)
            restore_s.append(monotonic() - start)
        size_mb = path.stat().st_size / 1e6
    finally:
        path.unlink(missing_ok=True)
    return {
        "mb": size_mb,
        "save_s": stats.median(save_s),
        "restore_s": stats.median(restore_s),
    }


# -- per-layer metrics ---------------------------------------------------------------

#: Which measured totals sit directly inside which (for self-time subtraction).
NESTING = {
    "select.LFSC": ("lfsc.alg2", "lfsc.depround", "lfsc.greedy"),
    "update.LFSC": ("lfsc.multipliers",),
    "select.Oracle": ("oracle.solve",),
    "sim.window.precompute": ("workload.slots", "truth.context_cells"),
    "service.decide": ("workload.slots", "select.LFSC"),
    "service.feedback": ("truth.realize", "truth.pair_stats", "update.LFSC", "truth.advance"),
    "handle": ("service.decide", "service.feedback"),
}

#: Named layers of the ledger: metric name -> the self-time totals it sums.
LAYERS = {
    "core.lfsc.alg2_share": ("lfsc.alg2",),
    "core.lfsc.depround_share": ("lfsc.depround",),
    "core.lfsc.greedy_share": ("lfsc.greedy",),
    "core.lfsc.select_self_share": ("select.LFSC",),
    "core.lfsc.update_share": ("update.LFSC",),
    "core.lfsc.multipliers_share": ("lfsc.multipliers",),
    "baselines.oracle.solve_share": ("oracle.solve",),
    "baselines.select_share": tuple(f"select.{p}" for p in LINEUP if p != "LFSC"),
    "baselines.update_share": tuple(f"update.{p}" for p in LINEUP if p != "LFSC"),
    "env.workload.sample_slots_share": ("workload.slots",),
    "env.window.precompute_share": ("sim.window.precompute",),
    "env.processes.context_cells_share": ("truth.context_cells",),
    "env.processes.realize_share": ("truth.realize",),
    "env.processes.pair_stats_share": ("truth.pair_stats",),
    "env.processes.advance_share": ("truth.advance",),
    "service.session.decide_self_share": ("service.decide",),
    "service.session.feedback_self_share": ("service.feedback",),
    "service.daemon.handle_self_share": ("handle",),
}


#: Every per-layer metric and its unit.  Times are measured on every
#: workload; a layer that only some workloads run is a share, count, ratio or
#: size, which reads 0 where the layer is absent.
PER_LAYER_UNITS = {
    "ledger.slot_ms": "ms",
    "core.lfsc.select_ms": "ms",
    "core.lfsc.select_tail_ms": "ms",
    "trace.overhead_pct": "%",
    "env.simulator.edges_per_slot": "count",
    "env.simulator.assigned_per_slot": "count",
    **{name: "%" for name in LAYERS},
    "ledger.remainder_share": "%",
    **{f"experiments.runner.policy_share.{p}": "%" for p in LINEUP},
    "env.window_cache.hit_ratio": "ratio",
    "solvers.cache.hit_ratio": "ratio",
    "parallel.efficiency": "ratio",
    "parallel.result_mb": "MB",
    "fleet.rounds": "count",
    "fleet.migrants": "count",
    "fleet.select_share": "%",
    "service.checkpoint.mb": "MB",
    "service.checkpoint.save_mb_per_s": "MB/s",
    "service.checkpoint.restore_mb_per_s": "MB/s",
    "service.transport_share": "%",
    "service.max_rate_per_s": "1/s",
    "gen.late_p99_pct": "%",
}


def layer_shares(totals: dict[str, float], wall_s: float) -> dict[str, float]:
    """Self time of every named layer as a share (%) of ``wall_s``, plus the remainder."""
    own = self_times(totals, NESTING)
    shares = {
        metric: 100.0 * sum(own.get(name, 0.0) for name in names) / wall_s
        for metric, names in LAYERS.items()
    }
    shares["ledger.remainder_share"] = 100.0 - sum(shares.values())
    return shares


def layer_metrics(workload: str, untraced: dict, traced: dict, e2e: dict, serve_phase: dict | None) -> dict[str, float]:
    """Every per-layer metric for one workload, from its passes and runs."""
    samples = traced["select_samples"]
    _, tail_s = stats.tail(samples)
    wall = traced["wall_s"]
    metrics = {
        "ledger.slot_ms": 1e3 * wall / traced["slots"],
        "core.lfsc.select_ms": 1e3 * float(np.mean(samples)),
        "core.lfsc.select_tail_ms": 1e3 * tail_s,
        "trace.overhead_pct": 100.0 * (wall / untraced["wall_s"] - 1.0),
        "env.simulator.edges_per_slot": traced["edges_per_slot"],
        "env.simulator.assigned_per_slot": traced["assigned_per_slot"],
    }
    metrics.update(layer_shares(traced["totals"], wall))
    for policy in LINEUP:
        metrics[f"experiments.runner.policy_share.{policy}"] = (
            100.0 * traced["policy_wall"].get(policy, 0.0) / wall
        )
    counters = e2e.get("counters", {})
    metrics["env.window_cache.hit_ratio"] = _hit_ratio(counters, "window.cache.")
    metrics["solvers.cache.hit_ratio"] = _hit_ratio(counters, "oracle.cache.")
    fleet = e2e.get("fleet", {})
    if workload == "fig2_replicate":
        efficiency = untraced["wall_s"] / (WORKERS * e2e["wall_s"])
        result_mb = untraced["result_mb"]
    elif workload == "fleet_metro":
        efficiency = untraced["serial_wall_s"] / (fleet["shards"] * e2e["wall_s"])
        result_mb = fleet["result_mb"]
    else:
        efficiency, result_mb = 1.0, 0.0
    metrics["parallel.efficiency"] = efficiency
    metrics["parallel.result_mb"] = result_mb
    metrics["fleet.rounds"] = float(fleet.get("rounds", 0))
    metrics["fleet.migrants"] = float(fleet.get("migrants", 0))
    metrics["fleet.select_share"] = float(fleet.get("select_share", 0.0))
    checkpoint = untraced.get("checkpoint")
    metrics["service.checkpoint.mb"] = checkpoint["mb"] if checkpoint else 0.0
    metrics["service.checkpoint.save_mb_per_s"] = (
        checkpoint["mb"] / checkpoint["save_s"] if checkpoint else 0.0
    )
    metrics["service.checkpoint.restore_mb_per_s"] = (
        checkpoint["mb"] / checkpoint["restore_s"] if checkpoint else 0.0
    )
    phase = serve_phase or {}
    metrics["service.transport_share"] = phase.get("transport_share", 0.0)
    metrics["service.max_rate_per_s"] = phase.get("max_rate_per_s", 0.0)
    metrics["gen.late_p99_pct"] = phase.get("late_p99_pct", 0.0)
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def _hit_ratio(counters: dict[str, float], prefix: str) -> float:
    hits = sum(v for k, v in counters.items() if k.startswith(prefix) and k.endswith(".hit"))
    misses = sum(v for k, v in counters.items() if k.startswith(prefix) and k.endswith(".miss"))
    return hits / (hits + misses) if hits + misses else 0.0
