"""The five workloads: their inputs, their timed jobs, and their correctness checks.

Every input derives from the run's ``--seed``: the experiment configs carry
it as their root seed, and the serving schedules draw their arrivals from
it.  Each workload reduces its outputs to a blake2b digest, so repeats, the
traced run and the pinned seed-0 goldens can be compared byte for byte.

Why each workload exists (also in ``BENCHMARK.json`` and the README):

- ``sim_lfsc`` — the LFSC slot kernel alone at paper scale: window
  precompute, Alg. 2, DepRound, Alg. 4, Alg. 3, realization, bookkeeping,
  and the single-run memory cost of the shared window cache.
- ``fig2_replicate`` — the Fig. 2 line-up replicated over two seeds on two
  workers: Oracle/HiGHS and its solver cache dominate, so LFSC kernel gains
  should barely move it (the bypass case for ``sim_lfsc`` work).
- ``fleet_metro`` — 128 small tiles in two shard processes: per-slot Python
  overhead, the shm border exchange and the per-round barrier.
- ``serve_decide`` — the daemon's per-slot session path plus protocol and
  TCP under Poisson open-loop load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable
import numpy as np

WORKLOADS = ("sim_lfsc", "fig2_replicate", "fleet_metro", "serve_decide")
BATCH = WORKLOADS[:3]

#: The Fig. 2 line-up, in the order its summaries are digested.
LINEUP = ("Oracle", "LFSC", "vUCB", "FML", "Random")
#: Worker processes of ``fig2_replicate`` and shard processes of ``fleet_metro``.
WORKERS = 2
#: Replication seeds of ``fig2_replicate``.
FIG2_SEEDS = 2
#: The p99 a rung of the traced serve run's rate ladder must meet.
RUNG_P99_LIMIT_MS = 25.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (one instance for full runs, one for smoke)."""

    scale: str
    sim_horizon: int
    fig2_horizon: int
    fleet_grid: tuple[int, int]
    fleet_horizon: int
    #: Tiles the fleet ledger steps in-process (the first ones in grid order).
    fleet_ledger_tiles: int
    #: Slots of the identity gates (window, session, shard equivalence).
    prefix: int
    #: Closed-loop decides whose assignments are digested (the warm-up).
    warmup: int
    #: Closed-loop decides whose rate is ``slots_per_s`` on ``serve_decide``.
    closed: int
    #: The open-loop rate of the timed ``serve_decide`` runs.
    decide_rate: float
    #: Open-loop rungs (req/s) of the traced serve run; each rung lasts long
    #: enough for ``rung_samples`` requests.
    ladder: tuple[float, ...]
    rung_samples: int
    #: Decides of the in-process ``serve_decide`` ledger.
    serve_ledger_slots: int


FULL = Sizes(
    scale="paper",
    sim_horizon=3000,
    fig2_horizon=200,
    fleet_grid=(16, 8),
    fleet_horizon=128,
    fleet_ledger_tiles=16,
    prefix=200,
    warmup=200,
    closed=1000,
    decide_rate=200.0,
    ladder=(100.0, 200.0, 400.0, 600.0),
    rung_samples=1000,
    serve_ledger_slots=600,
)

SMOKE = Sizes(
    scale="small",
    sim_horizon=60,
    fig2_horizon=30,
    fleet_grid=(2, 2),
    fleet_horizon=32,
    fleet_ledger_tiles=2,
    prefix=30,
    warmup=30,
    closed=30,
    decide_rate=100.0,
    ladder=(100.0, 200.0),
    rung_samples=20,
    serve_ledger_slots=40,
)


def sizes_for(smoke: bool, horizon: int | None) -> Sizes:
    """The run's sizes; ``horizon`` overrides the batch workloads' slot horizon."""
    sizes = SMOKE if smoke else FULL
    if horizon is None:
        return sizes
    return replace(sizes, sim_horizon=horizon, fig2_horizon=horizon, fleet_horizon=horizon)


# -- configs -------------------------------------------------------------------


def experiment_config(sizes: Sizes, seed: int, horizon: int | None = None):
    """The scale preset, seeded; ``horizon`` overrides the preset's when given."""
    from repro.experiments.runner import ExperimentConfig

    preset = ExperimentConfig.paper if sizes.scale == "paper" else ExperimentConfig.small
    cfg = preset(seed=seed)
    return cfg if horizon is None else cfg.with_overrides(horizon=horizon)


def fleet_config(sizes: Sizes, seed: int, *, grid: tuple[int, int] | None = None, horizon: int | None = None):
    from repro.fleet import FleetConfig

    tiles_x, tiles_y = grid or sizes.fleet_grid
    return FleetConfig(
        tiles_x=tiles_x,
        tiles_y=tiles_y,
        scns_per_tile=8,
        coverage="mobility",
        wds_per_tile=60,
        capacity=6,
        alpha=4.5,
        beta=8.1,
        horizon=horizon or sizes.fleet_horizon,
        exchange_every=8,
        seed=seed,
    )


def serve_args(sizes: Sizes, seed: int) -> list[str]:
    """``repro serve`` arguments for ``experiment_config(sizes, seed)``."""
    return ["--scale", sizes.scale, "--port", "0", "--seed", str(seed)]


# -- digests -------------------------------------------------------------------


def digest(arrays) -> str:
    """blake2b over each array's dtype, shape and bytes, in order."""
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


SIM_SERIES = ("reward", "expected_reward", "accepted", "violation_qos", "violation_resource")


def sim_digest(result) -> str:
    """The reward, expected-reward, accepted and violation series of one run."""
    return digest(getattr(result, name) for name in SIM_SERIES)


def summary_means_digest(means: dict[str, dict[str, float]]) -> str:
    """Per-policy, per-metric means across the replicated seeds."""
    rows = []
    for policy in LINEUP:
        metrics = means[policy]
        rows.append(np.array([metrics[m] for m in sorted(metrics)], dtype=float))
        rows.append(np.frombuffer("|".join(sorted(metrics)).encode(), dtype=np.uint8))
    return digest(rows)


def fleet_digest(tile_series) -> str:
    """Every tile's recorded series, tiles in grid order, keys sorted."""
    return digest(series[key] for series in tile_series for key in sorted(series))


def assignments_digest(assignments) -> str:
    """A sequence of ``(task, scn)`` index lists, one per slot."""
    return digest(np.asarray(part, dtype=np.int64) for pair in assignments for part in pair)


# -- batch jobs (run inside a fresh child process) -----------------------------


@dataclass
class Job:
    """A built workload: ``run()`` performs the timed part and returns its result."""

    units: int
    run: Callable[[], dict]


def build_job(workload: str, sizes: Sizes, seed: int) -> Job:
    """Everything up to the timed part: config, simulation and policy built."""
    if workload == "sim_lfsc":
        from repro.experiments.runner import build_simulation, make_policy

        cfg = experiment_config(sizes, seed, sizes.sim_horizon)
        sim = build_simulation(cfg)
        policy = make_policy("LFSC", cfg, sim.truth)

        def run():
            result = sim.run(policy, cfg.horizon, window=cfg.window)
            return {"digest": sim_digest(result)}

        return Job(units=cfg.horizon, run=run)
    if workload == "fig2_replicate":
        from repro import api

        cfg = experiment_config(sizes, seed, sizes.fig2_horizon)

        def run():
            rep = api.replicate(cfg, LINEUP, seeds=FIG2_SEEDS, workers=WORKERS)
            means = {p: {m: s.mean for m, s in rep.summaries[p].items()} for p in LINEUP}
            return {"digest": summary_means_digest(means)}

        return Job(units=len(LINEUP) * FIG2_SEEDS * cfg.horizon, run=run)
    if workload == "fleet_metro":
        from repro import api

        cfg = fleet_config(sizes, seed)

        def run():
            result = api.run_fleet(cfg, shards=WORKERS, mode="process")
            return {
                "digest": fleet_digest(result.tile_series),
                "fleet": fleet_stats(result),
            }

        return Job(units=cfg.num_tiles * cfg.horizon, run=run)
    raise ValueError(f"{workload!r} is not a batch workload")


def fleet_stats(result) -> dict:
    """What the fleet reports about its own run (rounds, exchange, select time)."""
    select_s = sum(s.mean_s * s.count for s in result.shard_latency)
    result_bytes = sum(arr.nbytes for series in result.tile_series for arr in series.values())
    return {
        "rounds": result.rounds,
        "migrants": result.migrants,
        "shards": result.shards,
        "select_share": 100.0 * select_s / (result.shards * result.wall_s),
        "result_mb": result_bytes / 1e6,
    }


# -- identity gates (any seed, a short prefix) ---------------------------------


def gate_window(sizes: Sizes, seed: int) -> str:
    """``window=32`` and ``window=0`` give the same LFSC series."""
    from repro.experiments.runner import build_simulation, make_policy

    cfg = experiment_config(sizes, seed, sizes.prefix)
    digests = []
    for window in (32, 0):
        sim = build_simulation(cfg.with_overrides(shared_window=False))
        policy = make_policy("LFSC", cfg, sim.truth)
        digests.append(sim_digest(sim.run(policy, cfg.horizon, window=window)))
    if digests[0] != digests[1]:
        return f"window=32 series {digests[0]} != window=0 series {digests[1]}"
    return ""


def gate_session(sizes: Sizes, seed: int) -> str:
    """A batch LFSC run and an :class:`OnlineSession` give the same series."""
    from repro.experiments.runner import build_simulation, make_policy
    from repro.service import OnlineSession

    cfg = experiment_config(sizes, seed, sizes.prefix)
    sim = build_simulation(cfg.with_overrides(shared_window=False))
    batch = sim_digest(sim.run(make_policy("LFSC", cfg, sim.truth), cfg.horizon))
    online = sim_digest(OnlineSession(cfg, policy="LFSC").run().result())
    if batch != online:
        return f"simulator series {batch} != session series {online}"
    return ""


def gate_shards(sizes: Sizes, seed: int) -> str:
    """Two shard processes and one serial shard give the same per-tile series."""
    from repro import api

    grid = (min(4, sizes.fleet_grid[0]), min(2, sizes.fleet_grid[1]))
    cfg = fleet_config(sizes, seed, grid=grid, horizon=sizes.prefix)
    sharded = fleet_digest(api.run_fleet(cfg, shards=2, mode="process").tile_series)
    serial = fleet_digest(api.run_fleet(cfg, shards=1, mode="serial").tile_series)
    if sharded != serial:
        return f"shards=2 series {sharded} != shards=1 series {serial}"
    return ""


def session_assignments(cfg, slots: int) -> list[tuple[list, list]]:
    """The first ``slots`` assignments of an in-process session (auto feedback)."""
    from repro.service import OnlineSession

    session = OnlineSession(cfg, policy="LFSC")
    out = []
    for _ in range(slots):
        assignment = session.decide()
        session.feedback()
        out.append((assignment.task.tolist(), assignment.scn.tolist()))
    return out


#: Identity gates per workload, run before any timing.
GATES = {
    "sim_lfsc": (gate_window, gate_session),
    "fig2_replicate": (gate_window,),
    "fleet_metro": (gate_shards,),
    "serve_decide": (gate_session,),
}


def failed_gate(workload: str, sizes: Sizes, seed: int) -> str:
    """Why the first failing identity gate of ``workload`` failed, or "" if all hold."""
    from repro.core import native

    native.available()  # compile the optional kernel now, not inside a timed child
    for gate in GATES[workload]:
        problem = gate(sizes, seed)
        if problem:
            return f"identity gate {gate.__name__} failed: {problem}"
    return ""
