"""Drive ``repro serve`` from outside: a daemon child, closed and open loops.

The daemon runs in its own process (``python -u -m repro serve``), exactly
as a user starts it, and is driven over one TCP connection.  Two load
shapes:

- **closed loop** — send ``decide``, wait for the reply, send the next: a
  single caller that waits on every answer.  Its rate is the connection's
  capacity.
- **open loop** — a writer thread sends ``decide`` at the due times of a
  seeded Poisson schedule whether or not earlier replies have arrived, and a
  reader thread stamps each reply.  Each request is timed from its *due*
  time, so a stall counts against every request queued behind it; the
  writer's own lateness (sent − due) is reported so a run whose generator
  fell behind can be told apart from a slow server.

The client socket sets ``TCP_NODELAY`` so the client adds no coalescing
delay of its own; whatever the server's socket does shows in the numbers.
"""

from __future__ import annotations

import json
import os
import re
import select
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.utils.timing import monotonic

#: A reply later than this after its due time counts as failed.
LATE_LIMIT_S = 5.0
#: Lead time between arming an open-loop phase and its first due time.
_LEAD_S = 0.05
_DECIDE = b'{"op": "decide"}\n'
_LISTENING = re.compile(rb"listening on ([0-9.]+):(\d+)")


class ServeError(RuntimeError):
    """The daemon failed to start, answer, or stop."""


def poisson_schedule(rate: float, duration_s: float, seed: int, stream: int) -> np.ndarray:
    """Due offsets (seconds from phase start) of ``rate × duration_s`` Poisson arrivals.

    The inter-arrival gaps are exponential with mean ``1/rate``, drawn
    stratified: one uniform draw inside each of ``n`` equal-probability
    strata, in a seeded random order.  Every seed therefore sees the same
    gap distribution, up to the jitter inside a stratum, and seeds differ in
    how the gaps are ordered, i.e. in where the bursts fall.  A plain i.i.d.
    draw would let the luck of the draw move the latency tail by ~5% between
    seeds at a few thousand requests.

    A pure function of ``(rate, duration_s, seed, stream)``: ``stream``
    separates the phases and repeats of one run so they never share draws.
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError(f"rate and duration must be positive, got {rate}, {duration_s}")
    rng = np.random.default_rng([int(seed), int(stream), int(round(rate * 1000))])
    n = max(1, int(round(rate * duration_s)))
    quantiles = (np.arange(n) + rng.random(n)) / n
    gaps = -np.log1p(-quantiles) / rate
    rng.shuffle(gaps)
    return np.cumsum(gaps)


def peak_rss_mb(pid: int | str = "self") -> float:
    """A live process's resident-set high-water mark (``VmHWM``), in MiB.

    Read from ``/proc`` rather than ``wait4``: a spawned process's
    ``ru_maxrss`` also carries the resident set of the process that spawned
    it, which would charge the benchmark's own memory to the program.
    """
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def wait(proc: subprocess.Popen, timeout_s: float) -> int:
    """Wait for ``proc`` to exit, killing it at the deadline; return its exit code."""
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


class Connection:
    """One line-JSON client connection with ``TCP_NODELAY`` set."""

    def __init__(self, host: str, port: int, *, timeout_s: float = LATE_LIMIT_S + 5.0):
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def readline(self) -> bytes:
        return self._reader.readline()

    def request(self, obj: dict) -> dict:
        self.send(json.dumps(obj).encode() + b"\n")
        line = self.readline()
        if not line:
            raise ServeError("daemon closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self.sock.close()


@dataclass
class Daemon:
    proc: subprocess.Popen
    conn: Connection
    #: Seconds from spawn until the daemon answered ``status``.
    setup_s: float


def start_daemon(
    serve_args: list[str], *, cwd: Path, log: Path, timeout_s: float = 120.0
) -> Daemon:
    """Spawn ``repro serve`` and connect once it answers ``status``.

    The daemon inherits this process's environment; its standard error goes
    to ``log``.
    """
    spawned = monotonic()
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", *serve_args],
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=cwd,
        )
    try:
        host, port = _await_address(proc, spawned + timeout_s)
        conn = Connection(host, port)
        status = conn.request({"op": "status"})
        if not status.get("ok"):
            raise ServeError(f"daemon status failed: {status}")
    except BaseException as exc:
        proc.kill()
        wait(proc, 30.0)
        proc.stdout.close()
        if not isinstance(exc, Exception):
            raise
        raise ServeError(
            f"daemon did not start ({exc}): {log.read_text(errors='replace')[-2000:]}"
        ) from exc
    return Daemon(proc=proc, conn=conn, setup_s=monotonic() - spawned)


def _await_address(proc: subprocess.Popen, deadline: float) -> tuple[str, int]:
    fd = proc.stdout.fileno()
    buf = b""
    while monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.1)
        if not ready:
            if proc.poll() is not None:
                break
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        buf += chunk
        match = _LISTENING.search(buf)
        if match:
            return match.group(1).decode(), int(match.group(2))
    raise ServeError(f"no listening address from the daemon (output: {buf!r})")


def stop_daemon(daemon: Daemon, timeout_s: float = 60.0) -> float:
    """Send ``stop`` and wait for exit; return the daemon's peak RSS in MiB.

    The daemon may exit before its ``stop`` reply reaches the socket, so a
    closed connection is accepted here; the exit status is the check.
    """
    try:
        rss_mb = peak_rss_mb(daemon.proc.pid)
        daemon.conn.send(b'{"op": "stop"}\n')
        line = daemon.conn.readline()
        if line and not json.loads(line).get("ok"):
            raise ServeError(f"daemon stop failed: {line!r}")
    finally:
        daemon.conn.close()
        code = wait(daemon.proc, timeout_s)
        daemon.proc.stdout.close()
    if code != 0:
        raise ServeError(f"daemon exited with status {code}")
    return rss_mb


@dataclass
class ClosedLoop:
    rtt_s: np.ndarray
    replies: list[dict]

    @property
    def failed(self) -> int:
        return sum(not r.get("ok") for r in self.replies)


def closed_loop(conn: Connection, count: int) -> ClosedLoop:
    """``count`` decides, each sent after the previous reply arrived.

    Replies are parsed after the loop, so the client's own work inside the
    timed loop is one send and one line read per decide.
    """
    rtt = np.empty(count)
    lines = []
    for i in range(count):
        sent = monotonic()
        conn.send(_DECIDE)
        lines.append(conn.readline())
        rtt[i] = monotonic() - sent
    if not all(lines):
        raise ServeError("daemon closed the connection during a closed loop")
    return ClosedLoop(rtt_s=rtt, replies=[json.loads(line) for line in lines])


@dataclass
class OpenLoop:
    #: Reply time minus due time per request (NaN where no reply came).
    latency_s: np.ndarray
    #: Send time minus due time per request (the generator's own lateness).
    lateness_s: np.ndarray
    ok: np.ndarray

    @property
    def failed(self) -> int:
        """Non-``ok`` replies, missing replies and replies later than the limit."""
        good = self.ok & np.isfinite(self.latency_s) & (self.latency_s <= LATE_LIMIT_S)
        return int(np.count_nonzero(~good))


def open_loop(conn: Connection, due: np.ndarray) -> OpenLoop:
    """Send one ``decide`` per due offset and time every reply from its due time."""
    n = len(due)
    got = np.full(n, np.nan)
    sent = np.zeros(n)
    lines: list[bytes] = []

    def read() -> None:
        try:
            for i in range(n):
                line = conn.readline()
                if not line:
                    return
                got[i] = monotonic()
                lines.append(line)
        except OSError:
            return

    reader = threading.Thread(target=read, name="suite-reader", daemon=True)
    origin = monotonic() + _LEAD_S
    reader.start()
    for i in range(n):
        delay = origin + due[i] - monotonic()
        if delay > 0:
            time.sleep(delay)
        conn.send(_DECIDE)
        sent[i] = monotonic()
    reader.join(timeout=LATE_LIMIT_S + 10.0)
    if reader.is_alive():
        raise ServeError("open-loop reader did not finish: the daemon stopped answering")
    ok = np.zeros(n, dtype=bool)
    ok[: len(lines)] = [json.loads(line).get("ok") is True for line in lines]
    return OpenLoop(latency_s=got - (origin + due), lateness_s=sent - (origin + due), ok=ok)
