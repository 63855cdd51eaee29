"""Summary arithmetic shared by the runner, the serving driver and ``--compare``.

Percentiles of raw latency samples come from :mod:`repro.metrics.latency`
(nearest rank, the convention the daemon's ``status`` op uses); this module
adds only what the benchmark needs on top of it: quartiles of run-level
values, the highest percentile a sample supports, the backlog-growth test
for open-loop phases, and the better/worse/unchanged/unresolved verdict.
"""

from __future__ import annotations

import statistics
from typing import Sequence

from repro.metrics.latency import percentile

#: Percentiles the suite reports, highest first.  A percentile is supported
#: when at least ``MIN_BEYOND`` samples lie beyond it.
TAIL_LADDER = (99, 90, 50)
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` cuts them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def supported_tail(count: int) -> float | None:
    """The quantile of the highest :data:`TAIL_LADDER` percentile ``count`` supports."""
    for pct in TAIL_LADDER:
        if count * (100 - pct) >= MIN_BEYOND * 100:
            return pct / 100
    return None


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(quantile, value)`` of the highest supported percentile of ``samples``.

    Too few samples to support any percentile leaves the median.
    """
    if len(samples) == 0:
        raise ValueError("no samples")
    q = supported_tail(len(samples)) or 0.50
    return q, percentile(samples, q)


def backlog_growing(latencies: Sequence[float]) -> bool:
    """True when the last quarter's median latency exceeds twice the first's.

    ``latencies`` are in send order.  An open-loop phase whose queue keeps
    growing shows it here: requests later in the phase wait behind every
    request the server has not caught up with.
    """
    quarter = len(latencies) // 4
    if quarter == 0:
        return False
    first = median(latencies[:quarter])
    last = median(latencies[-quarter:])
    return last > 2.0 * first


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` for one metric.

    The rule of the choosing-metrics guide (§6.5 and §8):

    - when the parent's own spread (inter-quartile distance over median)
      exceeds ``bound`` the comparison is ``unresolved`` — unless every
      change run reads better than every parent run;
    - a change median worse than the parent median by more than ``bound``
      is ``worse``;
    - a gain needs the change to win at least nine tenths of the paired runs
      (pairs in the given order) and the medians to differ by more than the
      parent's inter-quartile distance;
    - anything else is ``unchanged``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not parent or not change:
        raise ValueError("verdict needs at least one run on each side")
    sign = 1.0 if better == "lower" else -1.0

    def improves(c: float, p: float) -> bool:
        return sign * (c - p) < 0

    q1, p_mid, q3 = quartiles(parent)
    c_mid = median(change)
    everywhere_better = all(improves(c, p) for c in change for p in parent)
    if relative_spread(parent) > bound:
        return "better" if everywhere_better else "unresolved"
    worse_by = sign * (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
    if worse_by > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(improves(c, p) for p, c in pairs)
    if wins >= 0.9 * len(pairs) and abs(c_mid - p_mid) > (q3 - q1):
        return "better"
    return "unchanged"
