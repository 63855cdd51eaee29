"""One measured job in a fresh process.

Usage (spawned by ``run.py``, which sets ``PYTHONPATH`` to the source tree)::

    python benchmarks/suite/child.py '{"workload": "sim_lfsc", "seed": 0, ...}'

Spec keys: ``workload``, ``seed``, ``smoke``, ``horizon``, ``job`` (``e2e``
for a timed batch job, ``ledger`` for a ledger pass, ``gates`` for the
identity gates), ``traced`` and
``tmp`` (a scratch directory inside the checkout).  The child prints
``READY`` once the job is built — the end of set-up — and then one JSON
line with the job's result.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from repro.obs import global_registry
from repro.utils.timing import monotonic

from ledger import run_pass
from serving import peak_rss_mb
from workloads import build_job, failed_gate, sizes_for


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sizes = sizes_for(spec["smoke"], spec["horizon"])
    if spec["job"] == "e2e":
        job = build_job(spec["workload"], sizes, spec["seed"])
        print("READY", flush=True)
        start = monotonic()
        result = job.run()
        result["wall_s"] = monotonic() - start
        result["units"] = job.units
        result["counters"] = global_registry().snapshot()["counters"]
        # The child's own peak, or that of a worker it waited for if larger.
        workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = max(peak_rss_mb(), workers_kib / 1024.0)
    elif spec["job"] == "gates":
        print("READY", flush=True)
        result = {"problem": failed_gate(spec["workload"], sizes, spec["seed"])}
    else:
        print("READY", flush=True)
        result = run_pass(spec["workload"], sizes, spec["seed"], spec["traced"], Path(spec["tmp"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
