"""Write ``latency_s`` into ``reference.json``: what each request costs the server.

    PYTHONPATH=src:. python3 -m perfbench.measure_latency

For each workload it starts ``repro serve`` the way ``run.py`` does, sends the
warm-up, then sends every problem of every pool once, one at a time, and
stores the latency (first send, so a MILP includes its build) under the
problem's ``name``.  ``workloads.py`` cuts each pool into cost strata on these
figures, so rerun this when pools change; answers are checked as in a run,
and the file is left alone if any is wrong.
"""

from __future__ import annotations

import json
import sys

from perfbench.driver import Server, run_items
from perfbench.run import ROOT
from perfbench.workloads import REFERENCE_PATH, WORKLOADS, Item


def main() -> int:
    stored = json.loads(REFERENCE_PATH.read_text())
    latencies: dict[str, float] = {}
    for workload in WORKLOADS.values():
        problems = sorted({p for slot in workload.slots for p in slot.pool},
                          key=lambda problem: problem.name)
        with Server(ROOT, workload.datasets) as server:
            run_items(server, [Item(p) for p in workload.warmup], 1, stored["answers"], "w")
            outcomes, _ = run_items(server, [Item(p) for p in problems], 1, stored["answers"],
                                    "m")
        for outcome in outcomes:
            if outcome.error is not None:
                print(f"{outcome.problem.name}: {outcome.error}", file=sys.stderr)
                return 1
            latencies[outcome.problem.name] = round(outcome.latency_s, 4)
        print(f"{workload.name}: {len(outcomes)} problems", flush=True)
    stored["latency_s"] = latencies
    REFERENCE_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
