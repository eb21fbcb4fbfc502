"""Write ``reference.json``: the answer to every problem any seed can draw.

    PYTHONPATH=src:. python3 -m perfbench.make_reference

Each problem is solved in-process (no server) with ``milp+opt``; problems an
exhaustive workload sends are also solved with ``naive+prov``, and problems
sent with the plain ``milp`` method with ``milp`` too, and the run stops if
two engines disagree on feasibility or the optimum.  ``cost_s`` records how
long each method took on the machine that wrote the file; it is what the
pools in ``workloads.py`` were balanced on and is not read by the benchmark
(the cost strata are cut on ``latency_s``, written by ``measure_latency.py``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from perfbench.driver import TOLERANCE
from perfbench.workloads import WORKLOADS, Problem
from repro.service.engine import RefinementEngine, RefineRequest

OUTPUT = Path(__file__).resolve().parent / "reference.json"


def solve(engine: RefinementEngine, problem: Problem, method: str) -> tuple[dict, float]:
    payload = dict(problem.request(), method=method)
    payload.pop("deadline_s", None)
    if method in ("naive", "naive+prov"):
        payload["jobs"] = 1
    started = time.perf_counter()
    response = engine.refine(RefineRequest.from_dict(payload))
    return response.to_dict(), time.perf_counter() - started


def close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def main() -> int:
    engine = RefinementEngine()
    by_key: dict[str, set[str]] = {}
    problems: dict[str, Problem] = {}
    for workload in WORKLOADS.values():
        for problem in workload.problems():
            by_key.setdefault(problem.key, set()).add(problem.method)
            problems.setdefault(problem.key, problem)
    # Answers already on file are kept: the file only grows with the pools.
    stored = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    answers: dict[str, dict] = stored.get("answers", {})
    costs: dict[str, dict[str, float]] = stored.get("cost_s", {})
    for index, key in enumerate(sorted(by_key)):
        if key in answers and set(costs.get(key, {})) >= by_key[key] - {"portfolio"}:
            continue
        problem = problems[key]
        methods = by_key[key]
        best, seconds = solve(engine, problem, "milp+opt")
        answer = {
            "feasible": best["feasible"],
            "objective": best["objective_value"],
            "distance": best["distance_value"],
        }
        cost = {"milp+opt": round(seconds, 3)}
        if "milp" in methods:
            plain, seconds = solve(engine, problem, "milp")
            cost["milp"] = round(seconds, 3)
            if plain["feasible"] != answer["feasible"] or not close(
                plain["objective_value"], answer["objective"]
            ):
                print(f"milp disagrees with milp+opt on {key}: {plain['objective_value']} "
                      f"vs {answer['objective']}", file=sys.stderr)
                return 1
        if methods & {"naive", "naive+prov"}:
            for method in ("naive+prov", "naive"):
                exhaustive, seconds = solve(engine, problem, method)
                cost[method] = round(seconds, 3)
                if exhaustive["feasible"] != answer["feasible"] or not close(
                    exhaustive["distance_value"], answer["objective"]
                ):
                    print(f"{method} disagrees with milp+opt on {key}: "
                          f"{exhaustive['distance_value']} vs {answer['objective']}",
                          file=sys.stderr)
                    return 1
        answers[key] = answer
        costs[key] = cost
        print(f"[{index + 1}/{len(by_key)}] {key} {answer} {cost}", flush=True)
        stored.update(answers=answers, cost_s=costs)
        OUTPUT.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
