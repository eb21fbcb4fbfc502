#!/usr/bin/env python
"""CI smoke test for the serve front end.

Starts ``repro serve`` as a real subprocess, fires concurrent ``/refine``
requests against two datasets, and diffs every server answer (canonical
serialization, timings excluded) against a one-shot ``repro refine --json``
subprocess for the same request.  Exits non-zero on any mismatch.  Both
queries already meet their constraint at the default epsilon of 0.5 and are
answered unsolved; the meps case at epsilon 0 takes the MILP path.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.service.engine import RefineResponse  # noqa: E402

CONCURRENCY = 6

#: (dataset, CLI dataset arguments, wire-form dataset_parameters, constraint,
#: epsilon)
CASES = [
    ("students", [], {}, ("3@6:Gender=F", {"Gender": "F"}, 3, 6), 0.5),
    (
        "meps",
        ["--rows", "300"],
        {"num_rows": 300},
        ("5@10:Sex=F", {"Sex": "F"}, 5, 10),
        0.5,
    ),
    (
        "meps",
        ["--rows", "300"],
        {"num_rows": 300},
        ("5@10:Sex=F", {"Sex": "F"}, 5, 10),
        0.0,
    ),
]


def run_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return env


def start_server() -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--warm", "students", "--warm", "meps:num_rows=300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=run_environment(),
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 120
    base_url = None
    for line in process.stdout:
        print(f"[serve] {line.rstrip()}")
        match = re.search(r"serving on (http://\S+)", line)
        if match:
            base_url = match.group(1)
            break
        if time.monotonic() > deadline:
            break
    if base_url is None:
        process.terminate()
        raise SystemExit("server never reported its address")
    for _ in range(600):
        try:
            with urllib.request.urlopen(base_url + "/health", timeout=5) as response:
                if json.loads(response.read())["status"] == "ok":
                    return process, base_url
        except OSError:
            time.sleep(0.1)
    process.terminate()
    raise SystemExit("server never became healthy")


def cli_canonical(
    dataset: str, dataset_arguments: list[str], constraint: str, epsilon: float
) -> str:
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "refine", "--dataset", dataset,
         *dataset_arguments, "--at-least", constraint, "--epsilon", str(epsilon),
         "--method", "milp+opt", "--json"],
        capture_output=True,
        text=True,
        env=run_environment(),
        cwd=REPO_ROOT,
        timeout=300,
    )
    if completed.returncode not in (0, 1):
        raise SystemExit(f"CLI run failed for {dataset}: {completed.stderr}")
    return RefineResponse.from_dict(json.loads(completed.stdout)).canonical_json()


def server_canonical(base_url: str, payload: dict) -> str:
    request = urllib.request.Request(
        base_url + "/refine",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return RefineResponse.from_dict(json.loads(response.read())).canonical_json()


def main() -> int:
    process, base_url = start_server()
    failures = 0
    try:
        for dataset, cli_args, parameters, constraint, epsilon in CASES:
            text, group, bound, k = constraint
            expected = cli_canonical(dataset, cli_args, text, epsilon)
            payload = {
                "dataset": dataset,
                "constraints": [
                    {"kind": "at_least", "bound": bound, "k": k, "group": group}
                ],
                "epsilon": epsilon,
                "method": "milp+opt",
            }
            if parameters:
                payload["dataset_parameters"] = parameters
            with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
                answers = list(
                    pool.map(
                        lambda _: server_canonical(base_url, payload),
                        range(CONCURRENCY),
                    )
                )
            mismatches = sum(1 for answer in answers if answer != expected)
            verdict = "OK" if mismatches == 0 else f"MISMATCH x{mismatches}"
            print(
                f"{dataset} (epsilon={epsilon:g}): {CONCURRENCY} concurrent answers "
                f"vs CLI -> {verdict}"
            )
            failures += mismatches
        with urllib.request.urlopen(base_url + "/stats", timeout=30) as response:
            stats = json.loads(response.read())
        print("server stats:", json.dumps(stats, sort_keys=True))
    finally:
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
    if failures:
        print(f"FAILED: {failures} mismatching answers", file=sys.stderr)
        return 1
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
