"""The server under test and the closed-loop HTTP clients that drive it."""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench.tracing import REQUEST_ID_HEADER
from perfbench.workloads import DATASETS, Item, Problem

#: Line the launcher prints with the trace dump when the server exits.
TRACE_PREFIX = "PERFBENCH-TRACE "

#: Environment variables that distort timings; the benchmark refuses them.
REFUSED_ENV = ("REPRO_DEBUG_LOCKS",)
REFUSED_ENV_PREFIX = "REPRO_FAULT_"

#: Pinned server environment: every ``REPRO_*`` variable unset (the
#: defaults), a fixed hash seed so a model's variable order, and with it the
#: HiGHS search path, is the same on every run.
PINNED_ENV = {"PYTHONHASHSEED": "0", "PYTHONUNBUFFERED": "1"}

#: HTTP statuses that mean the server refused the request.
REFUSED_STATUSES = (429, 503, 504)

#: Longest a single request may take before it counts as failed.
REQUEST_TIMEOUT_S = 120.0

#: Slack for comparing objectives and distances with the reference.
TOLERANCE = 1e-6


def refused_environment(environ: dict[str, str]) -> list[str]:
    return sorted(
        name for name in environ
        if name in REFUSED_ENV or name.startswith(REFUSED_ENV_PREFIX)
    )


def server_environment(root: Path) -> dict[str, str]:
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def warm_specs(datasets: tuple[str, ...]) -> list[str]:
    specs = []
    for dataset in datasets:
        parameters = ",".join(f"{name}={value}" for name, value in DATASETS[dataset].items())
        specs += ["--warm", f"{dataset}:{parameters}"]
    return specs


class ServerError(RuntimeError):
    pass


class Server:
    """``repro serve`` in a subprocess, on an ephemeral port.

    ``traced`` starts it through ``launcher.py``, which installs the layer
    spans first and prints their dump when the server stops.
    """

    START_TIMEOUT_S = 120.0
    STOP_TIMEOUT_S = 30.0

    def __init__(self, root: Path, datasets: tuple[str, ...], traced: bool = False) -> None:
        self.root = root
        self.datasets = datasets
        self.traced = traced
        self.setup_s = math.nan
        self.trace: dict | None = None
        self._process: subprocess.Popen | None = None
        self._stdout: queue.Queue = queue.Queue()
        self._stderr: list[str] = []
        self.host = ""
        self.port = 0

    def start(self) -> "Server":
        entry = ["-m", "perfbench.launcher"] if self.traced else ["-m", "repro"]
        command = [sys.executable, *entry, "serve", "--port", "0", *warm_specs(self.datasets)]
        started = time.perf_counter()
        self._process = subprocess.Popen(
            command,
            cwd=self.root,
            env=server_environment(self.root),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        threading.Thread(target=self._pump, args=(self._process.stdout, self._stdout.put),
                         daemon=True).start()
        threading.Thread(target=self._pump, args=(self._process.stderr, self._keep_stderr),
                         daemon=True).start()
        deadline = started + self.START_TIMEOUT_S
        try:
            while True:
                line = self._next_line(deadline)
                if line.startswith("serving on http://"):
                    address = line.split()[2].removeprefix("http://")
                    self.host, _, port = address.rpartition(":")
                    self.port = int(port)
                    break
            self._wait_warm(deadline)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def _pump(self, stream, sink) -> None:
        for line in stream:
            sink(line.rstrip("\n"))
        sink(None)

    def _keep_stderr(self, line: str | None) -> None:
        if line is not None:
            self._stderr = (self._stderr + [line])[-40:]

    def _next_line(self, deadline: float) -> str:
        try:
            line = self._stdout.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            raise ServerError("server did not start in time" + self.stderr_tail()) from None
        if line is None:
            raise ServerError("server exited before serving" + self.stderr_tail())
        return line

    def _wait_warm(self, deadline: float) -> None:
        """Poll ``/health`` and ``/stats`` until every listed session is warm."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            while time.perf_counter() < deadline:
                status, health = _get(connection, "/health")
                _, stats = _get(connection, "/stats")
                warmed = {
                    session["dataset"]
                    for session in stats["sessions"]["sessions"]
                    if session["warmed"]
                }
                if status == 200 and health["status"] == "ok" and warmed >= set(self.datasets):
                    return
                time.sleep(0.01)
        finally:
            connection.close()
        raise ServerError("sessions did not warm in time" + self.stderr_tail())

    def stderr_tail(self) -> str:
        return ("\n" + "\n".join(self._stderr[-10:])) if self._stderr else ""

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM``: its peak resident set so far."""
        assert self._process is not None
        status = Path(f"/proc/{self._process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt the server (a draining shutdown) and collect its trace."""
        process = self._process
        if process is None:
            return
        self._process = None
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=self.STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        deadline = time.perf_counter() + self.STOP_TIMEOUT_S
        while True:
            try:
                line = self._stdout.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                break
            if line is None:
                break
            if line.startswith(TRACE_PREFIX):
                self.trace = json.loads(line[len(TRACE_PREFIX):])

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _get(connection: http.client.HTTPConnection, path: str) -> tuple[int, dict]:
    connection.request("GET", path)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


# -- answers -----------------------------------------------------------------------------


@dataclass
class Outcome:
    """One request as the client saw it."""

    request_id: str
    problem: Problem
    repeat: bool
    twin: bool
    latency_s: float
    status: int
    #: ``None`` when the answer is correct, otherwise why it is not.
    error: str | None
    proven: bool = False
    examined: int = 0


def _close(value: float | None, expected: float | None) -> bool:
    if value is None or expected is None:
        return value is None and expected is None
    return abs(value - expected) <= TOLERANCE * max(1.0, abs(expected))


def check(problem: Problem, reference: dict, status: int, body: dict) -> tuple[str | None, bool]:
    """``(error or None, proven optimal)`` for one answer against the reference.

    MILP answers must match the reference objective and feasibility (the
    objective, not the realized distance: degenerate optima may tie-break to
    different refinements); an exhausted search must match the reference
    distance; a race must never beat it, and must equal it when it claims a
    proof.  Every feasible answer must deviate by at most epsilon.
    """
    if status != 200:
        return f"HTTP {status}: {body.get('error', body)}", False
    feasible = bool(body.get("feasible"))
    deviation = body.get("deviation")
    if feasible and (deviation is None or deviation > problem.epsilon + TOLERANCE):
        return f"deviation {deviation} exceeds epsilon {problem.epsilon}", False
    method = problem.method
    if method in ("milp", "milp+opt"):
        expected = "ok" if reference["feasible"] else "infeasible"
        if body.get("status") != expected:
            return f"status {body.get('status')!r}, expected {expected!r}", False
        if feasible and not _close(body.get("objective_value"), reference["objective"]):
            return (f"objective {body.get('objective_value')} != reference "
                    f"{reference['objective']}"), False
        return None, True
    if method in ("naive", "naive+prov"):
        expected = "ok" if reference["feasible"] else "infeasible"
        if body.get("status") != expected or not body.get("statistics", {}).get("exhausted"):
            return f"status {body.get('status')!r}, expected an exhausted {expected!r}", False
        if feasible and not _close(body.get("distance_value"), reference["distance"]):
            return (f"distance {body.get('distance_value')} != reference "
                    f"{reference['distance']}"), False
        return None, True
    race = body.get("race", {})
    proven = bool(race.get("proven_optimal"))
    if body.get("status") not in ("ok", "deadline", "infeasible"):
        return f"race status {body.get('status')!r}", False
    if body.get("status") == "infeasible" and reference["feasible"]:
        return "race claims infeasible, reference is feasible", False
    if feasible:
        distance = body.get("distance_value")
        if distance is None:
            return "feasible race answer without a distance", False
        if distance < reference["distance"] - TOLERANCE * max(1.0, abs(reference["distance"])):
            return f"race distance {distance} beats reference {reference['distance']}", False
        if proven and not _close(distance, reference["distance"]):
            return f"proven race distance {distance} != reference {reference['distance']}", False
    return None, proven


# -- the closed loop ------------------------------------------------------------------------


class Client:
    """One keep-alive connection sending one request at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._connection: http.client.HTTPConnection | None = None

    def post(self, request_id: str, payload: dict) -> tuple[int, dict, float]:
        body = json.dumps(payload).encode()
        headers = {"Content-Type": "application/json", REQUEST_ID_HEADER: request_id}
        started = time.perf_counter()
        try:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=REQUEST_TIMEOUT_S
                )
            self._connection.request("POST", "/refine", body, headers)
            response = self._connection.getresponse()
            payload = json.loads(response.read())
            elapsed = time.perf_counter() - started
            if not isinstance(payload, dict):
                raise ValueError("the response body is not a JSON object")
            return response.status, payload, elapsed
        except (OSError, http.client.HTTPException, ValueError) as error:
            self.close()
            return 0, {"error": f"{type(error).__name__}: {error}"}, time.perf_counter() - started

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def run_items(
    server: Server,
    items: list[Item],
    clients: int,
    reference: dict[str, dict],
    prefix: str,
) -> tuple[list[Outcome], float]:
    """Send ``items`` over ``clients`` connections in a closed loop.

    Each client sends its next item as soon as its previous answer arrives.
    A twin item is sent by two clients at once: the first to take it waits
    for the second, so the server sees the same problem twice in flight.
    Returns the outcomes (in completion order) and the elapsed seconds.
    """
    expanded: list[tuple[Item, threading.Barrier | None]] = []
    for item in items:
        if item.twin and clients > 1:
            barrier = threading.Barrier(2)
            expanded += [(item, barrier), (item, barrier)]
        else:
            expanded.append((item, None))
    cursor = iter(enumerate(expanded))
    lock = threading.Lock()
    outcomes: list[Outcome] = []

    def loop() -> None:
        client = Client(server.host, server.port)
        try:
            while True:
                with lock:
                    index, (item, barrier) = next(cursor, (None, (None, None)))
                if item is None:
                    return
                if barrier is not None:
                    try:
                        barrier.wait(timeout=REQUEST_TIMEOUT_S)
                    except threading.BrokenBarrierError:
                        pass  # the other client is gone: send it alone
                request_id = f"{prefix}{index}"
                status, body, latency = client.post(request_id, item.problem.request())
                error, proven = check(item.problem, reference[item.problem.key], status, body)
                outcome = Outcome(
                    request_id=request_id,
                    problem=item.problem,
                    repeat=item.repeat,
                    twin=barrier is not None,
                    latency_s=latency,
                    status=status,
                    error=error,
                    proven=proven,
                    examined=int(body.get("statistics", {}).get("candidates_examined", 0) or 0),
                )
                with lock:
                    outcomes.append(outcome)
        finally:
            client.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=loop, name=f"client-{n}") for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.perf_counter() - started
