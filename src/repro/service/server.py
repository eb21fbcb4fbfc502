"""The threaded HTTP/JSON front end behind ``repro serve``.

Endpoints:

* ``POST /refine`` — body is a :class:`~repro.service.engine.RefineRequest`
  in wire form; the response body is the :class:`RefineResponse` dict (the
  same serialization ``repro refine --json`` prints, plus timings).  Invalid
  requests get ``400`` with an ``error`` field; infeasible problems are still
  ``200`` (``feasible: false`` is an answer, not a failure).
* ``GET /health`` — liveness probe (reports ``draining`` during shutdown).
* ``GET /datasets`` — the registered dataset names.
* ``GET /stats`` — admission, session pool, coalescer and shadow report.

The server is a :class:`~http.server.ThreadingHTTPServer` whose listen
backlog is admission control's capacity (running plus queued requests): one
thread per connection, all of them sharing one engine.  Concurrency safety
is the layer below's job (locked executor caches, per-thread sqlite
connections, coalesced duplicate solves) — the handler itself is stateless.

Failure contract: *every* error answer is typed.  Oversized or malformed
bodies get 413/400 (never a handler traceback), overload sheds with 429/503
plus a ``Retry-After`` hint, expired deadlines answer 504, and anything
unexpected still serializes through
:func:`~repro.exceptions.error_payload` — zero untyped 500s.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.deadline import Deadline
from repro.datasets.registry import DATASET_BUILDERS
from repro.exceptions import (
    BodyTooLargeError,
    MalformedRequestError,
    ReproError,
    error_payload,
    http_status_for,
)
from repro.service.admission import AdmissionController
from repro.service.engine import RefinementEngine, RefineRequest, RefineResponse
from repro.service.shadow import ShadowEngine

#: Default request-body size guard (1 MiB: wire requests are a few KiB).
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Default grace period for in-flight solves during a draining shutdown.
DEFAULT_DRAIN_TIMEOUT_S = 10.0


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the engine the server was built around."""

    # Set by RefinementServer when the handler class is bound.
    server_facade: "RefinementServer"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every connection: ``_send_json`` writes the headers and
    # the body separately, and with Nagle's algorithm on the body waits for
    # the client's delayed ACK of the headers (40 ms or more on Linux) on
    # every response of a keep-alive connection.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.server_facade.verbose:
            super().log_message(format, *args)

    def _send_json(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, error: BaseException) -> None:
        """Serialize any error through the typed taxonomy (no raw 500s)."""
        headers: dict[str, str] = {}
        if isinstance(error, ReproError) and error.retry_after_s is not None:
            headers["Retry-After"] = f"{error.retry_after_s:g}"
        self._send_json(http_status_for(error), error_payload(error), headers)

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/health":
            draining = self.server_facade.admission.draining
            self._send_json(200, {"status": "draining" if draining else "ok"})
        elif self.path == "/datasets":
            self._send_json(200, {"datasets": sorted(DATASET_BUILDERS)})
        elif self.path == "/stats":
            self._send_json(200, self.server_facade.stats())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _read_body(self) -> bytes:
        """The request body, guarded against missing/oversized lengths."""
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise MalformedRequestError("missing Content-Length header")
        try:
            length = int(raw_length)
        except ValueError:
            raise MalformedRequestError(
                f"invalid Content-Length {raw_length!r}"
            ) from None
        limit = self.server_facade.max_body_bytes
        if length < 0:
            raise MalformedRequestError(f"invalid Content-Length {length}")
        if length > limit:
            raise BodyTooLargeError(
                f"request body of {length} bytes exceeds the {limit}-byte limit"
            )
        return self.rfile.read(length)

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/refine":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            body = self._read_body()
            try:
                payload = json.loads(body or b"{}")
            except json.JSONDecodeError as error:
                raise MalformedRequestError(
                    f"request body is not valid JSON: {error}"
                ) from None
            if not isinstance(payload, dict):
                raise MalformedRequestError("request body must be a JSON object")
            request = RefineRequest.from_dict(payload)
            response = self.server_facade.refine(request)
        except ReproError as error:
            self._send_error(error)
            return
        except (ValueError, KeyError, TypeError) as error:
            # Defensive: wire-parsing slips that are not yet typed errors.
            self._send_json(400, error_payload(MalformedRequestError(str(error))))
            return
        except Exception as error:  # pragma: no cover - defensive
            self._send_error(error)
            return
        self._send_json(200, response.to_dict())


class RefinementServer:
    """Owns the engine, the listening socket and the serving thread.

    Usable either blocking (:meth:`serve_forever`, the CLI path) or as a
    context manager that serves from a background thread (the test path)::

        with RefinementServer(port=0) as server:
            url = f"http://127.0.0.1:{server.port}/refine"
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8373,
        engine: RefinementEngine | None = None,
        shadow: ShadowEngine | None = None,
        verbose: bool = False,
        default_deadline_s: float | None = None,
        admission: AdmissionController | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
    ) -> None:
        self.engine = engine or (shadow.engine if shadow else RefinementEngine())
        self.shadow = shadow
        self.verbose = verbose
        # The serving-level SLA knob: requests that do not name their own
        # deadline inherit this one end-to-end (queueing included).
        self.default_deadline_s = default_deadline_s
        self.admission = admission or AdmissionController()
        self.max_body_bytes = max_body_bytes
        self.drain_timeout_s = drain_timeout_s
        handler = type("BoundHandler", (_Handler,), {"server_facade": self})
        self._httpd = ThreadingHTTPServer((host, port), handler, bind_and_activate=False)
        # The listen backlog holds every connection admission control would
        # admit (running plus queued): a burst beyond the stock backlog (5)
        # would otherwise have its SYNs dropped and wait about a second for
        # the retransmission, unseen by admission and by the deadline clock.
        self._httpd.request_queue_size = (
            self.admission.max_concurrency + self.admission.max_queue
        )
        try:
            self._httpd.server_bind()
            self._httpd.server_activate()
        except BaseException:
            self._httpd.server_close()
            raise
        # daemon_threads: an in-flight solve must not block process exit.
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral one)."""
        return int(self._httpd.server_address[1])

    def refine(self, request: RefineRequest) -> RefineResponse:
        if request.deadline_s is None and self.default_deadline_s is not None:
            request = dataclasses.replace(request, deadline_s=self.default_deadline_s)
        # The end-to-end clock starts here, before admission: time spent
        # queued for a slot is part of the request's SLA, not free.
        deadline = (
            Deadline.after(request.deadline_s) if request.deadline_s is not None else None
        )
        facade = self.shadow if self.shadow is not None else self.engine
        with self.admission.admit(deadline):
            return facade.refine(request, deadline=deadline)

    def stats(self) -> dict:
        stats: dict = {
            "default_deadline_s": self.default_deadline_s,
            "requests_served": self.engine.requests_served,
            "admission": self.admission.stats(),
            "coalescer": {
                "started": self.engine.coalescer.started,
                "coalesced": self.engine.coalescer.coalesced,
            },
            "sessions": self.engine.sessions.describe(),
        }
        if self.shadow is not None:
            stats["shadow"] = self.shadow.report_dict()
        return stats

    # -- lifecycle ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (the CLI path)."""
        self._httpd.serve_forever()

    def start(self) -> "RefinementServer":
        """Serve from a daemon thread and return once the socket is live."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Drain then stop: finish in-flight work, shed new arrivals typed.

        ``begin_drain`` flips the admission gate (new requests get a typed
        503 immediately) while requests already holding a slot run to
        completion, bounded by ``drain_timeout_s``.
        """
        self.admission.begin_drain()
        self.admission.drain(self.drain_timeout_s)
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()
        self.engine.sessions.close()

    def __enter__(self) -> "RefinementServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


__all__ = [
    "DEFAULT_DRAIN_TIMEOUT_S",
    "DEFAULT_MAX_BODY_BYTES",
    "RefinementServer",
]
