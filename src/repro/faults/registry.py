"""The fault-injection registry: every injection point, declared once.

Chaos testing needs failures on demand — a locked or corrupted sqlite store,
a backend that blows up, a solve that crawls — but production code must pay
*nothing* for the capability when it is off.  This module is the contract
between the two:

* :data:`INJECTION_POINTS` declares every site the codebase can fail at,
  with the ``REPRO_FAULT_*`` environment variable that arms it (the
  ``env-var-registry`` lint rule cross-checks each declaration against
  ``analysis/env_registry.py``, so the README's generated table always
  documents every point);
* :func:`fire` is the call the instrumented sites make.  Disarmed (the
  default) it is a dict-emptiness check and a return — no parsing, no
  hashing, no branching on configuration;
* armed, firing is **deterministic**: whether a given ``(point, key,
  attempt)`` fires is a pure function of the configured rate and the
  ``REPRO_FAULT_SEED``, so a chaos run is reproducible and a retried
  operation (a new ``attempt`` for the same ``key``) can be configured to
  succeed after N injected failures.

Arming syntax (the env var's value)::

    REPRO_FAULT_SQLITE_LOCK="1.0"             # every call fails
    REPRO_FAULT_SQLITE_LOCK="0.25"            # a deterministic 25% of keys
    REPRO_FAULT_SQLITE_LOCK="1.0,attempts=2"  # first 2 attempts per key fail
    REPRO_FAULT_SLOW_SOLVE="1.0,seconds=0.4"  # injected latency
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
import time
from dataclasses import dataclass

from repro.exceptions import ReproError, SolverError

#: Kinds of failure an injection point can produce.
KIND_RAISE = "raise"  # raise the registered exception
KIND_SLEEP = "sleep"  # inject latency


@dataclass(frozen=True)
class InjectionPoint:
    """One declared place the codebase can be made to fail.

    ``env`` must be a declared ``REPRO_*`` name (the lint rule enforces it);
    ``site`` documents where the instrumented call lives so the chaos suite
    (and a reader of the generated docs) can find it.
    """

    name: str
    env: str
    kind: str
    site: str
    description: str
    exception: type[BaseException] | None = None
    message: str = ""


INJECTION_POINTS: tuple[InjectionPoint, ...] = (
    InjectionPoint(
        name="sqlite-lock",
        env="REPRO_FAULT_SQLITE_LOCK",
        kind=KIND_RAISE,
        site="relational/sqlite_backend.py:pushdown access",
        description="a store access raises sqlite3.OperationalError: locked",
        exception=sqlite3.OperationalError,
        message="database is locked [injected]",
    ),
    InjectionPoint(
        name="sqlite-corrupt",
        env="REPRO_FAULT_SQLITE_CORRUPT",
        kind=KIND_RAISE,
        site="relational/sqlite_backend.py:pushdown access",
        description="a store access raises sqlite3.DatabaseError: malformed",
        exception=sqlite3.DatabaseError,
        message="database disk image is malformed [injected]",
    ),
    InjectionPoint(
        name="backend-raise",
        env="REPRO_FAULT_BACKEND_RAISE",
        kind=KIND_RAISE,
        site="milp/model.py:Model.solve",
        description="the MILP backend raises SolverError before solving",
        exception=SolverError,
        message="MILP backend failure [injected]",
    ),
    InjectionPoint(
        name="slow-solve",
        env="REPRO_FAULT_SLOW_SOLVE",
        kind=KIND_SLEEP,
        site="milp/model.py:Model.solve",
        description="the MILP backend sleeps before solving",
    ),
)

_POINTS_BY_NAME: dict[str, InjectionPoint] = {
    point.name: point for point in INJECTION_POINTS
}

#: Seed that makes rate-based firing decisions reproducible.
_SEED_ENV = "REPRO_FAULT_SEED"

#: Default injected latency of a ``sleep``-kind point (seconds).
_DEFAULT_SLEEP_S = 0.2


@dataclass(frozen=True)
class FaultConfig:
    """The parsed arming of one injection point."""

    rate: float
    #: Attempts (per key) that may fire; later retries of the same key pass.
    #: ``None`` = every attempt fires (permanent fault).
    attempts: int | None = None
    #: Injected latency for ``sleep``-kind points.
    seconds: float = _DEFAULT_SLEEP_S


def _parse_config(env: str, raw: str) -> FaultConfig:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ReproError(f"empty fault spec in {env}")
    try:
        rate = float(parts[0])
    except ValueError:
        raise ReproError(
            f"invalid {env}={raw!r}: the first field must be a rate in [0, 1]"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise ReproError(f"invalid {env}={raw!r}: rate must be within [0, 1]")
    attempts: int | None = None
    seconds = _DEFAULT_SLEEP_S
    for part in parts[1:]:
        name, equals, value = part.partition("=")
        if not equals:
            raise ReproError(
                f"invalid {env}={raw!r}: expected name=value, got {part!r}"
            )
        name = name.strip()
        try:
            if name == "attempts":
                attempts = int(value)
            elif name == "seconds":
                seconds = float(value)
            else:
                raise ReproError(
                    f"invalid {env}={raw!r}: unknown parameter {name!r} "
                    "(use attempts= or seconds=)"
                )
        except ValueError:
            raise ReproError(
                f"invalid {env}={raw!r}: bad value for {name!r}"
            ) from None
    return FaultConfig(rate=rate, attempts=attempts, seconds=seconds)


class FaultPlan:
    """The armed injection points of this process, read from the environment.

    One module-level instance (:data:`PLAN`) is consulted by every site;
    :meth:`refresh` re-reads the environment (tests arm and disarm faults at
    runtime; servers refresh once at startup).  Counters make chaos runs
    observable: ``fired`` maps point name to the number of injections.
    """

    def __init__(self) -> None:
        self._configs: dict[str, FaultConfig] = {}
        self._seed = 0
        self._lock = threading.Lock()
        self.fired: dict[str, int] = {}
        self.refresh()

    def refresh(self) -> "FaultPlan":
        configs: dict[str, FaultConfig] = {}
        for point in INJECTION_POINTS:
            raw = os.environ.get(point.env)
            if raw is None or raw == "":
                continue
            config = _parse_config(point.env, raw)
            if config.rate > 0.0:
                configs[point.name] = config
        seed_raw = os.environ.get(_SEED_ENV)
        with self._lock:
            self._configs = configs
            self._seed = int(seed_raw) if seed_raw else 0
            self.fired = {}
        return self

    @property
    def armed(self) -> bool:
        return bool(self._configs)

    def armed_points(self) -> dict[str, FaultConfig]:
        with self._lock:
            return dict(self._configs)

    # -- firing ---------------------------------------------------------------------

    def _decides_to_fire(
        self, name: str, config: FaultConfig, key: object, attempt: int
    ) -> bool:
        if config.attempts is not None and attempt >= config.attempts:
            return False
        if config.rate >= 1.0:
            return True
        digest = hashlib.sha256(
            repr((self._seed, name, key)).encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < config.rate

    def should_fire(self, name: str, key: object = 0, attempt: int = 0) -> bool:
        """Whether the point would fire for ``(key, attempt)`` — no side effects."""
        config = self._configs.get(name)
        if config is None:
            return False
        return self._decides_to_fire(name, config, key, attempt)

    def fire(self, name: str, key: object = 0, attempt: int = 0) -> None:
        """Perform the registered failure if the point decides to fire.

        ``raise``-kind points raise their registered exception; ``sleep``
        points inject latency.
        """
        config = self._configs.get(name)
        if config is None:
            return
        if not self._decides_to_fire(name, config, key, attempt):
            return
        point = _POINTS_BY_NAME[name]
        with self._lock:
            self.fired[name] = self.fired.get(name, 0) + 1
        if point.kind == KIND_SLEEP:
            time.sleep(config.seconds)
            return
        assert point.exception is not None
        raise point.exception(point.message)


#: The process-wide plan every instrumented site consults.
PLAN = FaultPlan()


def refresh() -> FaultPlan:
    """Re-read the ``REPRO_FAULT_*`` environment (tests, server startup)."""
    return PLAN.refresh()


def armed() -> bool:
    """Whether any injection point is armed (the zero-overhead fast path)."""
    return PLAN.armed


def fire(name: str, key: object = 0, attempt: int = 0) -> None:
    """Fire ``name`` if armed; a no-op (one bool check) otherwise."""
    if not PLAN.armed:
        return
    PLAN.fire(name, key=key, attempt=attempt)


def should_fire(name: str, key: object = 0, attempt: int = 0) -> bool:
    if not PLAN.armed:
        return False
    return PLAN.should_fire(name, key=key, attempt=attempt)


__all__ = [
    "INJECTION_POINTS",
    "KIND_RAISE",
    "KIND_SLEEP",
    "FaultConfig",
    "FaultPlan",
    "InjectionPoint",
    "PLAN",
    "armed",
    "fire",
    "refresh",
    "should_fire",
]
