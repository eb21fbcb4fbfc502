"""Chaos-suite configuration.

Every test in this package manipulates the process-wide fault plan
(:data:`repro.faults.PLAN`), so the ``fault_env`` fixture owns arming *and*
disarming: the plan is always refreshed back to empty after each test, even
on failure — a leaked armed fault would poison every later test in the run.
"""

from __future__ import annotations

import pytest

from repro import faults


@pytest.fixture
def fault_env():
    """Arm injection points for one test; always disarm afterwards.

    Usage::

        plan = fault_env(REPRO_FAULT_SQLITE_LOCK="1.0,attempts=1")
        ...
        assert plan.fired["sqlite-lock"] >= 1
    """
    patcher = pytest.MonkeyPatch()

    def arm(**env: str) -> faults.FaultPlan:
        for name, value in env.items():
            patcher.setenv(name, value)
        return faults.refresh()

    try:
        yield arm
    finally:
        patcher.undo()
        faults.refresh()


@pytest.fixture
def disarmed():
    """Force a fully disarmed plan even when CI armed faults process-wide."""
    patcher = pytest.MonkeyPatch()
    for point in faults.INJECTION_POINTS:
        patcher.delenv(point.env, raising=False)
    try:
        yield faults.refresh()
    finally:
        patcher.undo()
        faults.refresh()
