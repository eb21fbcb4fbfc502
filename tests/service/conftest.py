"""Service-suite configuration.

The service layer runs many dataset sessions concurrently.  A process-wide
``REPRO_EXECUTOR_DB`` (as set by the persisted-store CI job) would point every
session's executor at one shared store file, and datasets that reuse
relation names (``students`` and ``law_students`` both ship a ``Students``
table) would fight over the same tables from different threads.  Sessions
own their store paths (``SessionPool(executor_db_dir=...)`` hands each one a
distinct file), so the inherited override is dropped for this suite.
"""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True, scope="package")
def _isolate_executor_store():
    with pytest.MonkeyPatch.context() as patcher:
        patcher.delenv("REPRO_EXECUTOR_DB", raising=False)
        yield
