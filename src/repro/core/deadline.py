"""End-to-end request deadlines and their thread-local propagation.

A :class:`Deadline` is an absolute wall-clock budget created once at the edge
(the HTTP handler, or the CLI for a ``--deadline`` run) and consulted at
every layer below: the admission queue sheds requests whose budget expires
while they wait, the engine clamps solver time limits to the remaining
budget, and the sqlite backend clamps its busy timeout and lock-retry loop.

Most layers cannot thread an extra parameter through every call (the
executor is shared by four engines with fixed signatures), so the deadline
also travels *ambiently*: :func:`deadline_scope` binds it to the current
thread and :func:`current_deadline` reads it back.  Only the request thread
itself sees the binding — race threads receive explicit per-engine budgets
instead, exactly like the pre-existing timeout plumbing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.exceptions import DeadlineExceeded


class Deadline:
    """An absolute wall-clock budget, monotonic-clock based.

    ``Deadline.after(2.5)`` expires 2.5 seconds from now; :meth:`remaining`
    never goes below zero, and :meth:`require` turns expiry into the typed
    :class:`~repro.exceptions.DeadlineExceeded`.
    """

    __slots__ = ("budget_s", "expires_at")

    def __init__(self, expires_at: float, budget_s: float) -> None:
        self.expires_at = expires_at
        self.budget_s = budget_s

    @classmethod
    def after(cls, budget_s: float) -> "Deadline":
        return cls(time.monotonic() + budget_s, budget_s)

    def remaining(self) -> float:
        """Seconds left on the budget (0.0 once expired)."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def require(self, what: str) -> None:
        """Raise the typed deadline error if the budget is already spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:g}s expired before {what}"
            )

    def clamp(self, limit: float | None) -> float:
        """``limit`` bounded by the remaining budget (``None`` = budget only)."""
        remaining = self.remaining()
        if limit is None:
            return remaining
        return min(float(limit), remaining)

    def __repr__(self) -> str:
        return f"Deadline(budget={self.budget_s:g}s, remaining={self.remaining():.3f}s)"


_AMBIENT = threading.local()


def current_deadline() -> Deadline | None:
    """The deadline bound to the calling thread (``None`` outside any scope)."""
    return getattr(_AMBIENT, "deadline", None)


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Bind ``deadline`` to the calling thread for the duration of the block.

    ``None`` is a valid binding (it *clears* an inherited scope, so a nested
    undated computation never picks up an outer request's budget by
    accident).  Scopes restore the previous binding on exit, so they nest.
    """
    previous = current_deadline()
    _AMBIENT.deadline = deadline
    try:
        yield deadline
    finally:
        _AMBIENT.deadline = previous


def remaining_or(default: float) -> float:
    """The ambient deadline's remaining seconds, or ``default`` without one."""
    deadline = current_deadline()
    return default if deadline is None else min(default, deadline.remaining())


__all__ = [
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "remaining_or",
]
