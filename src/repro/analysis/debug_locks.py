"""Dynamic lock-assertion proxies: the runtime half of ``lock-guard``.

With ``REPRO_DEBUG_LOCKS=1`` in the environment, the owner classes listed in
``analysis/registry.py`` wrap their guarded mappings in checking subclasses
that raise :class:`LockAssertionError` whenever the structure is touched
without the owning lock held.  The static rule proves the *source* takes the
lock; this catches the paths the AST cannot see (callbacks, tests poking
private state, future helpers).  With the variable unset, ``guard_mapping``
returns its argument unchanged — zero overhead in production.

This module must stay dependency-free (stdlib only, no ``repro`` imports):
it is imported by the lowest layers of the engine.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import MutableMapping, TypeVar

DEBUG_ENV_VAR = "REPRO_DEBUG_LOCKS"

_M = TypeVar("_M", bound=MutableMapping)

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def enabled() -> bool:
    """Whether lock-assertion proxies are active for this process."""
    return os.environ.get(DEBUG_ENV_VAR, "").strip().lower() in _TRUTHY


class LockAssertionError(AssertionError):
    """A guarded structure was accessed without its owning lock held."""


def _assert_held(lock: object, owner: str) -> None:
    held = None
    is_owned = getattr(lock, "_is_owned", None)  # RLock: owned by *this* thread
    if callable(is_owned):
        held = is_owned()
    else:
        locked = getattr(lock, "locked", None)  # plain Lock: held by someone
        if callable(locked):
            held = locked()
    if held is False:
        raise LockAssertionError(
            f"{owner} accessed without its owning lock held "
            f"(REPRO_DEBUG_LOCKS=1; see analysis/registry.py LOCK_GUARDS)"
        )


def _checking(method_name: str, base: type) -> object:
    base_method = getattr(base, method_name)

    def checked(self: object, *args: object, **kwargs: object) -> object:
        _assert_held(
            getattr(self, "_repro_lock"), getattr(self, "_repro_owner")
        )
        return base_method(self, *args, **kwargs)

    checked.__name__ = method_name
    return checked


_CHECKED_METHODS = (
    "__getitem__",
    "__setitem__",
    "__delitem__",
    "__contains__",
    "__iter__",
    "__len__",
    "get",
    "pop",
    "popitem",
    "setdefault",
    "clear",
    "update",
    "keys",
    "values",
    "items",
)


def _build_checked_class(base: type, extra_methods: tuple[str, ...] = ()) -> type:
    namespace: dict[str, object] = {
        "_repro_lock": None,
        "_repro_owner": "guarded mapping",
    }
    for method_name in _CHECKED_METHODS + extra_methods:
        namespace[method_name] = _checking(method_name, base)
    return type(f"LockChecked{base.__name__.capitalize()}", (base,), namespace)


LockCheckedDict = _build_checked_class(dict)
LockCheckedOrderedDict = _build_checked_class(OrderedDict, ("move_to_end",))


def guard_mapping(mapping: _M, lock: object, owner: str) -> _M:
    """Wrap ``mapping`` in a checking proxy when REPRO_DEBUG_LOCKS is on.

    ``lock`` is the owning ``threading.Lock``/``RLock``; ``owner`` names the
    structure in the assertion message (e.g. ``"QueryExecutor._join_cache"``).
    Returns ``mapping`` unchanged when the debug mode is off.  The proxy is a
    subclass of the wrapped type, so the declared type of the attribute holds
    either way.
    """
    if not enabled():
        return mapping
    cls = (
        LockCheckedOrderedDict
        if isinstance(mapping, OrderedDict)
        else LockCheckedDict
    )
    proxy = cls(mapping)
    proxy._repro_lock = lock
    proxy._repro_owner = owner
    return proxy  # type: ignore[return-value]


def _self_test() -> None:  # pragma: no cover - manual smoke hook
    lock = threading.RLock()
    guarded = guard_mapping({}, lock, "self-test") if enabled() else None
    if guarded is None:
        return
    with lock:
        guarded["ok"] = 1
    try:
        _ = guarded["ok"]
    except LockAssertionError:
        return
    raise AssertionError("proxy failed to fire")


__all__ = [
    "DEBUG_ENV_VAR",
    "LockAssertionError",
    "LockCheckedDict",
    "LockCheckedOrderedDict",
    "enabled",
    "guard_mapping",
]
