"""Per-command memo: each distinct computation runs once per command.

`ctcsim.cli.main` opens a :func:`command_scope` around one command. Inside
it, :func:`once` hands back the stored result of an earlier call of the
same function with equal arguments, so threshold sets and eligibility
cells that a report reaches from many row builders are computed once.
Outside a scope :func:`once` just calls through: library callers compute
exactly as they would without it and nothing is stored.

The scope is dropped when the command returns, so no result outlives the
command that computed it. An exception propagates without being stored,
so a failing call fails again on every repeat.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

_results: ContextVar[dict | None] = ContextVar("ctcsim_memo", default=None)


@contextmanager
def command_scope() -> Iterator[None]:
    """Memoise :func:`once` calls until the block exits."""
    token = _results.set({})
    try:
        yield
    finally:
        _results.reset(token)


def once(fn: Callable[..., T], *args) -> T:
    """``fn(*args)``, computed once per distinct hashable `args` inside a scope."""
    results = _results.get()
    if results is None:
        return fn(*args)
    key = (fn, args)
    try:
        return results[key]
    except KeyError:
        value = results[key] = fn(*args)
        return value
