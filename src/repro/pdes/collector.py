"""The process's garbage-collector policy while a simulation runs.

A built model -- topology port tables, router and terminal LPs, rank
state -- is hundreds of thousands of long-lived containers that never
form garbage cycles, yet CPython's cyclic collector walks all of them
on every full collection.  At paper scale that walk is most of a
startup's cost (``docs/architecture.md``, "The garbage collector and
the model").  Two scopes keep the model out of it:

* :func:`building` pauses the collector while a model is constructed
  (construction is bounded, so nothing accumulates without limit);
* :func:`running` freezes every object that exists on entry -- the
  built model -- so the collections a step triggers scan only what the
  step allocates.

A frozen object is also invisible to the full collections that would
reclaim it once it is garbage: a finished run's model, dropped by its
caller, is such garbage, and the next run's steps would freeze it
again.  So after a step the next :func:`building` starts with one full
collection, unless one has run since the step.  That is the cheapest
point to walk the heap: the new model does not exist yet.  Back-to-back
runs therefore hold at most one finished model's garbage.

Both scopes restore the collector on exit, also when the body raises,
and both do nothing when the caller already disabled the collector or
froze objects: the scopes nest, and a caller's own policy wins.
Scopes in several threads may interleave in any order; each exit only
returns the collector to enabled and unfrozen, so the last one out
leaves it that way.  GC timing never reaches the committed event
order, so results cannot change.  This is the only module under
``repro`` that sets the collector's state.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

#: The oldest generation's collection count when a step last unfroze
#: the model; ``None`` once a full collection has seen every object.
_unfrozen_at: int | None = None


def _full_collections() -> int:
    return gc.get_stats()[-1]["collections"]


def _caller_owns_collector() -> bool:
    """The caller (or an enclosing scope) already set a policy."""
    return not gc.isenabled() or gc.get_freeze_count() > 0


@contextmanager
def building() -> Iterator[None]:
    """Pause the cyclic collector while a model is constructed, after
    reclaiming whatever a step kept from it (see the module notes)."""
    global _unfrozen_at
    if _caller_owns_collector():
        yield
        return
    if _unfrozen_at is not None:
        if _full_collections() == _unfrozen_at:
            gc.collect()
        _unfrozen_at = None
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextmanager
def running() -> Iterator[None]:
    """Freeze the built model for the duration of a step, so the
    collector scans only what the step allocates."""
    global _unfrozen_at
    if _caller_owns_collector():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        _unfrozen_at = _full_collections()
