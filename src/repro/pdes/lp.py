"""Logical process base class."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.pdes.engine import Engine
    from repro.pdes.event import Event


class LP:
    """A logical process: a state machine driven by timestamped events.

    Subclasses implement :meth:`handle`.
    """

    __slots__ = ("lp_id", "engine")

    def __init__(self) -> None:
        self.lp_id: int = -1
        self.engine: "Engine | None" = None

    # -- wiring ---------------------------------------------------------
    def bind(self, engine: "Engine", lp_id: int) -> None:
        """Called by the engine when the LP is registered."""
        self.engine = engine
        self.lp_id = lp_id

    # -- model interface -------------------------------------------------
    def handle(self, event: "Event") -> None:
        """Process one event.  May schedule new events via ``self.engine``."""
        raise NotImplementedError
