"""Packet objects flowing through the fabric.

A rank-level message is segmented into packets at the source terminal;
packets carry the full router path (selected at injection by the routing
policy) and are reassembled into the message at the destination
terminal.
"""

from __future__ import annotations


class Packet:
    """One network packet.

    Attributes
    ----------
    pid:
        Globally unique packet id.
    msg_id:
        Id of the message this packet belongs to.
    app_id:
        Id of the application (job) that produced the message; used by
        the per-application router counters.
    src_node / dst_node:
        Endpoint compute nodes.
    size:
        Payload bytes carried by this packet (the tail packet of a
        message may be short; zero-byte control messages travel as one
        zero-size packet and still pay per-hop latency).
    path:
        Sequence of router ids from the source's router to the
        destination's router, inclusive.
    hop:
        Index into ``path`` of the router the packet currently occupies
        (or is in flight towards).
    """

    __slots__ = (
        "pid",
        "msg_id",
        "app_id",
        "src_node",
        "dst_node",
        "size",
        "path",
        "hop",
        "nonminimal",
    )

    def __init__(
        self,
        pid: int,
        msg_id: int,
        app_id: int,
        src_node: int,
        dst_node: int,
        size: int,
        path: list[int],
        nonminimal: bool = False,
    ) -> None:
        self.pid = pid
        self.msg_id = msg_id
        self.app_id = app_id
        self.src_node = src_node
        self.dst_node = dst_node
        self.size = size
        self.path = path
        self.hop = 0
        self.nonminimal = nonminimal

    @property
    def dst_router(self) -> int:
        return self.path[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(pid={self.pid}, msg={self.msg_id}, app={self.app_id}, "
            f"{self.src_node}->{self.dst_node}, size={self.size}, "
            f"hop={self.hop}/{len(self.path) - 1})"
        )
