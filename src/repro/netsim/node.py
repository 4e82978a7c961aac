"""Hosts and routers.

A :class:`Host` owns a set of link attachments, a static forwarding table
(destination address -> outgoing pipe), and a protocol demultiplexer.  A host whose
routing table contains entries for other destinations forwards packets like a
router; a host with registered protocol handlers delivers packets addressed
to itself up the stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, TYPE_CHECKING

from repro.netsim.link import Link, Pipe
from repro.netsim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.packets.packet import Packet


class ProtocolHandler(Protocol):
    """Anything that can receive packets from a host's demultiplexer."""

    def on_packet(self, packet: "Packet") -> None:  # pragma: no cover - protocol
        ...


class Host:
    """A network endpoint or router.

    Addresses are opaque strings (``"client1"``, ``"server2"``...).  Routing
    is static: :meth:`add_route` binds a destination address to one of this
    host's links; :meth:`set_default_route` handles everything else.
    """

    def __init__(self, sim: Simulator, name: str, address: Optional[str] = None):
        self.sim = sim
        self.name = name
        self.address = address if address is not None else name
        self.links: List[Link] = []
        # keyed by the link object (not id(link)) so an unpickled snapshot
        # world stays internally consistent: pickle's memo restores each
        # link as exactly one object, and that object is the key here
        self._out_pipes: Dict[Link, Pipe] = {}
        #: destination address -> the pipe that leaves towards it, so the
        #: datapath resolves a route with one dict probe
        self._forward: Dict[str, Pipe] = {}
        self._default_pipe: Optional[Pipe] = None
        self._protocols: Dict[str, ProtocolHandler] = {}
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped_no_route = 0
        self.packets_dropped_no_handler = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, link: Link, out_pipe: Pipe) -> None:
        """Called by :class:`Link` during construction."""
        self.links.append(link)
        self._out_pipes[link] = out_pipe

    def add_route(self, dst_address: str, link: Link) -> None:
        self._forward[dst_address] = self._out_pipe(link)

    def set_default_route(self, link: Link) -> None:
        self._default_pipe = self._out_pipe(link)

    def _out_pipe(self, link: Link) -> Pipe:
        pipe = self._out_pipes.get(link)
        if pipe is None:
            raise ValueError(f"{self.name} is not attached to {link.name}")
        return pipe

    def register_protocol(self, proto: str, handler: ProtocolHandler) -> None:
        self._protocols[proto] = handler

    def protocol(self, proto: str) -> Optional[ProtocolHandler]:
        return self._protocols.get(proto)

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def send(self, packet: "Packet") -> None:
        """Transmit a packet originated by (or forwarded through) this host."""
        pipe = self._forward.get(packet.dst, self._default_pipe)
        if pipe is None:
            self.packets_dropped_no_route += 1
            return
        pipe.transmit(packet)

    def receive(self, packet: "Packet", pipe: Pipe) -> None:
        """Called by the delivering pipe when a packet arrives."""
        self.packets_received += 1
        if packet.dst != self.address:
            self.packets_forwarded += 1
            self.send(packet)
            return
        handler = self._protocols.get(packet.proto)
        if handler is None:
            self.packets_dropped_no_handler += 1
            return
        handler.on_packet(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name}>"
