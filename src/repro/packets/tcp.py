"""TCP header description (RFC 793 with common options, 13 fields).

The paper's search-space arithmetic assumes "the 13 fields in the TCP
header"; this description declares exactly 13, counting the standard header
fields plus the three options every modern handshake carries (MSS, window
scale, SACK-permitted).  The checksum is declared immutable: the proxy
recomputes checksums after modification, so lying about it degenerates to
the ``drop`` attack.
"""

from __future__ import annotations

from repro.packets.header import Header, parse_header_description

TCP_DESCRIPTION = """
header tcp {
    sport:        16;
    dport:        16;
    seq:          32;
    ack:          32;
    data_offset:   4 = 6;
    reserved:      4;
    flags:         8 flags { fin=0x01, syn=0x02, rst=0x04, psh=0x08, ack=0x10, urg=0x20 };
    window:       16 = 65535;
    checksum:     16 immutable;
    urgent_ptr:   16;
    mss_opt:      16 = 1460;
    wscale_opt:    8;
    sack_ok_opt:   8;
}
"""

TCP_FORMAT = parse_header_description(TCP_DESCRIPTION)

#: bit masks of the ``flags`` field, for stack code that tests or builds
#: the whole flags byte at once instead of one named flag per call
FIN, SYN, RST, PSH, ACK = (
    TCP_FORMAT.flag_masks[("flags", name)] for name in ("fin", "syn", "rst", "psh", "ack")
)

#: flag presentation order for canonical packet-type names
_FLAG_ORDER = ("syn", "fin", "rst", "psh", "ack", "urg")

#: flag combinations that occur in normal protocol operation
VALID_FLAG_COMBOS = frozenset(
    {
        "SYN",
        "SYN+ACK",
        "ACK",
        "PSH+ACK",
        "FIN+ACK",
        "FIN+PSH+ACK",
        "RST",
        "RST+ACK",
        "URG+ACK",
        "FIN",
    }
)


class TcpHeader(TCP_FORMAT.build_class()):
    """TCP header with flag conveniences layered over the generated codec."""

    __slots__ = ()

    @property
    def packet_type(self) -> str:
        return tcp_packet_type(self)

    def flags_set(self, *names: str) -> "TcpHeader":
        """Set the given flags and return self (builder style)."""
        for name in names:
            self.set_flag("flags", name)
        return self

    @property
    def is_valid_flag_combo(self) -> bool:
        return self.packet_type in VALID_FLAG_COMBOS


def _flags_to_type(value: int) -> str:
    names = [bit.upper() for bit in _FLAG_ORDER if value & TCP_FORMAT.flag_masks[("flags", bit)]]
    return "+".join(names) if names else "NONE"


#: packet-type name for every value of the 8-bit flags field
_PACKET_TYPES = tuple(_flags_to_type(value) for value in range(256))


def tcp_packet_type(header: Header) -> str:
    """Canonical packet-type name derived from the flag bits.

    Examples: ``"SYN"``, ``"SYN+ACK"``, ``"PSH+ACK"``, ``"RST"``.  A packet
    with no flags set is ``"NONE"`` (never valid on the wire, but the ``lie``
    attack can produce it and implementations must cope).  Every named flag
    sits in the low byte, so the name is a lookup in a 256-entry table.
    """
    return _PACKET_TYPES[header.flags & 0xFF]


def make_tcp_header(**values: int) -> TcpHeader:
    return TcpHeader(**values)
