"""Packet formats: field specs, the description language, generated codecs."""

import pytest
from hypothesis import given, strategies as st

from repro.packets.fields import FieldSpec, FlagBit
from repro.packets.header import (
    Header,
    HeaderDescriptionError,
    HeaderFormat,
    parse_header_description,
)
from repro.packets.packet import IP_HEADER_BYTES, Packet
from repro.packets.tcp import (
    TCP_FORMAT,
    TcpHeader,
    VALID_FLAG_COMBOS,
    tcp_packet_type,
)
from repro.packets.dccp import (
    DCCP_FORMAT,
    DCCP_TYPES,
    DccpHeader,
    dccp_packet_type,
    make_dccp_header,
)


class TestFieldSpec:
    def test_max_value(self):
        assert FieldSpec("f", 16).max_value == 65535

    def test_default_must_fit(self):
        with pytest.raises(ValueError):
            FieldSpec("f", 4, default=16)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec("f", 0)
        with pytest.raises(ValueError):
            FieldSpec("f", 65)

    def test_flag_mask_lookup(self):
        spec = FieldSpec("flags", 8, flags=(FlagBit("syn", 0x02),))
        assert spec.flag_mask("syn") == 0x02
        with pytest.raises(KeyError):
            spec.flag_mask("nope")

    def test_flag_mask_must_fit(self):
        with pytest.raises(ValueError):
            FieldSpec("flags", 2, flags=(FlagBit("big", 0x10),))

    def test_enum_lookup(self):
        spec = FieldSpec("type", 4, enum=((0, "request"), (1, "response")))
        assert spec.enum_name(1) == "response"
        assert spec.enum_name(9) is None
        assert spec.enum_value("request") == 0
        with pytest.raises(KeyError):
            spec.enum_value("bogus")

    def test_clamp_wraps(self):
        spec = FieldSpec("f", 8)
        assert spec.clamp(256) == 0
        assert spec.clamp(-1) == 255


class TestDescriptionLanguage:
    def test_round_trip_simple(self):
        fmt = parse_header_description(
            "header demo { a: 8 = 7; b: 16; flags: 8 flags { x=0x01, y=0x02 }; }"
        )
        assert fmt.name == "demo"
        assert [f.name for f in fmt.fields] == ["a", "b", "flags"]
        assert fmt.field("a").default == 7
        assert fmt.length_bytes == 4

    def test_comments_stripped(self):
        fmt = parse_header_description(
            "header demo {\n  a: 8; # trailing comment\n  b: 8;\n}"
        )
        assert len(fmt.fields) == 2

    def test_immutable_marker(self):
        fmt = parse_header_description("header d { a: 8; csum: 8 immutable; }")
        assert fmt.field("csum").mutable is False
        assert [f.name for f in fmt.mutable_fields] == ["a"]

    def test_enum_block(self):
        fmt = parse_header_description("header d { t: 8 enum { a=0, b=1 }; }")
        assert fmt.field("t").enum_value("b") == 1

    def test_rejects_garbage(self):
        with pytest.raises(HeaderDescriptionError):
            parse_header_description("not a header")

    def test_rejects_bad_field(self):
        with pytest.raises(HeaderDescriptionError):
            parse_header_description("header d { :::; }")

    def test_rejects_unaligned_total(self):
        with pytest.raises(HeaderDescriptionError):
            parse_header_description("header d { a: 3; }")

    def test_rejects_duplicate_fields(self):
        with pytest.raises(HeaderDescriptionError):
            parse_header_description("header d { a: 8; a: 8; }")

    def test_rejects_empty_enum(self):
        with pytest.raises(HeaderDescriptionError):
            parse_header_description("header d { a: 8 enum { }; }")


class TestGeneratedHeaders:
    def test_defaults_applied(self):
        header = TcpHeader()
        assert header.window == 65535
        assert header.data_offset == 6

    def test_kwargs_clamped(self):
        header = TcpHeader(sport=1 << 20)
        assert header.sport == (1 << 20) & 0xFFFF

    def test_set_get(self):
        header = TcpHeader()
        header.set("seq", 12345)
        assert header.get("seq") == 12345

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            TcpHeader().set("bogus", 1)

    def test_clone_is_independent(self):
        header = TcpHeader(seq=5)
        copy = header.clone()
        copy.seq = 9
        assert header.seq == 5

    def test_equality_and_hash(self):
        a, b = TcpHeader(seq=1), TcpHeader(seq=1)
        assert a == b
        assert hash(a) == hash(b)
        b.seq = 2
        assert a != b

    def test_pack_parse_round_trip(self):
        header = TcpHeader(sport=1234, dport=80, seq=0xDEADBEEF, ack=42)
        header.flags_set("syn", "ack")
        parsed = TcpHeader.parse(header.pack())
        assert parsed == header

    def test_parse_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            TcpHeader.parse(b"\x00" * 3)

    @given(
        st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
        st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0x3F),
    )
    def test_round_trip_property(self, sport, dport, seq, ack, flags):
        header = TcpHeader(sport=sport, dport=dport, seq=seq, ack=ack, flags=flags)
        assert TcpHeader.parse(header.pack()) == header


def _generic(cls, **values):
    """A header built by the generic :meth:`Header.__init__` (the reference)."""
    header = cls.__new__(cls)
    Header.__init__(header, **values)
    return header


_FIELD_VALUES = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.booleans(),
    st.floats(-1e9, 1e9, allow_nan=False),
    st.integers(0, 1 << 20).map(str),
)


class TestGeneratedInit:
    """The generated per-format ``__init__`` keeps the generic semantics."""

    @pytest.mark.parametrize("cls", [TcpHeader, DccpHeader], ids=["tcp", "dccp"])
    def test_defaults(self, cls):
        expected = {spec.name: spec.default for spec in cls.FORMAT.fields}
        assert cls().to_dict() == expected == _generic(cls).to_dict()

    def test_int_coercion(self):
        header = TcpHeader(seq="17", ack=3.9, urgent_ptr=True)
        assert (header.seq, header.ack, header.urgent_ptr) == (17, 3, 1)
        assert header == _generic(TcpHeader, seq="17", ack=3.9, urgent_ptr=True)
        with pytest.raises(ValueError):
            TcpHeader(seq="x")

    def test_wraparound(self):
        for spec in TCP_FORMAT.fields:
            for value in (-1, spec.max_value + 1, 1 << 70):
                header = TcpHeader(**{spec.name: value})
                assert getattr(header, spec.name) == value & spec.max_value
                assert header == _generic(TcpHeader, **{spec.name: value})

    @pytest.mark.parametrize("cls", [TcpHeader, DccpHeader], ids=["tcp", "dccp"])
    def test_matches_generic_init(self, cls):
        names = [spec.name for spec in cls.FORMAT.fields]

        @given(st.dictionaries(st.sampled_from(names), _FIELD_VALUES))
        def check(values):
            assert cls(**values).to_dict() == _generic(cls, **values).to_dict()

        check()

    @pytest.mark.parametrize("cls", [TcpHeader, DccpHeader], ids=["tcp", "dccp"])
    def test_unknown_field_raises_key_error(self, cls):
        with pytest.raises(KeyError, match="has no field 'bogus'"):
            cls(bogus=1)
        with pytest.raises(KeyError, match="has no field 'bogus'"):
            cls(sport=1, bogus=1)

    def test_positional_arguments_rejected(self):
        with pytest.raises(TypeError):
            TcpHeader(1)
        with pytest.raises(TypeError):
            DccpHeader(1, 2)

    def test_reserved_field_names_rejected(self):
        for name in ("self", "class", "_extra"):
            with pytest.raises(HeaderDescriptionError, match="reserved"):
                parse_header_description(f"header d {{ {name}: 8; }}")

    def test_generic_init_is_not_on_the_hot_path(self):
        assert TcpHeader.__init__ is not Header.__init__
        assert DccpHeader.__init__ is not Header.__init__


class TestFlagTables:
    def test_packet_type_table_matches_bitwise_derivation(self):
        spec = TCP_FORMAT.field("flags")
        for value in range(256):
            names = [name.upper() for name in ("syn", "fin", "rst", "psh", "ack", "urg")
                     if value & spec.flag_mask(name)]
            expected = "+".join(names) if names else "NONE"
            assert tcp_packet_type(TcpHeader(flags=value)) == expected

    def test_packet_type_ignores_bits_above_the_byte(self):
        header = TcpHeader().flags_set("syn", "ack")
        header.flags |= 0x100  # direct slot writes bypass the clamp
        assert tcp_packet_type(header) == "SYN+ACK"

    def test_flag_masks_cover_every_named_bit(self):
        assert TCP_FORMAT.flag_masks == {
            ("flags", bit.name): bit.mask for bit in TCP_FORMAT.field("flags").flags
        }
        assert DCCP_FORMAT.flag_masks == {}

    @pytest.mark.parametrize("field,flag", [("flags", "bogus"), ("bogus", "syn"),
                                            ("seq", "syn")])
    def test_unknown_flag_raises_key_error(self, field, flag):
        header = TcpHeader()
        with pytest.raises(KeyError):
            header.has_flag(field, flag)
        with pytest.raises(KeyError):
            header.set_flag(field, flag)


class TestTcpTypes:
    def test_flag_names(self):
        header = TcpHeader().flags_set("syn", "ack")
        assert tcp_packet_type(header) == "SYN+ACK"

    def test_no_flags_is_none_type(self):
        assert tcp_packet_type(TcpHeader()) == "NONE"

    def test_flag_helpers(self):
        header = TcpHeader()
        header.set_flag("flags", "rst")
        assert header.has_flag("flags", "rst")
        header.set_flag("flags", "rst", on=False)
        assert not header.has_flag("flags", "rst")
        assert header.flag_names("flags") == []

    def test_valid_combo_detection(self):
        assert TcpHeader().flags_set("syn").is_valid_flag_combo
        weird = TcpHeader().flags_set("syn", "fin", "rst")
        assert not weird.is_valid_flag_combo

    def test_format_has_thirteen_fields(self):
        assert len(TCP_FORMAT.fields) == 13

    def test_checksum_immutable(self):
        assert not TCP_FORMAT.field("checksum").mutable


class TestDccpTypes:
    def test_type_round_trip(self):
        for name in DCCP_TYPES:
            header = make_dccp_header(name)
            assert dccp_packet_type(header) == name

    def test_unknown_type_name(self):
        header = DccpHeader(type=15)
        assert dccp_packet_type(header) == "UNKNOWN15"

    def test_type_setter(self):
        header = DccpHeader()
        header.packet_type = "sync"
        assert header.packet_type == "SYNC"

    def test_carries_ack(self):
        assert make_dccp_header("ACK").carries_ack
        assert not make_dccp_header("REQUEST").carries_ack
        assert not make_dccp_header("DATA").carries_ack

    def test_48bit_seq(self):
        header = make_dccp_header("DATA", seq=(1 << 48) - 1)
        assert header.seq == (1 << 48) - 1
        assert DccpHeader.parse(header.pack()) == header


class TestPacket:
    def test_size_includes_ip_overhead(self):
        packet = Packet("a", "b", "tcp", TcpHeader(), 100)
        assert packet.size_bytes == IP_HEADER_BYTES + TcpHeader().length_bytes + 100

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet("a", "b", "tcp", TcpHeader(), -1)

    def test_clone_gets_new_identity(self):
        packet = Packet("a", "b", "tcp", TcpHeader(), 10)
        copy = packet.clone()
        assert copy.packet_id != packet.packet_id
        assert copy.header == packet.header
        assert copy.header is not packet.header

    def test_reversed_swaps_addresses(self):
        packet = Packet("a", "b", "tcp", TcpHeader(), 10)
        back = packet.reversed()
        assert (back.src, back.dst) == ("b", "a")
