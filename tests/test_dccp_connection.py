"""DCCP engine: handshake, sequence windows, SYNC, CCID2, close semantics."""

import pytest

from repro.packets.packet import Packet
from repro.packets.dccp import make_dccp_header
from repro.dccpstack.variants import LINUX_3_13_DCCP, PATCHED_REQUEST_DCCP

from tests.harness import DccpPair, RecordingApp


def establish(pair, client_app=None, server_app=None, port=5001):
    server_app = server_app if server_app is not None else RecordingApp()
    pair.server.listen(port, lambda conn: server_app)
    client_app = client_app if client_app is not None else RecordingApp()
    conn = pair.client.connect("server", port, client_app)
    pair.run(until=1.0)
    return conn, client_app, server_app


class TestHandshake:
    def test_request_response_handshake(self):
        pair = DccpPair()
        conn, client_app, server_app = establish(pair)
        assert conn.state in ("PARTOPEN", "OPEN")
        assert client_app.connected

    def test_data_flows_after_handshake(self):
        pair = DccpPair()
        conn, _, server_app = establish(pair)
        conn.app_send(50_000)
        pair.run(until=3.0)
        assert server_app.bytes == 50_000
        assert conn.state == "OPEN"

    def test_request_retransmission_gives_up(self):
        pair = DccpPair()
        pair.link.ab.tap = lambda packet, pipe: None  # blackhole
        app = RecordingApp()
        conn = pair.client.connect("server", 5001, app)
        pair.run(until=60.0)
        assert conn.state == "CLOSED"
        assert app.closed_reason == "connect-timeout"

    def test_connect_to_closed_port_resets(self):
        pair = DccpPair()
        app = RecordingApp()
        conn = pair.client.connect("server", 9999, app)
        pair.run(until=2.0)
        assert conn.state == "CLOSED"


class TestRequestStateBug:
    def _inject_during_request(self, variant, packet_type, payload=0):
        pair = DccpPair(variant=variant)
        pair.server.listen(5001, lambda conn: RecordingApp())
        app = RecordingApp()
        conn = pair.client.connect("server", 5001, app)
        assert conn.state == "REQUEST"
        # forged packet with arbitrary sequence/ack numbers
        header = make_dccp_header(packet_type, sport=5001, dport=conn.local_port,
                                  seq=0xDEADBEEF, ack=0xFEEDFACE)
        conn.on_packet(Packet("server", "client", "dccp", header, payload))
        return conn

    def test_any_type_resets_in_request(self):
        for ptype in ("DATA", "ACK", "SYNC", "CLOSE", "DATAACK"):
            conn = self._inject_during_request(LINUX_3_13_DCCP, ptype)
            assert conn.state == "CLOSED", ptype
            assert conn.close_reason == "request-state-reset"

    def test_response_with_bad_ack_ignored(self):
        conn = self._inject_during_request(LINUX_3_13_DCCP, "RESPONSE")
        assert conn.state == "REQUEST"

    def test_patched_variant_validates_first(self):
        conn = self._inject_during_request(PATCHED_REQUEST_DCCP, "DATA")
        assert conn.state == "REQUEST"

    def test_patched_variant_still_accepts_valid_response(self):
        pair = DccpPair(variant=PATCHED_REQUEST_DCCP)
        conn, app, _ = establish(pair)
        assert app.connected


class TestSequenceWindows:
    def test_out_of_window_packet_triggers_sync(self):
        pair = DccpPair()
        conn, _, _ = establish(pair)
        conn.app_send(10_000)
        pair.run(until=2.0)
        before = conn.syncs_sent
        header = make_dccp_header("DATA", sport=5001, dport=conn.local_port,
                                  seq=(conn.gsr + 10_000_000) & ((1 << 48) - 1))
        conn.on_packet(Packet("server", "client", "dccp", header, 100))
        assert conn.syncs_sent == before + 1

    def test_ack_of_unsent_data_triggers_sync(self):
        pair = DccpPair()
        conn, _, _ = establish(pair)
        conn.app_send(10_000)
        pair.run(until=2.0)
        before = conn.syncs_sent
        header = make_dccp_header("ACK", sport=5001, dport=conn.local_port,
                                  seq=(conn.gsr + 1) & ((1 << 48) - 1),
                                  ack=(conn.gss + 50) & ((1 << 48) - 1))
        conn.on_packet(Packet("server", "client", "dccp", header, 0))
        assert conn.syncs_sent == before + 1

    def test_sync_rate_limited(self):
        pair = DccpPair()
        conn, _, _ = establish(pair)
        conn.app_send(10_000)
        pair.run(until=2.0)
        before = conn.syncs_sent
        for _ in range(10):
            header = make_dccp_header("DATA", sport=5001, dport=conn.local_port,
                                      seq=(conn.gsr + 10_000_000) & ((1 << 48) - 1))
            conn.on_packet(Packet("server", "client", "dccp", header, 100))
        assert conn.syncs_sent == before + 1  # one per rate-limit interval

    def test_sync_syncack_resynchronizes(self):
        pair = DccpPair()
        conn, _, server_app = establish(pair)
        conn.app_send(20_000)
        pair.run(until=2.0)
        server_conn = next(iter(pair.server.connections.values()))
        old_gsr = server_conn.gsr
        # server receives a SYNC naming a real packet of its own
        header = make_dccp_header("SYNC", sport=conn.local_port, dport=5001,
                                  seq=(conn.gss + 1) & ((1 << 48) - 1),
                                  ack=server_conn.gss & ((1 << 48) - 1))
        sent_before = server_conn.packets_sent
        server_conn.on_packet(Packet("client", "server", "dccp", header, 0))
        assert server_conn.packets_sent == sent_before + 1  # SYNCACK reply
        assert server_conn.gsr >= old_gsr


class TestCloseSemantics:
    def test_clean_close_handshake(self):
        pair = DccpPair()
        conn, client_app, server_app = establish(pair)
        conn.app_send(20_000)
        pair.run(until=2.0)
        conn.app_close()
        pair.run(until=4.0)
        assert conn.state in ("TIMEWAIT", "CLOSED")
        assert client_app.closed_reason == "closed"
        assert not client_app.reset
        assert pair.server.census() == {}

    def test_close_waits_for_send_queue(self):
        pair = DccpPair()
        conn, _, _ = establish(pair)
        # choke the link so the queue cannot drain
        pair.link.ab.tap = lambda packet, pipe: None
        conn.app_send(100_000)
        conn.app_close()
        assert conn.state in ("OPEN", "PARTOPEN")
        assert conn.close_requested
        assert conn.send_queue

    def test_close_sent_after_drain(self):
        pair = DccpPair()
        conn, _, _ = establish(pair)
        conn.app_send(5_000)
        conn.app_close()
        pair.run(until=3.0)
        assert conn.state in ("CLOSING", "TIMEWAIT", "CLOSED")

    def test_send_after_close_rejected(self):
        pair = DccpPair()
        conn, _, _ = establish(pair)
        conn.app_close()
        with pytest.raises(RuntimeError):
            conn.app_send(100)

    def test_abort_resets(self):
        pair = DccpPair()
        conn, _, _ = establish(pair)
        conn.app_abort()
        pair.run(until=2.0)
        assert conn.state == "CLOSED"
        assert pair.server.census() == {}


class TestCcid2Integration:
    def test_no_feedback_collapses_to_minimum_rate(self):
        pair = DccpPair()
        conn, _, _ = establish(pair)
        conn.app_send(100_000)
        pair.run(until=2.0)
        # blackhole the server's acks
        pair.link.ba.tap = lambda packet, pipe: None
        conn.app_send(200_000)
        pair.run(until=8.0)
        assert conn.cc.cwnd == 1
        assert conn.cc.no_feedback_events >= 1

    def test_loss_halves_window(self):
        pair = DccpPair()
        conn, _, _ = establish(pair)
        conn.app_send(50_000)
        pair.run(until=2.0)
        # drop a burst of data packets
        state = {"dropped": 0}

        def lossy(packet, pipe):
            if packet.payload_len > 0 and state["dropped"] < 5:
                state["dropped"] += 1
                return
            pipe.enqueue(packet)

        pair.link.ab.tap = lossy
        conn.app_send(200_000)
        pair.run(until=8.0)
        assert conn.cc.halvings >= 1
        assert conn.lost_total >= 5

    def test_every_packet_consumes_sequence_number(self):
        pair = DccpPair()
        conn, _, _ = establish(pair)
        gss_before = conn.gss
        sent_before = conn.packets_sent
        conn.app_send(conn.mss * 3)
        pair.run(until=2.0)
        assert conn.gss - gss_before == conn.packets_sent - sent_before


def _per_packet_ack_progress(cc, newly_delivered):
    """CCID 2's window growth applied one delivered packet at a time."""
    for _ in range(max(0, newly_delivered)):
        if cc.cwnd < cc.ssthresh:
            cc.cwnd += 1
        else:
            cc._avoidance_accum += 1
            if cc._avoidance_accum >= cc.cwnd:
                cc._avoidance_accum = 0
                cc.cwnd += 1


class TestCcid2AckProgress:
    """``on_ack_progress`` computes in closed form what per-packet growth
    computes, so a forged delivery count of billions costs O(1)."""

    def test_closed_form_matches_per_packet_growth(self):
        import random

        from repro.dccpstack.ccid2 import Ccid2

        rng = random.Random(2015)
        for _ in range(3000):
            closed, reference = Ccid2(), Ccid2()
            cwnd = rng.randint(1, 300)
            ssthresh = rng.choice([2.0, 2.5, 64.0, cwnd / 2.0, cwnd + 0.5,
                                   float(rng.randint(2, 400))])
            accum = rng.randint(0, cwnd - 1)
            for cc in (closed, reference):
                cc.cwnd, cc.ssthresh, cc._avoidance_accum = cwnd, ssthresh, accum
            newly = rng.choice([-3, 0, 1, 2, rng.randint(0, 50), rng.randint(0, 5000),
                                rng.randint(0, 200_000)])
            closed.on_ack_progress(newly)
            _per_packet_ack_progress(reference, newly)
            assert (closed.cwnd, closed._avoidance_accum) == \
                (reference.cwnd, reference._avoidance_accum), (cwnd, ssthresh, accum, newly)

    def test_forged_huge_count_is_cheap(self):
        from repro.dccpstack.ccid2 import Ccid2

        cc = Ccid2()
        cc.on_ack_progress(2**31 - 1)
        # slow start to 64, then ~sqrt(2 * 2**31) further increments
        assert 65_000 < cc.cwnd < 66_000
        assert 0 <= cc._avoidance_accum < cc.cwnd
