"""CCID 2: TCP-like congestion control for DCCP (RFC 4341).

The window is counted in packets (DCCP sequence numbers are per-packet).
Real CCID 2 learns exactly which packets arrived from the Ack Vector option;
our receiver reports the same information as an aggregate delivered-packet
counter carried in the acknowledgment (see
:class:`~repro.dccpstack.connection.DccpConnection`), from which the sender
infers new losses and halves its window at most once per congestion event.

DCCP never retransmits data, so there is no RTO in the TCP sense; instead a
*no-feedback timer* fires when acknowledgments stop arriving, collapsing the
window to one packet and backing off exponentially — this is the "minimum
rate" the paper's Acknowledgment Mung attack pins a sender at.
"""

from __future__ import annotations

import math


class Ccid2:
    """TCP-like window management on packet counts."""

    INITIAL_SSTHRESH_PACKETS = 64

    def __init__(self, initial_cwnd: int = 3):
        self.cwnd = max(1, initial_cwnd)
        self.ssthresh: float = float(self.INITIAL_SSTHRESH_PACKETS)
        self._avoidance_accum = 0
        #: sender-side index of the newest packet covered by the last
        #: congestion event (at most one halving per window of data)
        self._recovery_until = -1
        self.halvings = 0
        self.no_feedback_events = 0

    # ------------------------------------------------------------------
    def on_ack_progress(self, newly_delivered: int) -> None:
        """``newly_delivered`` packets were newly reported as received.

        Per delivered packet, slow start grows the window by one packet
        while it is below ``ssthresh``; congestion avoidance counts packets
        and grows it by one per window's worth.  The result is computed in
        closed form, not packet by packet, because the count comes off the
        wire: a forged acknowledgment can report billions of deliveries.
        """
        remaining = max(0, newly_delivered)
        cwnd = self.cwnd
        if cwnd < self.ssthresh:
            grown = min(remaining, math.ceil(self.ssthresh) - cwnd)
            cwnd += grown
            remaining -= grown
        if remaining:
            accum = self._avoidance_accum
            first = max(1, cwnd - accum)  # packets that complete this window
            if remaining < first:
                accum += remaining
            else:
                remaining -= first
                cwnd += 1
                # each further increment costs the window it grows from:
                # the largest k with k * cwnd + k * (k - 1) / 2 <= remaining
                b = 2 * cwnd - 1
                k = (math.isqrt(b * b + 8 * remaining) - b) // 2
                remaining -= k * cwnd + k * (k - 1) // 2
                cwnd += k
                accum = remaining
            self._avoidance_accum = accum
        self.cwnd = cwnd

    def on_loss(self, highest_sent_index: int, loss_index: int) -> None:
        """New loss detected at ``loss_index`` (sender packet index)."""
        if loss_index <= self._recovery_until:
            return  # same congestion event
        self.halvings += 1
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = max(1, self.cwnd // 2)
        self._recovery_until = highest_sent_index
        self._avoidance_accum = 0

    def on_no_feedback(self) -> None:
        """The no-feedback timer fired: collapse to the minimum rate."""
        self.no_feedback_events += 1
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1
        self._recovery_until = -1
        self._avoidance_accum = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Ccid2 cwnd={self.cwnd} ssthresh={self.ssthresh:.1f}>"
