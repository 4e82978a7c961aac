"""Snapshot/fork engine: amortize shared simulation prefixes across a sweep.

Every strategy in a sweep replays an identical prefix (connection handshake
and throughput ramp) before its trigger state first becomes reachable.  The
snapshot engine runs that prefix once, pickles the paused simulator
world, and forks thousands of attack tails by unpickling it — guarded by
a determinism contract that executes a configurable fraction of forked
runs in full and disables the prefix on any divergence.  It is on by
default and engaged by the sweep stage only.

See ``docs/performance.md`` for the prefix-fingerprint contract and the
list of state deliberately excluded from snapshots.
"""

from repro.snap.config import SnapshotConfig
from repro.snap.engine import SnapshotEngine, execute_run, reset_engine
from repro.snap.keys import SNAP_VERSION, prefix_fingerprint

__all__ = [
    "SNAP_VERSION",
    "SnapshotConfig",
    "SnapshotEngine",
    "execute_run",
    "prefix_fingerprint",
    "reset_engine",
]
