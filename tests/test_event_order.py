"""Golden event order of the default baselines.

A baseline run is a fixed sequence of scheduler events.  These tests pin,
for the default 10 s ``linux-3.13`` TCP testbed and the ``linux-3.13-dccp``
testbed, how many events the run fires and a SHA-256 digest of the fired
``(time, callback __qualname__)`` sequence.  Any change to the scheduler,
the links or the stacks that adds, drops or reorders a single event fails
here, before it can shift a campaign's outcome digests or the event
ordinals snapshot boundaries are defined by.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.executor import Executor, TestbedConfig
from repro.netsim.simulator import Simulator

#: (events_processed, digest of the fired sequence) per baseline
GOLDEN = {
    "tcp": (40631, "4c353a58d3da132203eaa6ae4929730986107e904223cca3688f1474cfe98765"),
    "dccp": (31022, "3a0148dad0101b58e3984d9560c06617b374aa731364c618c45f39ed74aa7b1f"),
}

CONFIGS = {
    "tcp": TestbedConfig(),
    "dccp": TestbedConfig(protocol="dccp", variant="linux-3.13-dccp"),
}


def _qualname(fn) -> str:
    return getattr(fn, "__qualname__", type(fn).__qualname__)


def fired_sequence(config: TestbedConfig, monkeypatch) -> tuple:
    """Run one baseline and return ``(events_processed, fired)``.

    Every callback is wrapped at scheduling time so it logs ``(sim.now,
    qualname)`` when it fires; the wrapping changes no event's time or
    sequence number.  All three entry points are wrapped: ``schedule`` and
    ``schedule_at`` (cancellable, with a handle) and ``call_at`` (the
    links' handle-free per-hop events), so every fired event is logged.
    """
    fired = []

    def wrap(sim, fn):
        if getattr(fn, "_golden_wrapped", False):
            return fn
        name = _qualname(fn)

        def fire(*args):
            fired.append((sim.now, name))
            return fn(*args)

        fire._golden_wrapped = True
        return fire

    for entry in ("schedule", "schedule_at", "call_at"):
        original = getattr(Simulator, entry)
        monkeypatch.setattr(
            Simulator, entry,
            lambda sim, when, fn, *args, _original=original:
                _original(sim, when, wrap(sim, fn), *args),
        )
    world = Executor(config).build_world(None, None)
    world.sim.run(until=config.duration)
    return world.sim.events_processed, fired


def sequence_digest(fired) -> str:
    text = "\n".join(f"{at!r} {name}" for at, name in fired)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("protocol", sorted(CONFIGS))
def test_baseline_event_order_is_pinned(protocol, monkeypatch):
    events, fired = fired_sequence(CONFIGS[protocol], monkeypatch)
    assert len(fired) == events
    assert (events, sequence_digest(fired)) == GOLDEN[protocol]
