"""Snapshot/fork engine: fork-vs-full equivalence, elision, the
determinism guard, cache eviction/corruption, journal comparison, and the
simulator/header support surfaces the engine leans on."""

import base64

import pytest

from repro.core.checkpoint import CheckpointJournal
from repro.core.executor import Executor, RunResult, TestbedConfig
from repro.core.generation import prefix_sort_key, snapshot_descriptor
from repro.core.strategy import Strategy
from repro.fabric.store import store_for
from repro.netsim.chaos import ChaosConfig
from repro.netsim.simulator import Simulator
from repro.obs.config import ObsConfig, configure_observability
from repro.obs.metrics import METRICS
from repro.packets.dccp import DCCP_FORMAT, make_dccp_header
from repro.packets.tcp import TCP_FORMAT, make_tcp_header
from repro.snap import SnapshotConfig, execute_run, reset_engine
from repro.snap.compare import compare_journals
from repro.snap.engine import SnapshotEngine, comparable_result
from repro.snap.keys import SNAP_VERSION, SNAPSHOT_NAMESPACE, prefix_fingerprint, run_key

#: short enough to keep the suite fast, long enough to cover the target
#: connection's full lifetime (teardown lands around t=3)
TCP_CONFIG = TestbedConfig(duration=3.5)
DCCP_CONFIG = TestbedConfig(protocol="dccp", variant="linux-3.13-dccp",
                            duration=3.0, dccp_client_stop_at=2.0)

#: forking is worth testing even on tiny prefixes
SNAP = SnapshotConfig(enabled=True, verify_fraction=0.0, min_events=0)


def _packet(sid=9001, action="drop", state="ESTABLISHED", ptype="ACK",
            protocol="tcp", **params):
    if action == "drop" and not params:
        params = {"percent": 100}
    return Strategy(sid, protocol, "packet", state=state, packet_type=ptype,
                    action=action, params=params)


def _inject(sid=9002, trigger=("state", "client", "FIN_WAIT_1"), count=3):
    return Strategy(sid, "tcp", "inject", params={
        "src": "server1", "dst": "client1", "sport": 80, "dport": 40000,
        "packet_type": "RST", "fields": {}, "count": count, "interval": 0.01,
        "payload_len": 0, "trigger": trigger,
    })


@pytest.fixture
def metrics():
    configure_observability(ObsConfig(metrics=True))
    METRICS.reset()
    yield METRICS
    configure_observability(None)
    METRICS.reset()


@pytest.fixture(scope="module")
def tcp_engine():
    # shared across equality tests so the scout runs once per module
    return SnapshotEngine(SNAP)


def _assert_fork_equals_full(engine, config, strategy, seed=None):
    forked = engine.execute(config, strategy, seed)
    assert forked is not None, "engine should have served this strategy"
    full = Executor(config).run(strategy, seed=seed)
    assert comparable_result(forked) == comparable_result(full)
    return forked


class TestSnapshotConfig:
    def test_defaults_disabled(self):
        assert SnapshotConfig().enabled is False

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_verify_fraction_bounds(self, fraction):
        with pytest.raises(ValueError, match="verify_fraction"):
            SnapshotConfig(verify_fraction=fraction)

    def test_max_cached_bounds(self):
        with pytest.raises(ValueError, match="max_cached"):
            SnapshotConfig(max_cached=0)

    def test_min_events_bounds(self):
        with pytest.raises(ValueError, match="min_events"):
            SnapshotConfig(min_events=-1)


class TestDescriptors:
    def test_baseline_is_ineligible(self):
        assert snapshot_descriptor(None) is None

    def test_packet_strategy_keys_on_pair(self):
        assert snapshot_descriptor(_packet()) == ("pair", "ESTABLISHED", "ACK")

    def test_state_triggered_inject_keys_on_state(self):
        descriptor = snapshot_descriptor(_inject())
        assert descriptor == ("state", "client", "FIN_WAIT_1")

    def test_time_triggered_inject_is_ineligible(self):
        assert snapshot_descriptor(_inject(trigger=("time", 1.5))) is None

    def test_sort_key_clusters_shared_prefixes(self):
        a, b = _packet(1, action="drop"), _packet(2, action="duplicate")
        assert prefix_sort_key(a) == prefix_sort_key(b)

    def test_sort_key_puts_ineligible_last(self):
        eligible = prefix_sort_key(_packet())
        for ineligible in (None, _inject(trigger=("time", 1.5))):
            assert eligible < prefix_sort_key(ineligible)


class TestKeys:
    def test_fingerprint_is_stable(self):
        descriptor = ("pair", "ESTABLISHED", "ACK")
        assert (prefix_fingerprint(TCP_CONFIG, None, descriptor)
                == prefix_fingerprint(TCP_CONFIG, None, descriptor))

    def test_fingerprint_covers_descriptor_seed_and_config(self):
        descriptor = ("pair", "ESTABLISHED", "ACK")
        base = prefix_fingerprint(TCP_CONFIG, None, descriptor)
        assert base != prefix_fingerprint(TCP_CONFIG, None, ("state", "client", "FIN_WAIT_1"))
        assert base != prefix_fingerprint(TCP_CONFIG, 123, descriptor)
        assert base != prefix_fingerprint(TestbedConfig(duration=4.0), None, descriptor)

    def test_default_seed_comes_from_config(self):
        descriptor = ("pair", "ESTABLISHED", "ACK")
        assert (prefix_fingerprint(TCP_CONFIG, None, descriptor)
                == prefix_fingerprint(TCP_CONFIG, TCP_CONFIG.seed, descriptor))

    def test_run_key_ignores_descriptor_but_not_seed(self):
        assert run_key(TCP_CONFIG, None) == run_key(TCP_CONFIG, TCP_CONFIG.seed)
        assert run_key(TCP_CONFIG, None) != run_key(TCP_CONFIG, 123)


class TestExecuteRunGate:
    """The per-process entry point refuses before touching a simulator."""

    def setup_method(self):
        reset_engine()

    def teardown_method(self):
        reset_engine()

    def test_disabled_config_runs_in_full(self):
        assert execute_run(TCP_CONFIG, _packet(), None, 0, SnapshotConfig()) is None

    def test_missing_config_runs_in_full(self):
        assert execute_run(TCP_CONFIG, _packet(), None, 0, None) is None

    def test_baseline_runs_in_full(self):
        assert execute_run(TCP_CONFIG, None, None, 0, SNAP) is None

    def test_retry_attempts_run_in_full(self):
        assert execute_run(TCP_CONFIG, _packet(), None, 1, SNAP) is None


class TestForkEquivalence:
    """A forked RunResult must be indistinguishable from a full run's."""

    def test_packet_strategy(self, tcp_engine):
        _assert_fork_equals_full(tcp_engine, TCP_CONFIG, _packet())

    def test_state_triggered_inject(self, tcp_engine):
        _assert_fork_equals_full(tcp_engine, TCP_CONFIG, _inject())

    def test_shared_prefix_is_reused(self, tcp_engine, metrics):
        # same (pair) descriptor as test_packet_strategy's strategy: the
        # second action forks from the snapshot the first one built
        _assert_fork_equals_full(tcp_engine, TCP_CONFIG, _packet(9005, action="duplicate"))
        counters = metrics.snapshot()["counters"]
        assert counters.get("snap.hits", 0) >= 1
        assert counters.get("snap.forks", 0) >= 1

    def test_dccp_packet_strategy(self):
        engine = SnapshotEngine(SNAP)
        strategy = _packet(9101, protocol="dccp", state="OPEN", ptype="DATAACK")
        _assert_fork_equals_full(engine, DCCP_CONFIG, strategy)

    def test_under_chaos_noise(self):
        # the snapshot captures the simulator RNG, so even probabilistic
        # chaos decisions replay identically on the forked tail
        config = TestbedConfig(duration=3.5, chaos=ChaosConfig(
            drop=0.05, delay=0.1, max_delay=0.02, reorder=0.05))
        _assert_fork_equals_full(SnapshotEngine(SNAP), config, _packet())

    def test_variant_and_seed(self):
        config = TestbedConfig(duration=3.5, variant="linux-3.0.0", seed=123)
        _assert_fork_equals_full(SnapshotEngine(SNAP), config, _inject(), seed=123)


class TestElisionAndEligibility:
    def test_unreachable_trigger_elides_to_scout_result(self, tcp_engine, metrics):
        # a simultaneous-close state the baseline never enters: an armed run
        # is provably the plain run, so no simulation happens at all
        strategy = _inject(9003, trigger=("state", "client", "CLOSING"))
        elided = tcp_engine.execute(TCP_CONFIG, strategy, None)
        assert elided is not None
        assert elided.strategy_id == strategy.strategy_id
        assert metrics.snapshot()["counters"].get("snap.elided", 0) == 1
        full = Executor(TCP_CONFIG).run(strategy)
        assert comparable_result(elided) == comparable_result(full)

    def test_build_time_trigger_runs_in_full(self, tcp_engine):
        # the client sends its SYN synchronously during world construction,
        # so SYN_SENT predates event 0 — no snapshot boundary can front it
        strategy = _inject(9004, trigger=("state", "client", "SYN_SENT"))
        assert tcp_engine.execute(TCP_CONFIG, strategy, None) is None

    def test_short_prefixes_run_in_full(self, tcp_engine):
        engine = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=0.0,
                                               min_events=10 ** 9))
        engine._scouts = tcp_engine._scouts  # reuse the module's scout
        assert engine.execute(TCP_CONFIG, _packet(), None) is None


class TestDeterminismGuard:
    def test_sampling_is_deterministic(self):
        engine = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=0.5))
        verdicts = {engine._should_verify("fp", _packet()) for _ in range(5)}
        assert len(verdicts) == 1
        assert not SnapshotEngine(SNAP)._should_verify("fp", _packet())
        always = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=1.0))
        assert always._should_verify("fp", _packet())

    def test_divergence_poisons_prefix(self, metrics, monkeypatch):
        engine = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=1.0,
                                               min_events=0))
        real_fork = SnapshotEngine._fork

        def corrupted_fork(self, config, strategy, snapshot, boundary):
            result = real_fork(self, config, strategy, snapshot, boundary)
            result.target_bytes += 1
            return result

        monkeypatch.setattr(SnapshotEngine, "_fork", corrupted_fork)
        strategy = _packet()
        guarded = engine.execute(TCP_CONFIG, strategy, None)
        # the guard catches the divergence and returns its own full run
        full = Executor(TCP_CONFIG).run(strategy)
        assert comparable_result(guarded) == comparable_result(full)
        assert metrics.snapshot()["counters"].get("snap.divergence", 0) == 1
        fingerprint = prefix_fingerprint(TCP_CONFIG, None, snapshot_descriptor(strategy))
        assert fingerprint in engine._poisoned
        # the poisoned prefix is permanently demoted to full execution
        assert engine.execute(TCP_CONFIG, strategy, None) is None


class TestSnapshotCache:
    def test_lru_eviction_respects_max_cached(self):
        engine = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=0.0,
                                               min_events=0, max_cached=1))
        engine.execute(TCP_CONFIG, _packet(), None)
        engine.execute(TCP_CONFIG, _inject(), None)
        assert len(engine._lru) == 1
        survivor = next(iter(engine._lru))
        assert set(engine._boundaries) == {survivor}
        for entries in engine._by_run.values():
            assert all(fp == survivor for _boundary, fp in entries)

    def test_persistent_store_round_trip(self, tmp_path, metrics):
        store_path = str(tmp_path / "store")
        snap = SnapshotConfig(enabled=True, verify_fraction=0.0, min_events=0,
                              store=store_path)
        first = SnapshotEngine(snap).execute(TCP_CONFIG, _packet(), None)
        assert first is not None
        fingerprint = prefix_fingerprint(TCP_CONFIG, None,
                                         snapshot_descriptor(_packet()))
        record = store_for(store_path).get(SNAPSHOT_NAMESPACE, fingerprint)
        assert record is not None
        assert record["snap"] == SNAP_VERSION
        assert record["boundary"] > 0

        METRICS.reset()
        second = SnapshotEngine(snap).execute(TCP_CONFIG, _packet(), None)
        counters = metrics.snapshot()["counters"]
        # the fresh engine hydrated from the store instead of rebuilding
        assert counters.get("snap.builds", 0) == 0
        assert comparable_result(second) == comparable_result(first)

    def test_corrupt_store_record_is_dropped_and_rebuilt(self, tmp_path, metrics):
        store_path = str(tmp_path / "store")
        snap = SnapshotConfig(enabled=True, verify_fraction=0.0, min_events=0,
                              store=store_path)
        first = SnapshotEngine(snap).execute(TCP_CONFIG, _packet(), None)
        fingerprint = prefix_fingerprint(TCP_CONFIG, None,
                                         snapshot_descriptor(_packet()))
        store = store_for(store_path)
        record = store.get(SNAPSHOT_NAMESPACE, fingerprint)
        store.delete(SNAPSHOT_NAMESPACE, fingerprint)
        store.put_if_absent(SNAPSHOT_NAMESPACE, fingerprint, {
            "snap": SNAP_VERSION, "fingerprint": fingerprint,
            "boundary": record["boundary"],
            "blob": base64.b64encode(b"not a pickled world").decode("ascii"),
        })

        METRICS.reset()
        recovered = SnapshotEngine(snap).execute(TCP_CONFIG, _packet(), None)
        counters = metrics.snapshot()["counters"]
        assert counters.get("snap.store_errors", 0) >= 1
        assert counters.get("snap.builds", 0) == 1  # rebuilt locally
        assert comparable_result(recovered) == comparable_result(first)
        # the rebuild re-published a good record over the corrupt one
        fresh = store.get(SNAPSHOT_NAMESPACE, fingerprint)
        assert fresh is not None and fresh["blob"] != record["blob"]

    def test_stale_version_record_is_rejected(self, tmp_path, metrics):
        store_path = str(tmp_path / "store")
        snap = SnapshotConfig(enabled=True, verify_fraction=0.0, min_events=0,
                              store=store_path)
        fingerprint = prefix_fingerprint(TCP_CONFIG, None,
                                         snapshot_descriptor(_packet()))
        store = store_for(store_path)
        store.put_if_absent(SNAPSHOT_NAMESPACE, fingerprint, {
            "snap": SNAP_VERSION + 1, "fingerprint": fingerprint,
            "boundary": 1, "blob": "AAAA",
        })
        result = SnapshotEngine(snap).execute(TCP_CONFIG, _packet(), None)
        assert result is not None
        assert metrics.snapshot()["counters"].get("snap.store_errors", 0) >= 1

        # a previous-version record holds an older heap entry shape: even
        # with a blob that unpickles cleanly at the right boundary it must
        # be rebuilt
        record = store.get(SNAPSHOT_NAMESPACE, fingerprint)
        assert record is not None and record["snap"] == SNAP_VERSION
        store.delete(SNAPSHOT_NAMESPACE, fingerprint)
        store.put_if_absent(SNAPSHOT_NAMESPACE, fingerprint,
                            dict(record, snap=SNAP_VERSION - 1))
        METRICS.reset()
        rebuilt = SnapshotEngine(snap).execute(TCP_CONFIG, _packet(), None)
        counters = metrics.snapshot()["counters"]
        assert counters.get("snap.store_errors", 0) >= 1
        assert counters.get("snap.builds", 0) == 1
        assert comparable_result(rebuilt) == comparable_result(result)
        assert store.get(SNAPSHOT_NAMESPACE, fingerprint)["snap"] == SNAP_VERSION


def _outcome(sid, **overrides):
    fields = dict(strategy_id=sid, protocol="tcp", variant="linux-3.13",
                  duration=3.5, target_bytes=1000, events_processed=500,
                  wall_seconds=1.0, run_id=f"sweep-{sid}-a0")
    fields.update(overrides)
    return RunResult(**fields)


def _write_journal(path, outcomes):
    journal = CheckpointJournal(str(path)).open()
    for outcome in outcomes:
        journal.record("sweep", outcome)
    journal.close()
    return str(path)


class TestCompareJournals:
    def test_identical_modulo_volatile_fields(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [_outcome(1), _outcome(2)])
        b = _write_journal(tmp_path / "b.jsonl", [
            _outcome(2, wall_seconds=9.9, run_id="sweep-2-a1"),  # reordered too
            _outcome(1, wall_seconds=0.1),
        ])
        identical, report = compare_journals(a, b)
        assert identical
        assert "2 outcome(s) identical" in report

    def test_field_divergence_is_reported(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [_outcome(1)])
        b = _write_journal(tmp_path / "b.jsonl", [_outcome(1, target_bytes=999)])
        identical, report = compare_journals(a, b)
        assert not identical
        assert "diverged" in report and "target_bytes" in report

    def test_attempts_are_not_stripped(self, tmp_path):
        # snapshotting must not change retry behaviour, so attempt counts
        # participate in the contract
        a = _write_journal(tmp_path / "a.jsonl", [_outcome(1)])
        b = _write_journal(tmp_path / "b.jsonl", [_outcome(1, attempts=2)])
        identical, report = compare_journals(a, b)
        assert not identical
        assert "attempts" in report

    def test_missing_outcomes_are_reported(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [_outcome(1), _outcome(2)])
        b = _write_journal(tmp_path / "b.jsonl", [_outcome(1)])
        identical, report = compare_journals(a, b)
        assert not identical
        assert "only in" in report and "strategy=2" in report


class TestSimulatorPauseAndCompaction:
    """The scheduler features the snapshot engine is built on."""

    def test_stop_after_events_pauses_cleanly(self):
        sim = Simulator()
        fired = []
        for index in range(10):
            sim.schedule(0.1 * (index + 1), fired.append, index)
        sim.run(until=10.0, stop_after_events=3)
        assert fired == [0, 1, 2]
        assert sim.events_processed == 3
        assert sim.truncated is None  # a pause is not a watchdog truncation
        sim.run(until=10.0)
        assert fired == list(range(10))

    def test_heap_compaction_drops_stale_handles(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1.0 + 0.001 * index, fired.append, index)
                   for index in range(300)]
        for handle in handles[:250]:
            handle.cancel()
        # mass cancellation triggered at least one compaction pass
        assert len(sim._heap) < 300
        assert sim._stale < 250
        sim.run(until=2.0)
        assert fired == list(range(250, 300))

    def test_cancel_is_idempotent_for_stale_accounting(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        stale = sim._stale
        handle.cancel()
        assert sim._stale == stale


class TestHeaderWirePlan:
    @pytest.mark.parametrize("fmt", [TCP_FORMAT, DCCP_FORMAT],
                             ids=lambda fmt: fmt.name)
    def test_plan_matches_field_specs(self, fmt):
        assert [name for name, _shift, _mask in fmt.wire_plan] == \
            [spec.name for spec in fmt.fields]
        shift = fmt.total_bits
        for (name, plan_shift, plan_mask), spec in zip(fmt.wire_plan, fmt.fields):
            shift -= spec.width
            assert plan_shift == shift
            assert plan_mask == spec.max_value

    def test_tcp_round_trip(self):
        header = make_tcp_header(sport=40000, dport=80, seq=0x12345678,
                                 ack=0x1ABCDEF0, window=65535).flags_set("syn", "ack")
        parsed = type(header).parse(header.pack())
        for name, _shift, _mask in TCP_FORMAT.wire_plan:
            assert getattr(parsed, name) == getattr(header, name)

    def test_dccp_round_trip(self):
        header = make_dccp_header("REQUEST", sport=40000, dport=80, seq=0xABCDEF)
        parsed = type(header).parse(header.pack())
        for name, _shift, _mask in DCCP_FORMAT.wire_plan:
            assert getattr(parsed, name) == getattr(header, name)
