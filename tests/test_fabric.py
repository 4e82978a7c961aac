"""The crash-safe distributed campaign fabric: artifact stores, TTL work
leases, exactly-once result accounting, and distributed campaigns that
survive SIGKILLed workers.

The expensive end-to-end checks pin the fabric's contract: a campaign
swept by crash-prone workers produces byte-identical accounting to a
plain single-process run — every result exactly once, reclaims and
duplicate commits visible in the ``fabric.*`` counters, never in the
journal.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import CampaignSpec, run_campaign
from repro.cli import main
from repro.core.cache import RunCache, run_fingerprint
from repro.core.checkpoint import CheckpointJournal
from repro.core.executor import RunError, RunResult, TestbedConfig
from repro.core.strategy import Strategy
from repro.fabric import (
    CampaignScopedStore,
    LeaseQueue,
    LocalDirStore,
    MemoryStore,
    ResultLedger,
    SQLiteStore,
    StoreCorrupt,
    load_campaign_index,
    register_campaign,
    store_for,
    unit_fingerprint,
    update_campaign,
)
from repro.fabric.config import FabricConfig
from repro.fabric.coordinator import campaign_id_for
from repro.fabric.leases import NS_LEASES, NS_UNITS
from repro.fabric.store import FAULT_ENV, _TORN_NAMESPACES
from repro.fabric.worker import decode_strategy, encode_strategy
from repro.obs.config import ObsConfig, configure_observability
from repro.obs.metrics import METRICS

FAST = dict(duration=0.5, file_size=200_000)


def _strategy(sid, percent=50):
    return Strategy(sid, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                    action="drop", params={"percent": percent})


def _result(sid=1, **kwargs):
    defaults = dict(strategy_id=sid, protocol="tcp", variant="linux-3.13",
                    duration=10.0, target_bytes=1234)
    defaults.update(kwargs)
    return RunResult(**defaults)


@pytest.fixture(params=["dir", "sqlite"])
def store(request, tmp_path):
    if request.param == "dir":
        backend = LocalDirStore(str(tmp_path / "store"))
    else:
        backend = SQLiteStore(str(tmp_path / "store.db"))
    yield backend
    backend.close()


@pytest.fixture
def metrics():
    configure_observability(ObsConfig(metrics=True))
    METRICS.reset()
    yield METRICS
    configure_observability(None)
    METRICS.reset()


class TestArtifactStore:
    def test_get_absent_is_none(self, store):
        assert store.get("ns", "missing") is None

    def test_put_get_roundtrip(self, store):
        store.put("ns", "k", {"a": 1, "b": [1, 2]})
        assert store.get("ns", "k") == {"a": 1, "b": [1, 2]}
        store.put("ns", "k", {"a": 2})  # last writer wins
        assert store.get("ns", "k") == {"a": 2}

    def test_namespaces_are_disjoint(self, store):
        store.put("one", "k", {"v": 1})
        store.put("two", "k", {"v": 2})
        assert store.get("one", "k") == {"v": 1}
        assert store.get("two", "k") == {"v": 2}
        assert store.keys("one") == ["k"] and store.count("two") == 1

    def test_put_if_absent_single_winner(self, store):
        assert store.put_if_absent("ns", "k", {"winner": "first"}) is True
        assert store.put_if_absent("ns", "k", {"winner": "second"}) is False
        assert store.get("ns", "k") == {"winner": "first"}

    def test_update_creates_and_transitions(self, store):
        out = store.update("ns", "k", lambda cur: {"n": 0} if cur is None else None)
        assert out == {"n": 0}
        out = store.update("ns", "k", lambda cur: {"n": cur["n"] + 1})
        assert out == {"n": 1} and store.get("ns", "k") == {"n": 1}

    def test_update_returning_none_leaves_store_untouched(self, store):
        store.put("ns", "k", {"n": 5})
        out = store.update("ns", "k", lambda cur: None)
        assert out == {"n": 5}
        assert store.get("ns", "k") == {"n": 5}

    def test_delete_reports_who_deleted(self, store):
        store.put("ns", "k", {"v": 1})
        assert store.delete("ns", "k") is True
        assert store.delete("ns", "k") is False  # never raises on a miss
        assert store.get("ns", "k") is None

    def test_keys_sorted(self, store):
        for key in ("bb", "aa", "cc"):
            store.put("ns", key, {})
        assert store.keys("ns") == ["aa", "bb", "cc"]
        assert store.count("ns") == 3

    def test_corrupt_document_raises_store_corrupt(self, store, tmp_path):
        store.put("ns", "k", {"v": 1})
        if isinstance(store, LocalDirStore):
            with open(store.path_for("ns", "k"), "w") as fh:
                fh.write('{"v": tor')
        else:
            with store._lock:
                store._conn.execute(
                    "UPDATE artifacts SET payload='{\"v\": tor' WHERE ns='ns' AND key='k'")
        with pytest.raises(StoreCorrupt):
            store.get("ns", "k")
        # update() treats the torn record as absent so it stays writable
        out = store.update("ns", "k", lambda cur: {"healed": cur is None})
        assert out == {"healed": True}

    def test_torn_write_fault_fires_once_per_namespace(self, store, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "fabric-torn-write:victim")
        _TORN_NAMESPACES.discard("victim")
        try:
            store.put("victim", "k", {"payload": "x" * 64})
            with pytest.raises(StoreCorrupt):
                store.get("victim", "k")
            store.put("victim", "k", {"payload": "x" * 64})  # fault already spent
            assert store.get("victim", "k") == {"payload": "x" * 64}
            store.put("other", "k", {"v": 1})  # other namespaces untouched
            assert store.get("other", "k") == {"v": 1}
        finally:
            _TORN_NAMESPACES.discard("victim")


class TestStoreFor:
    def test_url_schemes_dispatch(self, tmp_path):
        backend = store_for("dir://" + str(tmp_path / "plain"))
        assert isinstance(backend, LocalDirStore)
        backend.close()
        backend = store_for("sqlite://" + str(tmp_path / "odd-extension"))
        assert isinstance(backend, SQLiteStore)
        backend.close()
        backend = store_for("memory://scheme-test")
        try:
            assert isinstance(backend, MemoryStore)
            # the name is an address: same name, same store
            backend.put("ns", "k", {"v": 1})
            assert store_for("memory://scheme-test").get("ns", "k") == {"v": 1}
        finally:
            MemoryStore.reset_registry()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            store_for("redis://somewhere")

    def test_bare_paths_still_work_but_warn(self, tmp_path):
        with pytest.warns(DeprecationWarning, match="dir://"):
            assert isinstance(store_for(str(tmp_path / "plain")), LocalDirStore)
        for name in ("s.db", "s.sqlite", "s.sqlite3"):
            with pytest.warns(DeprecationWarning):
                backend = store_for(str(tmp_path / name))
            assert isinstance(backend, SQLiteStore)
            backend.close()
        with pytest.warns(DeprecationWarning):
            backend = store_for("sqlite:" + str(tmp_path / "odd-extension"))
        assert isinstance(backend, SQLiteStore)
        backend.close()


class TestMultiCampaignLayout:
    def test_scoped_store_prefixes_every_namespace(self, store):
        view = CampaignScopedStore(store, "abc123")
        view.put("leases", "u1", {"state": "pending"})
        assert store.get("campaigns/abc123/leases", "u1") == {"state": "pending"}
        assert view.get("leases", "u1") == {"state": "pending"}
        assert view.keys("leases") == ["u1"] and view.count("leases") == 1
        # campaigns cannot see each other's records
        other = CampaignScopedStore(store, "def456")
        assert other.get("leases", "u1") is None
        # every view is a campaign scope: there is no unscoped one
        with pytest.raises(ValueError):
            CampaignScopedStore(store, "")

    def test_campaign_index_roundtrip(self, store):
        record = {"campaign_id": "abc", "tenant": "alice", "status": "running"}
        assert register_campaign(store, "abc", record) is True
        assert register_campaign(store, "abc", {"status": "other"}) is False
        update_campaign(store, "abc", status="complete")
        index = load_campaign_index(store)
        assert index["abc"]["status"] == "complete"
        assert index["abc"]["tenant"] == "alice"
        assert index["abc"]["updated_at"] > 0


def _unit(unit_id="u1", n=2):
    return {
        "unit_id": unit_id,
        "stage": "sweep",
        "seed": 7,
        "slots": [{"fingerprint": f"fp{i}", "strategy": None} for i in range(n)],
    }


class TestLeaseQueue:
    def test_enqueue_is_idempotent(self, store):
        queue = LeaseQueue(store, ttl=5.0)
        assert queue.enqueue(_unit()) is True
        assert queue.enqueue(_unit()) is False
        assert store.count(NS_UNITS) == 1 and store.count(NS_LEASES) == 1

    def test_claim_is_exclusive_until_complete(self, store):
        queue = LeaseQueue(store, ttl=5.0)
        queue.enqueue(_unit())
        unit = queue.claim("alice")
        assert unit["unit_id"] == "u1"
        assert queue.claim("bob") is None  # live lease: not claimable
        queue.complete("u1", "alice")
        assert queue.claim("bob") is None  # done: never claimable again
        assert queue.all_done()

    def test_expired_lease_is_reclaimed(self, store):
        queue = LeaseQueue(store, ttl=0.1)
        queue.enqueue(_unit())
        assert queue.claim("alice") is not None
        time.sleep(0.15)
        unit = queue.claim("bob")  # alice was SIGKILLed, say
        assert unit is not None
        assert queue.counters["reclaimed"] == 1
        assert queue.reclaim_total() == 1
        lease = store.get(NS_LEASES, "u1")
        assert lease["owner"] == "bob" and lease["generation"] == 2

    def test_renew_extends_and_detects_loss(self, store):
        queue = LeaseQueue(store, ttl=0.2)
        queue.enqueue(_unit())
        queue.claim("alice")
        assert queue.renew("u1", "alice") is True
        time.sleep(0.3)
        queue.claim("bob")  # steals the expired lease
        assert queue.renew("u1", "alice") is False  # alice lost it
        assert queue.renew("u1", "bob") is True

    def test_reopen_sends_done_back_to_pending(self, store):
        queue = LeaseQueue(store, ttl=5.0)
        queue.enqueue(_unit())
        queue.claim("alice")
        queue.complete("u1", "alice")
        assert queue.reopen("u1") is True
        assert queue.reopen("u1") is False  # already pending
        assert store.get(NS_LEASES, "u1")["state"] == "pending"
        assert queue.claim("bob") is not None  # re-dispatched

    def test_torn_lease_record_stays_claimable(self, store):
        queue = LeaseQueue(store, ttl=5.0)
        queue.enqueue(_unit())
        if isinstance(store, LocalDirStore):
            with open(store.path_for(NS_LEASES, "u1"), "w") as fh:
                fh.write('{"state": "lea')
        else:
            with store._lock:
                store._conn.execute(
                    "UPDATE artifacts SET payload='{\"state\": \"lea' "
                    "WHERE ns=? AND key='u1'", (NS_LEASES,))
        assert queue.claim("alice") is not None  # progress beats bookkeeping

    def test_unit_fingerprint_is_order_and_content_sensitive(self):
        base = unit_fingerprint("spec", "sweep", ["a", "b"])
        assert unit_fingerprint("spec", "sweep", ["a", "b"]) == base
        assert unit_fingerprint("spec", "sweep", ["b", "a"]) != base
        assert unit_fingerprint("spec", "confirm", ["a", "b"]) != base
        assert unit_fingerprint("other", "sweep", ["a", "b"]) != base


class TestResultLedger:
    def test_commit_is_exactly_once(self, store, metrics):
        ledger = ResultLedger(store)
        assert ledger.commit("sweep", "fp1", _result()) is True
        assert ledger.commit("sweep", "fp1", _result(target_bytes=999)) is False
        assert (ledger.commits, ledger.duplicates) == (1, 1)
        assert ledger.fetch("sweep", "fp1") == _result()  # first commit won
        snap = metrics.snapshot()["counters"]
        assert snap["fabric.commits.new"] == 1
        assert snap["fabric.commits.duplicate"] == 1

    def test_stages_do_not_collide(self, store):
        ledger = ResultLedger(store)
        assert ledger.commit("sweep", "fp1", _result(target_bytes=1)) is True
        assert ledger.commit("confirm", "fp1", _result(target_bytes=2)) is True
        assert ledger.fetch("confirm", "fp1").target_bytes == 2

    def test_errors_roundtrip(self, store):
        ledger = ResultLedger(store)
        error = RunError(5, "ValueError", "boom", seeds=(1, 2))
        ledger.commit("sweep", "fp1", error)
        assert ledger.fetch("sweep", "fp1") == error

    def test_corrupt_record_is_dropped_not_poisonous(self, store, metrics):
        ledger = ResultLedger(store)
        ledger.commit("sweep", "fp1", _result())
        key = "sweep-fp1"
        if isinstance(store, LocalDirStore):
            with open(store.path_for("results", key), "w") as fh:
                fh.write('{"stage": "sweep", "kind": "resu')
        else:
            with store._lock:
                store._conn.execute(
                    "UPDATE artifacts SET payload='{\"kind\": \"resu' "
                    "WHERE ns='results' AND key=?", (key,))
        assert ledger.fetch("sweep", "fp1") is None  # torn result = missing
        assert store.get("results", key) is None  # and deleted for re-commit
        assert ledger.commit("sweep", "fp1", _result()) is True
        assert metrics.snapshot()["counters"]["fabric.results.corrupt"] == 1


# ----------------------------------------------------------------------
# Satellite: N processes hammering one shared store must neither crash
# nor lose entries — this is the contention profile of a real fabric
# (put_if_absent races, concurrent corrupt-entry cleanup, lease updates).

def _hammer(spec, index, iterations, failures):
    try:
        backend = store_for(spec)
        cache = RunCache(backend)
        config = TestbedConfig()
        # fingerprints track strategy *behaviour* (params), not ids
        shared = [run_fingerprint(config, _strategy(i, percent=10 + i), 7)
                  for i in range(6)]
        for i in range(iterations):
            fp = shared[(index + i) % len(shared)]
            step = i % 4
            if step == 0:
                cache.put(fp, _result(strategy_id=index))
            elif step == 1:
                hit = cache.get(fp)
                assert hit is None or isinstance(hit, RunResult)
            elif step == 2:
                # poison the entry so racing readers all hit the cleanup path
                backend.put(RunCache.NAMESPACE, fp, {"fingerprint": "bogus"})
                cache.get(fp)
            else:
                backend.update(
                    "leases", f"shared-{i % 3}",
                    lambda cur: {"n": int((cur or {}).get("n", 0)) + 1})
        # the per-process entry must survive everyone else's churn
        mine = run_fingerprint(config, _strategy(1000 + index, percent=60 + index), 7)
        cache.put(mine, _result(strategy_id=index))
        assert isinstance(cache.get(mine), RunResult)
        backend.close()
    except BaseException as exc:  # pragma: no cover - the failure report
        failures.put(f"process {index}: {type(exc).__name__}: {exc}")
        raise


class TestMultiProcessContention:
    @pytest.mark.parametrize("backend", ["dir", "sqlite"])
    def test_hammering_shared_store_survives(self, backend, tmp_path):
        spec = ("sqlite://" + str(tmp_path / "store.db") if backend == "sqlite"
                else "dir://" + str(tmp_path / "store"))
        ctx = multiprocessing.get_context("fork")
        failures = ctx.Queue()
        procs = [
            ctx.Process(target=_hammer, args=(spec, index, 40, failures))
            for index in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        reported = []
        while not failures.empty():
            reported.append(failures.get())
        assert not reported, "\n".join(reported)
        assert all(proc.exitcode == 0 for proc in procs), \
            [proc.exitcode for proc in procs]
        # no lost entries: every process's private key is present and valid
        backend_store = store_for(spec)
        cache = RunCache(backend_store)
        config = TestbedConfig()
        for index in range(4):
            fp = run_fingerprint(config, _strategy(1000 + index, percent=60 + index), 7)
            assert isinstance(cache.get(fp), RunResult), f"lost entry {index}"
        # rmw counters applied atomically: every update landed
        for key in backend_store.keys("leases"):
            assert backend_store.get("leases", key)["n"] > 0
        backend_store.close()


# ----------------------------------------------------------------------
# End-to-end: fabric campaigns must match plain campaigns exactly.

def _fast_spec(**overrides):
    base = CampaignSpec(
        testbed=TestbedConfig(protocol="tcp", variant="linux-3.13", **FAST),
        workers=1, sample_every=500,
    )
    return base.with_overrides(**overrides) if overrides else base


class TestFabricCampaign:
    def test_single_process_fabric_matches_plain(self, tmp_path):
        plain = run_campaign(_fast_spec())
        spec = _fast_spec(fabric=FabricConfig(
            store="dir://" + str(tmp_path / "store"), lease_ttl=10.0, lease_size=3))
        distributed = run_campaign(spec)
        assert distributed.table1_row() == plain.table1_row()
        assert distributed.strategies_tried == plain.strategies_tried
        assert [s.strategy_id for s, _ in distributed.flagged] == \
            [s.strategy_id for s, _ in plain.flagged]
        counters = distributed.fabric
        # every sweep strategy was committed through the ledger exactly once
        assert counters["commits"] >= plain.strategies_tried
        assert counters["commit_duplicates"] == 0
        assert counters["lease_reclaims"] == 0
        assert counters["leases_enqueued"] > 0
        # counters are mirrored into the metrics payload for --metrics-out
        assert distributed.metrics["counters"]["fabric.commits"] == counters["commits"]

    def test_fabric_journal_records_every_result_exactly_once(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        spec = _fast_spec(
            checkpoint=journal_path,
            fabric=FabricConfig(store="dir://" + str(tmp_path / "store"), lease_size=2),
        )
        result = run_campaign(spec)
        lines = [json.loads(line) for line in open(journal_path)][1:]  # skip header
        entries = [(rec["stage"], rec["outcome"]["strategy_id"]) for rec in lines]
        assert len(entries) == len(set(entries))
        assert len(entries) >= result.strategies_tried > 0

    def test_second_fabric_run_is_served_from_shared_cache(self, tmp_path):
        fabric = FabricConfig(store="dir://" + str(tmp_path / "store"), lease_size=4)
        first = run_campaign(_fast_spec(fabric=fabric))
        again = run_campaign(_fast_spec(fabric=fabric))
        assert again.table1_row() == first.table1_row()
        # everything pre-served: nothing re-enqueued, nothing re-executed
        assert again.fabric["leases_enqueued"] == 0
        assert again.fabric["worker_units"] == 0

    def test_foreign_running_campaign_does_not_block_other_spec(self, tmp_path):
        # another spec's live campaign has its own scope: both run side by
        # side on one store, and the foreign campaign is left untouched
        from repro.fabric.worker import KEY_MANIFEST, NS_CAMPAIGN

        store_url = "dir://" + str(tmp_path / "store")
        foreign = {
            "spec": {}, "spec_fingerprint": "somebody-else",
            "status": "running", "lease_ttl": 30.0,
            "coordinator_heartbeat_at": time.time(),
        }
        backend = store_for(store_url)
        register_campaign(backend, "somebody-else", {
            "campaign_id": "somebody-else", "status": "running"})
        CampaignScopedStore(backend, "somebody-else").put(
            NS_CAMPAIGN, KEY_MANIFEST, foreign)
        backend.close()
        spec = _fast_spec(fabric=FabricConfig(store=store_url))
        result = run_campaign(spec)
        assert result.strategies_tried > 0
        backend = store_for(store_url)
        try:
            index = load_campaign_index(backend)
            assert index["somebody-else"]["status"] == "running"
            assert index[campaign_id_for(spec)]["status"] == "complete"
            assert CampaignScopedStore(backend, "somebody-else").get(
                NS_CAMPAIGN, KEY_MANIFEST) == foreign
        finally:
            backend.close()

    def test_live_same_spec_campaign_is_not_adopted(self, tmp_path):
        # same fingerprint but its coordinator is verifiably alive (fresh
        # manifest heartbeat): adopting would mean two coordinators
        # double-journaling one campaign
        from repro.fabric.coordinator import FabricMismatch
        from repro.fabric.worker import KEY_MANIFEST, NS_CAMPAIGN

        store_url = "dir://" + str(tmp_path / "store")
        spec = _fast_spec(fabric=FabricConfig(store=store_url, lease_ttl=30.0))
        campaign_id = campaign_id_for(spec)
        backend = store_for(store_url)
        register_campaign(backend, campaign_id, {
            "campaign_id": campaign_id, "status": "running"})
        CampaignScopedStore(backend, campaign_id).put(NS_CAMPAIGN, KEY_MANIFEST, {
            "spec": {}, "spec_fingerprint": spec.fingerprint(),
            "status": "running", "lease_ttl": 30.0,
            "coordinator_heartbeat_at": time.time(),
        })
        backend.close()
        with pytest.raises(FabricMismatch, match="heartbeat"):
            run_campaign(spec)
        # the refused restart must not mark the live campaign failed
        backend = store_for(store_url)
        try:
            assert load_campaign_index(backend)[campaign_id]["status"] == "running"
        finally:
            backend.close()

    def test_stale_same_spec_campaign_is_adopted(self, tmp_path):
        # ...but once the heartbeat is stale the previous coordinator is
        # gone, and adopting (resuming on the existing ledger) is safe
        from repro.fabric.worker import KEY_MANIFEST, NS_CAMPAIGN

        store_url = "dir://" + str(tmp_path / "store")
        spec = _fast_spec(fabric=FabricConfig(store=store_url, lease_ttl=1.0))
        backend = store_for(store_url)
        CampaignScopedStore(backend, campaign_id_for(spec)).put(NS_CAMPAIGN, KEY_MANIFEST, {
            "spec": {}, "spec_fingerprint": spec.fingerprint(),
            "status": "running", "lease_ttl": 1.0,
            "coordinator_heartbeat_at": time.time() - 60.0,
        })
        backend.close()
        result = run_campaign(spec)
        assert result.strategies_tried > 0

    def test_strategy_codec_roundtrips(self):
        strategy = _strategy(42, percent=75)
        assert decode_strategy(encode_strategy(strategy)) == strategy
        assert decode_strategy(encode_strategy(None)) is None
        assert encode_strategy(None) is None


# ----------------------------------------------------------------------
# Chaos: real worker processes serving a real coordinator, one of them
# dying SIGKILL-style (``os._exit``) mid-unit with an uncommitted slot.
# The survivor must reclaim the dead worker's lease and the campaign must
# account every result exactly once anyway.

class TestFabricChaos:
    def _spawn_worker(self, store_path, fault=None, metrics_out=None, idle_exit="10"):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_TEST_FAULT", None)
        if fault:
            env["REPRO_TEST_FAULT"] = fault
        argv = [sys.executable, "-m", "repro", "worker", "--store", store_path,
                "--workers", "1", "--manifest-timeout", "60", "--poll", "0.05"]
        if idle_exit is not None:
            argv += ["--idle-exit", idle_exit]
        if metrics_out:
            argv += ["--metrics-out", metrics_out]
        return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    def test_worker_killed_mid_sweep_is_reclaimed_exactly_once(self, tmp_path):
        store_path = "dir://" + str(tmp_path / "store")
        journal_path = str(tmp_path / "journal.jsonl")
        metrics_path = str(tmp_path / "healthy-metrics.json")
        spec = _fast_spec(
            checkpoint=journal_path,
            fabric=FabricConfig(store=store_path, lease_ttl=1.5, lease_size=2,
                                poll_interval=0.1, participate=False),
        )
        # the coordinator only shards, collects, and journals; all unit
        # execution belongs to the worker processes below
        holder = {}
        coordinator = threading.Thread(
            target=lambda: holder.update(result=run_campaign(spec)), daemon=True)
        coordinator.start()
        procs = []
        try:
            # worker 1 commits one slot of its two-slot unit, then dies the
            # hard way (os._exit, no cleanup) — a SIGKILL stand-in
            faulty = self._spawn_worker(store_path, fault="fabric-commit-crash:1")
            procs.append(faulty)
            faulty.wait(timeout=120)
            assert faulty.returncode == 117
            # worker 2 arrives afterwards, drains the queue, and reclaims
            # the dead worker's expired lease
            healthy = self._spawn_worker(store_path, metrics_out=metrics_path)
            procs.append(healthy)
            coordinator.join(timeout=240)
            assert not coordinator.is_alive(), "coordinator never finished"
            healthy.wait(timeout=60)
            assert healthy.returncode == 0
        finally:
            for proc in procs:
                if proc.poll() is None:  # pragma: no cover - cleanup
                    proc.send_signal(signal.SIGKILL)
                    proc.wait()
        result = holder["result"]
        counters = result.fabric
        assert counters["lease_reclaims"] >= 1, counters
        # the reclaimed unit's already-committed slot surfaced as a counted
        # duplicate in the surviving worker, never as a second result
        healthy_counters = json.load(open(metrics_path))["counters"]
        assert healthy_counters.get("fabric.commits.duplicate", 0) >= 1
        assert healthy_counters.get("fabric.leases.reclaimed", 0) >= 1
        # exactly-once accounting: journal and campaign totals look as if
        # the crash never happened
        plain = run_campaign(_fast_spec())
        assert result.table1_row() == plain.table1_row()
        assert result.strategies_tried == plain.strategies_tried
        lines = [json.loads(line) for line in open(journal_path)][1:]
        entries = [(rec["stage"], rec["outcome"]["strategy_id"]) for rec in lines]
        assert len(entries) == len(set(entries))
        assert len(entries) >= result.strategies_tried > 0

    def test_worker_exits_without_idle_exit_once_campaign_completes(self, tmp_path):
        # one lifetime rule: after serving, a worker drains out as soon as
        # the index holds no running campaign (no --idle-exit needed)
        store_url = "dir://" + str(tmp_path / "store")
        worker = self._spawn_worker(store_url, idle_exit=None)
        try:
            # participate=False: the campaign cannot finish without it
            result = run_campaign(_fast_spec(fabric=FabricConfig(
                store=store_url, lease_size=2, poll_interval=0.05,
                participate=False)))
            assert result.strategies_tried > 0
            worker.wait(timeout=30)
            assert worker.returncode == 0
        finally:
            if worker.poll() is None:  # pragma: no cover - cleanup
                worker.send_signal(signal.SIGKILL)
                worker.wait()


# ----------------------------------------------------------------------
# CLI surface.

class TestWorkerCli:
    def test_worker_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "worker", "--store", "s", "--workers", "2", "--once",
            "--idle-exit", "3", "--manifest-timeout", "9", "--poll", "0.1",
        ])
        assert args.store == "s" and args.workers == 2 and args.once
        assert args.idle_exit == 3.0 and args.manifest_timeout == 9.0

    def test_worker_requires_store(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["worker"])
        assert excinfo.value.code == 2
        assert "--store" in capsys.readouterr().err

    def test_worker_without_campaign_exits_cleanly(self, tmp_path, capsys):
        rc = main(["worker", "--store", "dir://" + str(tmp_path / "store"),
                   "--manifest-timeout", "0.1"])
        assert rc == 0

    def test_cli_fabric_campaign_is_an_indexed_campaign(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        spec = _fast_spec(fabric=FabricConfig(store="dir://" + str(store_dir)))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        assert main(["campaign", "--spec", str(spec_path)]) == 0
        campaign_id = campaign_id_for(spec)
        assert f"fabric campaign {campaign_id}" in capsys.readouterr().err
        backend = store_for("dir://" + str(store_dir))
        try:
            (record,) = load_campaign_index(backend).values()
        finally:
            backend.close()
        assert record["campaign_id"] == campaign_id
        assert record["spec_fingerprint"] == spec.fingerprint()
        assert record["tenant"] == spec.tenant
        assert record["status"] == "complete"
        # one layout: nothing but the index, the scopes and the shared cache
        assert sorted(os.listdir(store_dir)) == ["campaign-index", "campaigns", "runs"]

    def test_campaign_fabric_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "campaign", "--fabric", "--store", "s",
            "--lease-ttl", "5", "--lease-size", "2",
        ])
        assert args.fabric and args.store == "s"
        assert args.lease_ttl == 5.0 and args.lease_size == 2


class TestFabricConfigValidation:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            FabricConfig(store="s", lease_ttl=0)
        with pytest.raises(ValueError):
            FabricConfig(store="s", lease_size=0)
        with pytest.raises(ValueError):
            FabricConfig(store="")

    def test_spec_roundtrip_and_fingerprint_neutrality(self, tmp_path):
        spec = _fast_spec(fabric=FabricConfig(store="s", lease_ttl=5.0))
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        # distribution is an execution knob: identity is unchanged
        assert spec.fingerprint() == _fast_spec().fingerprint()
