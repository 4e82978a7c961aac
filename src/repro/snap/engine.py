"""The snapshot/fork engine.

One engine lives in each worker process.  For an eligible strategy it
splits the run into explicit phases:

1. **scout** — run the unmodified world once per (testbed, seed) with
   listeners attached, recording the event ordinal at which each trigger
   descriptor (observed packet pair / entered state) first becomes
   reachable.  The scout doubles as the ground-truth plain run.
2. **snapshot** — the first time a trigger boundary is needed, build a
   fresh world, run it to the boundary with ``stop_after_events``, and park
   the paused world in an in-process LRU as a pickled blob (the same blob
   is what a shared store's ``snapshots`` namespace holds for cross-host
   reuse).  Later boundaries of the same prefix family are built
   incrementally by unpickling the nearest earlier snapshot.
3. **arm + continue (fork)** — unpickle the blob into a private world,
   install the attack on it, and run the remaining tail.  The forked
   ``RunResult`` is indistinguishable from a full run's because trigger
   arming is passive: a packet rule or state hook has no observable effect
   until the event at the boundary fires it, and that event executes
   *after* arming either way.  ``pickle.loads`` of a blob costs a fraction
   of a ``copy.deepcopy`` of the live world (a median 1.5 ms against
   7.5 ms for a 10 s TCP world), so even an early-boundary fork costs
   well under the full run it replaces.
4. **determinism guard** — a deterministically sampled fraction of forked
   runs also execute in full; any ``RunResult`` divergence poisons the
   prefix fingerprint (all later runs execute in full), bumps the
   ``snap.divergence`` counter, and emits a ``snap.divergence`` event.

Strategies whose trigger never became reachable in the scout are *elided*:
an armed run is then provably identical to the plain run, so a copy of
the scout's result is returned (restamped with the strategy id) without
any simulation at all.

Accounting: every engine-served result is observed once by the metrics
registry, exactly like a full run (``runs.completed``, ``sim.events``,
``link.*``, ``proxy.*`` and ``tracker.*`` match a campaign without
forking), and its ``wall_seconds`` is the time spent serving it: the
unpickle plus the tail for a fork, the result copy for an elision.  The
engine's own overhead is reported apart, as the ``snap.scout_s``,
``snap.build_s`` and ``snap.verify_s`` counters, and is never charged to
the run that happened to trigger it.

Time-triggered strategies are ineligible — their ``arm()`` schedules the
fire relative to arming time — as are retry attempts (different seeds) and
baseline runs; all fall back to full execution.
"""

from __future__ import annotations

import base64
import copy
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cache import _digest
from repro.core.executor import Executor, RunResult, SimWorld, TestbedConfig
from repro.core.generation import snapshot_descriptor
from repro.core.strategy import Strategy
from repro.obs.bus import BUS
from repro.obs.metrics import METRICS
from repro.snap.config import SnapshotConfig
from repro.snap.keys import SNAP_VERSION, SNAPSHOT_NAMESPACE, prefix_fingerprint, run_key

#: RunResult fields ignored by the determinism comparison: identity and
#: timing metadata assigned outside the simulation itself
_VOLATILE_FIELDS = ("wall_seconds", "run_id", "cached", "attempts")


def comparable_result(result: RunResult) -> Dict[str, Any]:
    """A :class:`RunResult` dict with run-identity/timing fields stripped."""
    data = result.to_dict()
    for field_name in _VOLATILE_FIELDS:
        data.pop(field_name, None)
    return data


class _Scout:
    """One plain run's result, its trigger-boundary map, and its finished
    world (kept so every elided result is observed like the run it is)."""

    __slots__ = ("result", "boundaries", "world")

    def __init__(
        self,
        result: RunResult,
        boundaries: Dict[Tuple[str, str, str], int],
        world: SimWorld,
    ):
        self.result = result
        self.boundaries = boundaries
        self.world = world


class SnapshotEngine:
    """Per-process snapshot cache and fork executor."""

    def __init__(self, config: SnapshotConfig):
        self.config = config
        #: run_key -> _Scout (None = scout truncated; snapshots unusable),
        #: oldest first, at most ``max_cached`` of them
        self._scouts: Dict[str, Optional[_Scout]] = {}
        #: fingerprint -> pickled paused SimWorld, LRU order (oldest first)
        self._lru: Dict[str, bytes] = {}
        #: fingerprint -> boundary (for every world in the LRU)
        self._boundaries: Dict[str, int] = {}
        #: run_key -> [(boundary, fingerprint)] of cached snapshots, for
        #: incremental builds from the nearest earlier boundary
        self._by_run: Dict[str, List[Tuple[int, str]]] = {}
        #: fingerprints the determinism guard has disabled
        self._poisoned: set = set()
        self._store: Any = None
        self._store_failed = False

    # ------------------------------------------------------------------
    # public entry
    # ------------------------------------------------------------------
    def execute(
        self,
        config: TestbedConfig,
        strategy: Strategy,
        seed: Optional[int],
    ) -> Optional[RunResult]:
        """Run ``strategy`` via snapshot fork, or ``None`` = run in full."""
        descriptor = snapshot_descriptor(strategy)
        if descriptor is None:
            return None
        scout = self._scout_for(config, seed)
        if scout is None:
            return None
        fingerprint = prefix_fingerprint(config, seed, descriptor)
        if fingerprint in self._poisoned:
            return None
        boundary = scout.boundaries.get(descriptor)
        if boundary is not None and boundary < 0:
            # the descriptor is reachable during world *construction* (the
            # target client sends its first packets synchronously while the
            # world is still being built, before the first event runs).  An
            # armed run installs the strategy mid-build, so no post-build
            # snapshot can reproduce it — run in full.
            return None
        if boundary is None:
            # the trigger never became reachable: an armed run is provably
            # identical to the plain run the scout already executed
            return self._elide(scout, strategy)
        if boundary < self.config.min_events:
            return None
        try:
            blob = self._snapshot(config, seed, fingerprint, boundary)
            if blob is None:
                return None
            result, world = self._fork(config, strategy, blob, boundary)
            verified = (
                self._verify(config, strategy, seed)
                if self._should_verify(fingerprint, strategy)
                else None
            )
        except Exception:
            # the caller re-runs the strategy in full, on the same code
            # path as a campaign without forking, so a crash is reported
            # exactly as it would be there (traceback included) and a world
            # pickle cannot carry costs speed, never a result
            METRICS.inc("snap.errors")
            return None
        if verified is not None:
            full, full_world = verified
            if comparable_result(result) != comparable_result(full):
                self._poisoned.add(fingerprint)
                METRICS.inc("snap.divergence")
                BUS.emit(
                    "snap.divergence",
                    fingerprint=fingerprint,
                    strategy_id=strategy.strategy_id,
                    boundary=boundary,
                )
                result, world = full, full_world
        Executor.observe(world, result)
        return result

    def _elide(self, scout: _Scout, strategy: Strategy) -> RunResult:
        started = time.perf_counter()
        elided = copy.deepcopy(scout.result)
        elided.strategy_id = strategy.strategy_id
        elided.wall_seconds = time.perf_counter() - started
        METRICS.inc("snap.elided")
        METRICS.inc("snap.events_saved", scout.result.events_processed)
        Executor.observe(scout.world, elided)
        return elided

    # ------------------------------------------------------------------
    # phase 1: scout
    # ------------------------------------------------------------------
    def _scout_for(self, config: TestbedConfig, seed: Optional[int]) -> Optional[_Scout]:
        key = run_key(config, seed)
        if key in self._scouts:
            return self._scouts[key]
        METRICS.inc("snap.scout_runs")
        started = time.perf_counter()
        executor = Executor(config)
        world = executor.build_world(None, seed)
        sim = world.sim
        boundaries: Dict[Tuple[str, str, str], int] = {}

        # listeners read the live event counter *during* the triggering
        # event's callback, i.e. the count of events completed before it —
        # exactly the ordinal ``stop_after_events`` pauses at
        def on_pair(state: str, packet_type: str) -> None:
            boundaries.setdefault(("pair", state, packet_type), sim.events_processed)

        def on_transition(role: str, new_state: str) -> None:
            boundaries.setdefault(("state", role, new_state), sim.events_processed)

        # descriptors already reached while the world was being built (the
        # apps send their opening packets synchronously at construction)
        # are marked with a negative sentinel: they predate event 0, so no
        # snapshot boundary can sit in front of them
        for state, packet_type in world.tracker.observed_pairs:
            boundaries[("pair", state, packet_type)] = -1
        for role, endpoint in (("client", world.tracker.client),
                               ("server", world.tracker.server)):
            for _time, _src, _event, dst in endpoint.transitions_taken:
                boundaries.setdefault(("state", role, dst), -1)

        world.tracker.pair_listeners.append(on_pair)
        world.tracker.transition_listeners.append(on_transition)
        sim.run(until=config.duration, max_events=config.max_events,
                wall_budget=config.run_budget)
        result = executor.collect(world, None, started, observe=False)
        METRICS.inc("snap.scout_s", time.perf_counter() - started)
        # a truncated scout saw only part of the run: its boundary map and
        # elision baseline are both unusable for this (testbed, seed)
        scout = None if result.timed_out else _Scout(result, boundaries, world)
        self._scouts[key] = scout
        # a scout keeps its finished world; a long-lived process that sees
        # many (testbed, seed) families keeps only the newest few
        while len(self._scouts) > self.config.max_cached:
            del self._scouts[next(iter(self._scouts))]
        return scout

    # ------------------------------------------------------------------
    # phase 2: snapshot
    # ------------------------------------------------------------------
    def _snapshot(
        self,
        config: TestbedConfig,
        seed: Optional[int],
        fingerprint: str,
        boundary: int,
    ) -> Optional[bytes]:
        blob = self._lru.get(fingerprint)
        if blob is not None:
            METRICS.inc("snap.hits")
            # refresh LRU position
            self._lru.pop(fingerprint)
            self._lru[fingerprint] = blob
            return blob
        METRICS.inc("snap.misses")
        started = time.perf_counter()
        blob = self._load_persistent(fingerprint, boundary)
        if blob is None:
            blob = self._build(config, seed, boundary)
            if blob is not None:
                self._save_persistent(fingerprint, boundary, blob)
        METRICS.inc("snap.build_s", time.perf_counter() - started)
        if blob is None:
            return None
        self._remember(config, seed, fingerprint, boundary, blob)
        return blob

    def _build(
        self, config: TestbedConfig, seed: Optional[int], boundary: int
    ) -> Optional[bytes]:
        """Run a plain world to the boundary, incrementally when possible,
        and pickle it."""
        METRICS.inc("snap.builds")
        key = run_key(config, seed)
        base_boundary, base_fp = 0, None
        for cached_boundary, cached_fp in self._by_run.get(key, ()):
            if base_boundary < cached_boundary <= boundary and cached_fp in self._lru:
                base_boundary, base_fp = cached_boundary, cached_fp
        if base_fp is not None:
            world = pickle.loads(self._lru[base_fp])
        else:
            world = Executor(config).build_world(None, seed)
        remaining = boundary - world.sim.events_processed
        if remaining > 0:
            budget = None
            if config.max_events is not None:
                budget = max(0, config.max_events - world.sim.events_processed)
            world.sim.run(
                until=config.duration,
                max_events=budget,
                wall_budget=config.run_budget,
                stop_after_events=remaining,
            )
        if world.sim.truncated is not None or world.sim.events_processed != boundary:
            # a watchdog fired mid-build, or the world ran dry before the
            # boundary; neither is a valid snapshot
            return None
        return pickle.dumps(world, pickle.HIGHEST_PROTOCOL)

    def _remember(
        self,
        config: TestbedConfig,
        seed: Optional[int],
        fingerprint: str,
        boundary: int,
        blob: bytes,
    ) -> None:
        self._lru[fingerprint] = blob
        self._boundaries[fingerprint] = boundary
        key = run_key(config, seed)
        index = self._by_run.setdefault(key, [])
        if (boundary, fingerprint) not in index:
            index.append((boundary, fingerprint))
        while len(self._lru) > self.config.max_cached:
            evicted_fp = next(iter(self._lru))
            del self._lru[evicted_fp]
            self._boundaries.pop(evicted_fp, None)
            for entries in self._by_run.values():
                entries[:] = [entry for entry in entries if entry[1] != evicted_fp]

    # ------------------------------------------------------------------
    # phase 3: fork (arm + continue)
    # ------------------------------------------------------------------
    def _fork(
        self,
        config: TestbedConfig,
        strategy: Strategy,
        snapshot: bytes,
        boundary: int,
    ) -> Tuple[RunResult, SimWorld]:
        """Unpickle the snapshot, arm ``strategy`` on it and run the tail.

        Returns the unobserved result and the finished world; the result's
        wall time covers exactly the unpickle, the tail and the collect."""
        started = time.perf_counter()
        fork: SimWorld = pickle.loads(snapshot)
        executor = Executor(config)
        executor._install_strategy(fork.proxy, strategy)
        tail_budget = None
        if config.max_events is not None:
            tail_budget = max(0, config.max_events - fork.sim.events_processed)
        with BUS.span("run.simulate"):
            fork.sim.run(
                until=config.duration,
                max_events=tail_budget,
                wall_budget=config.run_budget,
            )
        METRICS.inc("snap.forks")
        METRICS.inc("snap.events_saved", boundary)
        return executor.collect(fork, strategy, started, observe=False), fork

    # ------------------------------------------------------------------
    # phase 4: determinism guard
    # ------------------------------------------------------------------
    def _verify(
        self, config: TestbedConfig, strategy: Strategy, seed: Optional[int]
    ) -> Tuple[RunResult, SimWorld]:
        """The guard's full run: unobserved, and charged to ``snap.verify_s``."""
        started = time.perf_counter()
        executor = Executor(config)
        world = executor.build_world(strategy, seed)
        executor._run_sim(world.sim)
        full = executor.collect(world, strategy, started, observe=False)
        METRICS.inc("snap.verify_s", full.wall_seconds)
        return full, world

    def _should_verify(self, fingerprint: str, strategy: Strategy) -> bool:
        fraction = self.config.verify_fraction
        if fraction <= 0.0:
            return False
        if fraction >= 1.0:
            return True
        token = _digest({"fingerprint": fingerprint, "strategy": strategy.canonical_form()})
        return int(token[:8], 16) % 1_000_000 < fraction * 1_000_000

    # ------------------------------------------------------------------
    # persistent (cross-host) snapshots
    # ------------------------------------------------------------------
    def _store_handle(self) -> Any:
        if self.config.store is None or self._store_failed:
            return None
        if self._store is None:
            try:
                from repro.fabric.store import store_for

                self._store = store_for(self.config.store)
            except Exception:
                self._store_failed = True
                METRICS.inc("snap.store_errors")
                return None
        return self._store

    def _load_persistent(self, fingerprint: str, boundary: int) -> Optional[bytes]:
        store = self._store_handle()
        if store is None:
            return None
        try:
            record = store.get(SNAPSHOT_NAMESPACE, fingerprint)
        except Exception:
            # unreadable document (StoreCorrupt, I/O): drop it so the next
            # miss rebuilds instead of re-reading garbage
            METRICS.inc("snap.store_errors")
            try:
                store.delete(SNAPSHOT_NAMESPACE, fingerprint)
            except Exception:
                pass
            return None
        if record is None:
            return None
        try:
            if record.get("snap") != SNAP_VERSION or record.get("boundary") != boundary:
                raise ValueError("snapshot record does not match the requested prefix")
            blob = base64.b64decode(record["blob"])
            world = pickle.loads(blob)
            if not isinstance(world, SimWorld) or world.sim.events_processed != boundary:
                raise ValueError("snapshot blob does not decode to a world at the boundary")
        except Exception:
            # corrupt or stale record: count it, drop it, rebuild locally
            METRICS.inc("snap.store_errors")
            try:
                store.delete(SNAPSHOT_NAMESPACE, fingerprint)
            except Exception:
                pass
            return None
        return blob

    def _save_persistent(self, fingerprint: str, boundary: int, blob: bytes) -> None:
        store = self._store_handle()
        if store is None:
            return
        try:
            store.put_if_absent(
                SNAPSHOT_NAMESPACE,
                fingerprint,
                {"snap": SNAP_VERSION, "fingerprint": fingerprint,
                 "boundary": boundary, "blob": base64.b64encode(blob).decode("ascii")},
            )
        except Exception:
            # store trouble: snapshots stay local-only
            METRICS.inc("snap.store_errors")


# ----------------------------------------------------------------------
# per-process entry point (used by the batched dispatcher)
# ----------------------------------------------------------------------
_ENGINE: Optional[SnapshotEngine] = None


def execute_run(
    config: TestbedConfig,
    strategy: Optional[Strategy],
    seed: Optional[int],
    attempt: int,
    snap_config: Optional[SnapshotConfig],
) -> Optional[RunResult]:
    """Snapshot-fork one run if eligible; ``None`` = caller runs in full.

    Retry attempts use derived seeds that never match a cached prefix, so
    they (like baselines and time-triggered strategies) execute in full.
    """
    global _ENGINE
    if (
        snap_config is None
        or not snap_config.enabled
        or strategy is None
        or attempt > 0
    ):
        return None
    if _ENGINE is None or _ENGINE.config != snap_config:
        _ENGINE = SnapshotEngine(snap_config)
    return _ENGINE.execute(config, strategy, seed)


def reset_engine() -> None:
    """Drop the process-local engine (tests and pool worker recycling)."""
    global _ENGINE
    _ENGINE = None


__all__ = [
    "SnapshotEngine",
    "comparable_result",
    "execute_run",
    "reset_engine",
]
