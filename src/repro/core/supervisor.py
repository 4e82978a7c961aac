"""Supervised execution: the hang-proof worker pool with poison quarantine.

:class:`SupervisedWorkerPool` is the only local worker pool: every
parallel stage of a campaign, and every fabric worker host, runs on it.
The executor isolates *exceptions* per strategy, and the in-worker
watchdog cuts off runs that blow their simulator budgets — but both only
work while the worker's Python loop is still advancing.  A worker stuck
below that layer (wedged in C code, blocked in pickling, OOM-killed by the
kernel) would stall a plain ``multiprocessing.Pool`` forever and deadlock
the whole sweep.  Real stateful-fuzzing harnesses (ProFuzzBench,
SNPSFuzzer) treat harness death as a first-class, supervised event; this
module does the same for the campaign runtime.

The pool manages its own worker processes over per-worker duplex pipes,
which buys four properties:

* **Parent-side deadlines.**  Every slot announces a ``start`` heartbeat
  before executing; a worker whose in-flight slot exceeds its wall budget
  is SIGKILLed from the parent and replaced, even if the worker itself can
  no longer run Python.  The budget is ``slot_budget`` when set, otherwise
  derived from the testbed's ``run_budget`` × attempts + backoff + grace.
* **Crash detection.**  A worker that dies on its own (OOM kill,
  ``os._exit``, segfault) closes its pipe; the parent notices, respawns,
  and re-dispatches.
* **Slot re-dispatch.**  When a worker is killed or dies, the unreplied
  slots of its batch are requeued — innocent neighbours of a poison
  strategy are re-executed, and slot *i* still comes back describing
  strategy *i*.
* **Poison quarantine.**  The slot that was in flight when a worker died
  collects a *strike*; a strategy with ``quarantine_after`` strikes is
  parked with a structured ``RunError(kind="quarantined")`` instead of
  being retried forever.  Quarantine persists for the life of the pool, so
  a strategy quarantined in the sweep is refused by the confirm stage too.

Workers are optionally recycled after ``max_tasks_per_child`` slots, the
standard defence against slow leaks in long campaigns.

Workers are spawned lazily on first dispatch with actual work — a
fully-cached campaign never forks — and the pool is shared across the
baseline/sweep/confirm stages.

Fault hook (test/CI only): setting ``REPRO_TEST_FAULT=hang:<id>`` or
``crash:<id>`` makes workers hang or die whenever they pick up that
strategy id, *below* the in-worker watchdog — exactly the failure mode
this module exists to survive.  ``<id>`` may be ``baseline`` for the
no-strategy run.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Set

from repro.core.executor import RunError, TestbedConfig
from repro.core.parallel import (
    BatchSlot,
    RetryPolicy,
    SlotReply,
    WorkBatch,
    _execute_single,
    _worker_init,
    default_worker_count,
    fold_batch_latency,
)
from repro.obs.bus import BUS
from repro.obs.config import ObsConfig
from repro.obs.metrics import METRICS

log = logging.getLogger("repro.core.supervisor")

#: structured RunError.kind for strategies parked by the supervisor
KIND_QUARANTINED = "quarantined"

#: test-only fault injection: "hang:<strategy_id>" / "crash:<strategy_id>"
FAULT_ENV = "REPRO_TEST_FAULT"


def _maybe_inject_fault(strategy_id: Optional[int]) -> None:
    """Test-only hook: simulate a worker wedging below the watchdog.

    ``hang`` sleeps far past any budget (the watchdog cannot fire because
    the simulator never starts); ``crash`` exits the process abruptly,
    like an OOM kill.  No-op unless :data:`FAULT_ENV` is set.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    mode, _, raw = spec.partition(":")
    if mode not in ("hang", "crash"):
        return  # a fabric-layer fault spec (see repro.fabric), not ours
    try:
        target: Optional[int] = None if raw == "baseline" else int(raw)
    except ValueError:
        log.warning("ignoring malformed %s=%r", FAULT_ENV, spec)
        return
    if strategy_id != target:
        return
    if mode == "hang":
        time.sleep(3600.0)
    elif mode == "crash":
        os._exit(113)


@dataclass(frozen=True)
class SupervisionConfig:
    """How the parent supervises its workers (picklable, spec-embeddable)."""

    #: absolute wall seconds a worker may spend on one slot (all attempts);
    #: ``None`` derives a budget from the testbed's ``run_budget`` instead,
    #: and if that is also unset, hung workers are not deadline-killed
    #: (crash detection and recycling still apply)
    slot_budget: Optional[float] = None
    #: slack added per attempt on top of ``run_budget``-derived deadlines,
    #: covering testbed setup/teardown outside the simulator loop
    wall_grace: float = 5.0
    #: recycle a worker after this many slots (None = never)
    max_tasks_per_child: Optional[int] = None
    #: strikes (worker kills/deaths while running the strategy) before a
    #: strategy is quarantined
    quarantine_after: int = 3
    #: parent poll granularity for heartbeats/deadlines, seconds
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.slot_budget is not None and self.slot_budget <= 0:
            raise ValueError("slot_budget must be > 0")
        if self.max_tasks_per_child is not None and self.max_tasks_per_child < 1:
            raise ValueError("max_tasks_per_child must be >= 1")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")

    def deadline_for(self, config: TestbedConfig, policy: RetryPolicy) -> Optional[float]:
        """Per-slot wall budget for one batch's context (None = no limit)."""
        if self.slot_budget is not None:
            return self.slot_budget
        if config.run_budget is None or config.run_budget <= 0:
            return None
        per_attempt = config.run_budget + self.wall_grace
        pauses = sum(policy.backoff_for(a) for a in range(1, policy.retries + 1))
        return per_attempt * (policy.retries + 1) + pauses


def _supervised_worker(
    conn: Any, obs_cfg: Optional[ObsConfig], max_tasks: Optional[int]
) -> None:
    """Worker main: execute batches slot by slot, heartbeating per slot.

    Protocol (worker -> parent): ``("start", index)`` before each slot,
    ``("reply", (index, outcome, metrics_delta))`` after it, and
    ``("idle", retiring)`` once the batch is drained.  A ``None`` task is
    the shutdown sentinel; ``retiring=True`` announces a clean
    ``max_tasks_per_child`` exit so the parent respawns without counting a
    failure.
    """
    _worker_init(obs_cfg)
    tasks_done = 0
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        (config, seed, policy, obs, stage, snap), slots = task
        batch_t0 = time.perf_counter()
        for position, (index, strategy) in enumerate(slots):
            conn.send(("start", index))
            _maybe_inject_fault(strategy.strategy_id if strategy is not None else None)
            outcome, delta = _execute_single(config, strategy, seed, policy, obs, stage, snap)
            if position == len(slots) - 1:
                delta = fold_batch_latency(delta, time.perf_counter() - batch_t0)
            conn.send(("reply", (index, outcome, delta)))
            tasks_done += 1
        retiring = max_tasks is not None and tasks_done >= max_tasks
        conn.send(("idle", retiring))
        if retiring:
            return


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "process", "conn", "batch", "deadline", "unreplied",
        "inflight_index", "inflight_since",
    )

    def __init__(self, process: Any, conn: Any):
        self.process = process
        self.conn = conn
        self.batch: Optional[WorkBatch] = None
        self.deadline: Optional[float] = None
        self.unreplied: Set[int] = set()
        self.inflight_index: Optional[int] = None
        self.inflight_since = 0.0

    @property
    def busy(self) -> bool:
        return self.batch is not None

    def clear(self) -> None:
        self.batch = None
        self.deadline = None
        self.unreplied = set()
        self.inflight_index = None


class SupervisedWorkerPool:
    """The worker pool :func:`~repro.core.parallel.run_strategies`
    dispatches to, with parent-side supervision: deadlines, kill + respawn,
    slot re-dispatch, recycling, and poison-strategy quarantine (see the
    module docstring).

    Counters (``kills``/``worker_lost``/``respawns``/``recycled``/
    ``redispatched``/``quarantines``) accumulate for the pool's lifetime
    and are mirrored into the metrics registry as ``supervisor.*`` when
    metrics are enabled.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        obs: Optional[ObsConfig] = None,
        supervision: Optional[SupervisionConfig] = None,
    ):
        self.workers = workers if workers is not None else default_worker_count()
        self.obs = obs
        self.supervision = supervision if supervision is not None else SupervisionConfig()
        self._handles: List[_WorkerHandle] = []
        self._ctx: Optional[Any] = None
        #: strategy_id -> fatal strikes (kills/deaths while it was in flight)
        self.strikes: Dict[Optional[int], int] = {}
        #: strategy_id -> strike count at the moment of quarantine
        self.quarantined: Dict[Optional[int], int] = {}
        self.kills = 0
        self.worker_lost = 0
        self.respawns = 0
        self.recycled = 0
        self.redispatched = 0
        self.quarantines = 0

    # ------------------------------------------------------------- spawn
    def _context(self) -> Any:
        if self._ctx is None:
            self._ctx = multiprocessing.get_context(
                "fork" if os.name == "posix" else "spawn"
            )
        return self._ctx

    def _spawn(self) -> _WorkerHandle:
        ctx = self._context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_supervised_worker,
            args=(child_conn, self.obs, self.supervision.max_tasks_per_child),
            daemon=True,
        )
        process.start()
        # drop the parent's copy of the child end so a dead worker's pipe
        # reads EOF instead of blocking forever
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _ensure(self) -> None:
        while len(self._handles) < self.workers:
            self._handles.append(self._spawn())

    # ---------------------------------------------------------- dispatch
    def dispatch(self, batches: Sequence[WorkBatch]) -> Iterator[SlotReply]:
        """Run every batch under supervision, yielding per-slot replies.

        Replies stream back as slots finish (any worker order); quarantined
        strategies are answered immediately without dispatch.
        """
        cfg = self.supervision
        pending: Deque[WorkBatch] = deque()
        outstanding = 0
        for context, slots in batches:
            live: List[BatchSlot] = []
            for index, strategy in slots:
                sid = strategy.strategy_id if strategy is not None else None
                if sid in self.quarantined:
                    yield (index, self._quarantine_error(sid), None)
                else:
                    live.append((index, strategy))
                    outstanding += 1
            if live:
                pending.append((context, tuple(live)))
        if not outstanding:
            return
        self._ensure()
        while outstanding:
            self._assign(pending)
            replies: List[SlotReply] = []
            self._drain(replies, pending, timeout=cfg.poll_interval)
            self._check_workers(replies, pending)
            for reply in replies:
                outstanding -= 1
                yield reply

    def _assign(self, pending: Deque[WorkBatch]) -> None:
        for handle in self._handles:
            if not pending:
                return
            if handle.busy:
                continue
            context, slots = batch = pending.popleft()
            config, _seed, policy, _obs, _stage, _snap = context
            handle.batch = batch
            handle.deadline = self.supervision.deadline_for(config, policy)
            handle.unreplied = {index for index, _ in slots}
            handle.inflight_index = None
            try:
                handle.conn.send(batch)
            except (OSError, BrokenPipeError):
                # the worker died while idle; put the batch back and let
                # _check_workers reap and respawn it
                handle.clear()
                pending.appendleft(batch)
                return

    def _drain(
        self, replies: List[SlotReply], pending: Deque[WorkBatch], timeout: float
    ) -> None:
        by_conn = {handle.conn: handle for handle in self._handles}
        ready = mp_connection.wait(list(by_conn), timeout=timeout)
        for conn in ready:
            handle = by_conn[conn]
            if handle not in self._handles:
                continue  # reaped earlier in this drain pass
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    self._reap(handle, replies, pending, reason="worker-died")
                    break
                except Exception:  # torn pickle from a worker killed mid-send
                    self._reap(handle, replies, pending, reason="pipe-corrupt")
                    break
                if not self._handle_message(handle, message, replies):
                    break

    def _handle_message(
        self, handle: _WorkerHandle, message: Any, replies: List[SlotReply]
    ) -> bool:
        """Apply one worker message; returns False once the handle is gone."""
        kind, payload = message
        if kind == "start":
            handle.inflight_index = payload
            handle.inflight_since = time.monotonic()
        elif kind == "reply":
            index = payload[0]
            handle.unreplied.discard(index)
            handle.inflight_index = None
            replies.append(payload)
        elif kind == "idle":
            handle.clear()
            if payload:  # retiring after max_tasks_per_child
                self._retire(handle)
                return False
        return True

    def _retire(self, handle: _WorkerHandle) -> None:
        handle.process.join(timeout=5.0)
        if handle.process.is_alive():  # pragma: no cover - defensive
            handle.process.kill()
            handle.process.join()
        handle.conn.close()
        self._handles.remove(handle)
        self.recycled += 1
        self._note("supervisor.recycled")
        self._handles.append(self._spawn())
        self.respawns += 1
        self._note("supervisor.respawns")

    def _check_workers(
        self, replies: List[SlotReply], pending: Deque[WorkBatch]
    ) -> None:
        now = time.monotonic()
        for handle in list(self._handles):
            if not handle.process.is_alive():
                self._reap(handle, replies, pending, reason="worker-died")
            elif (
                handle.inflight_index is not None
                and handle.deadline is not None
                and now - handle.inflight_since > handle.deadline
            ):
                self._reap(handle, replies, pending, reason="deadline")

    def _reap(
        self,
        handle: _WorkerHandle,
        replies: List[SlotReply],
        pending: Deque[WorkBatch],
        reason: str,
    ) -> None:
        """Kill/bury one worker: strike the in-flight slot, requeue the rest."""
        if handle not in self._handles:
            return
        # Classify by *why* we are reaping, not by a racy is_alive() probe:
        # a crashing worker closes its pipe a beat before the process table
        # notices, and must still count as lost, not killed.
        killed = reason == "deadline"
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join()
        handle.conn.close()
        self._handles.remove(handle)
        if killed:
            self.kills += 1
            self._note("supervisor.kills")
        else:
            self.worker_lost += 1
            self._note("supervisor.worker_lost")

        suspect_sid: Optional[int] = None
        if handle.batch is not None:
            context, slots = handle.batch
            requeue: List[BatchSlot] = []
            for index, strategy in slots:
                if index not in handle.unreplied:
                    continue
                sid = strategy.strategy_id if strategy is not None else None
                if index == handle.inflight_index:
                    suspect_sid = sid
                    strikes = self.strikes.get(sid, 0) + 1
                    self.strikes[sid] = strikes
                    if strikes >= self.supervision.quarantine_after:
                        self.quarantined[sid] = strikes
                        self.quarantines += 1
                        self._note("supervisor.quarantines")
                        if BUS.enabled:
                            BUS.emit("supervisor.quarantine", strategy_id=sid,
                                     strikes=strikes, reason=reason)
                        log.warning("quarantined strategy %s after %d strike(s)",
                                    sid, strikes)
                        replies.append((index, self._quarantine_error(sid), None))
                    else:
                        requeue.append((index, strategy))
                else:
                    requeue.append((index, strategy))
            if requeue:
                pending.appendleft((context, tuple(requeue)))
                self.redispatched += len(requeue)
                self._note("supervisor.redispatched", len(requeue))
        if BUS.enabled:
            BUS.emit("supervisor.kill", reason=reason, strategy_id=suspect_sid,
                     killed=killed)
        log.warning("worker %s (%s); respawning, %d slot(s) redispatched",
                    "killed" if killed else "lost", reason,
                    len(handle.unreplied) - (1 if suspect_sid is not None else 0)
                    if handle.batch is not None else 0)
        self._handles.append(self._spawn())
        self.respawns += 1
        self._note("supervisor.respawns")

    def _quarantine_error(self, sid: Optional[int]) -> RunError:
        strikes = self.quarantined.get(sid, self.strikes.get(sid, 0))
        return RunError(
            strategy_id=sid,
            error_type="Quarantined",
            message=(
                f"strategy killed or hung its worker {strikes} time(s); "
                "parked by the supervisor (see docs/robustness.md)"
            ),
            kind=KIND_QUARANTINED,
            attempts=strikes,
        )

    @staticmethod
    def _note(name: str, n: int = 1) -> None:
        if METRICS.enabled:
            METRICS.inc(name, n)

    # ------------------------------------------------------------ teardown
    def invalidate(self) -> None:
        """Kill every worker; quarantine/strike state survives."""
        for handle in self._handles:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join()
            handle.conn.close()
        self._handles = []

    def close(self) -> None:
        for handle in self._handles:
            try:
                handle.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for handle in self._handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join()
            handle.conn.close()
        self._handles = []

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
