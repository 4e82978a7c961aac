"""The per-layer ledger of a traced run.

Three sources, all read from outside the program:

* spans around the public entry points of each layer, recorded by
  wrappers this module installs for the traced campaign only and kept in
  memory until the run ends;
* a cProfile pass, whose self time is bucketed by the ``repro``
  subpackage that owns each function (the method behind the ROADMAP
  profile) and whose call counts give hot-path counts such as
  ``EventHandle.__lt__`` calls;
* the counts the program already exposes: ``RunResult`` /
  ``CampaignResult`` fields and the ``ObsConfig(metrics=True)`` registry.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterator, List

from repro.core.cache import RunCache
from repro.core.checkpoint import CheckpointJournal
from repro.core.detector import AttackDetector
from repro.core.executor import Executor
from repro.core.generation import StrategyGenerator
from repro.netsim.simulator import EventHandle, Simulator
from repro.packets.header import Header

from harness import patched_method

#: (span name, owner class, method) wrapped in the traced campaign
SPAN_POINTS = (
    ("executor.build_world", Executor, "build_world"),
    ("simulator.run", Simulator, "run"),
    ("executor.collect", Executor, "collect"),
    ("cache.get", RunCache, "get"),
    ("cache.put", RunCache, "put"),
    ("journal.record", CheckpointJournal, "record"),
    ("generation.generate", StrategyGenerator, "generate"),
    ("detector.evaluate", AttackDetector, "evaluate"),
)

#: ``repro`` subpackages with their own self-time bucket; the rest of
#: ``repro`` is ``core``, everything outside it (stdlib, builtins, this
#: harness) is ``other``
LAYERS = ("netsim", "packets", "tcpstack", "dccpstack", "proxy", "statemachine", "apps", "obs")
DISPATCH_MODULES = ("core/parallel.py", "core/supervisor.py")
BUCKETS = LAYERS + ("dispatch", "core", "other")

#: hot-path call counts read from the profile
CALL_COUNTS = {
    "netsim.heap_compares": EventHandle.__lt__,
    "packets.header_inits": Header.__init__,
    "packets.has_flag_calls": Header.has_flag,
    "packets.parse_calls": Header.parse.__func__,
}


class SpanRecorder:
    """In-memory spans: (name, start, end, parent index, attributes)."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, method: Any) -> Any:
        @functools.wraps(method)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return method(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        with ExitStack() as stack:
            for name, owner, method in SPAN_POINTS:
                stack.enter_context(
                    patched_method(owner, method, functools.partial(self.wrap, name))
                )
            yield

    def total(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _, _ in self.spans if span_name == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, **attrs}
                ) + "\n")


def _bucket(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    if marker not in path:
        return "other"
    inner = path.split(marker, 1)[1]
    if inner.endswith(DISPATCH_MODULES):
        return "dispatch"
    top = inner.split("/", 1)[0]
    return top if top in LAYERS else "core"


def profile_buckets(profile: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per bucket, plus ``total``."""
    totals = {bucket: 0.0 for bucket in BUCKETS}
    for (filename, _, _), (_, _, self_s, _, _) in pstats.Stats(profile).stats.items():
        totals[_bucket(filename)] += self_s
    totals["total"] = sum(totals[bucket] for bucket in BUCKETS)
    return totals


def profile_calls(profile: cProfile.Profile) -> Dict[str, int]:
    wanted = {
        (f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name): name
        for name, f in CALL_COUNTS.items()
    }
    counts = {name: 0 for name in CALL_COUNTS}
    for key, (_, calls, _, _, _) in pstats.Stats(profile).stats.items():
        if key in wanted:
            counts[wanted[key]] += calls
    return counts


def layer_metrics(
    traced: Any,
    untraced: Any,
    spans: SpanRecorder,
    profile: cProfile.Profile,
    journal_path: str,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    buckets = profile_buckets(profile)
    calls = profile_calls(profile)
    registry = traced.result.metrics or {}
    counters: Dict[str, int] = registry.get("counters", {})
    gauges: Dict[str, float] = registry.get("gauges", {})
    events = counters.get("sim.events", 0)
    enqueued = counters.get("link.enqueued", 0)
    total = buckets["total"] or 1.0

    metrics: Dict[str, float] = {}
    for bucket in BUCKETS:
        metrics[f"{bucket}.self_s"] = buckets[bucket]
    for layer in ("netsim", "packets", "tcpstack", "dccpstack"):
        metrics[f"{layer}.share"] = buckets[layer] / total
    metrics.update({
        "netsim.events": events,
        "netsim.events_per_packet": events / enqueued if enqueued else 0.0,
        "link.enqueued": enqueued,
        "link.dropped": counters.get("link.dropped", 0),
        "link.queue_peak": gauges.get("link.queue_peak", 0),
        "proxy.intercepted": counters.get("proxy.intercepted", 0),
        "proxy.injected": counters.get("proxy.injected", 0),
        "proxy.matched": counters.get("proxy.matched", 0),
        "tracker.packets_observed": counters.get("tracker.packets_observed", 0),
        "tracker.packets_unmatched": counters.get("tracker.packets_unmatched", 0),
        "tracker.transitions": (
            counters.get("tracker.transitions.client", 0)
            + counters.get("tracker.transitions.server", 0)
        ),
        "executor.build_s": spans.total("executor.build_world"),
        "executor.simulate_s": spans.total("simulator.run"),
        "executor.collect_s": spans.total("executor.collect"),
        "dispatch.batches": counters.get("dispatch.batches", 0),
        "confirm_s": untraced.stage_wall("confirm"),
        "dispatch.worker_util": untraced.worker_util(),
        "dispatch.worker_util.sweep": untraced.worker_util("sweep"),
        "dispatch.worker_util.confirm": untraced.worker_util("confirm"),
        "cache.get_s": spans.total("cache.get"),
        "cache.put_s": spans.total("cache.put"),
        "cache.hits": counters.get("cache.hits", 0),
        "cache.misses": counters.get("cache.misses", 0),
        "journal.record_s": spans.total("journal.record"),
        "generation.s": spans.total("generation.generate"),
        "generation.strategies": traced.result.strategies_generated,
        "generation.collapsed": traced.result.strategies_collapsed,
        "detector.evaluate_s": spans.total("detector.evaluate"),
        "detector.flagged": len(traced.result.flagged),
        "snap.forks": counters.get("snap.forks", 0),
        "snap.hits": counters.get("snap.hits", 0),
        "trace.overhead": tracing_overhead(traced, untraced),
    })
    metrics.update(calls)
    with open(journal_path, "r", encoding="utf-8") as fh:
        metrics["journal.records"] = sum(1 for line in fh if line.strip()) - 1
    metrics["journal.bytes"] = os.path.getsize(journal_path)
    return metrics


def tracing_overhead(traced: Any, untraced: Any) -> float:
    """Traced ÷ untraced Σ wall of the executed runs both campaigns share.

    The traced slice is a subset of the untraced one, so runs are matched
    by (stage, strategy_id).  A campaign that executes no runs (the warm
    rerun) compares whole-campaign wall time instead.
    """
    plain = {
        (stage.name, run.strategy_id): run.wall_seconds
        for stage in untraced.stages for run in stage.executed()
    }
    shared = [
        (run.wall_seconds, plain[(stage.name, run.strategy_id)])
        for stage in traced.stages for run in stage.executed()
        if (stage.name, run.strategy_id) in plain
    ]
    if shared:
        return sum(t for t, _ in shared) / sum(u for _, u in shared)
    return traced.campaign_s / untraced.campaign_s
