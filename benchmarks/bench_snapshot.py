"""Snapshot/fork engine benchmark — merges a ``snapshot`` section into
``BENCH_sweep.json``.

Measures two regimes over the same strategy workload:

* ``sweep`` — everything the engine does from cold (scout run, snapshot
  builds, forks, elisions, and full-run fallbacks for ineligible
  strategies) against executing every strategy in full.  This is what a
  single forking campaign sees end to end.
* ``warm``  — the engine pre-warmed (scout cached, snapshots built),
  restricted to the strategies it actually serves.  This is the
  steady-state fork throughput a long sweep amortizes toward, and the
  number the ``--min-speedup`` regression guard applies to.

The benchmark asserts the determinism contract on the way through: every
engine-served result must equal its full-run twin field for field (minus
wall clock and run naming), so a speedup obtained by cutting corners
fails the run rather than flattering it.

The testbed uses ``duration=4.5`` so the run length tracks the target
connection's lifetime (teardown lands around t=3).  The default 10 s
duration pads every run with ~7 s of competing-flow-only traffic that no
snapshot can skip and every mode pays identically; it dilutes the
measurement without changing the contract being measured.

Usage::

    PYTHONPATH=src python benchmarks/bench_snapshot.py [--strategies N]
        [--out FILE] [--min-speedup X]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.core.executor import Executor, TestbedConfig
from repro.core.generation import StrategyGenerator, snapshot_descriptor
from repro.obs.metrics import METRICS
from repro.packets.tcp import TCP_FORMAT
from repro.snap import SnapshotConfig, execute_run, reset_engine
from repro.snap.engine import comparable_result
from repro.statemachine.specs import tcp_state_machine

REPO_ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strategies", type=int, default=30,
                        help="workload size, sampled evenly across the "
                             "snapshot-eligible search space (default 30)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="regression guard: fail below this warm fork speedup")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_sweep.json"))
    args = parser.parse_args()

    config = TestbedConfig(duration=4.5)
    generator = StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine())
    baseline = Executor(config).run(None)
    eligible = [
        strategy
        for strategy in generator.generate(baseline.observed_pairs)
        if snapshot_descriptor(strategy) is not None
    ]
    stride = max(1, len(eligible) // args.strategies)
    workload = eligible[::stride][: args.strategies]
    # enough room for every distinct prefix in the workload, so the warm
    # phase measures forking rather than LRU eviction churn
    snap = SnapshotConfig(enabled=True, verify_fraction=0.0, max_cached=64)

    started = time.perf_counter()
    full_results = [Executor(config).run(strategy) for strategy in workload]
    full_wall = time.perf_counter() - started
    logical_events = sum(result.events_processed for result in full_results)

    # --- sweep regime: cold engine, full fallback for ineligible runs ---
    reset_engine()
    METRICS.enabled = True
    METRICS.reset()
    served = {}
    started = time.perf_counter()
    sweep_results = []
    for strategy in workload:
        result = execute_run(config, strategy, None, 0, snap)
        if result is not None:
            served[strategy.strategy_id] = strategy
        else:
            # same fallback the dispatch layer uses for ineligible runs
            result = Executor(config).run(strategy)
        sweep_results.append(result)
    sweep_wall = time.perf_counter() - started
    counters = {
        key: value
        for key, value in METRICS.snapshot()["counters"].items()
        if key.startswith("snap.")
    }
    METRICS.enabled = False
    METRICS.reset()

    mismatched = [
        strategy.strategy_id
        for strategy, full, forked in zip(workload, full_results, sweep_results)
        if comparable_result(full) != comparable_result(forked)
    ]

    # --- warm regime: snapshots already built, served strategies only ---
    warm_workload = list(served.values())
    by_id = {s.strategy_id: r for s, r in zip(workload, full_results)}
    warm_full_wall = sum(
        by_id[s.strategy_id].wall_seconds for s in warm_workload
    )
    warm_events = sum(by_id[s.strategy_id].events_processed for s in warm_workload)
    started = time.perf_counter()
    for strategy in warm_workload:
        execute_run(config, strategy, None, 0, snap)
    warm_wall = time.perf_counter() - started

    sweep_speedup = round(full_wall / sweep_wall, 2)
    warm_speedup = round(warm_full_wall / warm_wall, 2)
    section = {
        "benchmark": "snapshot/fork engine (full re-execution vs prefix forking)",
        "config": {"protocol": "tcp", "duration": 4.5,
                   "strategies": len(workload)},
        "sweep": {
            "full_wall_seconds": round(full_wall, 4),
            "forked_wall_seconds": round(sweep_wall, 4),
            "logical_events": logical_events,
            "events_per_second_full": round(logical_events / full_wall),
            "events_per_second_forked": round(logical_events / sweep_wall),
            "speedup": sweep_speedup,
            "engine_served": len(served),
        },
        "warm": {
            "full_wall_seconds": round(warm_full_wall, 4),
            "forked_wall_seconds": round(warm_wall, 4),
            "logical_events": warm_events,
            "events_per_second_full": round(warm_events / warm_full_wall),
            "events_per_second_forked": round(warm_events / warm_wall),
            "speedup": warm_speedup,
            "strategies": len(warm_workload),
        },
        "counters": counters,
    }

    out_path = Path(args.out)
    payload = {}
    if out_path.exists():
        try:
            payload = json.loads(out_path.read_text())
        except ValueError:
            payload = {}
    payload.setdefault("python", platform.python_version())
    payload.setdefault("machine", platform.machine())
    payload["snapshot"] = section
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(section, indent=2))

    if mismatched:
        print(f"FAIL: forked results diverged from full runs for "
              f"strategies {mismatched}")
        return 1
    if warm_speedup < args.min_speedup:
        print(f"FAIL: warm fork speedup {warm_speedup}x below {args.min_speedup}x")
        return 1
    print(f"ok: sweep {sweep_speedup}x ({len(served)}/{len(workload)} engine-served), "
          f"warm {warm_speedup}x, results identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
