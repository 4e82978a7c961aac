"""Observability overhead benchmark — writes ``BENCH_obs.json``.

Runs the same small strategy sweep three ways and compares wall time and
simulator throughput:

* ``off``     — observability disabled (the default campaign mode)
* ``metrics`` — metrics registry on, no tracing
* ``full``    — metrics + JSONL tracing to a temp directory

The off-mode numbers are the regression baseline: instrumentation sites
must stay a single attribute check when disabled, so ``off`` should match
pre-instrumentation throughput and ``metrics``/``full`` should stay within
a few percent (instrumentation records once per run, never per packet).

``REPEATS`` trials run; each runs all three modes, rotating which mode
goes first.  Every mode reports the median, min and max of its wall time,
and the overhead compares medians.  The ``fleet`` section of the output
file (written by ``bench_fleet.py``) is kept.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py [--runs N] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import tempfile
import time
from pathlib import Path

from repro.core.executor import TestbedConfig
from repro.core.parallel import run_strategies
from repro.core.strategy import Strategy
from repro.obs import BUS, METRICS, ObsConfig
from repro.obs import config as obs_config

REPO_ROOT = Path(__file__).resolve().parent.parent

MODES = ("off", "metrics", "full")

#: trials of all modes; a multiple of len(MODES), so each mode leads equally often
REPEATS = 9


def _strategies(n: int):
    return [
        Strategy(i + 1, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                 action="drop", params={"percent": 5 * (i % 10)})
        for i in range(n)
    ]


def _reset_obs() -> None:
    BUS.configure(None)
    METRICS.enabled = False
    METRICS.reset()
    obs_config._APPLIED = None


def bench_mode(mode: str, runs: int, trace_dir: str) -> dict:
    _reset_obs()
    obs = None
    if mode == "metrics":
        obs = ObsConfig(metrics=True)
    elif mode == "full":
        obs = ObsConfig(trace_dir=trace_dir, metrics=True)
    config = TestbedConfig(protocol="tcp", variant="linux-3.13",
                           duration=2.0, client_stop_at=1.0)
    strategies = _strategies(runs)
    started = time.perf_counter()
    results = run_strategies(config, strategies, workers=1, obs=obs, stage="sweep")
    wall = time.perf_counter() - started
    events = sum(r.events_processed for r in results)
    _reset_obs()
    return {"mode": mode, "runs": runs, "wall_seconds": wall, "sim_events": events}


def summarize(trials: list) -> dict:
    """One mode over all trials: wall-time median and spread."""
    walls = [trial["wall_seconds"] for trial in trials]
    median = statistics.median(walls)
    row = dict(trials[-1])
    row["wall_seconds"] = {
        "median": round(median, 4), "min": round(min(walls), 4), "max": round(max(walls), 4),
    }
    row["events_per_second"] = round(row["sim_events"] / median)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="strategy runs per mode (default 10)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_obs.json"))
    args = parser.parse_args()

    trials: dict = {mode: [] for mode in MODES}
    for trial in range(REPEATS):
        lead = trial % len(MODES)
        with tempfile.TemporaryDirectory() as trace_dir:
            for mode in MODES[lead:] + MODES[:lead]:
                trials[mode].append(bench_mode(mode, args.runs, trace_dir))

    modes = [summarize(trials[mode]) for mode in MODES]
    off = modes[0]["wall_seconds"]["median"]
    for row in modes[1:]:
        row["overhead_vs_off_pct"] = round(
            100.0 * (row["wall_seconds"]["median"] - off) / off, 2
        )

    out = Path(args.out)
    payload = json.loads(out.read_text()) if out.exists() else {}
    payload.update({
        "benchmark": "observability overhead (sinks off vs on)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {"protocol": "tcp", "duration": 2.0, "workers": 1, "repeats": REPEATS},
        "modes": modes,
    })
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(modes, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
