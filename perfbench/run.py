"""Campaign benchmark: wall time of real campaigns, stage by stage, with a
per-layer ledger from a separate traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tcp-sweep --seed 7 --seconds 10 --trace 0

Each workload runs campaigns through the public ``repro.api.run_campaign``
with ``workers=2`` and every other spec knob at its default (supervised
pool, confirm on, snapshots as the default has them).  ``--seed`` sets
``TestbedConfig.seed``, which drives the sweep and confirm runs; the
baseline seeds are the controller's fixed pair, so the strategies tried do
not depend on it.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload once more serially under spans, cProfile and the metrics
registry and prints the per-layer ledger.  The last line of output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A run
whose correctness gate fails prints its ``outcome_digest`` and exits 1.

Workloads (see NOTES.md for why each exists):

* ``tcp-sweep``  – cold TCP campaign, linux-3.13, paper testbed, 1-in-60 slice
* ``dccp-sweep`` – cold DCCP campaign, linux-3.13-dccp, 1-in-48 slice
* ``warm-rerun`` – TCP campaign whose every run is already cached (filled
  untimed on a 0.5 s testbed over a 1-in-8 slice), rerun against the cache
* ``smoke``      – a tiny TCP campaign for the benchmark's own tests
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")


@dataclass(frozen=True)
class Workload:
    protocol: str
    variant: str
    #: stratified 1-in-N slice of the enumeration timed per campaign
    sample_every: int
    #: 1-in-N slice of the traced serial pass (a multiple of sample_every,
    #: so its strategies are a subset of the timed slice)
    trace_every: int
    #: testbed overrides (None = paper testbed defaults)
    duration: Optional[float] = None
    client_stop_at: Optional[float] = None
    #: fill the run cache first (untimed), then time reruns against it
    warm: bool = False


WORKLOADS = {
    "tcp-sweep": Workload("tcp", "linux-3.13", sample_every=60, trace_every=240),
    "dccp-sweep": Workload("dccp", "linux-3.13-dccp", sample_every=48, trace_every=192),
    "warm-rerun": Workload(
        "tcp", "linux-3.13", sample_every=8, trace_every=8,
        duration=0.5, client_stop_at=0.25, warm=True,
    ),
    "smoke": Workload(
        "tcp", "linux-3.13", sample_every=50, trace_every=200,
        duration=0.5, client_stop_at=0.25,
    ),
}

WORKERS = 2
#: set-up-only passes added to a sweep campaign's own set-up sample
SETUP_PASSES = 4
#: reruns timed per warm-rerun run, at least (more while --seconds lasts),
#: after one untimed warm-up rerun
MIN_RERUNS = 15

END_TO_END_UNITS = {
    "campaign_s": "s",
    "setup_s": "s",
    "sweep_s": "s",
    "strategies_per_s": "1/s",
    "events_per_core_s": "events/s",
    "run_ms.p50": "ms",
    "run_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str, code: int = 2) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time; campaigns repeat until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batch-size", type=int, default=None,
                        help="override CampaignSpec.batch_size (stage-accounting studies)")
    parser.add_argument("--record-reference", action="store_true",
                        help="write this run's Table I row and digest to reference.json")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# campaign specs


def testbed(workload: Workload, seed: int) -> Any:
    from repro.core import TestbedConfig

    config = TestbedConfig(protocol=workload.protocol, variant=workload.variant, seed=seed)
    if workload.duration is not None:
        config = replace(config, duration=workload.duration)
    if workload.client_stop_at is not None:
        config = replace(config, client_stop_at=workload.client_stop_at)
    return config


class Scratch:
    """Fresh cache/journal paths inside the checkout, removed at exit."""

    def __init__(self, tag: str):
        self.root = os.path.join(WORK, f"{tag}-{os.getpid()}")
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self._n = 0

    def path(self, name: str) -> str:
        self._n += 1
        return os.path.join(self.root, f"{self._n:03d}-{name}")

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def base_spec(workload: Workload, args: argparse.Namespace) -> Any:
    from repro.api import CampaignSpec

    spec = CampaignSpec(
        testbed=testbed(workload, args.seed), workers=WORKERS,
        sample_every=workload.sample_every,
    )
    if args.batch_size is not None:
        spec = spec.with_overrides(batch_size=args.batch_size)
    return spec


# ---------------------------------------------------------------------------
# measurement


class Checks:
    """Accumulates correctness over every measured campaign of one run."""

    def __init__(self, workload_name: str, seed: int):
        import gate

        self.gate = gate
        self.seed = seed
        self.reference = gate.load_reference().get(workload_name, {})
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: List[str] = []

    def check(self, campaign: Any, journal: Optional[str], expect_digest: Optional[str] = None,
              expect_no_runs: bool = False, against_reference: bool = True) -> str:
        """Gate one campaign; returns its outcome digest.

        RunError outcomes count as failed runs; any other problem fails
        every outcome of the campaign."""
        gate = self.gate
        entries = [gate.outcome_entry(stage, o) for stage, o in campaign.entries()]
        digest = gate.outcome_digest(entries)
        self.digests.append(digest)
        self.attempted += len(entries)
        errors = sum(1 for e in entries if e[2:3] == ["error"])
        problems: List[str] = []
        if journal is not None:
            restored, records = gate.journal_entries(journal)
            if records != len(entries) or gate.outcome_digest(restored) != digest:
                problems.append(f"journal ({records} records) differs from the stage outcomes")
        row = campaign.result.table1_row()
        problems += gate.table1_problems(row)
        if self.reference and against_reference:
            problems += gate.reference_problems(
                self.reference, self.seed, campaign.result.strategies_generated, row, digest
            )
        if expect_digest is not None and digest != expect_digest:
            problems.append(f"rerun digest {digest} != fill digest {expect_digest}")
        if expect_no_runs and campaign.result.runs_executed != 0:
            problems.append(f"runs_executed == {campaign.result.runs_executed}, expected 0")
        self.failed += len(entries) if problems else errors
        if errors:
            problems.append(f"{errors} run(s) ended in RunError")
        self.problems += problems
        return digest

    def spot_check(self, campaign: Any) -> None:
        problems = self.gate.spot_rerun(campaign.stages, self.seed)
        self.failed += len(problems)
        self.problems += problems

    @property
    def correct(self) -> bool:
        return not self.problems


def percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(campaigns: List[Any], setups: List[float], runs: List[Any]) -> Dict[str, float]:
    """The end-to-end metrics over the measured campaigns.

    Stage times are medians over campaigns (set-up also over its extra
    passes); per-run figures pool every executed run (``runs``)."""
    walls = [run.wall_seconds for run in runs]
    events = sum(run.events_processed for run in runs)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "campaign_s": statistics.median(c.campaign_s for c in campaigns),
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(c.stage_wall("sweep") for c in campaigns),
        "confirm_s": statistics.median(c.stage_wall("confirm") for c in campaigns),
        "strategies_per_s": statistics.median(
            c.result.strategies_tried / c.campaign_s for c in campaigns
        ),
        "events_per_core_s": events / sum(walls) if walls else 0.0,
        "run_ms.p50": 1000.0 * percentile(walls, 50),
        "run_ms.p90": 1000.0 * percentile(walls, 90),
        "peak_rss_mb": (self_rss + child_rss) / 1024.0,
    }


def run_sweep(workload: Workload, args: argparse.Namespace, scratch: Scratch, checks: Checks):
    from harness import setup_only, timed_campaign

    spec = base_spec(workload, args)
    campaigns, journals = [], []
    started = time.perf_counter()
    while not campaigns or time.perf_counter() - started < args.seconds:
        journal = scratch.path("journal.jsonl")
        campaigns.append(timed_campaign(spec.with_overrides(
            checkpoint=journal, cache_dir=scratch.path("cache"),
        )))
        journals.append(journal)
    setups = [c.setup_s for c in campaigns]
    for _ in range(SETUP_PASSES):
        setups.append(setup_only(spec.with_overrides(cache_dir=scratch.path("cache"))))
    for campaign, journal in zip(campaigns, journals):
        checks.check(campaign, journal)
    checks.spot_check(campaigns[0])
    runs = [run for c in campaigns for run in c.executed()]
    return campaigns, setups, runs


def fill_cache(workload: Workload, args: argparse.Namespace, scratch: Scratch):
    """Fill the run cache (untimed) with the code under test."""
    from harness import timed_campaign

    spec = base_spec(workload, args).with_overrides(cache_dir=scratch.path("cache"))
    fill = timed_campaign(spec)
    os.sync()  # flush the fill's writes so reruns do not pay for them
    return spec, fill


def run_warm(workload: Workload, args: argparse.Namespace, scratch: Scratch, checks: Checks):
    from harness import timed_campaign

    spec, fill = fill_cache(workload, args, scratch)
    fill_digest = checks.check(fill, None)
    checks.spot_check(fill)
    campaigns = []
    started = None
    while len(campaigns) <= MIN_RERUNS or time.perf_counter() - started < args.seconds:
        # no journal: its rewrite-and-fsync per record is disk-bound and
        # swings 2x between runs on a shared disk (NOTES.md); the traced
        # run writes one and reports journal.record_s
        rerun = timed_campaign(spec)
        checks.check(rerun, None, expect_digest=fill_digest, expect_no_runs=True)
        for stage in rerun.stages:  # gated: drop the outcomes so RSS does not
            stage.outcomes = stage.strategies = []  # grow with the rerun count
        campaigns.append(rerun)
        if started is None:  # the first rerun warms up; time from here
            started = time.perf_counter()
    timed = campaigns[1:]
    # the reruns execute nothing: per-run figures come from the fill, the
    # only simulation this workload does
    return timed, [c.setup_s for c in timed], fill.executed()


def run_traced(workload: Workload, args: argparse.Namespace, scratch: Scratch, checks: Checks):
    """Untraced campaign (workers=2) + traced serial pass → the ledger."""
    from harness import timed_campaign
    from ledger import SpanRecorder, layer_metrics
    from repro.obs import METRICS, ObsConfig

    if workload.warm:
        spec, fill = fill_cache(workload, args, scratch)
        fill_digest = checks.check(fill, None)
        plain_journal = scratch.path("journal.jsonl")
        untraced = timed_campaign(spec.with_overrides(checkpoint=plain_journal))
        traced_spec = spec
    else:
        fill_digest = None
        spec = base_spec(workload, args).with_overrides(cache_dir=scratch.path("cache"))
        plain_journal = scratch.path("journal.jsonl")
        untraced = timed_campaign(spec.with_overrides(checkpoint=plain_journal))
        traced_spec = spec.with_overrides(
            sample_every=workload.trace_every, cache_dir=scratch.path("cache")
        )
    checks.check(untraced, plain_journal, expect_digest=fill_digest,
                 expect_no_runs=workload.warm)
    journal = scratch.path("journal.jsonl")
    traced_spec = traced_spec.with_overrides(
        workers=1, checkpoint=journal, obs=ObsConfig(metrics=True)
    )
    spans = SpanRecorder()
    profile = cProfile.Profile()
    METRICS.reset()
    with spans.installed():
        profile.enable()
        try:
            traced = timed_campaign(traced_spec, span=spans.span)
        finally:
            profile.disable()
    checks.check(traced, journal, expect_digest=fill_digest, expect_no_runs=workload.warm,
                against_reference=workload.warm)
    metrics = layer_metrics(traced, untraced, spans, profile, journal)
    os.makedirs(WORK, exist_ok=True)
    spans.write(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return metrics


# ---------------------------------------------------------------------------


def record_reference(name: str, args: argparse.Namespace, campaign: Any, digest: str) -> None:
    import gate

    reference = gate.load_reference()
    reference[name] = {
        "seed": args.seed,
        "strategies_generated": campaign.result.strategies_generated,
        "table1": campaign.result.table1_row(),
        "outcome_digest": digest,
    }
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"no repro package under {SRC}; run from a checkout of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    workload = WORKLOADS[args.workload]
    checks = Checks(args.workload, args.seed)
    scratch = Scratch(args.workload)
    try:
        if args.trace:
            metrics = run_traced(workload, args, scratch, checks)
            units = layer_units()
        else:
            runner = run_warm if workload.warm else run_sweep
            campaigns, setups, runs = runner(workload, args, scratch, checks)
            metrics = end_to_end(campaigns, setups, runs)
            units = END_TO_END_UNITS
            report(args, campaigns, runs, checks, metrics)
            if args.record_reference:
                if not checks.correct and checks.reference:
                    fail("refusing to record a reference from a run that fails the gate")
                record_reference(args.workload, args, campaigns[0], checks.digests[-1])
    finally:
        scratch.close()
    if not checks.correct:
        print("CORRECTNESS GATE FAILED:", file=sys.stderr)
        for problem in checks.problems:
            print(f"  {problem}", file=sys.stderr)
        print(f"outcome_digest = {checks.digests[-1] if checks.digests else None}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if checks.correct else 1


def layer_units() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def report(args: argparse.Namespace, campaigns: List[Any], runs: List[Any], checks: Checks,
           metrics: Dict[str, float]) -> None:
    """Human-readable lines before the JSON: all ten end-to-end metrics and
    the stage accounting of the first campaign.

    Two of them stay out of the result line: ``confirm_s`` varies from seed
    to seed with the number of confirm candidates by about as much as any
    bound allows (it is a per-layer metric of the traced run), and
    ``failed_frac`` is the result line's failed/attempted."""
    from harness import stage_summary

    print(f"# {args.workload} seed={args.seed} campaigns={len(campaigns)} "
          f"executed_runs={len(runs)} table1={campaigns[0].result.table1_row()}")
    for name, unit in [*END_TO_END_UNITS.items(), ("confirm_s", "s")]:
        note = f"  (n={len(runs)} runs)" if name.startswith("run_ms") else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    failed_frac = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"failed_frac = {failed_frac:.6g} ratio  ({checks.failed}/{checks.attempted})")
    for stage, row in stage_summary(campaigns[0]).items():
        print(f"stage {stage}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()))


if __name__ == "__main__":
    raise SystemExit(main())
