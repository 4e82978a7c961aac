"""Timing harness: runs campaigns through ``repro.api.run_campaign`` and
times their stages from outside the program.

The controller dispatches each stage through
:func:`repro.core.parallel.run_strategies`; :class:`StageClock` rebinds that
function (wherever a ``repro`` module holds it) for the duration of one
campaign, so the benchmark learns when the sweep and confirm stages start
and end, which strategies and seeds they ran, and what came back — with one
wrapper call per stage and nothing inside the runs.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.api import CampaignSpec, run_campaign
from repro.core import parallel
from repro.core.controller import CampaignResult
from repro.core.executor import RunResult


@contextmanager
def rebound(original: Any, replacement: Any) -> Iterator[None]:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` for the block, then restore them."""
    touched = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                touched.append((module, name))
    try:
        yield
    finally:
        for module, name in touched:
            setattr(module, name, original)


@contextmanager
def patched_method(owner: type, name: str, wrap: Callable[[Any], Any]) -> Iterator[None]:
    original = owner.__dict__[name]
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@dataclass
class Stage:
    """One ``run_strategies`` call of a campaign."""

    name: str
    start: float
    end: float
    config: Any
    seed: Optional[int]
    strategies: List[Any]
    outcomes: List[Any]

    @property
    def wall(self) -> float:
        return self.end - self.start

    def executed(self) -> List[RunResult]:
        return [o for o in self.outcomes if isinstance(o, RunResult) and not o.cached]


class SetupDone(Exception):
    """Raised at the first sweep dispatch of a set-up-only pass."""


class StageClock:
    """Records every stage a campaign dispatches (see module docstring)."""

    def __init__(self, stop_at_sweep: bool = False, span: Optional[Callable[..., Any]] = None):
        self.stop_at_sweep = stop_at_sweep
        self.span = span
        self.stages: List[Stage] = []
        self.first_dispatch: Optional[float] = None

    def wrap(self, original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def run_strategies(config: Any, strategies: Any, *args: Any, **kwargs: Any) -> Any:
            stage = kwargs.get("stage", "sweep")
            start = time.perf_counter()
            if self.first_dispatch is None and stage == "sweep":
                self.first_dispatch = start
                if self.stop_at_sweep:
                    raise SetupDone()
            if self.span is not None:
                with self.span("run_strategies", stage=stage):
                    outcomes = original(config, strategies, *args, **kwargs)
            else:
                outcomes = original(config, strategies, *args, **kwargs)
            self.stages.append(Stage(
                stage, start, time.perf_counter(), config, kwargs.get("seed"),
                list(strategies), list(outcomes),
            ))
            return outcomes

        return run_strategies


@dataclass
class Campaign:
    """One timed ``run_campaign`` call and what it dispatched."""

    spec: CampaignSpec
    result: CampaignResult
    start: float
    end: float
    first_dispatch: float
    stages: List[Stage] = field(default_factory=list)

    @property
    def campaign_s(self) -> float:
        return self.end - self.start

    @property
    def setup_s(self) -> float:
        return self.first_dispatch - self.start

    def stage_wall(self, name: str) -> float:
        return sum(s.wall for s in self.stages if s.name == name)

    def executed(self) -> List[RunResult]:
        return [run for stage in self.stages for run in stage.executed()]

    def entries(self) -> List[Any]:
        return [(s.name, o) for s in self.stages for o in s.outcomes]

    def worker_util(self, name: Optional[str] = None) -> float:
        """Σ executed-run wall ÷ (workers × stage wall), for one stage or all."""
        stages = [s for s in self.stages if name is None or s.name == name]
        wall = sum(s.wall for s in stages)
        busy = sum(run.wall_seconds for s in stages for run in s.executed())
        workers = self.spec.workers or 1
        return busy / (workers * wall) if wall > 0 else 0.0


def timed_campaign(
    spec: CampaignSpec, span: Optional[Callable[..., Any]] = None
) -> Campaign:
    clock = StageClock(span=span)
    with rebound(parallel.run_strategies, clock.wrap(parallel.run_strategies)):
        start = time.perf_counter()
        result = run_campaign(spec)
        end = time.perf_counter()
    first = clock.first_dispatch if clock.first_dispatch is not None else end
    return Campaign(spec, result, start, end, first, clock.stages)


def setup_only(spec: CampaignSpec) -> float:
    """Seconds from the ``run_campaign`` call to its first sweep dispatch;
    the campaign is stopped there, before any sweep run is handed out."""
    clock = StageClock(stop_at_sweep=True)
    with rebound(parallel.run_strategies, clock.wrap(parallel.run_strategies)):
        start = time.perf_counter()
        try:
            run_campaign(spec)
        except SetupDone:
            return clock.first_dispatch - start  # type: ignore[operator]
    raise RuntimeError("campaign finished without a sweep dispatch")


def stage_summary(campaign: Campaign) -> Dict[str, Any]:
    """Per-stage accounting printed with every run (and kept in results/)."""
    rows = {}
    for name in ("sweep", "confirm"):
        stages = [s for s in campaign.stages if s.name == name]
        if not stages:
            continue
        executed = [run for s in stages for run in s.executed()]
        rows[name] = {
            "wall_s": campaign.stage_wall(name),
            "runs": sum(len(s.outcomes) for s in stages),
            "executed": len(executed),
            "busy_s": sum(run.wall_seconds for run in executed),
            "slowest_run_s": max((run.wall_seconds for run in executed), default=0.0),
            "worker_util": campaign.worker_util(name),
        }
    return rows
