"""Correctness gate: outcome digests, the recorded reference, spot re-runs.

Every measured campaign is checked before its numbers count.  The digest
covers each journaled (stage, strategy_id) with the fields that decide a
verdict (bytes, lingering sockets, reset flags, simulated events, observed
pairs) and leaves out timing fields and ``cached``, so it only moves when
simulation results move.  For the default seed the digest and Table I row
must equal ``reference.json``; for every seed the enumeration size must
match the reference (the baseline seeds are fixed), the journal must
hold exactly the outcomes the stages returned, and a few outcomes are
re-executed serially and compared field by field.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.checkpoint import CheckpointJournal
from repro.core.executor import Executor, RunError

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

DIGEST_FIELDS = (
    "target_bytes",
    "competing_bytes",
    "server1_lingering",
    "server2_lingering",
    "target_reset",
    "competing_reset",
    "events_processed",
    "observed_pairs",
)


def outcome_entry(stage: str, outcome: Any) -> List[Any]:
    """The digest's view of one outcome (JSON-ready)."""
    if isinstance(outcome, RunError):
        return [stage, outcome.strategy_id, "error", outcome.kind]
    entry: List[Any] = [stage, outcome.strategy_id]
    for name in DIGEST_FIELDS:
        value = getattr(outcome, name)
        entry.append([list(pair) for pair in value] if name == "observed_pairs" else value)
    return entry


def outcome_digest(entries: Sequence[List[Any]]) -> str:
    ordered = sorted(entries, key=lambda e: (e[0], e[1]))
    return hashlib.sha256(json.dumps(ordered, sort_keys=True).encode()).hexdigest()


def journal_entries(path: str) -> Tuple[List[List[Any]], int]:
    """Entries restored from a checkpoint journal, and its record count."""
    completed = CheckpointJournal(path).load()
    with open(path, "r", encoding="utf-8") as fh:
        records = sum(1 for line in fh if line.strip()) - 1  # minus the header
    return [outcome_entry(stage, outcome) for (stage, _), outcome in completed.items()], records


def load_reference(path: Optional[str] = None) -> Dict[str, Any]:
    path = path or REFERENCE_PATH
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def table1_problems(row: Dict[str, Any]) -> List[str]:
    """Internal consistency of one Table I row (holds for every seed)."""
    problems = []
    parts = row["on_path"] + row["false_positives"] + row["true_attack_strategies"]
    if parts != row["attack_strategies_found"]:
        problems.append(f"table1 partition {parts} != found {row['attack_strategies_found']}")
    if row["attack_strategies_found"] > row["strategies_tried"]:
        problems.append("table1 found more attack strategies than strategies tried")
    return problems


def reference_problems(
    reference: Dict[str, Any], seed: int, generated: int, row: Dict[str, Any], digest: str
) -> List[str]:
    """Differences from the recorded reference (empty list = match)."""
    problems = []
    if reference.get("strategies_generated") != generated:
        problems.append(
            f"strategies_generated {generated} != reference "
            f"{reference.get('strategies_generated')}"
        )
    if reference.get("table1", {}).get("strategies_tried") != row["strategies_tried"]:
        problems.append(
            f"strategies_tried {row['strategies_tried']} != reference "
            f"{reference.get('table1', {}).get('strategies_tried')}"
        )
    if seed == reference.get("seed"):
        if reference.get("table1") != row:
            problems.append(f"table1 {row} != reference {reference.get('table1')}")
        if reference.get("outcome_digest") != digest:
            problems.append(
                f"outcome_digest {digest} != reference {reference.get('outcome_digest')}"
            )
    return problems


def spot_rerun(stages: Sequence[Any], seed: int, count: int = 3) -> List[str]:
    """Re-execute ``count`` sampled outcomes serially and compare entries.

    Returns the problems found.  Sampling is seeded, so the same benchmark
    seed checks the same strategies.
    """
    pool = [
        (stage, strategy, outcome)
        for stage in stages
        for strategy, outcome in zip(stage.strategies, stage.outcomes)
        if strategy is not None
    ]
    picked = random.Random(seed).sample(pool, min(count, len(pool)))
    problems = []
    for stage, strategy, outcome in picked:
        fresh = Executor(stage.config).run(strategy, seed=stage.seed)
        fresh.strategy_id = strategy.strategy_id
        want, got = outcome_entry(stage.name, fresh), outcome_entry(stage.name, outcome)
        if want != got:
            problems.append(f"spot re-run of {stage.name}/{strategy.strategy_id}: {got} != {want}")
    return problems
