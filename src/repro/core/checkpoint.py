"""Checkpoint journal: crash-safe campaign progress on disk.

The controller appends one JSON line per completed strategy run as results
arrive, so a campaign killed mid-sweep (SIGKILL, OOM, power loss) loses at
most the in-flight chunk.  ``repro campaign --resume <journal>`` reloads
the journal, skips every already-completed strategy, and appends new
results to the same file.

Format — line 1 is a metadata header identifying the campaign; every later
line is one outcome::

    {"version": 1, "protocol": "tcp", "variant": "linux-3.13", "seed": 7, ...}
    {"stage": "sweep", "kind": "result", "outcome": {...RunResult fields...}}
    {"stage": "sweep", "kind": "error",  "outcome": {...RunError fields...}}
    {"stage": "confirm", "kind": "result", "outcome": {...}}

Durability: every :meth:`CheckpointJournal.record` appends its line with
one write, then flushes and fsyncs the file before returning, so a record
that returned is on disk.  An append costs the same however long the
journal is, and the file is never rewritten or replaced.

A SIGKILL mid-write can leave exactly one kind of damage: a torn *final*
line.  :meth:`CheckpointJournal.load` tolerates that and nothing more, and
:meth:`CheckpointJournal.open` truncates the torn line in place before it
appends.  A line that fails to parse anywhere *before* the end of the file
means real damage — disk corruption, a hand edit, interleaved writers —
and raises :class:`JournalCorrupt` instead of silently dropping results (a
dropped result would silently re-run, corrupting exactly-once accounting).
Well-formed JSON records that merely lack the expected fields are still
skipped for forward compatibility.  Resuming against a journal whose
header does not match the current campaign raises
:class:`JournalMismatch` instead of silently mixing incompatible results.
"""

from __future__ import annotations

import json
import os
from typing import BinaryIO, Dict, Optional, Tuple

from repro.core.executor import RunError, RunOutcome, RunResult

JOURNAL_VERSION = 1

#: (stage, strategy_id) -> outcome; stages are "sweep" and "confirm"
CompletedMap = Dict[Tuple[str, Optional[int]], RunOutcome]


class JournalMismatch(ValueError):
    """The journal on disk belongs to a different campaign configuration."""


class JournalCorrupt(ValueError):
    """A non-final journal line is unparseable: the file is damaged.

    Torn final lines are expected after a hard kill and are tolerated;
    garbage anywhere else cannot come from a crash (each append finishes
    before the next begins) and silently skipping it would lose completed
    results.
    """


def encode_outcome(stage: str, outcome: RunOutcome) -> Dict[str, object]:
    """One journal line (as a dict) for a completed run or failure."""
    kind = "error" if isinstance(outcome, RunError) else "result"
    return {"stage": stage, "kind": kind, "outcome": outcome.to_dict()}


def decode_outcome(record: Dict[str, object]) -> RunOutcome:
    """Inverse of :func:`encode_outcome` (the ``outcome`` payload only)."""
    payload = record["outcome"]
    if record.get("kind") == "error":
        return RunError.from_dict(payload)  # type: ignore[arg-type]
    return RunResult.from_dict(payload)  # type: ignore[arg-type]


class CheckpointJournal:
    """Append-only JSONL journal of per-strategy outcomes.

    Usage: :meth:`load` (optionally) to recover completed work, then
    :meth:`open` to start appending, :meth:`record` per outcome, and
    :meth:`close` (or use the instance as a context manager).
    """

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[BinaryIO] = None

    # ------------------------------------------------------------------
    def load(self, expected_meta: Optional[Dict[str, object]] = None) -> CompletedMap:
        """Read completed outcomes back, tolerating only a torn final line.

        ``expected_meta`` keys are compared against the journal header;
        any difference raises :class:`JournalMismatch`.  An unparseable
        line anywhere before the last one raises :class:`JournalCorrupt`.
        """
        completed: CompletedMap = {}
        if not os.path.exists(self.path):
            return completed
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        while lines and not lines[-1]:
            lines.pop()
        header_seen = False
        for index, line in enumerate(lines):
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if index == len(lines) - 1:
                    continue  # half-written tail from a hard kill
                raise self._corrupt(index, exc) from exc
            if not isinstance(record, dict):
                continue
            if not header_seen:
                header_seen = True
                if "version" in record:
                    self._check_meta(record, expected_meta)
                    continue
                # headerless journal: fall through and treat the line
                # as an outcome, but only if no meta was expected
                if expected_meta:
                    raise JournalMismatch(
                        f"{self.path}: journal has no metadata header"
                    )
            if "outcome" not in record or "stage" not in record:
                continue
            try:
                outcome = decode_outcome(record)
            except (KeyError, TypeError, ValueError):
                continue
            completed[(str(record["stage"]), outcome.strategy_id)] = outcome
        return completed

    def _check_meta(self, header: Dict[str, object], expected: Optional[Dict[str, object]]) -> None:
        if not expected:
            return
        for key, value in expected.items():
            if header.get(key) != value:
                raise JournalMismatch(
                    f"{self.path}: journal was written for "
                    f"{key}={header.get(key)!r}, campaign has {key}={value!r}"
                )

    def _corrupt(self, index: int, exc: ValueError) -> JournalCorrupt:
        return JournalCorrupt(
            f"{self.path}: line {index + 1} is not valid JSON ({exc}); "
            "mid-file corruption means the journal is damaged — "
            "delete it (results will re-run) or restore a backup"
        )

    # ------------------------------------------------------------------
    def open(self, meta: Optional[Dict[str, object]] = None) -> "CheckpointJournal":
        """Open for appending; write the header if the file is new/empty.

        A torn final line is truncated away here, in place, so later
        appends do not land behind it in the middle of the file; mid-file
        garbage raises :class:`JournalCorrupt` just as :meth:`load` does.
        """
        fh = open(self.path, "a+b")
        try:
            fh.seek(0)
            lines = fh.read().splitlines(keepends=True)
            last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
            offset = intact = 0  # intact: end of the last line that parses
            for index, line in enumerate(lines[: last + 1]):
                if line.strip():
                    try:
                        json.loads(line)
                    except ValueError as exc:
                        if index < last:
                            raise self._corrupt(index, exc) from exc
                        break  # torn tail from a hard kill: cut it below
                    intact = offset + len(line)
                offset += len(line)
            fh.truncate(intact)
            if intact:
                fh.seek(intact - 1)
                if fh.read(1) != b"\n":  # killed right before the newline
                    fh.write(b"\n")
        except BaseException:
            fh.close()
            raise
        self._fh = fh
        if not intact:
            header = {"version": JOURNAL_VERSION}
            header.update(meta or {})
            self._append(header)
        return self

    def record(self, stage: str, outcome: RunOutcome) -> None:
        """Append one outcome and fsync it (crash safety)."""
        if self._fh is None:
            raise RuntimeError("journal is not open")
        self._append(encode_outcome(stage, outcome))

    def _append(self, record: Dict[str, object]) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Stop accepting records; safe to call when never opened."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
