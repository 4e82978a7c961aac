"""The benchmark's own tests, on the tiny ``smoke`` workload.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace: str, section: str) -> None:
    proc = bench("--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared(section)
    if trace == "0":
        # the human-readable lines name all ten end-to-end metrics
        for name, unit in [*declared(section).items(), ("failed_frac", "ratio")]:
            assert f"\n{name} = " in "\n" + proc.stdout and f" {unit}" in proc.stdout


def test_gate_rejects_a_perturbed_outcome_digest(monkeypatch, capsys) -> None:
    reference = gate.load_reference()
    smoke = dict(reference["smoke"])
    smoke["outcome_digest"] = "0" * 64
    monkeypatch.setattr(gate, "load_reference", lambda path=None: {"smoke": smoke})
    code = run.main(["--workload", "smoke", "--seed", "7", "--seconds", "1"])
    out = capsys.readouterr()
    assert code == 1
    assert "outcome_digest = " in out.out
    result = json.loads(out.out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "CORRECTNESS GATE FAILED" in out.err


def test_digest_ignores_timing_and_cache_flags() -> None:
    from repro.core.executor import RunResult

    base = RunResult(strategy_id=3, protocol="tcp", variant="v", duration=1.0,
                     target_bytes=10, events_processed=99, observed_pairs=(("A", "B"),))
    digest = gate.outcome_digest([gate.outcome_entry("sweep", base)])
    timing = RunResult(**{**base.to_dict(), "wall_seconds": 5.0, "cached": True,
                          "run_id": "x", "observed_pairs": (("A", "B"),)})
    assert gate.outcome_digest([gate.outcome_entry("sweep", timing)]) == digest
    moved = RunResult(**{**base.to_dict(), "events_processed": 100,
                         "observed_pairs": (("A", "B"),)})
    assert gate.outcome_digest([gate.outcome_entry("sweep", moved)]) != digest


def test_fails_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "smoke", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
