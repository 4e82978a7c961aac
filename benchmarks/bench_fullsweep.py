"""Full-enumeration campaigns with and without snapshot forking — writes
``BENCH_fullsweep.json``.

For each protocol the full Table I enumeration (``--sample-every 1``) runs
twice through the CLI, once with ``--no-snapshots`` and once on the default
(forking on), each with a checkpoint journal and a metrics snapshot.  The
two journals must be identical under :mod:`repro.snap.compare` and the
forked campaign must report ``snap.divergence == 0``; the script exits 1
otherwise.  Recorded per mode: campaign wall time, wall time by stage (read
from the CLI's progress lines, which are stamped when each stage finishes),
the ``snap.*`` counters, ``runs.completed``/``sim.events``, and the Table I
row the CLI printed.

Usage::

    PYTHONPATH=src python benchmarks/bench_fullsweep.py [--protocols tcp,dccp]
        [--sample-every 1] [--workers 2] [--work-dir DIR] [--out FILE]

The full enumerations take about 40 minutes on 2 cores; ``--sample-every``
gives a quick rehearsal of the same pipeline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.snap.compare import compare_journals

REPO_ROOT = Path(__file__).resolve().parent.parent

VARIANTS = {"tcp": "linux-3.13", "dccp": "linux-3.13-dccp"}

#: one CLI progress line: ``[  12.3s] sweep: 50/230``
_PROGRESS = re.compile(r"\[\s*([0-9.]+)s\] (\w+): (\d+)/(\d+)")


def stage_walls(stderr: str) -> Dict[str, float]:
    """Seconds per stage, from the timestamps of each stage's last line."""
    ends: Dict[str, float] = {}
    for stamp, stage, done, total in _PROGRESS.findall(stderr.replace("\r", "\n")):
        if done == total:
            ends[stage] = float(stamp)
    walls, previous = {}, 0.0
    for stage, end in sorted(ends.items(), key=lambda item: item[1]):
        walls[stage] = round(end - previous, 1)
        previous = end
    return walls


def table1_row(stdout: str) -> List[str]:
    """The header and data lines of the Table I block the CLI prints."""
    block = stdout.split("\n\n", 1)[0].splitlines()
    return [line.rstrip() for line in block if line.strip() and not set(line) <= set("-+ ")]


def run_mode(protocol: str, plain: bool, args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    tag = f"{protocol}-{'plain' if plain else 'forked'}"
    journal, metrics_path = work / f"{tag}.jsonl", work / f"{tag}-metrics.json"
    argv = [
        sys.executable, "-m", "repro", "campaign",
        "--protocol", protocol, "--variant", VARIANTS[protocol],
        "--sample-every", str(args.sample_every), "--workers", str(args.workers),
        "--checkpoint", str(journal), "--metrics-out", str(metrics_path),
    ]
    if plain:
        argv.append("--no-snapshots")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH")))
    )
    started = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{tag}: campaign exited {proc.returncode}\n{proc.stderr[-2000:]}")
    counters = json.loads(metrics_path.read_text()).get("counters", {})
    return {
        "journal": str(journal),
        "campaign_s": round(wall, 1),
        "stage_s": stage_walls(proc.stderr),
        "table1": table1_row(proc.stdout),
        "runs.completed": counters.get("runs.completed", 0),
        "sim.events": counters.get("sim.events", 0),
        "snap": {
            key: round(value, 3) if isinstance(value, float) else value
            for key, value in sorted(counters.items())
            if key.startswith("snap.")
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--protocols", default="tcp,dccp")
    parser.add_argument("--sample-every", type=int, default=1)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--work-dir", default=None,
                        help="where journals and metrics go (default: a temp dir)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_fullsweep.json"))
    args = parser.parse_args()

    work = Path(args.work_dir or tempfile.mkdtemp(prefix="fullsweep-"))
    work.mkdir(parents=True, exist_ok=True)
    out = Path(args.out)
    # protocols measured by an earlier invocation with the same settings
    # are kept, so each protocol can be (re)run on its own
    previous = json.loads(out.read_text()) if out.exists() else {}
    same_run = (previous.get("sample_every"), previous.get("workers")) == (
        args.sample_every, args.workers)
    payload: Dict[str, Any] = {
        "benchmark": "full enumeration, --no-snapshots vs default (forking on)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "sample_every": args.sample_every,
        "workers": args.workers,
        "protocols": previous.get("protocols", {}) if same_run else {},
    }
    ok = True
    for protocol in args.protocols.split(","):
        plain = run_mode(protocol, True, args, work)
        forked = run_mode(protocol, False, args, work)
        identical, report = compare_journals(plain.pop("journal"), forked.pop("journal"))
        divergence = forked["snap"].get("snap.divergence", 0)
        ok = ok and identical and divergence == 0
        payload["protocols"][protocol] = {
            "variant": VARIANTS[protocol],
            "no_snapshots": plain,
            "default": forked,
            "campaign_ratio": round(forked["campaign_s"] / plain["campaign_s"], 3),
            "journals_identical": identical,
            "compare": report.splitlines()[-1] if identical else report,
        }
        print(f"{protocol}: {report.splitlines()[-1]}; campaign "
              f"{plain['campaign_s']}s -> {forked['campaign_s']}s, "
              f"divergence={divergence}", flush=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
    if not ok:
        print("FAIL: a forked journal differs from its --no-snapshots twin")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
