"""Noise floor: run one workload over several seeds and report, for every
end-to-end metric, the quartile distance as a share of the median.

Usage (from the repository root)::

    python3 perfbench/noise.py --workload tcp-sweep --seeds 1-10 [--out FILE]

Each seed is a separate ``perfbench/run.py --trace 0`` process, started from
the repository root.  ``--out`` writes the per-seed values and the spreads
as JSON (``results/noise-<workload>.json`` hold the recorded ones).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} failed ({proc.returncode}):\n{proc.stderr}{proc.stdout}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = elapsed
    return result


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    runs = []
    for seed in seeds_from(args.seeds):
        result = run_once(args.workload, seed, args.seconds)
        runs.append({"seed": seed, "process_s": result["process_s"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: {result['process_s']:.1f} s "
              f"correct={result['correct']} failed={result['failed']}", flush=True)
    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [run["metrics"][name] for run in runs]
        summary[name] = {"median": statistics.median(values), "spread": spread(values)}
        print(f"{name:20s} median={summary[name]['median']:.6g} "
              f"spread={summary[name]['spread']:.4f}")
    if args.out:
        payload = {"workload": args.workload, "runs": runs, "summary": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
