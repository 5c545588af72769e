"""Check that the traced run's work counters repeat exactly for one seed.

    python3 perfbench/repeat_check.py --workload nn1 --seed 3

Runs `perfbench/run.py --trace 1` twice with the same seed, one run after the
other, and compares every per-layer metric whose unit is `count`. Exits 1 and
names the counters that differ, 0 when all repeat.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _counters(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "nn1", "margin"))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    first = _counters(args.workload, args.seed)
    second = _counters(args.workload, args.seed)
    differ = sorted(k for k in first if first[k] != second.get(k))
    for k in sorted(first):
        print(f"{k}: {first[k]} / {second[k]}")
    if differ:
        print(f"counters differ between runs: {', '.join(differ)}", file=sys.stderr)
        return 1
    print(f"all {len(first)} counters repeat on {args.workload}, seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
