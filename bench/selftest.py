"""Repeatability test of the benchmark itself.

Runs every workload's traced run twice at one seed and checks that the
exact per-layer counters and the round-0 digest are identical, and that
the untraced run reports the same digest.  Exits 1 on any difference.

    python3 bench/selftest.py [--seed 7]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("ladder", "corpus", "families", "descent")
TIMED = {"s", "MiB", "ms", "1/s"}


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith("# digest "))
    return json.loads(lines[-1]), digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    bad = []
    for workload in WORKLOADS:
        (first, d1), (second, d2), (plain, d3) = (run(workload, seed, t) for t in (1, 1, 0))
        counters = [
            name for name, m in first["metrics"].items()
            if m["unit"] not in TIMED and name != "trace.overhead_frac"
        ]
        differ = [n for n in counters if first["metrics"][n] != second["metrics"][n]]
        ok = not differ and d1 == d2 == d3 and all(r["correct"] for r in (first, second, plain))
        print(f"{workload}: {len(counters)} counters, digest {d1[:16]}: {'ok' if ok else 'DIFFER ' + str(differ)}")
        if not ok:
            bad.append(workload)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
