"""Run workloads at several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0-9 --seconds 10
    python3 perfbench/spread.py --workloads warm-t8 --seeds 0-4 --seconds 10

For each workload (all of them by default) and every metric of the runs'
result lines, it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  It also prints
``failed_frac``, the failed calls over the attempted ones across all runs.
Runs go one at a time, each in a fresh process, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def spread(workload: str, seeds, seconds: str) -> bool:
    values, units = {}, {}
    attempted = failed = 0
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                  f"{proc.stderr}", file=sys.stderr)
            return False
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)
    print(f"{workload}: failed_frac {failed / attempted:.3f} "
          f"({failed}/{attempted})")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median if median else 0.0
        print(f"{workload}: {name:26s} {units[name]:6s} median "
              f"{median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {share:7.2%}", flush=True)
    return failed == 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default="0-9")
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()
    ok = [spread(name, args.seeds, args.seconds)
          for name in args.workloads.split(",")]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
