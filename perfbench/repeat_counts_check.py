"""The benchmark's program counts repeat exactly across runs at one seed.

Run explicitly (the name keeps it out of the default test collection,
because it runs every workload twice, about three minutes on two cores):

    python3 -m pytest -q perfbench/repeat_counts_check.py

Each run writes its per-call counts (evaluations, cache hits, prune probes,
candidates kept, propagation work, prior hits, final collectives and the
plan's objective) to ``perfbench/out/``; two fresh processes at one seed
must write identical counts, and every call within a run must repeat the
first.  Count-based claims about a later change rest on this.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 7


def run_counts(workload: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"], proc.stderr
    report = json.loads(
        (HERE / "out" / f"{workload}-s{SEED}-t0.json").read_text())
    calls = report["calls"]
    assert all(call == calls[0] for call in calls), "counts moved between calls"
    return calls[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_across_runs(workload):
    assert run_counts(workload) == run_counts(workload)
