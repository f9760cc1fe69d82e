#!/usr/bin/env python3
"""Checks tools/perf_gate.py's count comparison and timing pair rule on fixtures.

The count fixtures are built from the committed tools/perfbench_counts.json, so
the test follows that file: an exact copy must pass, and each kind of mismatch
the counts pass exists to catch must fail, naming the workload and the metric.
The pair-rule fixtures are recorded base/change run_s pairs (4-vCPU host): a
change flat on the run path must pass, a steady event-queue slowdown must fail.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GATE = ROOT / "tools" / "perf_gate.py"
sys.path.insert(0, str(GATE.parent))
import perf_gate  # noqa: E402

failures = []


def results_from(counts):
    """perfbench/run.py result objects carrying exactly `counts`."""
    return {w: {"correct": True, "attempted": 2, "failed": 0,
                "metrics": {m: {"value": v, "unit": "count"} for m, v in metrics.items()}}
            for w, metrics in counts.items()}


def check(label, results, want_pass, *needles):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.json"
        path.write_text(json.dumps(results))
        proc = subprocess.run([sys.executable, str(GATE), "check-counts",
                               str(ROOT / "tools" / "perfbench_counts.json"), str(path)],
                              capture_output=True, text=True)
    passed = proc.returncode == 0
    missing = [n for n in needles if n not in proc.stdout]
    if passed != want_pass or missing:
        failures.append(f"{label}: exit {proc.returncode}, missing {missing} in:\n{proc.stdout}")


counts = json.loads((ROOT / "tools" / "perfbench_counts.json").read_text())
good = results_from(counts)
check("exact copy", good, True)

workload = "static-n500"
off = copy.deepcopy(good)
off[workload]["metrics"]["sim.events"]["value"] += 1
check("one count off by one", off, False, workload, "sim.events")

diverged = copy.deepcopy(good)
diverged["fair-epoch60"]["metrics"]["exp.replica_match"]["value"] = 0
check("replica mismatch", diverged, False, "fair-epoch60", "exp.replica_match")

missing = copy.deepcopy(good)
del missing["lossy-gossip"]
check("missing workload", missing, False, "lossy-gossip")


def judge_pairs(label, pairs, want_pass):
    runs = [tuple({"attempted": 1, "failed": 0, "metrics": {"run_s": {"value": v}}} for v in p)
            for p in pairs]
    metric = {"name": "run_s", "better": "lower", "bound": 0.25}
    found = perf_gate.judge("w", runs, [metric], "run_s")
    if (not found) != want_pass or (found and "w: run_s behind in" not in found[0]):
        failures.append(f"{label}: judge returned {found}")


# Flat change, fluid run: behind in 9 of 10 pairs, but by a median +2.2 % per pair.
judge_pairs("flat change", [(2.12, 2.54), (2.42, 2.56), (2.24, 2.13), (2.18, 2.23), (2.31, 2.36),
                            (2.36, 2.38), (2.10, 2.33), (2.03, 2.07), (2.10, 2.33), (1.96, 1.98)],
            True)
# A 150-iteration spin per EventQueue::pop on static-n500: behind in 9 of 10
# pairs, +10 % on the median, inside the 25 % bound and the base's own IQR.
judge_pairs("event-queue spin", [(1.80, 1.77), (1.46, 1.82), (1.48, 1.76), (2.05, 2.21),
                                 (1.99, 2.40), (1.78, 2.10), (1.56, 1.80), (1.70, 1.80),
                                 (1.59, 1.70), (1.59, 1.82)], False)

for f in failures:
    print(f"FAIL {f}")
sys.exit(1 if failures else 0)
