"""Steadiness report: do two sets of runs of the same code agree?

Usage:
    python3 bench/steadiness.py

Run from the repository root. For each workload of BENCHMARK.json it
makes two sets of ten untraced runs of ``bench/run.py``, each run
BENCHMARK.json's ``run_seconds`` long and with its own seed (1000-1009,
then 2000-2009). For every end-to-end metric it prints both sets'
medians and quartiles, the spread (q3 - q1) / median of each set, and
how far the second median moved from the first, each against the
metric's bound. It also prints each set's median reference-kernel time
(as a multiple of the time ``run.py`` rescales to) and how many runs
``run.py`` marked not comparable, and each set's share of failed ops,
which must be the same. The whole report is saved to
``bench/out/steadiness.json``; the exit code is 0 only if every test
passes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run: its printed result plus the record run.py wrote."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace0.json")
                        .read_text(encoding="utf-8"))
    result["reference_ratio"] = record["reference_ratio"]
    result["comparable"] = record["comparable"]
    return result


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    report, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[one_run(workload, 1000 * (k + 1) + i, seconds) for i in range(RUNS)]
                for k in range(2)]
        report[workload] = {"runs": sets, "metrics": {}}
        print(f"\n{workload}  ({RUNS} runs per set, {seconds} s each)")
        print(f"  {'metric':<12} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11}"
              f" {'spread':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            moved = worse_by(stats[0]["median"], stats[1]["median"], metric["better"])
            for k, s in enumerate(stats):
                print(f"  {name:<12} {k + 1:>3} {s['q1']:>11.5g} {s['median']:>11.5g}"
                      f" {s['q3']:>11.5g} {s['spread']:>7.1%} {bound:>6.0%}")
            spread_ok = all(s["spread"] <= bound for s in stats)
            verdict = "ok" if spread_ok and moved <= bound else "OUT OF BOUND"
            ok &= verdict == "ok"
            print(f"  {name:<12} second median worse by {moved:+.1%}: {verdict}")
            report[workload]["metrics"][name] = {"sets": stats, "worse_by": moved,
                                                 "bound": bound, "verdict": verdict}
        kernels = [statistics.median(r["reference_ratio"] for r in runs) for runs in sets]
        outside = [sum(not r["comparable"] for r in runs) for runs in sets]
        ok &= not any(outside)
        print(f"  reference kernel, median per set: {kernels[0]:.2f} / {kernels[1]:.2f}"
              f" x; runs not comparable: {outside[0]} / {outside[1]}")
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        same = shares[0] == shares[1] and len(shares[0]) == 1
        ok &= same
        print(f"  failed share per set: {shares[0]} / {shares[1]}"
              f" {'same' if same else 'DIFFERENT'}")
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= correct
        print(f"  all outputs correct: {correct}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n",
                                         encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
