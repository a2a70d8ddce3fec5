"""Steadiness check: run one workload in two alternating sets of processes.

    python3 posebench/steadiness.py --workload gmm-66 --runs 10

Both sets run seeds 1..runs at BENCHMARK.json's run_seconds, alternating
run by run (A1 B1 A2 B2 ...). For each set and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json,
then the same spread for each phase's raw and normalised seconds and the
share of failed operations. Last, it prints how far the second set's
median moved from the first's in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run failed (seed {seed}, exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets = [[] for _ in range(SETS)]
    for seed in range(1, args.runs + 1):
        for s in range(SETS):
            detail, result = run_once(args.workload, seed, seconds)
            if not result["correct"]:
                raise SystemExit(f"seed {seed}: outputs failed their checks")
            sets[s].append((detail, result))
            print(f"set {s} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    for s, runs in enumerate(sets):
        print(f"\nset {s}: {len(runs)} runs of {args.workload}, {seconds} s each")
        print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'spread/bound':>12s}")
        for name in runs[0][1]["metrics"]:
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for _, r in runs])
            bound = bounds[name]["bound"]
            print(f"{name:24s} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.4f} {bound:6.3f} "
                  f"{sp / bound:12.3f}")
        for kind in ("raw_phase_s", "normalised_phase_s"):
            cells = []
            for phase in runs[0][0][kind]:
                cells.append(f"{phase} {spread([d[kind][phase] for d, _ in runs])[3]:.4f}")
            print(f"{kind} spread: " + ", ".join(cells))
        shares = {r["failed"] / r["attempted"] for _, r in runs}
        print(f"failed share per run: {sorted(shares)}")

    print("\nsecond set vs first (share of first median, positive = worse):")
    for name, meta in bounds.items():
        a = statistics.median(r["metrics"][name]["value"] for _, r in sets[0])
        b = statistics.median(r["metrics"][name]["value"] for _, r in sets[1])
        worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
        print(f"{name:24s} {worse:+.4f} (bound {meta['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
