"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cube-scan --seeds 10 [--first-seed 1]

Runs `python3 perfbench/run.py` once per seed, one run at a time, and
prints for each end-to-end metric the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to a third of the metric's bound in
BENCHMARK.json.  The runs' result lines go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    results = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        argv = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - t0
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed} ({elapsed:.1f} s): correct={result['correct']} attempted={result['attempted']} {values}",
              flush=True)

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_out" / f"spread-{args.workload}.json").write_text(json.dumps(results, indent=1))
    ok = all(r["correct"] for r in results)
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        target = metric["bound"] / 3
        flag = "ok" if spread < target else "WIDE"
        print(f"{metric['name']:>12}: median {median:.5g} {metric['unit']}, spread {spread:.3f} "
              f"(a third of the bound: {target:.3f}) {flag}")
    print("all correct" if ok else "SOME RUNS INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
