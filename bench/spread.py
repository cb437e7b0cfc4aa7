"""Run a workload once per seed and report each metric's median, quartiles
and spread (the distance between the quartiles, as a share of the median).

    python3 bench/spread.py --workload numeric --runs 10 --first-seed 1 [--trace 1]

Quartiles are those of statistics.quantiles(values, n=4).  The run length is
the one BENCHMARK.json records.  The per-run result lines are appended to
bench/out/spread-<workload>.jsonl.
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, "trace": args.trace, **result}) + "\n")
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed {result['failed']}/"
              f"{result['attempted']}", file=sys.stderr, flush=True)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{args.workload}: {len(results)} runs, failed shares {shares}, "
          f"all correct: {all(r['correct'] for r in results)}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:24s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:7.2%} {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
