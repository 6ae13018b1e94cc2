"""Steadiness report: repeated runs of one code version, spread per metric.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]

Runs `run.py` --runs times per workload and set, each run with another
seed (set s uses seeds s*runs+1 ...), at BENCHMARK.json's run_seconds.
For every end-to-end metric it prints each set's median and the distance
between its first and third quartiles as a share of that median, and, with
two or more sets, how far the last set's median moved from the first
set's.  Both are compared with the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    worst = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = s * args.runs + i + 1
                result = one_run(workload, seed, spec["run_seconds"])
                runs.append(result)
                print(f"{workload} set {s} seed {seed}: failed "
                      f"{result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v['value']:.5g}"
                                 for k, v in result["metrics"].items()),
                      flush=True)
            sets.append(runs)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = [f"{workload:7s} {name:12s}"]
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(values)
                medians.append(med)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
                worst[name] = max(worst.get(name, 0.0), spread / bound)
                line.append(f"median {med:.5g} spread {spread:.3f}")
            if len(medians) > 1:
                worse = (medians[-1] - medians[0]) / abs(medians[0])
                if m["better"] == "higher":
                    worse = -worse
                line.append(f"drift {worse:+.3f}")
            line.append(f"bound {bound}")
            print("  ".join(line), flush=True)
    print("largest spread as a share of its bound: "
          + ", ".join(f"{k} {v:.2f}" for k, v in worst.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
