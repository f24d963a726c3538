"""Steadiness of the benchmark's end-to-end metrics across seeds.

    python3 perfbench/steadiness.py --workload closure --seeds 1-10
                                    [--seconds 30] [--out FILE]

Makes one '--trace 0' run of perfbench/run.py per seed, one after the
other, and prints for every end-to-end metric its median over the runs and
its spread: the interquartile range (statistics.quantiles, n=4) over the
median.  A metric is steady when its spread is within a third of its bound
in BENCHMARK.json.  --out writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["iterations"] = json.loads(lines[-2])["provenance"]["iterations"][
        workload]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]

    runs = []
    for seed in seed_range(args.seeds):
        runs.append(one_run(args.workload, seed, seconds))
        print(f"seed {seed}: correct {runs[-1]['correct']}, " + ", ".join(
            f"{k} {m['value']:.4f}" for k, m in runs[-1]["metrics"].items()),
            flush=True)
    summary = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        summary[metric["name"]] = {"median": statistics.median(values),
                                   "spread": spread(values),
                                   "bound": metric["bound"]}
        s = summary[metric["name"]]
        print(f"{metric['name']:<12} median {s['median']:.4f} spread "
              f"{s['spread']:.4f} (bound {s['bound']}, a third "
              f"{s['bound'] / 3:.4f})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": runs, "summary": summary}, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
