"""The catkit benchmark.

    python3 perfbench/run.py --workload {verify,closure,tables,certify,all}
                             --seed N --seconds S --trace {0,1} [--out FILE]

Closed loop, one client: one single-threaded worker process at a time, each
sample starting after the previous one has exited.  Every sample is a fresh
interpreter (perfbench/worker.py), because the CLI pays catkit's cold
lru_cache cost on every invocation.  Samples repeat until the next one
would end after --seconds; there is always at least one.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb,
each the median over the run's samples, and setup_s, the median over the
samples and SETUP_PROBES set-up-only workers.  The host's speed swings by
tens of percent, within seconds and between minutes, so wall_s, cpu_s and
setup_s are given at a fixed host speed: each time is multiplied by
REFERENCE_PROBE_S over the median of the speed probes (see worker.py)
taken with it, the ones of its timed region or its set-up burst.  That is
the time the sample would take on a host that runs the probe loop in
REFERENCE_PROBE_S.  The raw medians are printed beside them.  --trace 1
alternates untraced and traced samples and reports the per-layer metrics
of layers.json, medians over the traced samples, plus trace.overhead_ratio
(median traced over median untraced wall time).

The first sample's outputs are checked against known answers (answers.py);
every other sample must print byte-identical output for every op, traced
or not.  An op that raises, fails its check or differs counts as failed.
The last stdout line is the result JSON; the exit code is 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402

WORKLOADS = ["verify", "closure", "tables", "certify"]
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
EXACT_UNITS = {"count", "bytes"}
RUN_LIMIT_S = 170      # a run never takes longer, whatever --seconds says
SETUP_PROBES = 5       # set-up-only workers per run, besides every sample's
REFERENCE_PROBE_S = 1e-4  # probe loop time that the timings are given at


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    uname = os.uname()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "system": uname.sysname,
            "release": uname.release, "machine": uname.machine,
            "commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def run_sample(workload: str, seed: int, traced: bool, checked: bool,
               timeout: float) -> dict:
    """One worker process; its sample, or {'error': ...} if it crashed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(int(traced)), str(int(checked))]
    started = time.perf_counter()
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + [str(spawn_ns)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out", "traced": traced,
                "elapsed": time.perf_counter() - started}
    elapsed = time.perf_counter() - started
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with {proc.returncode}",
                "traced": traced, "elapsed": elapsed}
    sample = json.loads(lines[-1])
    sample["elapsed"] = elapsed
    return sample


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    kinds = [False, True] if trace else [False]
    samples: list[dict] = []
    reference = None          # the checked sample every other one must match
    t0 = time.perf_counter()
    probes = [run_sample("setup", seed, False, False, RUN_LIMIT_S)
              for _ in range(SETUP_PROBES)]
    while True:
        traced = kinds[len(samples) % len(kinds)]
        remaining = RUN_LIMIT_S - (time.perf_counter() - t0)
        sample = run_sample(workload, seed, traced, reference is None,
                            remaining)
        samples.append(sample)
        if reference is None and "ops" in sample:
            reference = sample
        elapsed = time.perf_counter() - t0
        if sample.get("error") == "worker timed out":
            break
        if len(samples) < len(kinds):
            continue
        upcoming = kinds[len(samples) % len(kinds)]
        estimate = statistics.median(s["elapsed"] for s in samples
                                     if s["traced"] == upcoming)
        if elapsed + estimate > min(seconds, RUN_LIMIT_S):
            break
    return summarize(workload, samples, reference, trace, probes)


def rescaled(seconds: float, probes: list[float]) -> float:
    """A time taken while the probes ran, at the reference probe speed."""
    return seconds * REFERENCE_PROBE_S / statistics.median(probes)


def summarize(workload: str, samples: list[dict], reference: dict | None,
              trace: bool, probes: list[dict]) -> dict:
    problems, unstable_counts = [], []
    n_ops = len(reference["ops"]) if reference else 1
    attempted = failed = 0
    for s in samples:
        attempted += n_ops
        if "ops" not in s:
            failed += n_ops
            problems.append(s["error"])
            continue
        for rec, ref in zip(s["ops"], reference["ops"]):
            if rec["error"] or ref["error"]:
                failed += 1
                problems.append(f"{rec['op']}: {rec['error'] or ref['error']}")
            elif rec["digest"] != ref["digest"]:
                failed += 1
                problems.append(f"{rec['op']}: output differs between samples"
                                f" (traced={s['traced']})")
    good = [s for s in samples if "ops" in s]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    metrics = {}
    workers = [s for s in probes + good if "setup_s" in s]
    setups = [rescaled(s["setup_s"], s["setup_probes"]) for s in workers]
    if not trace and plain:
        for name, unit in END_TO_END.items():
            if name == "setup_s":
                values = setups
            elif name == "peak_rss_mb":
                values = [s[name] for s in plain]
            else:
                values = [rescaled(s[name], s["probes"]) for s in plain]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    if trace and plain and traced:
        for spec in layers.metric_specs(layers.load()):
            name, unit = spec["name"], spec["unit"]
            if name == "trace.overhead_ratio":
                value = (statistics.median(s["wall_s"] for s in traced)
                         / statistics.median(s["wall_s"] for s in plain))
            else:
                values = [s["layer"][name] for s in traced]
                if unit in EXACT_UNITS and len(set(values)) > 1:
                    unstable_counts.append(name)
                    problems.append(f"{name} differs between traced samples:"
                                    f" {values}")
                value = (statistics.median_low(values) if unit in EXACT_UNITS
                         else statistics.median(values))
            metrics[name] = {"value": value, "unit": unit}
        for s in traced:
            problems += [f"not traced, no such function: {m}"
                         for m in s["missing"]]
    correct = failed == 0 and bool(metrics) and not unstable_counts
    return {"workload": workload, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics, "problems": problems,
            "samples": samples, "setups": setups,
            "raw_setups": [s["setup_s"] for s in workers],
            "median_probe_s": statistics.median(
                t for s in workers
                for t in s["setup_probes"] + s.get("probes", []))}


def describe(result: dict) -> list[str]:
    samples = result["samples"]
    traced = sum(1 for s in samples if s.get("traced"))
    lines = [f"workload {result['workload']}: {len(samples)} samples "
             f"({len(samples) - traced} untraced, {traced} traced), "
             f"fail_ratio {result['failed']}/{result['attempted']} = "
             f"{result['failed'] / result['attempted']:.4g}"]
    plain = [s for s in samples if "ops" in s and not s["traced"]]
    if result["metrics"].keys() & END_TO_END.keys():
        lines.append(f"  at a probe time of {REFERENCE_PROBE_S * 1e3:g} ms;"
                     f" median probe {result['median_probe_s'] * 1e3:.4f} ms,"
                     f" raw is the median before rescaling")
    for name, metric in result["metrics"].items():
        if name in END_TO_END:
            raw = (result["raw_setups"] if name == "setup_s"
                   else [s[name] for s in plain])
            lines.append(f"  {name:<12} {metric['value']:10.4f} "
                         f"{metric['unit']:<3} median of {len(raw)}, "
                         f"raw {statistics.median(raw):.4f}, "
                         f"raw min {min(raw):.4f}, raw max {max(raw):.4f}")
        else:
            lines.append(f"  {name} {metric['value']:.6g} {metric['unit']}"
                         if isinstance(metric["value"], float) else
                         f"  {name} {metric['value']} {metric['unit']}")
    lines += [f"  problem: {p}" for p in result["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "catkit", "cli.py")):
        print(f"no catkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in chosen]
    prov = provenance(args)
    prov["iterations"] = {
        r["workload"]: {"untraced": sum(not s["traced"] for s in r["samples"]),
                        "traced": sum(s["traced"] for s in r["samples"]),
                        "setups": len(r["setups"]),
                        "ops_per_sample": r["attempted"] // len(r["samples"]),
                        "median_probe_s": r["median_probe_s"]}
        for r in results}
    for r in results:
        print("\n".join(describe(r)))
    print(json.dumps({"provenance": prov}, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"provenance": prov, "results": results}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
