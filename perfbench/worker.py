"""One benchmark sample, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE CHECK SPAWN_NS

SPAWN_NS is the parent's CLOCK_MONOTONIC reading in nanoseconds, taken just
before it started this process; set-up time runs from there to the end of
``import catkit`` plus ``cli.build_parser()``, as a CLI user pays it.  With
WORKLOAD 'setup' the worker stops there and prints only that.  Otherwise the
workload's ops run once, in order, under the wall and CPU clocks (and
the tracer when TRACE is 1).  Peak RSS is read before the known-answer
checks, which run only when CHECK is 1.  The sample is printed to stdout as
one JSON line.

Speed probes.  The host this runs on changes speed by tens of percent from
second to second, which a fixed loop shows as much as catkit does.  So the
worker times a short fixed loop of the kind of work catkit does (see
probe_loop): PROBE_BURST times right after set-up, and, in untraced
samples, every PROBE_EVERY_S seconds of the timed region, from a SIGALRM
handler.  Each probe runs the loop twice and times only the second run, as
a loop run straight after catkit's work finds the caches cold and
exaggerates the host's swings.  The probes' durations are printed with the
sample; the time spent in them is taken out of wall_s and cpu_s.  run.py
uses them to give each time at a fixed host speed.  Traced samples run no
probes, so per-layer self times hold only catkit's own work.
"""

import gc
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


PROBE_EVERY_S = 0.01     # probe period in the timed region
PROBE_BURST = 25         # back-to-back probes right after set-up


def probe_loop() -> int:
    """About 0.1 ms of fixed work of the kind catkit does: tuples built,
    put in a dict and looked up."""
    keys = [tuple(range(i % 8, i % 8 + 6)) for i in range(200)]
    index = {key: j for j, key in enumerate(keys)}
    return sum(index[key] for key in keys if key[0] < 5)


def probe(durations: list) -> float:
    """Run probe_loop twice, append the second run's duration, and return
    the time spent in all.  The garbage collector is held off, so the probe
    never pays for collecting catkit's objects."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    probe_loop()
    warm = time.perf_counter()
    probe_loop()
    end = time.perf_counter()
    if enabled:
        gc.enable()
    durations.append(end - warm)
    return end - start


def assert_cold(catkit_modules) -> None:
    """Every lru_cache in catkit is empty, dcm.dc_monoid and
    dcm.projection_fibers included, so no op starts warm."""
    for mod in catkit_modules:
        for name, value in vars(mod).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and info().currsize:
                raise RuntimeError(
                    f"{mod.__name__}.{name} is warm at the start of a sample")


def main(argv: list[str]) -> int:
    workload, seed = argv[1], int(argv[2])
    traced, checked = argv[3] == "1", argv[4] == "1"
    spawn_ns = int(argv[5])

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import catkit.cli
    catkit.cli.build_parser()
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawn_ns) / 1e9
    if not os.path.abspath(catkit.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported catkit from {catkit.__file__}")
    setup_probes: list[float] = []
    for _ in range(PROBE_BURST):
        probe(setup_probes)

    if workload == "setup":
        print(f'{{"setup_s": {setup_s!r}, "setup_probes": {setup_probes!r}}}')
        return 0

    import contextlib
    import hashlib
    import json
    import resource
    import traceback

    import layers
    import tracer
    import workloads

    ops = workloads.WORKLOADS[workload](seed)
    assert_cold(tracer.catkit_modules())
    layer_map = layers.load()
    tr = (tracer.Tracer(layers.targets(layer_map), layers.coarse(layer_map))
          if traced else None)

    outputs, probes, probing = [], [], []
    if not traced:
        signal.signal(signal.SIGALRM,
                      lambda signum, frame: probing.append(probe(probes)))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    with tr or contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            start = time.perf_counter()
            try:
                value, error = op.run(), None
            except Exception as exc:  # an op failure is counted, not fatal
                traceback.print_exc()
                value, error = None, f"{type(exc).__name__}: {exc}"
            outputs.append((value, error, time.perf_counter() - start))
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall_s -= sum(probing)
    cpu_s -= sum(probing)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records, stdout_bytes = [], 0
    for op, (value, error, seconds) in zip(ops, outputs):
        rec = {"op": op.name, "s": seconds, "error": error, "digest": None}
        if error is None:
            try:  # malformed output fails like a wrong answer
                text = op.canon(value).encode()
                rec["digest"] = hashlib.sha256(text).hexdigest()
                stdout_bytes += len(text) if op.cli else 0
                if checked:
                    op.check(value)
            except Exception as exc:
                rec["error"] = f"known answer: {type(exc).__name__}: {exc}"
        records.append(rec)

    sample = {"workload": workload, "seed": seed, "traced": traced,
              "checked": checked, "setup_s": setup_s, "wall_s": wall_s,
              "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb, "ops": records,
              "setup_probes": setup_probes, "probes": probes}
    if tr is not None:
        sample["layer"] = layers.sample_metrics(
            layer_map, tr.totals(), tr.counters, stdout_bytes)
        sample["missing"] = tr.missing
        sample["agg"] = [[name, parent, *rec]
                         for (name, parent), rec in sorted(tr.agg.items())]
        sample["spans"] = tr.spans
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
