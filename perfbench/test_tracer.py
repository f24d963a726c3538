"""Self-tests of the benchmark's tracer and layer map.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catkit.cli  # noqa: E402,F401  (loads every catkit module)
from catkit import dcm, monoid, verify  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

LAYER_MAP = layers.load()


def all_bindings() -> dict:
    """(id of container, key) -> bound object, over every catkit namespace."""
    out = {}
    for mod in tracer.catkit_modules():
        for key, value in vars(mod).items():
            out[(id(mod), key)] = value
            if type(value) is list:
                out.update(((id(value), i), item)
                           for i, item in enumerate(value))
            elif isinstance(value, type):
                out.update(((id(value), k), v) for k, v in vars(value).items())
    return out


def test_every_binding_is_wrapped_then_restored():
    before = all_bindings()
    originals = {t: tracer.resolve(t) for t in layers.targets(LAYER_MAP)}
    held = {t: tracer.bindings(fn) for t, fn in originals.items()}
    tr = tracer.Tracer(layers.targets(LAYER_MAP), layers.coarse(LAYER_MAP))
    with tr:
        assert tr.missing == []
        for target, fn in originals.items():
            assert held[target], target
            assert tracer.bindings(fn) == [], f"{target} left unwrapped"
            for container, key in held[target]:
                bound = (container[key] if type(container) is list
                         else vars(container)[key])
                assert bound.__traced__ is fn, (target, key)
        # names imported with 'from .monoid import generate_monoid'
        for mod in (dcm, catkit.hecke, catkit.coxeter, verify):
            assert mod.generate_monoid.__traced__ is originals[
                "monoid.generate_monoid"]
        assert all(hasattr(fn, "__traced__") for fn in verify.ALL_CHECKS)
        assert "__traced__" in vars(monoid.MonoidTable.product)
    assert all_bindings() == before


def test_spans_nest_and_count():
    tr = tracer.Tracer(["dcm.dc_monoid", "monoid.generate_monoid",
                        "boolmat.mul"], coarse=["monoid.generate_monoid"])
    dcm.dc_monoid.cache_clear()
    with tr:
        table = dcm.dc_monoid(4)
    totals = tr.totals()
    assert totals["dcm.dc_monoid"]["calls"] == 1
    assert totals["monoid.generate_monoid"]["calls"] == 1
    assert totals["boolmat.mul"]["calls"] == len(table) * len(table.gens)
    assert tr.counters == {"monoid.generate_monoid.elements": len(table)}
    assert ("boolmat.mul", "monoid.generate_monoid") in tr.agg
    outer = totals["dcm.dc_monoid"]
    build = totals["monoid.generate_monoid"]
    assert outer["self_s"] <= outer["total_s"] - build["total_s"] + 1e-9
    assert [span[:2] for span in tr.spans] == [
        ("monoid.generate_monoid", "dcm.dc_monoid")]


def test_presentation_words_closed_form():
    # n = 3: two letters, words up to length 5 and, re-run, up to 6.
    assert tracer.presentation_words(3) == (2 ** 6 - 1) + (2 ** 7 - 1)
    # n = 2: one letter, lengths 0..3 and 0..4.
    assert tracer.presentation_words(2) == 4 + 5


def traced_sample(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), "1", "0", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_call_counts_repeat_across_traced_runs(workload):
    exact = [s["name"] for s in layers.metric_specs(LAYER_MAP)
             if s["unit"] in run.EXACT_UNITS]
    first, second = traced_sample(workload, 7), traced_sample(workload, 7)
    assert all(op["error"] is None for op in first["ops"] + second["ops"])
    assert {m: first["layer"][m] for m in exact} == {
        m: second["layer"][m] for m in exact}
    assert [op["digest"] for op in first["ops"]] == [
        op["digest"] for op in second["ops"]]


def test_benchmark_json_matches_the_layer_map():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["per_layer"] == layers.metric_specs(LAYER_MAP)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(
        run.END_TO_END.values())
    assert [w["name"] for w in bench["workloads"]] == run.WORKLOADS
