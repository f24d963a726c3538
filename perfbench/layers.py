"""The layer map in layers.json, and the per-layer metrics it defines.

Every traced function f gives f.calls (count) and f.self_s (seconds); each
verify check gives verify.<check-name>.s; the derived metrics below are
computed from the tracer's totals and counters of one traced sample.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

# Derived per-layer metrics: name -> (unit, better).
DERIVED = {
    "monoid.generate_monoid.elements": ("count", "lower"),
    "monoid.generate_monoid.elements_per_s": ("1/s", "higher"),
    "dcm.dc_of_perm.us_per_call": ("us", "lower"),
    "dcm.verify_presentation.words": ("count", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def load() -> dict:
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)


def check_names(layer_map: dict) -> dict:
    """verify check function name -> the check's name in the report."""
    for layer in layer_map["layers"]:
        if "checks" in layer:
            return dict(layer["checks"])
    return {}


def targets(layer_map: dict) -> list[str]:
    """Every function the tracer wraps, as module.qualname under catkit."""
    out = []
    for layer in layer_map["layers"]:
        out += layer.get("functions", [])
    out += [f"verify.{fn}" for fn in check_names(layer_map)]
    return out


def coarse(layer_map: dict) -> list[str]:
    """Functions that keep one span per call."""
    out = []
    for layer in layer_map["layers"]:
        out += layer.get("coarse", [])
    out += [f"verify.{fn}" for fn in check_names(layer_map)]
    return out


def metric_specs(layer_map: dict) -> list[dict]:
    """Every per-layer metric as {name, unit, better}, in layer order."""
    specs = []
    for layer in layer_map["layers"]:
        for fn in layer.get("functions", []):
            specs.append({"name": f"{fn}.calls", "unit": "count",
                          "better": "lower"})
            specs.append({"name": f"{fn}.self_s", "unit": "s",
                          "better": "lower"})
        for check in layer.get("checks", {}).values():
            specs.append({"name": f"verify.{check}.s", "unit": "s",
                          "better": "lower"})
        for name in layer.get("derived", []):
            unit, better = DERIVED[name]
            specs.append({"name": name, "unit": unit, "better": better})
    for name in layer_map["trace"]["derived"]:
        unit, better = DERIVED[name]
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


def sample_metrics(layer_map: dict, totals: dict, counters: dict,
                   stdout_bytes: int) -> dict:
    """Per-layer values of one traced sample; trace.overhead_ratio is left
    to the caller, which alone sees untraced samples."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for layer in layer_map["layers"]:
        for fn in layer.get("functions", []):
            row = totals.get(fn, empty)
            out[f"{fn}.calls"] = row["calls"]
            out[f"{fn}.self_s"] = row["self_s"]
        for fn, check in layer.get("checks", {}).items():
            out[f"verify.{check}.s"] = totals.get(f"verify.{fn}",
                                                  empty)["total_s"]
    build = totals.get("monoid.generate_monoid", empty)
    elements = counters.get("monoid.generate_monoid.elements", 0)
    out["monoid.generate_monoid.elements"] = elements
    out["monoid.generate_monoid.elements_per_s"] = (
        elements / build["total_s"] if build["total_s"] else 0.0)
    proj = totals.get("dcm.dc_of_perm", empty)
    out["dcm.dc_of_perm.us_per_call"] = (
        1e6 * proj["total_s"] / proj["calls"] if proj["calls"] else 0.0)
    out["dcm.verify_presentation.words"] = counters.get(
        "dcm.verify_presentation.words", 0)
    out["cli.stdout_bytes"] = stdout_bytes
    return out
