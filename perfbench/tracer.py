"""Outside-in tracer for catkit.

The tracer wraps named catkit functions with a timing and counting wrapper
and patches every binding of each one across the catkit module namespaces:
module attributes (including names brought in by ``from .monoid import
generate_monoid``), module-level lists such as ``verify.ALL_CHECKS``, and
methods on classes such as ``MonoidTable``.  Nothing under ``src/`` changes;
``uninstall`` puts every original object back where it was found.

Spans nest through a stack, so each function's self time is its span minus
the spans of the traced functions it called.  Hot leaves (10^5 to 10^6
calls) are only aggregated per (name, parent); functions named as coarse
also keep one span per call, with any counters their hook derives.
"""

from __future__ import annotations

import functools
import sys
import time

ROOT_FRAME = "<root>"


def presentation_words(n: int) -> int:
    """Size of the word graphs ``dcm.verify_presentation(n)`` builds.

    Words over n-1 letters up to length n(n-1)/2 + 2, plus the stability
    re-run one letter longer, summed in closed form.
    """
    a = n - 1
    top = n * (n - 1) // 2 + 2

    def upto(length: int) -> int:
        return length + 1 if a == 1 else (a ** (length + 1) - 1) // (a - 1)

    return upto(top) + upto(top + 1)


# Counters derived at the boundary of a coarse call: name -> hook returning
# {counter: increment}.
COUNTER_HOOKS = {
    "monoid.generate_monoid":
        lambda args, kwargs, result: {"elements": len(result)},
    "dcm.verify_presentation":
        lambda args, kwargs, result: {
            "words": presentation_words(args[0] if args else kwargs["n"])},
}


def catkit_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "catkit" or name.startswith("catkit."))]


def resolve(target: str):
    """The object that 'module.qualname' names under catkit."""
    module_name, *path = target.split(".")
    owner = sys.modules["catkit." + module_name]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return vars(owner)[path[-1]]


def bindings(original) -> list:
    """Every (container, key) in the catkit namespaces that holds original."""
    found = []
    for mod in catkit_modules():
        for key, value in vars(mod).items():
            if value is original:
                found.append((mod, key))
            elif type(value) is list:
                found.extend((value, i) for i, item in enumerate(value)
                             if item is original)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend((value, k) for k, v in vars(value).items()
                             if v is original)
    return found


def _set(container, key, value) -> None:
    if type(container) is list:
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Wraps the named catkit functions while installed.

    ``agg`` maps (name, parent name) to [calls, inclusive seconds, self
    seconds]; ``spans`` holds (name, parent, start, seconds) for coarse
    calls; ``counters`` sums the coarse hooks' counters by 'name.counter'.
    """

    def __init__(self, targets, coarse=()):
        self.targets = list(targets)
        self.coarse = set(coarse)
        self.agg: dict = {}
        self.spans: list = []
        self.counters: dict = {}
        self.missing: list = []
        self._stack = [[ROOT_FRAME, 0.0]]
        self._patches: list = []
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn):
        stack, agg, clock = self._stack, self.agg, time.perf_counter
        coarse = name in self.coarse
        spans, counters, t0 = self.spans, self.counters, self._t0
        hook = COUNTER_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - start
                stack.pop()
                parent[1] += dt
                key = (name, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if coarse:
                    spans.append((name, parent[0], start - t0, dt))
                    if hook is not None and result is not None:
                        for counter, inc in hook(args, kwargs, result).items():
                            full = f"{name}.{counter}"
                            counters[full] = counters.get(full, 0) + inc

        wrapper.__traced__ = fn
        return wrapper

    def install(self) -> "Tracer":
        for target in self.targets:
            try:
                original = resolve(target)
            except (KeyError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original)
            for container, key in bindings(original):
                self._patches.append((container, key, original))
                _set(container, key, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            _set(container, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> dict:
        """name -> {'calls', 'total_s', 'self_s'} summed over parents."""
        out: dict = {}
        for (name, _parent), (calls, total, self_s) in self.agg.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_s
        return out
