"""Spans and counters recorded from outside splithex.

A :class:`Tracer` replaces chosen functions of the splithex modules with
wrappers.  A timed wrapper appends a span (name, start, end, parent,
request) to an in-memory list; a counted wrapper only bumps a counter,
because a timer would cost more than a call such as a GF(4) table lookup.
Each wrapper is bound into every splithex module namespace that holds the
original function, so calls between modules (and inside one module, which
look names up in its globals) are seen too.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Functions timed per call, by layer.  ``Class.method`` patches the class.
TIMED = {
    "geometry": ("hyperoval_partitions", "ti_lines", "ti_planes", "strata_for"),
    "hexagon": (
        "build", "incidence_graph", "point_graph", "concurrency_graph", "dual",
        "diameter", "girth", "verify_partial_linear_space",
        "verify_plane_property", "verify_concurrency_witnesses",
        "verify_generalized_hexagon", "verify_classification_hypotheses",
    ),
    "groups": (
        "automorphism_generators", "refine", "PermutationGroup.__init__",
        "PermutationGroup.stabilizer_orbit_sizes", "induced_actions",
        "nonequivalence_certificate",
    ),
    "cli": ("run_verify", "_emit", "VerificationReport.to_json"),
}

# Functions whose calls are only counted.
COUNTED = {
    "algebra": ("hermitian", "symplectic"),
    "hexagon": ("bfs_distances", "distance_distribution"),
    "groups": ("compose", "inverse"),
}

# Span names that differ from ``layer.function``.
RENAMED = {
    "groups.PermutationGroup.__init__": "groups.PermutationGroup",
    "groups.PermutationGroup.stabilizer_orbit_sizes": "groups.stabilizer_orbit_sizes",
    "cli._emit": "cli.emit",
    "cli.VerificationReport.to_json": "cli.emit",
}

SETUP = "setup"


def _name(layer: str, attr: str) -> str:
    return RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")


SPAN_NAMES = tuple(sorted({_name(layer, attr) for layer, attrs in TIMED.items()
                           for attr in attrs}))
COUNT_NAMES = tuple(_name(layer, attr) for layer, attrs in COUNTED.items()
                    for attr in attrs)


class Tracer:
    """Spans and counts for one process, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counts: Counter = Counter()
        self.request = SETUP
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def yielded(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, layer: str, attr: str, make) -> None:
        module = sys.modules[f"splithex.{layer}"]
        full = _name(layer, attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, make(full, original))
            return
        original = getattr(module, attr)
        wrapper = make(full, original)
        for name, mod in list(sys.modules.items()):
            if (name == "splithex" or name.startswith("splithex.")) and \
                    getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Patch every function in TIMED and COUNTED; splithex must be imported."""
        import splithex  # noqa: F401  (binds every layer module)

        def count_generators(tracer, result):
            tracer.counts["groups.generators"] += len(result)

        for layer, attrs in TIMED.items():
            for attr in attrs:
                after = count_generators if attr == "automorphism_generators" else None
                self._patch(layer, attr, lambda n, f, a=after: self.span(n, f, a))
        for layer, attrs in COUNTED.items():
            for attr in attrs:
                self._patch(layer, attr, self.counter)
        self._patch("groups", "PermutationGroup.elements",
                    lambda n, f: self.yielded("groups.elements.yielded", f))

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def absorb(self, trace: dict) -> None:
        """Append the spans and counts another process wrote with :meth:`dump`."""
        offset = len(self.spans)
        self.spans.extend([name, start, end, parent + offset if parent >= 0 else -1,
                           request] for name, start, end, parent, request in trace["spans"])
        self.counts.update(trace["counts"])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _self_seconds(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Children lie inside their parent because calls nest on one thread.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - inner
            for (_, start, end, _, _), inner in zip(spans, covered)]


def self_times(spans) -> Counter:
    """Seconds of self time per span name, over all requests."""
    out: Counter = Counter()
    for span, seconds in zip(spans, _self_seconds(spans)):
        out[span[0]] += seconds
    return out


def first_self_times(spans) -> dict:
    """Self seconds of the first span of each name (a cache's cold call)."""
    out: dict = {}
    for span, seconds in zip(spans, _self_seconds(spans)):
        out.setdefault(span[0], seconds)
    return out
