"""Spans around racklab's public functions, recorded from outside the program.

A Tracer wraps the functions named in LAYER_FUNCTIONS wherever a racklab
module holds a reference to them, so calls the program makes internally
(codec calling graph, decode calling rack_from_table, ...) are timed too.
Nothing is added inside src/.  Each call becomes a span (id, parent, name,
start, end); spans stay in memory and are written out when the run ends.
Per-name totals are kept exactly for every call; individual spans are kept
up to SPAN_CAP so that hot leaf calls (one BitWriter.write per field) cannot
exhaust memory.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (metric prefix, module, attribute); "Class.method" patches a method.
LAYER_FUNCTIONS = (
    ("perms.lehmer_rank", "perms", "lehmer_rank"),
    ("perms.lehmer_unrank", "perms", "lehmer_unrank"),
    ("perms.conjugate", "perms", "conjugate"),
    ("bits.write", "bits", "BitWriter.write"),
    ("bits.read", "bits", "BitReader.read"),
    ("core.axiom_report", "core", "axiom_report"),
    ("core.rack_from_table", "core", "rack_from_table"),
    ("core.canonical_form", "core", "canonical_form"),
    ("graph.greedy_merge_order", "graph", "greedy_merge_order"),
    ("graph.rack_graph", "graph", "rack_graph"),
    ("graph.components", "graph", "components"),
    ("codec.degree_split", "codec", "degree_split"),
    ("codec.build_info", "codec", "build_info"),
    ("codec.extract_residual", "codec", "extract_residual"),
    ("codec.encode_with_stats", "codec", "encode_with_stats"),
    ("codec.decode", "codec", "decode"),
    ("enumeration.enumerate_labeled", "enumeration", "enumerate_labeled"),
    ("analysis.zeta_bound_sweep", "analysis", "zeta_bound_sweep"),
    ("analysis.chernoff_check", "analysis", "chernoff_check"),
    ("analysis.random_subset_check", "analysis", "random_subset_check"),
    ("analysis.find_W", "analysis", "find_W"),
)
GENERATORS = {"enumeration.enumerate_labeled"}
MODULES = ("perms", "bits", "core", "graph", "codec", "enumeration", "analysis")
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent id or 0, name, start, end]
        self.dropped = 0
        self._stack = []         # [id, name, start, child seconds]
        self._next_id = 1
        self.reset_round()

    def reset_round(self):
        """Start new per-round totals: inclusive and self seconds, call counts."""
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.yields = defaultdict(int)

    def enter(self, name):
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        span_id, name, start, child = frame
        self._stack.pop()
        duration = end - start
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < SPAN_CAP:
            parent = self._stack[-1][0] if self._stack else 0
            self.spans.append([span_id, parent, name, start, end])
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)

    def wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name):
        """Time each step of the generator; consumer time between steps is excluded."""
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.leave(frame)
                tracer.yields[name] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every reference to the listed functions; restore on exit."""
        modules = [importlib.import_module("racklab")]
        modules += [importlib.import_module(f"racklab.{m}") for m in MODULES]
        undo = []
        try:
            for name, module, attr in LAYER_FUNCTIONS:
                owner = importlib.import_module(f"racklab.{module}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(original, name))
                    continue
                original = getattr(owner, attr)
                wrapper = (self.wrap_generator if name in GENERATORS else self.wrap)(
                    original, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

    def dump(self):
        return {"span_fields": ["id", "parent", "name", "start", "end"],
                "spans": self.spans, "dropped_spans": self.dropped}
