"""Spans around thermosdp layers, recorded from outside the package.

Each traced callable is replaced, where it is looked up, by a wrapper that
records a span ``[name, start, end, parent, solve_id, tag]``.  Wrappers are
installed for one traced cycle and always restored afterwards, so untraced
solves run the original code.  A layer's self time is its span duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (layer, owner, attribute): owner is "module" or "module:Class", and every
# site is where the program looks the name up at call time.
TARGETS = (
    ("operators.eigh", "numpy.linalg", "eigh"),
    ("operators.SpectralHermitian", "thermosdp.operators:SpectralHermitian", "__init__"),
    ("operators.Density", "thermosdp.operators:Density", "__init__"),
    ("operators.expectation", "thermosdp.thermal", "expectation"),
    ("operators.expectation", "thermosdp.optimize", "expectation"),
    ("operators.materialize", "thermosdp.thermal", "materialize"),
    ("operators.materialize", "thermosdp.sdp", "materialize"),
    ("thermal.ThermalModel", "thermosdp.thermal:ThermalModel", "__init__"),
    ("thermal.effective_hamiltonian", "thermosdp.thermal", "effective_hamiltonian"),
    ("thermal.charge_expectations", "thermosdp.thermal:ThermalModel", "charge_expectations"),
    ("thermal.kubo_mori", "thermosdp.thermal:ThermalModel", "kubo_mori"),
    ("sampling.estimate_obs", "thermosdp.sampling", "estimate_obs"),
    ("sdp.solve_sdp", "thermosdp.sdp", "solve_sdp"),
    ("sdp.reduce_direct_sum", "thermosdp.sdp", "reduce_direct_sum"),
    ("optimize", "thermosdp.optimize", "gradient_ascent"),
    ("optimize", "thermosdp.optimize", "natural_gradient_ascent"),
    ("optimize", "thermosdp.optimize", "sga"),
    ("optimize", "thermosdp.sdp", "gradient_ascent"),
    ("optimize", "thermosdp.sdp", "natural_gradient_ascent"),
)

NAME, START, END, PARENT, SOLVE, TAG = range(6)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """In-memory span recorder for one single-threaded traced cycle."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_id = None

    def call(self, name, fn, args, kwargs, tag=None):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.solve_id, tag]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, name, solve_id):
        """Span of one solve (or of set-up, solve id -1) around a with-block."""
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, solve_id, None]
        self.solve_id = solve_id
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
            self.solve_id = None

    def wrap(self, layer, fn):
        if layer == "operators.eigh":
            @functools.wraps(fn)
            def wrapper(a, *args, **kwargs):
                return self.call(layer, fn, (a,) + args, kwargs,
                                 tag="complex" if np.iscomplexobj(a) else "real")
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(layer, fn, args, kwargs)
        return wrapper

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target that exists; yields the sites that do not."""
        undo, missing = [], []
        try:
            for layer, owner, attr in targets:
                obj = _resolve(owner)
                if obj is None or not hasattr(obj, attr):
                    missing.append(f"{owner}.{attr}")
                    continue
                own = vars(obj).get(attr)  # None when inherited
                setattr(obj, attr, self.wrap(layer, getattr(obj, attr)))
                undo.append((obj, attr, own))
            yield missing
        finally:
            for obj, attr, own in reversed(undo):
                if own is None:
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, own)


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span: duration minus the time its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered_length(children[i], span[START], span[END])
        for i, span in enumerate(spans)
    ]


def layer_totals(spans):
    """layer -> {"calls", "self_s", "complex_self_s"} over the given spans."""
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "complex_self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += own
        if span[TAG] == "complex":
            entry["complex_self_s"] += own
    return dict(totals)
