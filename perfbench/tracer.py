"""Spans and counters taken at wrappers around the program's public functions.

The wrappers are installed from outside, only in the traced process: each
public function, method or constructor listed in :func:`install` is replaced
on its module or class -- and on every ``unlattice`` module that imported it
by name -- by a wrapper that opens a span (name, start, end, parent) and
updates the counters of its layer.  Nothing under ``src/`` changes.

Spans of the round being recorded are kept in memory in flat arrays and
written once, at the end of the run.  Times of a layer are inclusive
(nested calls of the same name count once), except the ``convergence``
diagnostics, which report self time: the span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

CONVERGENCE = ("norm_tail", "un_tail", "un_tail_qip", "in_measure_tail", "pointwise_tail",
               "weak_tail", "truncation_index", "order_witness_atomic")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child time, span index]
        self._serial = itertools.count()
        self.begin_round()

    def begin_round(self) -> None:
        """Forget the previous round's spans and counters."""
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.active = Counter()
        self.refine_keys = set()
        self.term_keys = set()
        self.t0 = perf_counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def enter(self, name: str) -> None:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1][3] if self._stack else -1)
        self.span_end.append(0.0)
        self.active[name] += 1
        start = perf_counter()
        self.span_start.append(start - self.t0)
        self._stack.append([name, start, 0.0, index])

    def exit(self) -> float:
        end = perf_counter()
        name, start, child, index = self._stack.pop()
        self.span_end[index] = end - self.t0
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.active[name] -= 1
        if not self.active[name]:
            self.incl_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(result, args, dur) updates counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.exit()
            if after is not None:
                after(result, args, dur)
            return result

        return traced

    # -- counters taken at the wrappers ----------------------------------------

    def _refine(self, result, args, dur):
        measure, level = args[0], args[1]
        self.counts["spaces.refine.cells"] += 2 ** level
        self.refine_keys.add((measure.level, measure.weights, level))

    def _step(self, result, args, dur):
        self.counts["spaces.step_construct.cells"] += len(args[0].values)

    def _vector(self, result, args, dur):
        self.counts["spaces.vector_construct.coords"] += len(args[0].coords)

    def _dumps(self, result, args, dur):
        self.counts["jsonio.dumps.bytes"] += len(result)

    def _advisory(self, result, args, dur):
        if self.active["constructive.kp_disjointify"]:
            self.self_s["constructive.kp_advisory"] += dur

    def _sequence(self, seq, args, dur):
        """Count the terms a gallery sequence generates through its ``at``."""
        serial = next(self._serial)
        keys = self.term_keys
        object.__setattr__(seq, "at", self.wrap(
            "gallery.terms", seq.at, lambda r, a, d: keys.add((serial, a[0]))))

    # -- the per-layer metrics ----------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the current round: name -> (value, unit)."""
        c, s, inc = self.calls, self.self_s, self.incl_s
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        refine_calls = c["spaces.refine"]
        put("spaces.refine.calls", refine_calls, "count")
        put("spaces.refine.cells", self.counts["spaces.refine.cells"], "count")
        put("spaces.refine.s", inc["spaces.refine"], "s")
        put("spaces.refine.distinct_ratio",
            len(self.refine_keys) / refine_calls if refine_calls else 0.0, "ratio")
        for layer, extra in (("step_construct", "cells"), ("vector_construct", "coords")):
            put(f"spaces.{layer}.calls", c[f"spaces.{layer}"], "count")
            put(f"spaces.{layer}.{extra}", self.counts[f"spaces.{layer}.{extra}"], "count")
            put(f"spaces.{layer}.s", inc[f"spaces.{layer}"], "s")
        for layer in ("meet", "norm", "check_tags"):
            put(f"spaces.{layer}.calls", c[f"spaces.{layer}"], "count")
            put(f"spaces.{layer}.s", inc[f"spaces.{layer}"], "s")
        terms, distinct = c["gallery.terms"], len(self.term_keys)
        put("gallery.terms.calls", terms, "count")
        put("gallery.terms.distinct", distinct, "count")
        put("gallery.terms.per_distinct", terms / distinct if distinct else 0.0, "ratio")
        put("gallery.terms.s", inc["gallery.terms"], "s")
        for name in CONVERGENCE:
            put(f"convergence.{name}.calls", c[f"convergence.{name}"], "count")
            put(f"convergence.{name}.s", s[f"convergence.{name}"], "s")
        put("constructive.kp_disjointify.s", inc["constructive.kp_disjointify"], "s")
        put("constructive.kp_advisory.s", s["constructive.kp_advisory"], "s")
        put("constructive.riesz_decompose.calls", c["constructive.riesz_decompose"], "count")
        put("constructive.riesz_decompose.s", inc["constructive.riesz_decompose"], "s")
        put("constructive.uo_extract.s", inc["constructive.uo_extract"], "s")
        put("topology.axiom_suite.s", inc["topology.axiom_suite"], "s")
        put("topology.gauge.calls", c["topology.gauge"], "count")
        put("topology.gauge.s", inc["topology.gauge"], "s")
        put("runner.build_sequence.s", inc["runner.build_sequence"], "s")
        put("runner.run_diagnostic.s", inc["runner.run_diagnostic"], "s")
        put("jsonio.dumps.calls", c["jsonio.dumps"], "count")
        put("jsonio.dumps.bytes", self.counts["jsonio.dumps.bytes"], "B")
        put("jsonio.dumps.s", inc["jsonio.dumps"], "s")
        return out

    def write_spans(self, path, meta: dict) -> None:
        """Write the recorded round's spans as columns of one JSON object."""
        with open(path, "w") as fh:
            json.dump({**meta, "names": self.names,
                       "columns": ["name", "parent", "start_s", "end_s"],
                       "name": self.span_name.tolist(), "parent": self.span_parent.tolist(),
                       "start_s": self.span_start.tolist(), "end_s": self.span_end.tolist()},
                      fh)


def _rebind(orig, new) -> None:
    """Point every unlattice module's binding of ``orig`` at ``new``."""
    for modname, module in list(sys.modules.items()):
        if modname == "unlattice" or modname.startswith("unlattice."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the public functions the per-layer metrics are taken at."""
    from unlattice import constructive, convergence, gallery, jsonio, runner, spaces, topology

    def function(module, attr, name, after=None):
        orig = getattr(module, attr)
        _rebind(orig, tracer.wrap(name, orig, after))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], after))

    method(spaces.MeasureModel, "refined", "spaces.refine", tracer._refine)
    method(spaces.StepFunction, "__init__", "spaces.step_construct", tracer._step)
    method(spaces.LatticeVector, "__init__", "spaces.vector_construct", tracer._vector)
    for cls in (spaces.LatticeVector, spaces.StepFunction, spaces.DirectSumVector):
        method(cls, "meet", "spaces.meet")
        method(cls, "norm", "spaces.norm")
    function(spaces, "check_tags", "spaces.check_tags")
    for attr in ("std_units", "direct_sum_seq", "typewriter", "rademacher_modulated",
                 "overlap_seq"):
        function(gallery, attr, f"gallery.{attr}", tracer._sequence)
    for attr in CONVERGENCE:
        after = tracer._advisory if attr == "un_tail_qip" else None
        function(convergence, attr, f"convergence.{attr}", after)
    for attr in ("kp_disjointify", "riesz_decompose", "uo_extract"):
        function(constructive, attr, f"constructive.{attr}")
    function(topology, "axiom_suite", "topology.axiom_suite")
    function(topology, "gauge", "topology.gauge")
    function(runner, "build_sequence", "runner.build_sequence")
    function(runner, "run_diagnostic", "runner.run_diagnostic")
    function(jsonio, "dumps", "jsonio.dumps", tracer._dumps)
