"""Outside-in layer tracing for the edsbt command line.

A Tracer replaces public entry points of the edsbt modules with wrappers
that record one span per call: (name, start, end, parent span).  Every
call site in the package looks those names up as module attributes at
call time (`fm.wedge_basis_matrix(...)`, or a bare global inside the
defining module), so swapping the attribute is enough to see each call.
Nothing under `src/` changes.

Spans stay in memory and are written out once, when the traced process
ends (see launch.py).  A call into the layer that is already the innermost
open span (the recursion of `evaluate` and `differentiate`, or `wedge`
inside `exterior_derivative`) opens no span of its own; it is counted in
`<name>.nodes` instead, so one span covers the whole walk.

A wrapped name that the package no longer defines is skipped and listed
in `absent`; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _rk4_name(args, kwargs):
    # _rk4_step(rhs, t, w, h): the base row marches a scalar state, the
    # column sweep a whole row at once
    state = args[2] if len(args) > 2 else kwargs.get("w")
    if np.ndim(state) == 0:
        return "propagate.rk4.base_row"
    return "propagate.rk4.column"


def _csv_bytes(tracer, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path and os.path.exists(path):
        tracer.counts["propagate.write_field_csv.bytes"] += os.path.getsize(path)


def _count_samples(tracer, args, kwargs):
    # sampled_check / sampled_collect(spec, callback): every callback call
    # is one drawn point, every return without DomainError an accepted one
    args = list(args)
    if len(args) > 1:
        args[1] = tracer.counting_callback(args[1])
    else:
        for key in ("violation_at", "value_at"):
            if key in kwargs:
                kwargs[key] = tracer.counting_callback(kwargs[key])
    return tuple(args), kwargs


# (span name, module, attribute, options)
LAYERS = (
    ("cli.parse_definition", "edsbt.cli", "parse_definition", {}),
    ("cli.emit", "edsbt.cli", "_emit", {}),
    ("expr.evaluate", "edsbt.expr", "evaluate", {}),
    ("expr.differentiate", "edsbt.expr", "differentiate", {}),
    ("expr.sampled_check", "edsbt.expr", "sampled_check", {"prepare": _count_samples}),
    ("expr.sampled_collect", "edsbt.expr", "sampled_collect", {"prepare": _count_samples}),
    ("forms.construct", "edsbt.forms", "wedge", {}),
    ("forms.construct", "edsbt.forms", "exterior_derivative", {}),
    ("forms.construct", "edsbt.forms", "interior_product", {}),
    ("forms.coefficients_at", "edsbt.forms", "coefficients_at", {}),
    ("forms.coframe_matrix_at", "edsbt.forms", "coframe_matrix_at", {}),
    ("forms.wedge_basis_matrix", "edsbt.forms", "wedge_basis_matrix", {}),
    ("backlund.slot_table", "edsbt.backlund", "_slot_table_at", {}),
    ("backlund.validate_section", "edsbt.backlund", "validate_section", {}),
    ("backlund.build_wavelike", "edsbt.backlund", "build_wavelike", {}),
    ("backlund.extract_torsion", "edsbt.backlund", "extract_torsion", {}),
    ("backlund.integrable_extension_checks", "edsbt.backlund",
     "integrable_extension_checks", {}),
    ("backlund.classify", "edsbt.backlund", "check_wavelike", {}),
    ("backlund.classify", "edsbt.backlund", "check_quasilinear", {}),
    ("backlund.classify", "edsbt.backlund", "check_autonomous", {}),
    ("backlund.classify", "edsbt.backlund", "transversality_det", {}),
    ("monge_ampere.validate", "edsbt.monge_ampere", "validate", {}),
    ("monge_ampere.hyperbolicity", "edsbt.monge_ampere", "hyperbolicity", {}),
    ("propagate.rk4", "edsbt.propagate", "_rk4_step", {"name_of": _rk4_name}),
    ("propagate.compatibility", "edsbt.propagate", "_bt_compatibility", {}),
    ("propagate.write_field_csv", "edsbt.propagate", "write_field_csv",
     {"after": _csv_bytes}),
    ("propagate.reference", "edsbt.propagate", "sample_field", {}),
    ("propagate.tzitzeica", "edsbt.propagate", "tzitzeica_propagate", {}),
)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list = []  # indices of the open spans, innermost last
        self.counts = defaultdict(int)
        self.absent: list = []

    def wrap(self, name, fn, name_of=None, prepare=None, after=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            counts[span_name + ".nodes"] += 1
            if stack and spans[stack[-1]][0] == span_name:
                return fn(*args, **kwargs)
            if prepare:
                args, kwargs = prepare(self, args, kwargs)
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if after:
                    after(self, args, kwargs)

        return traced

    def counting_callback(self, callback):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["expr.samples.drawn"] += 1
            value = callback(*args, **kwargs)
            counts["expr.samples.accepted"] += 1
            return value

        return counted

    def install(self, layers=LAYERS):
        """Swap each entry point for its wrapper, in its own module and in
        every loaded edsbt module that holds the same function under
        another name.  Returns the (module, attribute, original) triples
        so `uninstall` can put them back."""
        replaced = []
        for name, modname, attr, options in layers:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(name, original, **options)
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("edsbt"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
                        replaced.append((other, key, original))
        return replaced

    @staticmethod
    def uninstall(replaced):
        for module, key, original in reversed(replaced):
            setattr(module, key, original)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }


def self_times(spans) -> dict:
    """Total self time per span name.

    A span's self time is its duration minus the part of that interval
    covered by its direct children (the union of their intervals, clipped
    to the parent)."""
    children = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


def span_calls(spans) -> dict:
    calls = defaultdict(int)
    for name, *_rest in spans:
        calls[name] += 1
    return dict(calls)
