"""Span tracing from outside the library, for the benchmark's traced run.

install() replaces every public layer function listed in TARGETS with a
wrapper, at every ybe_lab module that binds it, so calls made inside the
library nest as child spans. uninstall() puts the originals back. Hot
helpers (compose, inverse, is_perm, order) and private ones are not
wrapped: their time stays in the self time of their public caller.
"""

import importlib
import json
import sys
from time import perf_counter

from ybe_lab.errors import YbeError

TARGETS = (
    "cli.run",
    "core.solution_from_table",
    "core.verify_solution",
    "core.check_cycle_condition",
    "core.tau_from_sigma",
    "construct.build_c",
    "retract.is_mpl_at_most_2",
    "retract.mpl",
    "retract.retract",
    "perm.group_closure",
    "perm.invariant_factors",
    "classify.recover_params",
    "classify.explicit_iso_to_c",
    "classify.are_isomorphic",
    "classify.exhaustive_enumerate",
    "classify.enumerate_family",
    "aut.automorphism_group",
    "util.divisors",
    "util.factorize",
)


def _carrier(s):
    return s.n if hasattr(s, "n") else len(s)


# Work counters recorded with a span, from its arguments and result.
AMOUNTS = {
    "core.verify_solution": lambda args, result: _carrier(args[0]) ** 3,
    "perm.group_closure": lambda args, result: len(result.elements),
    "aut.automorphism_group": lambda args, result: len(result.elements),
    "classify.exhaustive_enumerate": lambda args, result: len(result),
}

OP = "op"  # root span the benchmark opens around each timed op


class Tracer:
    """Spans kept in memory as (name, start, end, parent, op, raised, amount)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, amount = self.spans, self._stack, AMOUNTS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, perf_counter(), parent, self._op,
                              isinstance(exc, YbeError), 0)
                raise
            finally:
                stack.pop()
            end = perf_counter()
            spans[idx] = (name, start, end, parent, self._op, False,
                          amount(args, result) if amount else 0)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ybe_lab" or key.startswith("ybe_lab.")]
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            original = getattr(importlib.import_module(f"ybe_lab.{mod_name}"), fn_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def run_op(self, op_id, call):
        """Time call() under a root span; returns (result, seconds)."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._op = op_id
        start = perf_counter()
        try:
            result = call()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (OP, start, end, -1, op_id, False, 0)
        return result, end - start

    def write(self, path):
        """JSON lines: a header naming the fields, then one array per span;
        parent is the index of the parent span's line (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op", "raised"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span[:6], separators=(",", ":")))
                fh.write("\n")


def layer_stats(spans):
    """Per-layer metrics: <name>.{calls,self_s,raised} plus the counters.

    Self time is a span's duration minus the durations of its children, so
    the self times of all spans of an op, the root included, add up to the
    op's duration.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {name: {"calls": 0, "self_s": 0.0, "raised": 0, "amount": 0}
             for name in (*TARGETS, OP)}
    trusted = completed = 0
    for i, (name, start, end, parent, _, raised, amount) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child[i]
        entry["raised"] += raised
        entry["amount"] += amount
        if name == "core.solution_from_table" and parent >= 0:
            caller = spans[parent][0]
            trusted += caller not in (OP, "cli.run")
            completed += caller == "classify.exhaustive_enumerate"
    op_time = sum(end - start for name, start, end, *_ in spans if name == OP)
    out = {}
    for name in TARGETS:
        entry = stats[name]
        out[f"{name}.calls"] = (entry["calls"], "count")
        out[f"{name}.self_s"] = (entry["self_s"], "s")
        out[f"{name}.raised"] = (entry["raised"], "count")
    loads = stats["core.solution_from_table"]["calls"]
    out["core.solution_from_table.trusted_share"] = (trusted / loads if loads else 0.0, "ratio")
    out["core.verify_solution.cells_computed"] = (stats["core.verify_solution"]["amount"], "cells")
    out["perm.group_closure.elements"] = (stats["perm.group_closure"]["amount"], "count")
    out["aut.automorphism_group.elements"] = (stats["aut.automorphism_group"]["amount"], "count")
    classes = stats["classify.exhaustive_enumerate"]["amount"]
    out["classify.exhaustive_enumerate.completed_tables"] = (completed, "count")
    out["classify.exhaustive_enumerate.class_yield"] = (
        classes / completed if completed else 0.0, "ratio")
    out["trace.attributed_share"] = (
        1.0 - stats[OP]["self_s"] / op_time if op_time else 0.0, "ratio")
    return out, op_time, stats[OP]["self_s"]
