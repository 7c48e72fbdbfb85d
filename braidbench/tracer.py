"""Per-layer tracing from outside the program.

`Tracer.install()` wraps braidalg's public functions and methods in every
braidalg module that bound them (`from .report import sweep` copies the
name into six modules, so each copy is replaced).  Coarse entry points
get spans (name, start, end, parent, case id) that stay in memory until
the process ends; fine-grained calls (Field ops, `*.apply`, `pivots`) only
count.  Outputs are unchanged: every wrapper returns what it wrapped.

A metric's `_s` is the time inside its outermost spans, so nested calls of
the same layer are not counted twice; `_calls` counts every call.  Self
time is a span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

_SPAN_FUNCS = {
    "braidalg.cli": {"main": "cli.main"},
    "braidalg.dsl": {"parse": "dsl.parse"},
    "braidalg.report": {"sweep": "report.sweep"},
    "braidalg.algebra": {n: "algebra.predicate" for n in (
        "is_associative", "is_lie", "is_leibniz", "is_homomorphism")},
    "braidalg.action": {
        "validate_assoc_action": "action.validate", "validate_lie_action": "action.validate",
        "semidirect_assoc": "action.semidirect", "semidirect_lie": "action.semidirect"},
    "braidalg.xmod": {n: "xmod.validate" for n in (
        "validate_xmod_assoc", "validate_xmod_lie", "require_valid_xmod_assoc",
        "require_valid_xmod_lie", "validate_xmod_morphism")},
    "braidalg.icat": {"validate_cat_algebra": "icat.validate", "require_valid_cat": "icat.validate"},
    "braidalg.braid": dict(
        {n: "braid.validate" for n in (
            "validate_braiding_xmod_assoc", "validate_braiding_xmod_lie",
            "validate_braiding_cat_assoc", "validate_braiding_cat_lie_ulualan",
            "validate_braiding_cat_lie_alt", "check_anticoherence",
            "validate_braided_xmod_morphism", "validate_braided_internal_functor")},
        cx_functor="braid.cx", xc_functor="braid.xc", alpha_iso="braid.alpha",
        beta_iso="braid.beta"),
    "braidalg.groupx": {"validate_group_xmod": "groupx.validate",
                        "validate_group_braiding": "groupx.validate"},
    "braidalg.natensor": {"tensor_square": "natensor.tensor_square",
                          "tensor_xmod": "natensor.tensor_xmod",
                          "tensor_braiding": "natensor.tensor_braiding"},
    "braidalg.linear": {"rref": "linear.rref", "kernel": "linear.kernel",
                        "quotient": "linear.quotient"},
}
_PRINTERS = ("print_algebra_doc", "print_xbraiding_doc", "print_action_doc",
             "print_groupxmod_doc", "print_xmod_doc", "print_catbraiding_doc",
             "print_cat_doc", "print_group_doc", "print_document")
_SPAN_FUNCS["braidalg.dsl"].update({n: "dsl.print" for n in _PRINTERS})

# (module, class, method, metric, keep span record)
_SPAN_METHODS = [
    ("braidalg.report", "ValidationReport", "to_json_obj", "report.json", True),
    ("braidalg.report", "ValidationReport", "to_text", "report.json", True),
    ("braidalg.linear", "Subspace", "reduce", "linear.reduce", False),
    ("braidalg.linear", "Subspace", "contains", "linear.reduce", False),
    ("braidalg.linear", "Subspace", "coords", "linear.reduce", False),
]
_FIELD_OPS = ("zero", "one", "of", "add", "sub", "mul", "neg", "inv", "div", "to_str")
_COUNT_METHODS = [
    ("braidalg.linear", "BilMap", "apply", "linear.bilmap_apply_calls"),
    ("braidalg.linear", "LinMap", "apply", "linear.linmap_apply_calls"),
    ("braidalg.linear", "Subspace", "pivots", "linear.pivots_calls"),
]
VALIDATOR_GROUPS = ("algebra.predicate", "action.validate", "xmod.validate",
                    "icat.validate", "braid.validate", "groupx.validate")
CONSTRUCT_GROUPS = ("braid.cx", "braid.xc", "braid.alpha", "braid.beta")

# per-layer metrics in BENCHMARK.json order, with their units
PER_LAYER = [
    ("cli.import_s", "s"), ("cli.main_s", "s"),
    ("dsl.parse_s", "s"), ("dsl.parse_calls", "count"), ("dsl.input_bytes", "bytes"),
    ("dsl.print_s", "s"), ("dsl.print_calls", "count"), ("report.json_s", "s"),
    ("report.sweep_calls", "count"), ("report.sweep_s", "s"),
    ("report.sweep_evals", "count"), ("report.sweep_witnesses", "count"),
    ("algebra.predicate_calls", "count"), ("algebra.predicate_s", "s"),
    ("action.validate_calls", "count"), ("action.validate_s", "s"),
    ("xmod.validate_calls", "count"), ("xmod.validate_s", "s"),
    ("icat.validate_calls", "count"), ("icat.validate_s", "s"),
    ("braid.validate_calls", "count"), ("braid.validate_s", "s"),
    ("groupx.validate_calls", "count"), ("groupx.validate_s", "s"),
    ("validators.repeat_calls", "count"), ("validators.useful_ratio", "ratio"),
    ("action.semidirect_calls", "count"), ("action.semidirect_s", "s"),
    ("braid.cx_s", "s"), ("braid.xc_s", "s"), ("braid.alpha_s", "s"),
    ("braid.beta_s", "s"), ("braid.construct_self_s", "s"),
    ("natensor.tensor_square_s", "s"), ("natensor.tensor_xmod_s", "s"),
    ("natensor.tensor_braiding_s", "s"), ("natensor.ambient_dim", "count"),
    ("natensor.relation_dim", "count"),
    ("linear.rref_calls", "count"), ("linear.rref_s", "s"), ("linear.rref_cells", "count"),
    ("linear.kernel_calls", "count"), ("linear.kernel_s", "s"), ("linear.quotient_s", "s"),
    ("linear.reduce_calls", "count"), ("linear.reduce_s", "s"),
    ("linear.pivots_calls", "count"), ("linear.bilmap_apply_calls", "count"),
    ("linear.linmap_apply_calls", "count"), ("linear.dense_entries", "count"),
    ("linear.input_nonzero_ratio", "ratio"),
    ("fields.ops", "count"), ("fields.inv_calls", "count"),
    ("trace.overhead_s", "s"),
]


def _key(args):
    parts = tuple(a for a in args if not isinstance(a, str))
    try:
        hash(parts)
        return parts
    except TypeError:
        return tuple(id(a) for a in parts)


class Tracer:
    def __init__(self):
        self.spans = []  # [metric, start, end, parent record, case id, child time]
        self.stack = []
        self.depth = Counter()
        self.calls = Counter()
        self.time = defaultdict(float)
        self.counts = Counter()
        self.case = None
        self.seen = set()
        self.import_s = []

    def begin_case(self, case_id):
        self.case = case_id
        self.seen = set()

    # wrappers -------------------------------------------------------------

    def _span(self, metric, fn, keep=True):
        tr = self
        validator = metric in VALIDATOR_GROUPS
        after = _AFTER.get(fn.__name__)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if validator:
                key = (fn.__qualname__, _key(args))
                if key in tr.seen:
                    tr.counts["validators.repeat_calls"] += 1
                else:
                    tr.seen.add(key)
                tr.counts["validators.calls"] += 1
            outer = tr.depth[metric] == 0
            tr.depth[metric] += 1
            rec = [metric, 0.0, 0.0, tr.stack[-1] if tr.stack else None, tr.case, 0.0]
            tr.stack.append(rec)
            rec[1] = perf()
            try:
                result = fn(*args, **kw)
            finally:
                rec[2] = perf()
                tr.stack.pop()
                tr.depth[metric] -= 1
                dur = rec[2] - rec[1]
                if rec[3] is not None:
                    rec[3][5] += dur
                tr.calls[metric] += 1
                if outer:
                    tr.time[metric] += dur
                if keep:
                    tr.spans.append(rec)
            if after is not None:
                after(tr, args, result)
            return result

        return wrapper

    def _count(self, metric, fn, also=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            counts[metric] += 1
            if also:
                counts[also] += 1
            return fn(*args, **kw)

        return wrapper

    def _dense(self, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(left, right, codomain, rule):
            result = fn(left, right, codomain, rule)
            n = left.dim * right.dim * codomain.dim
            tr.counts["linear.dense_entries"] += n
            if tr.depth["dsl.parse"]:
                tr.counts["input.entries"] += n
                tr.counts["input.nonzero"] += sum(
                    1 for plane in result.tensor for row in plane for c in row if c != 0)
            return result

        return wrapper

    def install(self):
        """Replace every binding of the traced names in loaded braidalg modules."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "braidalg" or n.startswith("braidalg.")}
        swaps = []
        for modname, names in _SPAN_FUNCS.items():
            for attr, metric in names.items():
                orig = getattr(mods[modname], attr)
                swaps.append((orig, self._span(metric, orig)))
        lin = mods["braidalg.linear"]
        orig = lin.bilinear_from_rule
        swaps.append((orig, self._dense(orig)))
        for orig, new in swaps:
            for m in mods.values():
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, new)
        for modname, cls, meth, metric, keep in _SPAN_METHODS:
            klass = getattr(mods[modname], cls)
            setattr(klass, meth, self._span(metric, getattr(klass, meth), keep))
        for modname, cls, meth, metric in _COUNT_METHODS:
            klass = getattr(mods[modname], cls)
            setattr(klass, meth, self._count(metric, getattr(klass, meth)))
        field = mods["braidalg.fields"].Field
        for meth in _FIELD_OPS:
            also = "fields.inv_calls" if meth == "inv" else None
            setattr(field, meth, self._count("fields.ops", getattr(field, meth), also))

    # results ----------------------------------------------------------------

    def aggregate(self):
        """Mergeable sums for this process."""
        self_time = sum(r[2] - r[1] - r[5] for r in self.spans if r[0] in CONSTRUCT_GROUPS)
        return {
            "calls": dict(self.calls),
            "time": dict(self.time),
            "counts": dict(self.counts),
            "construct_self_s": self_time,
            "import_s": self.import_s,
            "spans": len(self.spans),
        }


def _after_parse(tr, args, result):
    tr.counts["dsl.input_bytes"] += len(args[0].encode("utf-8"))


def _after_sweep(tr, args, result):
    dims = tuple(args[1])
    if result.ok:
        tr.counts["report.sweep_evals"] += math.prod(dims)
        return
    tr.counts["report.sweep_witnesses"] += 1
    rank = 0
    for i, d in zip(result.witness.basis_tuple, dims):
        rank = rank * d + i
    tr.counts["report.sweep_evals"] += rank + 1


def _after_rref(tr, args, result):
    rows = args[1]
    if isinstance(rows, (list, tuple)) and rows:
        tr.counts["linear.rref_cells"] += len(rows) * len(rows[0])


def _after_tensor_square(tr, args, result):
    tr.counts["natensor.ambient_dim"] += result.relations.ambient.dim
    tr.counts["natensor.relation_dim"] += result.relations.dim


_AFTER = {"parse": _after_parse, "sweep": _after_sweep, "rref": _after_rref,
          "tensor_square": _after_tensor_square}


def merge(aggs):
    out = {"calls": Counter(), "time": Counter(), "counts": Counter(),
           "construct_self_s": 0.0, "import_s": [], "spans": 0}
    for a in aggs:
        for k in ("calls", "time", "counts"):
            out[k].update(a[k])
        out["construct_self_s"] += a["construct_self_s"]
        out["import_s"] += a["import_s"]
        out["spans"] += a["spans"]
    return out


def per_layer(agg, overhead_s):
    """The named per-layer metrics from a merged aggregate."""
    calls, t, c = agg["calls"], agg["time"], agg["counts"]
    v = {
        "cli.import_s": statistics.median(agg["import_s"]) if agg["import_s"] else 0.0,
        "cli.main_s": t["cli.main"],
        "dsl.parse_s": t["dsl.parse"], "dsl.parse_calls": calls["dsl.parse"],
        "dsl.input_bytes": c["dsl.input_bytes"],
        "dsl.print_s": t["dsl.print"], "dsl.print_calls": calls["dsl.print"],
        "report.json_s": t["report.json"],
        "report.sweep_calls": calls["report.sweep"], "report.sweep_s": t["report.sweep"],
        "report.sweep_evals": c["report.sweep_evals"],
        "report.sweep_witnesses": c["report.sweep_witnesses"],
        "validators.repeat_calls": c["validators.repeat_calls"],
        "validators.useful_ratio": (1 - c["validators.repeat_calls"] / c["validators.calls"]
                                    if c["validators.calls"] else 1.0),
        "action.semidirect_calls": calls["action.semidirect"],
        "action.semidirect_s": t["action.semidirect"],
        "braid.construct_self_s": agg["construct_self_s"],
        "natensor.ambient_dim": c["natensor.ambient_dim"],
        "natensor.relation_dim": c["natensor.relation_dim"],
        "linear.rref_calls": calls["linear.rref"], "linear.rref_s": t["linear.rref"],
        "linear.rref_cells": c["linear.rref_cells"],
        "linear.kernel_calls": calls["linear.kernel"], "linear.kernel_s": t["linear.kernel"],
        "linear.quotient_s": t["linear.quotient"],
        "linear.reduce_calls": calls["linear.reduce"], "linear.reduce_s": t["linear.reduce"],
        "linear.input_nonzero_ratio": (c["input.nonzero"] / c["input.entries"]
                                       if c["input.entries"] else 0.0),
        "trace.overhead_s": overhead_s,
    }
    for g in VALIDATOR_GROUPS:
        v[g + "_calls"] = calls[g]
        v[g + "_s"] = t[g]
    for g in CONSTRUCT_GROUPS + ("natensor.tensor_square", "natensor.tensor_xmod",
                                 "natensor.tensor_braiding"):
        v[g + "_s"] = t[g]
    for name in ("linear.pivots_calls", "linear.bilmap_apply_calls",
                 "linear.linmap_apply_calls", "linear.dense_entries", "fields.ops",
                 "fields.inv_calls"):
        v[name] = c[name]
    return {name: v[name] for name, _ in PER_LAYER}
