"""Traced runs: time gscalars' layers from outside, by wrapping public functions.

Each target below names a function or method of one gscalars module.  A
span wrapper records (name, start, end, parent span, op id) for every
outermost call; a call to a name already open on the span stack (the
recursion of `expr.evaluate` or `expr.render`) runs unrecorded inside the
outer span, so self time is never counted twice.  Each span is one
five-field record appended to a flat array in a single call, so a signal
that ends a runaway op cannot leave the fields misaligned.  A count wrapper only
counts calls: it is used where a function is too cheap for a span to say
anything but its own overhead (`SetDescriptor.member`, `oracle.is_ideal`).

A wrapper replaces the original in every gscalars namespace that holds it:
names imported by `from .x import f` and class-attribute aliases such as
`SetDescriptor.__contains__ = member` are found by identity.  Spans are
kept in flat arrays during the run and written out when it ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from pathlib import Path

SPAN, COUNT = "span", "count"
FIELDS = 5  # name id, parent offset (-1 at top), op id, start, end

# (layer, metric name, module, attribute paths, kind)
TARGETS = [
    ("exactnum", "poly_eval", "exactnum", ["Poly.__call__"], SPAN),
    ("exactnum", "eventual_sign", "exactnum", ["eventual_sign"], SPAN),
    ("exactnum", "poly_gcd", "exactnum", ["poly_gcd"], SPAN),
    ("exactnum", "integer_roots", "exactnum", ["integer_roots_nonneg"], SPAN),
    ("sets_filters", "bool_ops", "sets_filters",
     ["SetDescriptor.complement", "SetDescriptor.union", "SetDescriptor.intersect"], SPAN),
    ("sets_filters", "member", "sets_filters", ["SetDescriptor.member"], COUNT),
    ("sets_filters", "descriptor", "sets_filters", ["SetDescriptor.__init__"], SPAN),
    ("sets_filters", "contains", "sets_filters", ["FilterDescriptor.contains"], SPAN),
    ("sets_filters", "superset_of", "sets_filters", ["SetDescriptor.superset_of"], SPAN),
    ("sets_filters", "check_filter_axioms", "sets_filters", ["check_filter_axioms"], SPAN),
    ("seqrep", "rseq_init", "seqrep", ["RSeq.__init__"], SPAN),
    ("seqrep", "ring_ops", "seqrep",
     ["RSeq.__add__", "RSeq.__sub__", "RSeq.__mul__", "RSeq.__neg__", "RSeq.scale"], SPAN),
    ("seqrep", "zero_set", "seqrep", ["RSeq.zero_set"], SPAN),
    ("seqrep", "bounds", "seqrep", ["RSeq.sup_val", "RSeq.inf_val"], SPAN),
    ("quotient", "le_set", "quotient", ["le_set"], SPAN),
    ("quotient", "leq", "quotient", ["leq"], SPAN),
    ("quotient", "scalar_eq", "quotient", ["scalar_eq"], SPAN),
    ("quotient", "try_invert", "quotient", ["try_invert"], SPAN),
    ("quotient", "classify", "quotient", ["classify"], SPAN),
    ("quotient", "standard_part", "quotient", ["standard_part"], SPAN),
    ("series", "partial_sums", "series", ["partial_sums"], SPAN),
    ("series", "banach_bounds_check", "series", ["banach_bounds_check"], SPAN),
    ("series", "shift_invariance_impossibility", "series", ["shift_invariance_impossibility"], SPAN),
    ("galois", "in_ideal", "galois", ["in_ideal"], SPAN),
    ("galois", "roundtrip_filter", "galois", ["roundtrip_filter"], SPAN),
    ("oracle", "enumerate_ideals", "oracle", ["enumerate_ideals"], SPAN),
    ("oracle", "enumerate_filters", "oracle", ["enumerate_filters"], SPAN),
    ("oracle", "is_ideal", "oracle", ["is_ideal"], COUNT),
    ("oracle", "is_filter", "oracle", ["is_filter"], COUNT),
    ("oracle", "verify_galois", "oracle", ["verify_galois"], SPAN),
    ("oracle", "verify_maximal_prime", "oracle", ["verify_maximal_prime"], SPAN),
    ("expr", "parse", "expr", ["parse"], SPAN),
    ("expr", "evaluate", "expr", ["evaluate"], SPAN),
    ("expr", "render", "expr", ["render"], SPAN),
    ("cli", "main", "cli", ["main"], SPAN),
]

LAYERS = ["exactnum", "sets_filters", "seqrep", "quotient", "series", "galois", "oracle", "expr", "cli"]

# Span names whose calls also record how many calls of an inner name they made.
INNER = {
    "sets_filters.bool_ops": "sets_filters.member",
    "seqrep.bounds": "exactnum.poly_eval",
    "quotient.le_set": "exactnum.poly_eval",
    "series.partial_sums": "exactnum.poly_eval",
}

# Every per-layer metric a traced run prints, with its unit, as BENCHMARK.json lists them.
PER_LAYER = [(m["name"], m["unit"]) for m in
             json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]


def _points(desc) -> int:
    return len(getattr(desc, "plus", ())) + len(getattr(desc, "minus", ()))


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.depth: list[int] = []
        self.extra: dict[str, float] = {}
        self.op = -1
        self.stack: list[int] = []  # offsets of the open spans
        self.spans = array("d")  # FIELDS per span, flat
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, layer: str, name: str) -> int:
        full = f"{layer}.{name}"
        if full in self.names:
            return self.names.index(full)
        self.names.append(full)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.depth.append(0)
        return len(self.names) - 1

    def _add(self, key: str, value) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    # -- wrappers -----------------------------------------------------------

    def _after_hook(self, full: str):
        if full == "exactnum.eventual_sign":
            return lambda args, result, inner: self._add(full + ".threshold_sum", result[1])
        if full == "sets_filters.descriptor":
            return lambda args, result, inner: self._add(full + ".points", _points(args[0]))
        if full == "quotient.le_set":
            def le_set_after(args, result, inner):
                self._add(full + ".points", _points(result))
                self._add(full + ".evals", inner)
            return le_set_after
        if full in INNER:
            return lambda args, result, inner: self._add(full + ".inner", inner)
        if full == "oracle.is_ideal":
            return lambda args, result, inner: self._add(full + ".hits", 1 if result else 0)
        return None

    def _span(self, nid: int, fn):
        full = self.names[nid]
        inner = self._intern(*INNER[full].split(".", 1)) if full in INNER else None
        after = self._after_hook(full)
        calls, depth, stack, spans = self.calls, self.depth, self.stack, self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if depth[nid]:
                return fn(*args, **kwargs)
            depth[nid] = 1
            calls[nid] += 1
            before = calls[inner] if inner is not None else 0
            offset = len(spans)
            spans.extend((nid, stack[-1] if stack else -1, tracer.op, clock(), 0.0))
            stack.append(offset)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._add(f"{full}.raised.{type(exc).__name__}", 1)
                raise
            finally:
                spans[offset + 4] = clock()
                stack.pop()
                depth[nid] = 0
            if after is not None:
                after(args, result, calls[inner] - before if inner is not None else 0)
            return result

        return wrapper

    def _count(self, nid: int, fn):
        calls = self.calls
        after = self._after_hook(self.names[nid])
        if after is None:
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                result = fn(*args, **kwargs)
                after(args, result, 0)
                return result
        return wrapper

    # -- install / remove -----------------------------------------------------

    def install(self, package) -> list[str]:
        """Wrap every target in every gscalars namespace; return the targets
        that this version of the package does not have."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        missing = []
        for layer, name, module_name, paths, kind in TARGETS:
            nid = self._intern(layer, name)
            module = sys.modules.get(f"{package.__name__}.{module_name}")
            for path in paths:
                original = _resolve(module, path)
                if original is None:
                    missing.append(f"{module_name}.{path}")
                    continue
                wrapper = self._span(nid, original) if kind == SPAN else self._count(nid, original)
                self._replace_everywhere(modules, original, wrapper)
        return missing

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._patch(value, cattr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def abandon(self) -> None:
        """After an op failed: close the spans it left open, so the next op
        starts from an empty stack even if a wrapper was interrupted."""
        now = time.perf_counter()
        for offset in self.stack:
            if self.spans[offset + 4] == 0.0:
                self.spans[offset + 4] = now
        self.stack.clear()
        self.depth[:] = [0] * len(self.depth)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per name: span duration minus its direct children."""
        spans = self.spans
        child = array("d", bytes(8 * (len(spans) // FIELDS)))
        for offset in range(0, len(spans), FIELDS):
            parent = int(spans[offset + 1])
            if parent >= 0:
                child[parent // FIELDS] += spans[offset + 4] - spans[offset + 3]
        totals = [0.0] * len(self.names)
        for offset in range(0, len(spans), FIELDS):
            own = spans[offset + 4] - spans[offset + 3] - child[offset // FIELDS]
            totals[int(spans[offset])] += own
        return totals

    def metrics(self, wall_s: float, overhead_ratio: float) -> dict[str, float]:
        """The PER_LAYER metrics of the spans recorded so far."""
        values = self._values(wall_s, overhead_ratio)
        return {key: values[key] for key, _unit in PER_LAYER}

    def unknown_metrics(self) -> list[str]:
        """PER_LAYER names that this tracer does not compute."""
        values = self._values(0.0, 0.0)
        return [key for key, _unit in PER_LAYER if key not in values]

    def _values(self, wall_s: float, overhead_ratio: float) -> dict[str, float]:
        self_s = self.self_times()
        by_name = {}
        for nid, full in enumerate(self.names):
            by_name[f"{full}.calls"] = self.calls[nid]
            by_name[f"{full}.self_s"] = self_s[nid]
        layer_total = {layer: 0.0 for layer in LAYERS}
        for nid, layer in enumerate(self.layer_of):
            layer_total[layer] += self_s[nid]

        def ratio(num, den):
            return num / den if den else 0.0

        extra = self.extra
        derived = {
            "exactnum.eventual_sign.threshold_sum": extra.get("exactnum.eventual_sign.threshold_sum", 0),
            "sets_filters.member.calls_per_bool_op": ratio(
                extra.get("sets_filters.bool_ops.inner", 0), by_name["sets_filters.bool_ops.calls"]),
            "sets_filters.descriptor.points_mean": ratio(
                extra.get("sets_filters.descriptor.points", 0), by_name["sets_filters.descriptor.calls"]),
            "seqrep.bounds.evals_per_call": ratio(
                extra.get("seqrep.bounds.inner", 0), by_name["seqrep.bounds.calls"]),
            "quotient.le_set.useful_ratio": ratio(
                extra.get("quotient.le_set.points", 0), extra.get("quotient.le_set.evals", 0)),
            "quotient.try_invert.zero_divisors": extra.get("quotient.try_invert.raised.ZeroDivisor", 0),
            "series.partial_sums.evals_per_call": ratio(
                extra.get("series.partial_sums.inner", 0), by_name["series.partial_sums.calls"]),
            "oracle.is_ideal.hit_ratio": ratio(
                extra.get("oracle.is_ideal.hits", 0), by_name["oracle.is_ideal.calls"]),
            "harness.self_s": wall_s - sum(layer_total.values()),
            "trace.wall_s": wall_s,
            "trace.spans": len(self.spans) // FIELDS,
            "trace.overhead_ratio": overhead_ratio,
        }
        derived.update({f"{layer}.self_s": total for layer, total in layer_total.items()})
        return {**by_name, **derived}

    def write_spans(self, path) -> None:
        """All spans as gzip'd TSV: span id, name, parent id, op id, and start
        and end in integer nanoseconds from the first span's start."""
        spans, names = self.spans, self.names
        base = spans[3] if spans else 0.0
        fields = iter(spans)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\top\tstart_ns\tend_ns\n")
            lines = []
            for i, (nid, parent, op, start, end) in enumerate(zip(*[fields] * FIELDS)):
                lines.append("%d\t%s\t%d\t%d\t%d\t%d\n" % (
                    i, names[int(nid)], parent // FIELDS if parent >= 0 else -1, op,
                    (start - base) * 1e9, (end - base) * 1e9))
                if len(lines) >= 65536:
                    fh.write("".join(lines))
                    lines.clear()
            fh.write("".join(lines))


def _resolve(module, path: str):
    obj = module
    for part in path.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if hasattr(obj, "__dict__") else None
    return obj
