"""Spans and counters around calls into the obrsk layers.

Nothing here edits the package: each public function is replaced, for the
length of a traced pass, in the namespace that calls it.  The package binds
names with ``from ... import``, so patching the defining module alone would
leave the callers on the original and every count at zero; hence, e.g.,
``obrsk.ideal.is_quotient_monomial`` and ``obrsk.grassmannian.obrsk``.

Spans are kept in memory as ``[name, start, end, parent]`` rows (parent is
the index of the enclosing span, -1 at the top) and are written out by the
caller when the run ends.  Times are derived from the spans afterwards.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, observe=None):
        """Replace owner.attr by a wrapper that records a span per call.
        observe(args, result) runs after the span closes."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, observe))

    def count(self, owner, attr, key, measure=None):
        """Replace owner.attr by a wrapper that only counts: one per call, or
        measure(result) per call."""
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[key] += 1 if measure is None else measure(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def before(self, owner, attr, hook):
        """Replace owner.attr by a wrapper that calls hook(*args) before the
        call, to see arguments the call changes in place."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            hook(*args, **kwargs)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap(self, name, fn):
        """fn wrapped in a span of the benchmark's own."""
        return self._wrap(name, fn, None)

    def summary(self):
        """Per span name: calls, total time of the outermost spans of that
        name, and self time (duration minus the spans directly inside)."""
        spans = self.spans
        inner = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                inner[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - inner[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                entry["total_s"] += end - start
        return dict(out)


def install(tracer):
    """Wrap the public entry points of the five measured layers, and count
    what goes into elimination."""
    import obrsk.correspondence as correspondence
    import obrsk.enumeration as enumeration
    import obrsk.grassmannian as grassmannian
    import obrsk.ideal as ideal
    import obrsk.polynomials as polynomials

    counts = tracer.counts

    # ideal: every matrix handed to elimination, from slice construction
    # and from rank_with, counted before _rref reduces it in place
    def rref_input(rows):
        counts["ideal.slice_rows"] += len(rows)
        if rows:
            counts["ideal.slice_cells"] += len(rows) * len(rows[0])
            counts["ideal.slice_nonzeros"] += sum(len(row) - row.count(0) for row in rows)

    def slice_built(args, _):
        counts["ideal.slice_cols"] += args[0].total
        counts["ideal.slice_rank"] += args[0].dim

    tracer.patch(ideal, "generators", "ideal.generators")
    tracer.patch(ideal, "pfaffian_generator", "ideal.pfaffian")
    tracer.patch(ideal.DegreeSlice, "__init__", "ideal.slice", slice_built)
    tracer.patch(ideal.DegreeSlice, "rank_with", "ideal.rank_with")
    tracer.before(ideal, "_rref", rref_input)
    tracer.patch(ideal, "chains_monomials_degree", "ideal.chains_monomials")
    tracer.patch(ideal, "standard_monomials", "ideal.standard_monomials")
    tracer.patch(ideal, "standard_poly", "ideal.standard_poly")

    # grassmannian, entered from ideal through the monomial predicate
    tracer.patch(ideal, "is_quotient_monomial", "grassmannian.predicate")
    tracer.patch(grassmannian, "w_of_chain", "grassmannian.w_of_chain")
    tracer.count(grassmannian, "enumerate_extended_chains", "grassmannian.chains_visited", len)

    # correspondence: from chain_image inside grassmannian, and directly
    def chain_image_arg(args, _):
        counts["correspondence.chain_image_calls"] += 1
        tracer.distinct["chain_image"].add(args[0])

    tracer.patch(grassmannian, "obrsk", "correspondence.obrsk", chain_image_arg)
    tracer.patch(correspondence, "obrsk", "correspondence.obrsk")
    tracer.patch(correspondence, "robrsk", "correspondence.robrsk")
    tracer.patch(correspondence, "obrsk_inverse", "correspondence.robrsk")

    # polynomials
    tracer.patch(polynomials.SparsePoly, "__mul__", "polynomials.mul")
    tracer.patch(polynomials.SparsePoly, "__rmul__", "polynomials.mul")
    tracer.patch(polynomials.TermOrder, "__init__", "polynomials.term_order")

    # enumeration: every object built for the filter is a candidate
    def kept(args, result):
        counts["enumeration.kept"] += len(result)

    for name in (
        "enumerate_negative_pairs",
        "enumerate_nonvanishing_pairs",
        "enumerate_negative_bitableaux",
        "enumerate_nonvanishing_bitableaux",
    ):
        tracer.patch(enumeration, name, "enumeration.enum", kept)
    tracer.count(enumeration, "SkewPair", "enumeration.candidates")
    tracer.count(enumeration, "NotchedBitableau", "enumeration.candidates")


def layer_metrics(tracer, timed_s):
    """The per-layer metrics of one traced pass whose timed phase took
    timed_s seconds.  Times are shares of the timed phase."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def share(*names, key="total_s"):
        return sum(s.get(n, {}).get(key, 0.0) for n in names) / timed_s

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "ideal.slice_share": share("ideal.slice"),
        "ideal.rank_with_share": share("ideal.rank_with"),
        "ideal.slice_rows": c["ideal.slice_rows"],
        "ideal.slice_cols": c["ideal.slice_cols"],
        "ideal.slice_rank": c["ideal.slice_rank"],
        "ideal.slice_density": ratio(c["ideal.slice_nonzeros"], c["ideal.slice_cells"]),
        "ideal.pfaffian_calls": calls("ideal.pfaffian"),
        "ideal.pfaffian_share": share("ideal.pfaffian"),
        "ideal.standard_poly_share": share("ideal.standard_poly"),
        "polynomials.mul_calls": calls("polynomials.mul"),
        "polynomials.mul_share": share("polynomials.mul"),
        "polynomials.term_order_share": share("polynomials.term_order"),
        "grassmannian.predicate_calls": calls("grassmannian.predicate"),
        "grassmannian.predicate_share": share("grassmannian.predicate", "grassmannian.w_of_chain", key="self_s"),
        "grassmannian.predicate_total_share": share("grassmannian.predicate"),
        "grassmannian.chains_visited": c["grassmannian.chains_visited"],
        "grassmannian.w_of_chain_calls": calls("grassmannian.w_of_chain"),
        "correspondence.obrsk_calls": calls("correspondence.obrsk"),
        "correspondence.obrsk_share": share("correspondence.obrsk"),
        "correspondence.robrsk_share": share("correspondence.robrsk"),
        "correspondence.chain_image_distinct_ratio": ratio(
            len(tracer.distinct["chain_image"]), c["correspondence.chain_image_calls"]
        ),
        "enumeration.enum_share": share("enumeration.enum"),
        "enumeration.candidates": c["enumeration.candidates"],
        "enumeration.kept": c["enumeration.kept"],
        "enumeration.yield_ratio": ratio(c["enumeration.kept"], c["enumeration.candidates"]),
    }
