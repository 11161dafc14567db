"""Workload inputs, the per-item calls and their correctness checks.

A workload is built from its seed in set-up and then run as one pass: every
item is computed, timed and checked against an expectation fixed at the
commit that defined the benchmark.  A wrong or raising item is counted as
failed; it never stops the pass.

The package is reached through module attributes (``ideal.verify_main_theorem``,
``correspondence.obrsk``, ...) looked up at call time, so that a traced pass
sees the wrappers tracing.install puts in place.
"""

from __future__ import annotations

import json
import random
import time
import traceback
from pathlib import Path

MAX_DEGREE = 3
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def all_triples(d):
    """Every triple alpha <= beta <= gamma in I(d), in the order the
    ``ideal verify-main --all-triples`` command checks them."""
    from obrsk import enumerate_id, id_leq

    elements = enumerate_id(d)
    return [(a, b, g) for b in elements for a in elements if id_leq(a, b) for g in elements if id_leq(b, g)]


def triple_key(a, b, g):
    return "|".join(",".join(str(e) for e in x.entries) for x in (a, b, g))


def report_summary(report):
    """The fields of a VerifyReport the reference pins."""
    return {
        "passed": report.passed,
        "degrees": [[r.total, r.n_initial, r.n_chains, r.n_standard] for r in report.degrees],
    }


class PassResult:
    def __init__(self):
        self.items = []  # (start, end) of each item
        self.attempted = 0
        self.failed = 0
        self.errors = []  # the first few failure messages

    def record(self, ok, describe):
        """Count one check; describe() names a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(describe())


class VerifyWorkload:
    """verify_main_theorem on a list of triples, each compared with the
    recorded reference."""

    def __init__(self, triples, reference):
        self.triples = triples
        self.reference = reference

    @classmethod
    def load_reference(cls, d):
        return json.loads((REFERENCE_DIR / f"verify_d{d}.json").read_text())["triples"]

    def run(self, wrap_item=None):
        import obrsk.ideal as ideal

        def item(a, b, g):
            return report_summary(ideal.verify_main_theorem(a, b, g, MAX_DEGREE))

        if wrap_item is not None:
            item = wrap_item(item)
        out = PassResult()
        clock = time.perf_counter
        for a, b, g in self.triples:
            key = triple_key(a, b, g)
            t0 = clock()
            try:
                got = item(a, b, g)
            except Exception:  # a raising item is a failed item; the pass goes on
                got = traceback.format_exc(limit=3)
            out.items.append((t0, clock()))
            want = self.reference.get(key)
            out.record(got == want, lambda: f"{key}: got {got}, expected {want}")
        return out


def verify_d4(seed):
    """All 112 triples of I(4); the seed shuffles their order."""
    triples = all_triples(4)
    random.Random(seed).shuffle(triples)
    return VerifyWorkload(triples, VerifyWorkload.load_reference(4))


def verify_d5(seed):
    """A seeded sample of the 672 triples of I(5): for each of the 16 betas,
    one triple among those whose number of Pfaffian generators is that
    beta's median, in shuffled order.  No beta repeats, and since a triple's
    cost follows its beta and its generator count, the samples of different
    seeds take nearly the same work."""
    from obrsk import enumerate_id, id_leq

    elements = enumerate_id(5)
    n_gens = {}
    by_beta = {}
    for a, b, g in all_triples(5):
        if (a, g) not in n_gens:
            n_gens[a, g] = sum(1 for t in elements if not (id_leq(a, t) and id_leq(t, g)))
        by_beta.setdefault(b.entries, []).append((n_gens[a, g], (a, b, g)))
    rng = random.Random(seed)
    triples = []
    for beta in sorted(by_beta):
        group = by_beta[beta]
        median = sorted(n for n, _ in group)[len(group) // 2]
        triples.append(rng.choice([t for n, t in group if n == median]))
    rng.shuffle(triples)
    return VerifyWorkload(triples, VerifyWorkload.load_reference(5))


class CertifyWorkload:
    """The exhaustive correspondence certificate at entries <= 6, width <= 2:
    enumerate the negative and the nonvanishing pairs and bitableaux, map
    every pair forward and back, and check that the images are exactly the
    enumerated bitableaux."""

    MAX_ENTRY, MAX_WIDTH, MAX_BOXES = 6, 2, 4

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.expected = {"negative": 157, "nonvanishing": 478}

    def run(self, wrap_item=None):
        import obrsk.correspondence as correspondence
        import obrsk.enumeration as enumeration
        from obrsk.tableaux import SignKind, classify_sign, validate_skew_symmetric

        out = PassResult()
        e, w, boxes = self.MAX_ENTRY, self.MAX_WIDTH, self.MAX_BOXES
        families = {
            "negative": (
                enumeration.enumerate_negative_pairs(e, w),
                enumeration.enumerate_negative_bitableaux(e, boxes),
            ),
            "nonvanishing": (
                enumeration.enumerate_nonvanishing_pairs(e, w),
                enumeration.enumerate_nonvanishing_bitableaux(e, boxes),
            ),
        }
        jobs = [(family, p) for family, (pairs, _) in families.items() for p in pairs]
        self.rng.shuffle(jobs)

        def item(family, p):
            image = correspondence.obrsk(p)
            if family == "negative":
                back = correspondence.robrsk(image)
                ok = classify_sign(image).kind is SignKind.NEGATIVE
            else:
                back = correspondence.obrsk_inverse(image)
                ok = classify_sign(image).kind is not SignKind.VANISHING
            ok = ok and back == p and image.degree == p.degree and validate_skew_symmetric(image)
            return image, ok

        if wrap_item is not None:
            item = wrap_item(item)
        images = {family: set() for family in families}
        clock = time.perf_counter
        for family, p in jobs:
            t0 = clock()
            try:
                image, ok = item(family, p)
            except Exception:  # a raising item is a failed item; the pass goes on
                image, ok = None, False
            out.items.append((t0, clock()))
            if image is not None:
                images[family].add(image)
            out.record(ok, lambda: f"{family} pair {p} does not round-trip")
        for family, (pairs, bitableaux) in families.items():
            want = self.expected[family]
            out.record(
                len(pairs) == len(bitableaux) == want,
                lambda: f"{family}: {len(pairs)} pairs, {len(bitableaux)} bitableaux, expected {want}",
            )
            out.record(
                images[family] == set(bitableaux),
                lambda: f"{family}: images differ from the enumerated codomain",
            )
        return out


WORKLOADS = {
    "verify_d4": verify_d4,
    "verify_d5": verify_d5,
    "certify_pairs": CertifyWorkload,
}
