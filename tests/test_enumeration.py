"""The constructive enumerators against a generate-and-filter reference.

The reference below builds every candidate in sorted column (or row) order
and keeps those the validators accept.  The enumerators must return the same
lists, element for element and in order, while building few candidates and
checking the duality map few times.
"""

import itertools
import math
from collections import Counter
from functools import lru_cache

import pytest

import obrsk.enumeration as enumeration
from obrsk.arrays import SkewPair, TwoRowArray, validate_skew_pair
from obrsk.errors import NotSemistandard, ValidationError
from obrsk.multisets import duality_conflict
from obrsk.tableaux import (
    NotchedBitableau,
    NotchedTableau,
    SignKind,
    classify_sign,
    validate_skew_symmetric,
)
from oracles import enumerate_bound_sets, enumerate_even_bitableaux

NONVANISHING_KINDS = {SignKind.NEGATIVE, SignKind.POSITIVE, SignKind.NONVANISHING}


def _sorted_column_choices(columns, t):
    return itertools.combinations_with_replacement(sorted(columns, reverse=True), t)


def reference_skew_pairs(max_entry, max_width, predicate):
    columns = [(x, y) for x in range(1, max_entry + 1) for y in range(1, max_entry + 1)]
    out = []
    for t in range(1, max_width + 1):
        for cols1 in _sorted_column_choices(columns, t):
            pi1 = TwoRowArray(tuple(b for b, _ in cols1), tuple(a for _, a in cols1))
            for cols2 in _sorted_column_choices(columns, t):
                pi2 = TwoRowArray(tuple(c for _, c in cols2), tuple(d for d, _ in cols2))
                p = SkewPair(pi1, pi2)
                if predicate(p) and not validate_skew_pair(p):
                    out.append(p)
    return out


REFERENCE_PAIRS = {
    "negative": lambda p: all(a < b for a, b in zip(p.a, p.b)),
    "nonvanishing": lambda p: all(a != b for a, b in zip(p.a, p.b)),
}


@lru_cache(maxsize=None)
def reference_even_bitableaux(max_entry, max_boxes):
    out = []
    for shape in enumeration.even_shapes(max_boxes):
        row_choices = [list(itertools.combinations(range(1, max_entry + 1), k)) for k in shape]
        for prows in itertools.product(*row_choices):
            for qrows in itertools.product(*row_choices):
                b = NotchedBitableau(NotchedTableau(prows), NotchedTableau(qrows))
                try:
                    if validate_skew_symmetric(b):
                        out.append(b)
                except NotSemistandard:
                    continue
    return tuple(out)


def reference_bitableaux_of_kind(max_entry, max_boxes, kinds):
    return [b for b in reference_even_bitableaux(max_entry, max_boxes) if classify_sign(b).kind in kinds]


PAIR_RANGES = [(e, 2) for e in range(1, 6)] + [(e, 3) for e in range(1, 4)]
BITABLEAU_RANGES = [(e, 4) for e in range(1, 6)] + [(e, 6) for e in range(1, 5)]


@pytest.mark.parametrize("max_entry, max_width", PAIR_RANGES)
@pytest.mark.parametrize("family", ["negative", "nonvanishing"])
def test_pairs_equal_the_reference(family, max_entry, max_width):
    enumerate_pairs = getattr(enumeration, f"enumerate_{family}_pairs")
    want = reference_skew_pairs(max_entry, max_width, REFERENCE_PAIRS[family])
    assert enumerate_pairs(max_entry, max_width) == want


@pytest.mark.parametrize("max_entry, max_boxes", BITABLEAU_RANGES)
def test_even_bitableaux_equal_the_reference(max_entry, max_boxes):
    want = list(reference_even_bitableaux(max_entry, max_boxes))
    assert enumerate_even_bitableaux(max_entry, max_boxes) == want


@pytest.mark.parametrize("max_entry, max_boxes", BITABLEAU_RANGES)
@pytest.mark.parametrize(
    "name, kinds",
    [("negative", {SignKind.NEGATIVE}), ("nonvanishing", NONVANISHING_KINDS)],
)
def test_bitableaux_of_kind_equal_the_reference(name, kinds, max_entry, max_boxes):
    enumerate_bitableaux = getattr(enumeration, f"enumerate_{name}_bitableaux")
    want = reference_bitableaux_of_kind(max_entry, max_boxes, kinds)
    assert enumerate_bitableaux(max_entry, max_boxes) == want


def test_three_row_shapes_are_covered():
    shapes = {b.shape for b in enumerate_even_bitableaux(4, 6)}
    assert (2, 2, 2) in shapes


@pytest.mark.parametrize(
    "name, args",
    [
        ("enumerate_negative_pairs", (6, 2)),
        ("enumerate_nonvanishing_pairs", (6, 2)),
        ("enumerate_negative_bitableaux", (6, 4)),
        ("enumerate_nonvanishing_bitableaux", (6, 4)),
        ("enumerate_negative_pairs", (6, 3)),
        ("enumerate_nonvanishing_pairs", (6, 3)),
        ("enumerate_negative_bitableaux", (6, 6)),
        ("enumerate_nonvanishing_bitableaux", (6, 6)),
    ],
)
def test_enumerators_build_few_candidates(monkeypatch, name, args):
    # the candidates are counted where the benchmark tracer counts them: at
    # the module-level constructors the enumerators call
    built = 0

    def counting(cls):
        def build(*a, **kw):
            nonlocal built
            built += 1
            return cls(*a, **kw)

        return build

    monkeypatch.setattr(enumeration, "SkewPair", counting(SkewPair))
    monkeypatch.setattr(enumeration, "NotchedBitableau", counting(NotchedBitableau))
    kept = getattr(enumeration, name)(*args)
    assert kept
    assert built <= 10 * len(kept), f"{built} candidates built for {len(kept)} kept"


def twelve_per_kept(args, kept):
    return 12 * kept


def bitableau_tables(args, kept):
    # one check per two points (value, dual value) with entries <= max_entry
    # and one per row pair of each even length's table, whatever is kept
    max_entry, max_boxes = args
    rows = sum(math.comb(max_entry, k) ** 2 for k in range(2, max_boxes + 1, 2))
    return math.comb(max_entry**2, 2) + rows


@pytest.mark.parametrize(
    "name, args, bound",
    [
        ("enumerate_negative_pairs", (6, 3), twelve_per_kept),
        ("enumerate_nonvanishing_pairs", (6, 3), twelve_per_kept),
        ("enumerate_negative_bitableaux", (6, 6), bitableau_tables),
        ("enumerate_nonvanishing_bitableaux", (6, 6), bitableau_tables),
        ("enumerate_negative_bitableaux", (7, 6), bitableau_tables),
        ("enumerate_nonvanishing_bitableaux", (7, 6), bitableau_tables),
    ],
)
def test_enumerators_check_the_duality_map_few_times(monkeypatch, name, args, bound):
    # a pair search that tries each column pair once per prefix makes 4.5 to
    # 6.6 checks per kept pair here; one that takes every pi1 column tuple
    # first and searches its partners under it makes 36 to 122.  The
    # bitableau search checks the map only while it builds its tables and
    # then prunes every prefix by bitmask, so its checks do not grow with
    # the number of prefixes
    checks = 0

    def counting(pairs):
        nonlocal checks
        checks += 1
        return duality_conflict(pairs)

    monkeypatch.setattr(enumeration, "duality_conflict", counting)
    kept = getattr(enumeration, name)(*args)
    assert kept
    assert checks <= bound(args, len(kept)), f"{checks} duality-map checks for {len(kept)} kept"


@pytest.mark.parametrize("name", ["enumerate_negative_bitableaux", "enumerate_nonvanishing_bitableaux"])
@pytest.mark.parametrize("args", [(6, 6), (7, 6)])
def test_bitableau_search_builds_only_what_it_keeps(monkeypatch, name, args):
    # both prunes are exact: a row pair that conflicts with any row of the
    # prefix, or whose difference is below the row above, is never built
    built = []

    def recording(*a):
        built.append(NotchedBitableau(*a))
        return built[-1]

    monkeypatch.setattr(enumeration, "NotchedBitableau", recording)
    kept = getattr(enumeration, name)(*args)
    assert kept
    assert Counter(built) == Counter(kept)


@pytest.mark.parametrize("sign", [0, 5, -2, 2, "+1", None])
def test_bound_sets_reject_a_sign_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValidationError):
        enumerate_bound_sets(3, 1, sign)


def test_bound_sets_of_both_signs():
    assert enumerate_bound_sets(3, 1, -1) == [(), ((1, 2),), ((1, 3),), ((2, 3),)]
    assert enumerate_bound_sets(3, 1, +1) == [(), ((2, 1),), ((3, 1),), ((3, 2),)]
