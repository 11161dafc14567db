"""The constructive enumerators against a generate-and-filter reference.

The reference below builds every candidate in sorted column (or row) order
and keeps those the validators accept.  The enumerators must return the same
lists, element for element and in order, while building few candidates and
checking the duality map few times.  The enumerators run no validator of
their own, so at sizes beyond the reference's reach every object they
return is certified against the validators here.
"""

import itertools
import math
from functools import lru_cache

import pytest

import obrsk.enumeration as enumeration
from obrsk.arrays import SkewPair, validate_skew_pair
from obrsk.errors import NotSemistandard, ValidationError
from obrsk.multisets import duality_conflict
from obrsk.tableaux import (
    NotchedBitableau,
    SignKind,
    classify_sign,
    validate_skew_symmetric,
)
from oracles import enumerate_bound_sets, enumerate_even_bitableaux, even_shapes, sorted_row_sign

NONVANISHING_KINDS = {SignKind.NEGATIVE, SignKind.POSITIVE, SignKind.NONVANISHING}


def _sorted_column_choices(columns, t):
    return itertools.combinations_with_replacement(sorted(columns, reverse=True), t)


def reference_skew_pairs(max_entry, max_width, predicate):
    columns = [(x, y) for x in range(1, max_entry + 1) for y in range(1, max_entry + 1)]
    out = []
    for t in range(1, max_width + 1):
        for cols1 in _sorted_column_choices(columns, t):
            b, a = zip(*cols1)
            for cols2 in _sorted_column_choices(columns, t):
                d, c = zip(*cols2)
                p = SkewPair(b, a, c, d)
                if predicate(p) and not validate_skew_pair(p):
                    out.append(p)
    return out


REFERENCE_PAIRS = {
    "negative": lambda p: all(a < b for a, b in zip(p.a, p.b)),
    "nonvanishing": lambda p: all(a != b for a, b in zip(p.a, p.b)),
}


def _skew_symmetric(b):
    try:
        return validate_skew_symmetric(b)
    except NotSemistandard:
        return False


@lru_cache(maxsize=None)
def reference_even_bitableaux(max_entry, max_boxes):
    out = []
    for shape in even_shapes(max_boxes):
        row_choices = [list(itertools.combinations(range(1, max_entry + 1), k)) for k in shape]
        for prows in itertools.product(*row_choices):
            for qrows in itertools.product(*row_choices):
                b = NotchedBitableau(prows, qrows)
                if _skew_symmetric(b):
                    out.append(b)
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
    # the module-level constructors the enumerators call.  The searches prune
    # by every condition of the validators, so each object built is kept,
    # and kept once: a search that builds more, or repeats one, fails here
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
    assert built == len(kept), f"{built} candidates built for {len(kept)} kept"
    assert len(set(kept)) == len(kept)


@pytest.mark.parametrize(
    "name, args, table_checks",
    [
        # one check per two points (value, dual value) with entries <= 6, or
        # <= 7, whatever is kept
        ("enumerate_negative_pairs", (6, 3), 630),
        ("enumerate_nonvanishing_pairs", (6, 3), 630),
        ("enumerate_negative_bitableaux", (6, 6), 630),
        ("enumerate_nonvanishing_bitableaux", (6, 6), 630),
        ("enumerate_negative_bitableaux", (7, 6), 1176),
        ("enumerate_nonvanishing_bitableaux", (7, 6), 1176),
    ],
)
def test_enumerators_check_the_duality_map_few_times(monkeypatch, name, args, table_checks):
    # both searches check the map only while they build the table of point
    # conflicts, and then prune every column pair, row pair and prefix by
    # bitmask, so their checks do not grow with the number of prefixes or
    # with the number kept.  The table is kept per max_entry: it is cleared
    # first, as a warm one checks nothing, and a second search reuses it
    assert table_checks == math.comb(args[0] ** 2, 2)
    checks = 0

    def counting(pairs):
        nonlocal checks
        checks += 1
        return duality_conflict(pairs)

    monkeypatch.setattr(enumeration, "duality_conflict", counting)
    enumeration._duality_masks.cache_clear()
    kept = getattr(enumeration, name)(*args)
    assert kept
    assert checks == table_checks, f"{checks} duality-map checks for {len(kept)} kept"
    assert getattr(enumeration, name)(*args) == kept
    assert checks == table_checks


@pytest.mark.parametrize(
    "name, column_sign",
    [("enumerate_negative_pairs", {-1}), ("enumerate_nonvanishing_pairs", {-1, +1})],
)
def test_pair_search_returns_only_valid_pairs_of_its_kind(name, column_sign):
    # the search checks no pair after it builds it: each one must pass the
    # validator, have the requested column signs and come once
    pairs = getattr(enumeration, name)(7, 3)
    assert len(pairs) == len(set(pairs))
    for p in pairs:
        assert 1 <= p.width <= 3 and max(p.a + p.b + p.c + p.d) <= 7, p
        assert validate_skew_pair(p) == [], p
        assert {(a > b) - (a < b) for a, b in zip(p.a, p.b)} <= column_sign, p


@pytest.mark.parametrize(
    "name, row_signs",
    [("enumerate_negative_bitableaux", {-1}), ("enumerate_nonvanishing_bitableaux", {-1, +1})],
)
def test_bitableau_search_returns_only_valid_bitableaux_of_its_kind(name, row_signs):
    # likewise: skew-symmetric with even rows, the requested row signs, each
    # one once
    found = getattr(enumeration, name)(7, 6)
    assert len(found) == len(set(found))
    for b in found:
        assert 1 <= b.degree <= 6 and max(max(row) for row in b.P + b.Q) <= 7, b
        assert _skew_symmetric(b), b
        assert {sorted_row_sign(p, q) for p, q in zip(b.P, b.Q)} <= row_signs, b


@pytest.mark.parametrize("sign", [0, 5, -2, 2, "+1", None])
def test_bound_sets_reject_a_sign_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValidationError):
        enumerate_bound_sets(3, 1, sign)


def test_bound_sets_of_both_signs():
    assert enumerate_bound_sets(3, 1, -1) == [(), ((1, 2),), ((1, 3),), ((2, 3),)]
    assert enumerate_bound_sets(3, 1, +1) == [(), ((2, 1),), ((3, 1),), ((3, 2),)]
