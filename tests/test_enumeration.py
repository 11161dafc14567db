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


def duality_table(args, kept):
    # one check per two points (value, dual value) with entries <= max_entry,
    # whatever is kept
    return math.comb(args[0] ** 2, 2)


@pytest.mark.parametrize(
    "name, args, bound",
    [
        ("enumerate_negative_pairs", (6, 3), duality_table),
        ("enumerate_nonvanishing_pairs", (6, 3), duality_table),
        ("enumerate_negative_bitableaux", (6, 6), duality_table),
        ("enumerate_nonvanishing_bitableaux", (6, 6), duality_table),
        ("enumerate_negative_bitableaux", (7, 6), duality_table),
        ("enumerate_nonvanishing_bitableaux", (7, 6), duality_table),
    ],
)
def test_enumerators_check_the_duality_map_few_times(monkeypatch, name, args, bound):
    # both searches check the map only while they build the table of point
    # conflicts, and then prune every column pair, row pair and prefix by
    # bitmask, so their checks do not grow with the number of prefixes or
    # with the number kept
    checks = 0

    def counting(pairs):
        nonlocal checks
        checks += 1
        return duality_conflict(pairs)

    monkeypatch.setattr(enumeration, "duality_conflict", counting)
    kept = getattr(enumeration, name)(*args)
    assert kept
    assert checks <= bound(args, len(kept)), f"{checks} duality-map checks for {len(kept)} kept"


@pytest.mark.parametrize("name", ["enumerate_negative_pairs", "enumerate_nonvanishing_pairs"])
@pytest.mark.parametrize("args", [(6, 3), (7, 3)])
def test_pair_search_builds_only_what_it_keeps(monkeypatch, name, args):
    # every prune is exact: the column orders are kept by construction, a
    # dual column that breaks (iii), (iv) or (vi) is never drawn, and a
    # column pair that conflicts with itself or with any column pair of the
    # prefix is never built
    built = []

    def recording(*a):
        built.append(SkewPair(*a))
        return built[-1]

    monkeypatch.setattr(enumeration, "SkewPair", recording)
    kept = getattr(enumeration, name)(*args)
    assert kept
    assert Counter(built) == Counter(kept)


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
