"""Exhaustive enumeration of small pairs, bitableaux and bound sets.

These drive the property suites: enumerate every valid object with entries
up to a cap, then check bijectivity, involutions and boundedness exhaustively.
"""

from __future__ import annotations

import itertools

from .arrays import SkewPair, TwoRowArray, validate_skew_pair
from .errors import NotSemistandard
from .tableaux import (
    NotchedBitableau,
    NotchedTableau,
    SignKind,
    classify_sign,
    is_negative_plane_set,
    is_positive_plane_set,
    validate_skew_symmetric,
)


def _sorted_column_choices(columns, t):
    """Weakly decreasing t-tuples of columns; matches the canonical orders."""
    return itertools.combinations_with_replacement(sorted(columns, reverse=True), t)


def enumerate_skew_pairs(max_entry, max_width, predicate=None):
    """All valid skew pairs of width 1..max_width with entries <= max_entry.

    Column orders are canonical by construction, so validity is a filter on
    the remaining conditions.  An optional predicate prunes further.
    """
    columns = [(x, y) for x in range(1, max_entry + 1) for y in range(1, max_entry + 1)]
    out = []
    for t in range(1, max_width + 1):
        for cols1 in _sorted_column_choices(columns, t):
            pi1 = TwoRowArray(tuple(b for b, _ in cols1), tuple(a for _, a in cols1))
            for cols2 in _sorted_column_choices(columns, t):
                pi2 = TwoRowArray(tuple(c for _, c in cols2), tuple(d for d, _ in cols2))
                p = SkewPair(pi1, pi2)
                if predicate is not None and not predicate(p):
                    continue
                if not validate_skew_pair(p):
                    out.append(p)
    return out


def enumerate_negative_pairs(max_entry, max_width):
    return enumerate_skew_pairs(
        max_entry,
        max_width,
        predicate=lambda p: all(a < b for a, b in zip(p.a, p.b)),
    )


def enumerate_nonvanishing_pairs(max_entry, max_width):
    return enumerate_skew_pairs(
        max_entry,
        max_width,
        predicate=lambda p: all(a != b for a, b in zip(p.a, p.b)),
    )


def even_shapes(max_boxes):
    """All row-length sequences with even parts and at most max_boxes boxes."""
    shapes = []

    def extend(prefix, remaining):
        for k in range(2, remaining + 1, 2):
            shapes.append(tuple(prefix + [k]))
            extend(prefix + [k], remaining - k)

    extend([], max_boxes)
    return shapes


def enumerate_even_bitableaux(max_entry, max_boxes):
    """All skew-symmetric bitableaux with even rows, <= max_boxes boxes and
    entries <= max_entry."""
    out = []
    for shape in even_shapes(max_boxes):
        row_choices = [list(itertools.combinations(range(1, max_entry + 1), k)) for k in shape]
        for prows in itertools.product(*row_choices):
            for qrows in itertools.product(*row_choices):
                b = NotchedBitableau(NotchedTableau(prows), NotchedTableau(qrows))
                try:
                    if validate_skew_symmetric(b):
                        out.append(b)
                except NotSemistandard:
                    continue
    return out


def enumerate_bitableaux_of_kind(max_entry, max_boxes, kinds):
    return [b for b in enumerate_even_bitableaux(max_entry, max_boxes) if classify_sign(b).kind in kinds]


def enumerate_negative_bitableaux(max_entry, max_boxes):
    return enumerate_bitableaux_of_kind(max_entry, max_boxes, {SignKind.NEGATIVE})


def enumerate_nonvanishing_bitableaux(max_entry, max_boxes):
    return enumerate_bitableaux_of_kind(
        max_entry, max_boxes, {SignKind.NEGATIVE, SignKind.POSITIVE, SignKind.NONVANISHING}
    )


def enumerate_bound_sets(max_entry, max_points, sign):
    """All negative (sign=-1) or positive (sign=+1) plane sets with at most
    max_points points, entries <= max_entry and duplicate free projections.
    Includes the empty set."""
    good = is_negative_plane_set if sign < 0 else is_positive_plane_set
    points = [
        (x, y)
        for x in range(1, max_entry + 1)
        for y in range(1, max_entry + 1)
        if (x < y if sign < 0 else x > y)
    ]
    out = [()]
    for k in range(1, max_points + 1):
        for combo in itertools.combinations(points, k):
            if good(combo):
                out.append(tuple(sorted(combo)))
    return out
