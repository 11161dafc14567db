"""Exhaustive enumeration of small pairs and bitableaux.

These drive the property suites: enumerate every valid object with entries
up to a cap, then check bijectivity, involutions and boundedness exhaustively.

The enumeration is constructive.  It builds an object one column pair (a pi1
column with its dual pi2 column) or one row pair (a P row with its Q row) at
a time, and extends a prefix only while it meets the conditions that can be
decided so far; every prefix is itself an object of a smaller width or
shape.  The conditions are the validators' own: dual_column_violations
and column_duality_pairs for a column and its dual, row_sign,
row_duality_pairs and rows_leq for a row pair, and duality_conflict, through
a table of bitmasks, over the pairs so far; the column and row orders hold
by construction.  So every condition of validate_skew_pair or
validate_skew_symmetric is met as an object is built, and every object
built is returned, with no second check (tests/test_enumeration.py
certifies that each one passes its validator).  One sort restores the order
in which a plain generate-and-filter over sorted column (or row) tuples
would visit them.  A kind of bitableau is chosen by the row signs it allows.

Both searches check the duality map by bitmask (_duality_masks).  The map
is consistent exactly when every two of its (value, dual value) pairs are,
so duality_conflict is asked once about each two points while the table
for a max_entry is built, and the searches share that table.  A column
pair or row pair of a table is consistent in itself, and it fits a prefix
when none of its points is in the OR of the prefix's conflict masks.
"""

from __future__ import annotations

import bisect
import itertools
from functools import lru_cache

from .arrays import SkewPair, column_duality_pairs, dual_column_violations
from .multisets import duality_conflict
from .tableaux import NotchedBitableau, row_duality_pairs, row_sign, rows_leq


@lru_cache(maxsize=None)
def _duality_masks(max_entry):
    """A function from a list of (value, dual value) pairs with entries
    <= max_entry to (the OR of their points' bits, the OR of their conflict
    masks), or None when two of them conflict.

    Each point has one bit, and a conflict mask of the points it conflicts
    with, found by duality_conflict on the two points.  A well-defined
    strictly decreasing map is a condition on every two of its pairs
    (duality_conflict reports a conflict between neighbours in sorted order,
    and a map with none between neighbours has none at all).  So a list of
    pairs is consistent when none of its points is in the OR of its conflict
    masks, and two consistent lists are consistent together when neither's
    points meet the other's conflict masks.  Kept per max_entry.
    """
    points = [(v, d) for v in range(1, max_entry + 1) for d in range(1, max_entry + 1)]
    bits = {point: 1 << i for i, point in enumerate(points)}
    conflicts = dict.fromkeys(points, 0)
    for p, q in itertools.combinations(points, 2):
        if duality_conflict([p, q]) is not None:
            conflicts[p] |= bits[q]
            conflicts[q] |= bits[p]

    def masks(pairs):
        ored_points = ored_conflicts = 0
        for point in pairs:
            ored_points |= bits[point]
            ored_conflicts |= conflicts[point]
        return None if ored_points & ored_conflicts else (ored_points, ored_conflicts)

    return masks


def enumerate_skew_pairs(max_entry, max_width, pi1_column):
    """All valid skew pairs of width 1..max_width with entries <= max_entry
    whose pi1 columns (b, a) all satisfy pi1_column, in generate-and-filter
    order: by width, then by the pi1 columns (b, a) and the pi2 columns
    (d, c), each sequence compared from its greatest.

    A pair is built one column pair at a time: pi1 column i together with
    pi2 column t-1-i, its dual.  So the pi1 columns come greatest first and
    their duals least first, which keeps pi1 and the transpose of pi2
    lexicographic.  A dual is drawn only from the pi2 columns that fit its
    pi1 column and whose column pair's duality pairs are consistent among
    themselves, and a column pair is added only while its points meet none
    of the prefix's conflict masks.  Every pair built is returned, and one
    sort restores the order.
    """
    values = range(max_entry, 0, -1)
    columns = [(x, y) for x in values for y in values]  # greatest first
    pi1_columns = [col for col in columns if pi1_column(col)]
    masks = _duality_masks(max_entry)
    # the pi2 columns, as (d, c) least first, that may sit opposite each pi1
    # column, and the masks of each such column pair (the positions 0, 0
    # only label messages, and only their absence counts)
    fitting = []
    for col1 in pi1_columns:
        duals, dual_masks = [], []
        for d, c in reversed(columns):
            if not dual_column_violations(col1, (c, d), 0, 0):
                col_masks = masks(column_duality_pairs(col1, (c, d)))
                if col_masks is not None:
                    duals.append((d, c))
                    dual_masks.append(col_masks)
        fitting.append((duals, dual_masks))
    pairs = []

    def extend(cols1, cols2, start, prefix_conflicts):
        for i in range(start, len(pi1_columns)):
            duals, dual_masks = fitting[i]
            for j in range(bisect.bisect_left(duals, cols2[-1]) if cols2 else 0, len(duals)):
                col_points, col_conflicts = dual_masks[j]
                if col_points & prefix_conflicts:
                    continue
                new1, new2 = cols1 + [pi1_columns[i]], cols2 + [duals[j]]
                b, a = zip(*new1)
                d, c = zip(*reversed(new2))
                pairs.append(SkewPair(b, a, c, d))
                if len(new1) < max_width:
                    extend(new1, new2, i, prefix_conflicts | col_conflicts)

    extend([], [], 0, 0)
    # widths ascending; within a width, columns compared from the greatest
    pairs.sort(key=lambda p: (-p.width, tuple(zip(p.b, p.a)), tuple(zip(p.d, p.c))), reverse=True)
    return pairs


def enumerate_negative_pairs(max_entry, max_width):
    return enumerate_skew_pairs(max_entry, max_width, lambda col: col[1] < col[0])


def enumerate_nonvanishing_pairs(max_entry, max_width):
    return enumerate_skew_pairs(max_entry, max_width, lambda col: col[1] != col[0])


def _row_pairs(max_entry, k, signs, masks):
    """The (P row, Q row) pairs of length k that can sit in one row: both
    strictly increasing with entries <= max_entry, row_sign in signs and
    the in-row duality map consistent.  Each comes with the masks of its
    row_duality_pairs."""
    rows = list(itertools.combinations(range(1, max_entry + 1), k))
    table = []
    for prow in rows:
        for qrow in rows:
            if row_sign(prow, qrow) not in signs:
                continue
            row_masks = masks(row_duality_pairs(prow, qrow))
            if row_masks is not None:
                table.append(((prow, qrow), *row_masks))
    return table


def _bitableaux(max_entry, max_boxes, signs):
    """Skew-symmetric bitableaux with even rows, <= max_boxes boxes, entries
    <= max_entry and every row_sign in signs, in generate-and-filter order:
    by shape (a tuple of row lengths, so a shape comes before its
    extensions), then by the P rows and the Q rows.

    A bitableau is built one row pair at a time, top row first, from the
    row pairs that fit.  A row pair is added only while its points meet
    none of the prefix's conflict masks and the row differences stay
    weakly increasing (rows_leq on the row above).  Every bitableau built
    is returned, and one sort restores the order.
    """
    masks = _duality_masks(max_entry)
    tables = {k: _row_pairs(max_entry, k, signs, masks) for k in range(2, max_boxes + 1, 2)}
    found = []

    def extend(prows, qrows, last, prefix_conflicts, room):
        for k in range(2, room + 1, 2):
            for row, row_points, row_conflicts in tables[k]:
                if row_points & prefix_conflicts:
                    continue
                if last is not None and not rows_leq(last, row):
                    continue
                new_p, new_q = prows + (row[0],), qrows + (row[1],)
                found.append(NotchedBitableau(new_p, new_q))
                extend(new_p, new_q, row, prefix_conflicts | row_conflicts, room - k)

    extend((), (), None, 0, max_boxes)
    found.sort(key=lambda b: (b.shape, b.P, b.Q))
    return found


def enumerate_negative_bitableaux(max_entry, max_boxes):
    """The negative skew-symmetric bitableaux with even rows, <= max_boxes
    boxes and entries <= max_entry: every row negative."""
    return _bitableaux(max_entry, max_boxes, {-1})


def enumerate_nonvanishing_bitableaux(max_entry, max_boxes):
    """The nonvanishing ones, likewise: every row has a sign.  Semistandard
    order puts the negative rows above the positive ones."""
    return _bitableaux(max_entry, max_boxes, {-1, +1})
