"""Exhaustive enumeration of small pairs and bitableaux.

These drive the property suites: enumerate every valid object with entries
up to a cap, then check bijectivity, involutions and boundedness exhaustively.

The enumeration is constructive.  It builds only candidates that already meet
the conditions it can decide one column or one row at a time, in the order a
plain generate-and-filter over sorted column (or row) tuples would visit them,
and runs the full validator on every object it builds before returning it.
Those conditions are the validators' own: dual_column_violations and
column_duality_pairs for a column and its dual, row_sign and
row_duality_pairs for a row pair.  A kind of bitableau is chosen by the row
signs it allows.
"""

from __future__ import annotations

import itertools

from .arrays import SkewPair, TwoRowArray, column_duality_pairs, dual_column_violations, validate_skew_pair
from .multisets import FormalDiff, diff_leq, duality_conflict
from .tableaux import NotchedBitableau, NotchedTableau, row_duality_pairs, row_sign, validate_skew_symmetric


def enumerate_skew_pairs(max_entry, max_width, pi1_column):
    """All valid skew pairs of width 1..max_width with entries <= max_entry
    whose pi1 columns (b, a) all satisfy pi1_column.

    Column orders are canonical by construction: the pi1 columns (b, a) and
    the pi2 columns (d, c) are weakly decreasing tuples, visited from the
    greatest.  Each pi2 column is drawn only from those that fit its dual
    pi1 column, and kept only while the duality map (v) over the columns so
    far has no conflict.  validate_skew_pair is the final check on every
    pair built.
    """
    values = range(max_entry, 0, -1)
    columns = [(x, y) for x in values for y in values]  # greatest first
    pi1_columns = [col for col in columns if pi1_column(col)]
    # pi2 columns, as (d, c), that may sit opposite each pi1 column (the
    # positions 0, 0 only label messages, and only their absence counts)
    fitting = {
        col1: [(d, c) for d, c in columns if not dual_column_violations(col1, (c, d), 0, 0)]
        for col1 in pi1_columns
    }

    def complete(cols1, pi1, cols2, pairs):
        # pi2 column j is dual to pi1 column t-1-j
        j = len(cols2)
        if j == len(cols1):
            pi2 = TwoRowArray(tuple(c for _, c in cols2), tuple(d for d, _ in cols2))
            p = SkewPair(pi1, pi2)
            if not validate_skew_pair(p):
                yield p
            return
        b, a = cols1[-1 - j]
        for d, c in fitting[b, a]:
            if j and (d, c) > cols2[-1]:
                continue
            new_pairs = pairs + column_duality_pairs((b, a), (c, d))
            if duality_conflict(new_pairs) is None:
                yield from complete(cols1, pi1, cols2 + [(d, c)], new_pairs)

    out = []
    for t in range(1, max_width + 1):
        for cols1 in itertools.combinations_with_replacement(pi1_columns, t):
            pi1 = TwoRowArray(tuple(b for b, _ in cols1), tuple(a for _, a in cols1))
            out.extend(complete(cols1, pi1, [], []))
    return out


def enumerate_negative_pairs(max_entry, max_width):
    return enumerate_skew_pairs(max_entry, max_width, lambda col: col[1] < col[0])


def enumerate_nonvanishing_pairs(max_entry, max_width):
    return enumerate_skew_pairs(max_entry, max_width, lambda col: col[1] != col[0])


def even_shapes(max_boxes):
    """All row-length sequences with even parts and at most max_boxes boxes."""
    shapes = []

    def extend(prefix, remaining):
        for k in range(2, remaining + 1, 2):
            shapes.append(tuple(prefix + [k]))
            extend(prefix + [k], remaining - k)

    extend([], max_boxes)
    return shapes


def _row_pairs(max_entry, k, signs):
    """P row -> the Q rows that can sit beside it, in lexicographic order:
    both strictly increasing with entries <= max_entry, row_sign in signs
    and the in-row duality map consistent.  P rows with no such Q row are
    left out."""
    rows = list(itertools.combinations(range(1, max_entry + 1), k))
    table = {}
    for prow in rows:
        fits = []
        for qrow in rows:
            if row_sign(prow, qrow) in signs and duality_conflict(row_duality_pairs(prow, qrow)) is None:
                fits.append(qrow)
        if fits:
            table[prow] = fits
    return table


def _bitableaux(max_entry, max_boxes, signs):
    """Skew-symmetric bitableaux with even rows, <= max_boxes boxes, entries
    <= max_entry and every row_sign in signs, in the order of a product over
    all P rows and then all Q rows of each shape.

    P rows come from those with some fitting Q row.  Each Q row is drawn from
    the rows that fit its P row, and kept only while the duality map over all
    rows so far has no conflict and the row differences stay weakly
    increasing.  validate_skew_symmetric is the final check on every
    bitableau built.
    """
    tables = {k: _row_pairs(max_entry, k, signs) for k in range(2, max_boxes + 1, 2)}

    def complete(prows, qrows, last_diff, pairs):
        i = len(qrows)
        if i == len(prows):
            b = NotchedBitableau(NotchedTableau(prows), NotchedTableau(qrows))
            if validate_skew_symmetric(b):
                yield b
            return
        for qrow in tables[len(prows[i])][prows[i]]:
            new_pairs = pairs + row_duality_pairs(prows[i], qrow)
            if duality_conflict(new_pairs) is not None:
                continue
            diff = FormalDiff(prows[i], qrow)
            if i and not diff_leq(last_diff, diff):
                continue
            yield from complete(prows, qrows + (qrow,), diff, new_pairs)

    for shape in even_shapes(max_boxes):
        for prows in itertools.product(*(tables[k] for k in shape)):
            yield from complete(prows, (), None, [])


def enumerate_negative_bitableaux(max_entry, max_boxes):
    """The negative skew-symmetric bitableaux with even rows, <= max_boxes
    boxes and entries <= max_entry: every row negative."""
    return list(_bitableaux(max_entry, max_boxes, {-1}))


def enumerate_nonvanishing_bitableaux(max_entry, max_boxes):
    """The nonvanishing ones, likewise: every row has a sign.  Semistandard
    order puts the negative rows above the positive ones."""
    return list(_bitableaux(max_entry, max_boxes, {-1, +1}))

