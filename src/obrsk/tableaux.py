"""Notched tableaux and bitableaux.

A notched tableau is a finite sequence of left-justified rows of positive
integers; row lengths are unconstrained.  A bitableau is a pair (P, Q) of
notched tableaux of the same shape.  Rows of P are compared to the matching
rows of Q through the formal difference P_i - Q_i in the counting order
(rows_leq), and the sign of a row is its position relative to the empty
difference () - () (all of N).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import gt, lt

from .errors import NotSemistandard, NotSkewSymmetric, ShapeMismatch
from .multisets import duality_conflict, nat_multiset


@dataclass(frozen=True)
class NotchedTableau:
    rows: tuple
    # the row lengths, derived from rows once; not part of equality or hash
    shape: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shape", tuple(map(len, rows)))

    @property
    def n_boxes(self):
        return sum(self.shape)

    def __repr__(self):
        if not self.rows:
            return "NotchedTableau(())"
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"NotchedTableau({body})"


EMPTY_TABLEAU = NotchedTableau(())


def validate_row_strict(t):
    """True iff every row of the tableau is strictly increasing."""
    for row in t.rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    return True


@dataclass(frozen=True)
class NotchedBitableau:
    P: NotchedTableau
    Q: NotchedTableau

    def __post_init__(self):
        if not isinstance(self.P, NotchedTableau):
            object.__setattr__(self, "P", NotchedTableau(self.P))
        if not isinstance(self.Q, NotchedTableau):
            object.__setattr__(self, "Q", NotchedTableau(self.Q))
        if self.P.shape != self.Q.shape:
            raise ShapeMismatch(f"shapes differ: {self.P.shape} vs {self.Q.shape}")

    @property
    def shape(self):
        return self.P.shape

    @property
    def degree(self):
        return self.P.n_boxes

    @property
    def is_empty(self):
        return self.degree == 0


EMPTY_BITABLEAU = NotchedBitableau(EMPTY_TABLEAU, EMPTY_TABLEAU)


def rows_leq(upper, lower):
    """P1 - Q1 <= P2 - Q2 in the counting order, for the row pairs
    upper = (P1, Q1) and lower = (P2, Q2) of strictly increasing rows; the
    package's one statement of the order.

    The formal difference P - Q stands for the multiset P together with
    N minus the set Q; its count at z is |P^{<=z}| + z - |Q^{<=z}|, and
    P1 - Q1 <= P2 - Q2 when the count of the first is at least that of the
    second at every z >= 1 (larger counts low down mean smaller elements).
    The z terms cancel in the difference of the two counts, which rises at
    the entries of P1 and Q2 and falls only at those of Q1 and P2.  Below
    every entry it is 0, so if it is ever negative, it first is at an entry
    of Q1 or P2, and comparing the counts there settles every z.  The rows
    are compared as they stand, by bisection; tests/oracles.diff_leq states
    the order on formal differences, and the tests check the two agree.
    """
    p1, q1 = upper
    p2, q2 = lower
    for z in {*q1, *p2}:
        if bisect_right(p1, z) - bisect_right(q1, z) < bisect_right(p2, z) - bisect_right(q2, z):
            return False
    return True


def validate_semistandard(b):
    """Both sides row-strict and the row differences P_i - Q_i weakly
    increasing in the counting order.

    Once both sides are row-strict, every entry must be an int >= 1 (a bool,
    a float, 0 or a negative entry raises ValidationError, as nat_multiset
    refuses it), and each two consecutive rows are compared by rows_leq.
    """
    if not (validate_row_strict(b.P) and validate_row_strict(b.Q)):
        return False
    rows = list(zip(b.P.rows, b.Q.rows))
    for prow, qrow in rows:
        nat_multiset(prow)
        nat_multiset(qrow)
    return all(map(rows_leq, rows, rows[1:]))


def row_duality_pairs(prow, qrow):
    """(value, dual value) for every entry of a row pair of length k: the
    dual of P[j] is Q[k-1-j], and symmetrically for Q entries."""
    k = len(prow)
    return [pair for j in range(k) for pair in ((prow[j], qrow[k - 1 - j]), (qrow[j], prow[k - 1 - j]))]


def validate_skew_symmetric(b):
    """Semistandard, even row lengths, and value -> dual value is a
    well-defined strictly decreasing map over all entries of both sides."""
    if not validate_semistandard(b):
        raise NotSemistandard("skew-symmetry is only defined for semistandard bitableaux")
    if any(k % 2 for k in b.shape):
        return False
    pairs = [pair for prow, qrow in zip(b.P.rows, b.Q.rows) for pair in row_duality_pairs(prow, qrow)]
    return duality_conflict(pairs) is None


class SignKind(Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"
    NONVANISHING = "nonvanishing"
    VANISHING = "vanishing"


@dataclass(frozen=True)
class SignClassification:
    kind: SignKind
    negative_part: NotchedBitableau | None
    positive_part: NotchedBitableau | None


def row_sign(prow, qrow):
    """The sign of a row: pair the i-th smallest entries of P_i and Q_i; the
    row is negative (-1) when every pair has p < q, positive (+1) when every
    pair has p > q, and has no sign (0) otherwise.

    Both rows must be strictly increasing, so that their i-th entries are
    their i-th smallest and they are zipped as they stand.  Every caller
    passes such rows: the bitableau search passes combinations, and
    classify_sign passes the rows of a validated bitableau.

    Entrywise domination is strictly stronger than comparing P_i - Q_i to the
    empty difference in the counting order, and it is the notion under which
    the correspondence is a bijection: a row like (1,2,3,5) against (1,3,4,5)
    is below the empty difference in counts, yet no pair of arrays maps to it.
    """
    if all(map(lt, prow, qrow)):
        return -1
    if all(map(gt, prow, qrow)):
        return +1
    return 0


def classify_sign(b):
    """Classify a skew-symmetric bitableau by the signs of its rows.

    All rows negative gives NEGATIVE, all positive POSITIVE; negative rows
    above positive ones give NONVANISHING with the two blocks; any row
    without a sign gives VANISHING.  The empty bitableau counts as
    NONVANISHING with two empty parts.

    The negative rows are always on top, so the blocks are split at the
    number of negative rows.  A negative row has |P_i<=z| >= |Q_i<=z| at
    every z, so P_i - Q_i <= () - () in the counting order, and a positive
    row has P_i - Q_i >= () - ().  A semistandard bitableau's row
    differences weakly increase downwards, so a positive row above a
    negative one would put both differences between () - () and itself:
    equal to it, so P_i = Q_i, and such a row has no sign (an empty row
    reads as negative, never positive).
    """
    if not validate_skew_symmetric(b):
        raise NotSkewSymmetric("sign classification needs a skew-symmetric bitableau")
    if b.is_empty:
        return SignClassification(SignKind.NONVANISHING, EMPTY_BITABLEAU, EMPTY_BITABLEAU)
    signs = [row_sign(prow, qrow) for prow, qrow in zip(b.P.rows, b.Q.rows)]
    if 0 in signs:
        return SignClassification(SignKind.VANISHING, None, None)
    n_neg = signs.count(-1)
    if n_neg == len(signs):
        kind = SignKind.NEGATIVE
    elif n_neg == 0:
        kind = SignKind.POSITIVE
    else:
        kind = SignKind.NONVANISHING
    neg = NotchedBitableau(NotchedTableau(b.P.rows[:n_neg]), NotchedTableau(b.Q.rows[:n_neg]))
    pos = NotchedBitableau(NotchedTableau(b.P.rows[n_neg:]), NotchedTableau(b.Q.rows[n_neg:]))
    return SignClassification(kind, neg, pos)
