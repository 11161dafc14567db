"""Notched tableaux and bitableaux.

A notched tableau is a finite sequence of left-justified rows of positive
integers; row lengths are unconstrained.  A bitableau is a pair (P, Q) of
notched tableaux of the same shape.  Rows of P are compared to the matching
rows of Q through the formal difference P_i - Q_i, and the sign of a row is
its position relative to the empty difference () - () (all of N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import BadBounds, NotSemistandard, NotSkewSymmetric, ShapeMismatch
from .multisets import (
    FormalDiff,
    diff_leq,
    duality_conflict,
    plane_diff,
    plane_multiset,
    proj1,
    proj2,
)


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

    def entries(self):
        return [e for row in self.rows for e in row]

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


def row_diffs(b):
    """The formal differences P_i - Q_i, one per row.

    Q rows must be duplicate free, which row-strictness guarantees.
    """
    return [FormalDiff(p, q) for p, q in zip(b.P.rows, b.Q.rows)]


def validate_semistandard(b):
    """Both sides row-strict and the row differences weakly increasing."""
    if not (validate_row_strict(b.P) and validate_row_strict(b.Q)):
        return False
    diffs = row_diffs(b)
    return all(map(diff_leq, diffs, diffs[1:]))


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

    Entrywise domination is strictly stronger than comparing P_i - Q_i to the
    empty difference in the counting order, and it is the notion under which
    the correspondence is a bijection: a row like (1,2,3,5) against (1,3,4,5)
    is below the empty difference in counts, yet no pair of arrays maps to it.
    """
    ps, qs = sorted(prow), sorted(qrow)
    if all(p < q for p, q in zip(ps, qs)):
        return -1
    if all(p > q for p, q in zip(ps, qs)):
        return +1
    return 0


def sign_split(b):
    """(kind, n_neg) of a skew-symmetric bitableau: its SignKind as
    classify_sign defines it, and the number of negative rows on top (0
    unless the kind is NEGATIVE or NONVANISHING)."""
    if not validate_skew_symmetric(b):
        raise NotSkewSymmetric("sign classification needs a skew-symmetric bitableau")
    if b.is_empty:
        return SignKind.NONVANISHING, 0
    signs = []
    for prow, qrow in zip(b.P.rows, b.Q.rows):
        s = row_sign(prow, qrow)
        if s == 0:
            return SignKind.VANISHING, 0
        signs.append(s)
    if any(s2 < s1 for s1, s2 in zip(signs, signs[1:])):
        # cannot happen for semistandard input, but classify it honestly
        return SignKind.VANISHING, 0
    n_neg = signs.count(-1)
    if n_neg == len(signs):
        return SignKind.NEGATIVE, n_neg
    if n_neg == 0:
        return SignKind.POSITIVE, n_neg
    return SignKind.NONVANISHING, n_neg


def classify_sign(b):
    """Classify a skew-symmetric bitableau by the signs of its rows.

    All rows negative gives NEGATIVE, all positive POSITIVE; a clean split
    (negative rows above positive ones) gives NONVANISHING with the two
    blocks; any row without a sign gives VANISHING.  The empty bitableau
    counts as NONVANISHING with two empty parts.
    """
    kind, n_neg = sign_split(b)
    if kind is SignKind.VANISHING:
        return SignClassification(kind, None, None)
    neg = NotchedBitableau(NotchedTableau(b.P.rows[:n_neg]), NotchedTableau(b.Q.rows[:n_neg]))
    pos = NotchedBitableau(NotchedTableau(b.P.rows[n_neg:]), NotchedTableau(b.Q.rows[n_neg:]))
    return SignClassification(kind, neg, pos)


def iota(b):
    """The sign-reversing involution: swap P and Q and reverse the row order."""
    if sign_split(b)[0] is SignKind.VANISHING:
        raise NotSkewSymmetric("iota is only defined on nonvanishing bitableaux")
    return NotchedBitableau(
        NotchedTableau(b.Q.rows[::-1]),
        NotchedTableau(b.P.rows[::-1]),
    )


def up_down(b):
    """(up, down): pair the i-th smallest entries of the top rows of P and Q,
    and likewise the bottom rows.  Empty bitableau gives two empty sets."""
    if b.is_empty:
        return (), ()
    up = plane_multiset(zip(sorted(b.P.rows[0]), sorted(b.Q.rows[0])))
    down = plane_multiset(zip(sorted(b.P.rows[-1]), sorted(b.Q.rows[-1])))
    return up, down


def up_of(b):
    return up_down(b)[0]


def down_of(b):
    return up_down(b)[1]


def is_signed_plane_set(points, sign):
    """Every point strictly below the diagonal (x < y) for sign -1, strictly
    above it (x > y) for sign +1, and both projections duplicate free."""
    return (
        all(sign * (x - y) > 0 for x, y in points)
        and len(set(proj1(points))) == len(points)
        and len(set(proj2(points))) == len(points)
    )


def bitableau_bounded_by(b, t, w):
    """True iff T <= up(negative part) and down(positive part) <= W.

    T must be a negative plane set and W a positive one, both with duplicate
    free projections.  Empty parts are compared literally; a negative T is
    automatically <= the empty up, and the empty down is <= any positive W.
    """
    t = plane_multiset(t)
    w = plane_multiset(w)
    if not is_signed_plane_set(t, -1):
        raise BadBounds(f"T = {t} is not a negative plane set")
    if not is_signed_plane_set(w, +1):
        raise BadBounds(f"W = {w} is not a positive plane set")
    cls = classify_sign(b)
    if cls.kind is SignKind.VANISHING:
        raise NotSkewSymmetric("boundedness is only defined on nonvanishing bitableaux")
    up, down = up_of(cls.negative_part), down_of(cls.positive_part)
    return diff_leq(plane_diff(t), plane_diff(up)) and diff_leq(plane_diff(down), plane_diff(w))
