"""Notched tableaux and bitableaux.

A notched tableau is a finite sequence of left-justified rows of positive
integers; row lengths are unconstrained.  A bitableau is a pair (P, Q) of
notched tableaux of the same shape; NotchedBitableau holds each as a tuple
of row tuples and refuses a side or a row that is not a sequence and a P
and a Q of different shapes.  Rows of P are compared to the matching rows
of Q through the formal difference P_i - Q_i in the counting order
(rows_leq), and the sign of a row is its position relative to the empty
difference () - () (all of N).

validate_semistandard refuses an entry that is not a plain int >= 1 before
it reads any row order, and is the one entry check of a bitableau, the
command line's included.  classify_sign validates a skew-symmetric bitableau
and returns its sign kind with its number of negative rows, which the
inverse maps split the rows at; it is the one sign reading.  A bitableau
keeps its skew-symmetry verdict once computed, so the maps and their
callers validate each bitableau once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import ge, gt, lt
from typing import NamedTuple

from .errors import NotSemistandard, NotSkewSymmetric, ShapeMismatch, ValidationError
from .multisets import duality_conflict


@dataclass(frozen=True)
class NotchedBitableau:
    """The rows of P and of Q, each a tuple of row tuples, of one shape."""

    P: tuple
    Q: tuple
    # the row lengths, derived from the rows once; not part of equality or hash
    shape: tuple = field(init=False, compare=False, repr=False)
    # the verdict of validate_skew_symmetric, None until it is first asked;
    # a refusal is raised afresh on every call and never kept
    _skew_symmetric: bool | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        prows, qrows = _row_tuples(self.P, "P"), _row_tuples(self.Q, "Q")
        object.__setattr__(self, "P", prows)
        object.__setattr__(self, "Q", qrows)
        shape, q_shape = tuple(map(len, prows)), tuple(map(len, qrows))
        if shape != q_shape:
            raise ShapeMismatch(f"shapes differ: {shape} vs {q_shape}")
        object.__setattr__(self, "shape", shape)

    @property
    def degree(self):
        return sum(self.shape)

    @property
    def is_empty(self):
        return self.degree == 0


def _row_tuples(rows, side):
    """The rows of one side as a tuple of row tuples; ShapeMismatch on a
    side, or a row of it, that is not a sequence."""
    try:
        rows = tuple(rows)
    except TypeError:
        raise ShapeMismatch(f"{side} is not a sequence of rows: {rows!r}") from None
    converted = []
    for i, row in enumerate(rows, start=1):
        try:
            converted.append(tuple(row))
        except TypeError:
            raise ShapeMismatch(f"row {i} of {side} is not a sequence: {row!r}") from None
    return tuple(converted)


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

    The first entry in the order P_1, Q_1, P_2, Q_2, ... that is not a plain
    int >= 1 (a bool, a float, a str, 0 or a negative entry) raises
    ValidationError, whatever the rows' order; then a row that is not
    strictly increasing gives False, and each two consecutive rows are
    compared by rows_leq.
    """
    rows = list(zip(b.P, b.Q))
    for prow, qrow in rows:
        for e in prow + qrow:
            if type(e) is not int or e < 1:
                raise ValidationError(f"multiset entries must be positive integers, got {e!r}")
    if any(any(map(ge, row, row[1:])) for row in b.P + b.Q):
        return False
    return all(map(rows_leq, rows, rows[1:]))


def row_duality_pairs(prow, qrow):
    """(value, dual value) for every entry of a row pair of length k: the
    dual of P[j] is Q[k-1-j], and symmetrically for Q entries."""
    k = len(prow)
    return [pair for j in range(k) for pair in ((prow[j], qrow[k - 1 - j]), (qrow[j], prow[k - 1 - j]))]


def validate_skew_symmetric(b):
    """Semistandard, even row lengths, and value -> dual value is a
    well-defined strictly decreasing map over all entries of both sides.

    The verdict is computed on the first call and kept on the bitableau;
    a refusal keeps nothing, so it is raised again on every call."""
    if b._skew_symmetric is None:
        if not validate_semistandard(b):
            raise NotSemistandard("skew-symmetry is only defined for semistandard bitableaux")
        verdict = False
        if not any(k % 2 for k in b.shape):
            pairs = [pair for prow, qrow in zip(b.P, b.Q) for pair in row_duality_pairs(prow, qrow)]
            verdict = duality_conflict(pairs) is None
        object.__setattr__(b, "_skew_symmetric", verdict)
    return b._skew_symmetric


class SignKind(Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"
    NONVANISHING = "nonvanishing"
    VANISHING = "vanishing"


class SignClassification(NamedTuple):
    """The sign kind of a skew-symmetric bitableau and its number of
    negative rows, which are its top rows."""

    kind: SignKind
    negative_rows: int


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
    """The sign kind of a skew-symmetric bitableau and its number of
    negative rows, which are its top rows.

    All rows negative gives NEGATIVE, all positive POSITIVE; negative rows
    above positive ones give NONVANISHING; any row without a sign gives
    VANISHING.  The empty bitableau counts as NONVANISHING with no negative
    rows.

    The negative rows are always on top, so their number splits the rows
    into the two blocks.  A negative row has |P_i<=z| >= |Q_i<=z| at every
    z, so P_i - Q_i <= () - () in the counting order, and a positive row has
    P_i - Q_i >= () - ().  A semistandard bitableau's row differences weakly
    increase downwards, so a positive row above a negative one would put
    both differences between () - () and itself: equal to it, so P_i = Q_i,
    and such a row has no sign (an empty row reads as negative, never
    positive).
    """
    if not validate_skew_symmetric(b):
        raise NotSkewSymmetric("sign classification needs a skew-symmetric bitableau")
    if b.is_empty:
        return SignClassification(SignKind.NONVANISHING, 0)
    signs = list(map(row_sign, b.P, b.Q))
    n_neg = signs.count(-1)
    if 0 in signs:
        kind = SignKind.VANISHING
    elif n_neg == len(signs):
        kind = SignKind.NEGATIVE
    elif n_neg == 0:
        kind = SignKind.POSITIVE
    else:
        kind = SignKind.NONVANISHING
    return SignClassification(kind, n_neg)
