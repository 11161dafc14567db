"""Skew lexicographic pairs.

A skew pair is a pair of two-row arrays of equal width t:

    pi1 = (b_1 ... b_t)        pi2 = (c_1 ... c_t)
          (a_1 ... a_t)              (d_1 ... d_t)

SkewPair holds its four rows b, a, c, d as tuples, in that order, and
refuses a row that is not a sequence and rows of different lengths.  The
entries are plain ints >= 1, and the pair is subject to six conditions:

  (i)   pi1 is lexicographic: b weakly decreasing, ties broken by a weakly
        decreasing;
  (ii)  the transpose of pi2 is lexicographic: d weakly decreasing, ties
        broken by c weakly decreasing;
  (iii) a_i < d_{t+1-i};
  (iv)  b_i < c_{t+1-i};
  (v)   the pairing a_i ~ c_{t+1-i}, b_i ~ d_{t+1-i} (and back) is a
        well-defined strictly decreasing map on values;
  (vi)  columns and their duals have coherent signs: a_i < b_i forces
        d_{t+1-i} < c_{t+1-i} and a_i > b_i forces d_{t+1-i} > c_{t+1-i}.

The pair is negative when a_i < b_i for every i, positive when a_i > b_i.

psi_inv rebuilds the canonical pair from the points of its columns, a
pi1 column (b, a) read as (a, b) and a pi2 column (c, d) as (d, c).  The
paper's psi (a pair to its points), its involution L and the split into
negative and positive parts are stated in tests/oracles.py; the
correspondence reads the columns of a pair directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LengthMismatch
from .multisets import duality_conflict


@dataclass(frozen=True)
class SkewPair:
    """The four rows of a skew pair, pi1 = (b over a) and pi2 = (c over d),
    each a tuple, all of one length: the width."""

    b: tuple
    a: tuple
    c: tuple
    d: tuple

    def __post_init__(self):
        for name in "bacd":
            row = getattr(self, name)
            try:
                converted = tuple(row)
            except TypeError:
                raise LengthMismatch(f"row {name} is not a sequence: {row!r}") from None
            object.__setattr__(self, name, converted)
        b, a, c, d = self.b, self.a, self.c, self.d
        for top, bottom in ((b, a), (c, d)):
            if len(top) != len(bottom):
                raise LengthMismatch(f"rows of length {len(top)} and {len(bottom)}")
        if len(b) != len(c):
            raise LengthMismatch(f"pi1 width {len(b)} != pi2 width {len(c)}")

    @classmethod
    def from_columns(cls, cols1, cols2):
        """The pair whose arrays have the given (top, bottom) columns, in
        order: (b, a) for pi1 and (c, d) for pi2."""
        b, a = zip(*cols1) if cols1 else ((), ())
        c, d = zip(*cols2) if cols2 else ((), ())
        return cls(b, a, c, d)

    @property
    def width(self):
        return len(self.b)

    @property
    def degree(self):
        return 2 * self.width


def _is_lexicographic(top, bottom):
    cols = list(zip(top, bottom))
    return all(x >= y for x, y in zip(cols, cols[1:]))


def dual_column_violations(col1, col2, i, j):
    """The violations of (iii), (iv) and (vi) by pi1 column i + 1,
    col1 = (b, a), and its dual pi2 column j + 1, col2 = (c, d): the
    conditions that involve one column and its dual alone."""
    b, a = col1
    c, d = col2
    violations = []
    if not a < d:
        violations.append(f"a_{i + 1} = {a} not < d_{j + 1} = {d}")
    if not b < c:
        violations.append(f"b_{i + 1} = {b} not < c_{j + 1} = {c}")
    if a < b and not d < c:
        violations.append(f"column {i + 1} negative but dual column {j + 1} not")
    if a > b and not d > c:
        violations.append(f"column {i + 1} positive but dual column {j + 1} not")
    return violations


def column_duality_pairs(col1, col2):
    """(value, dual value) for pi1 column col1 = (b, a) and its dual pi2
    column col2 = (c, d), as condition (v) pairs them: a ~ c, b ~ d and back."""
    b, a = col1
    c, d = col2
    return [(a, c), (b, d), (c, a), (d, b)]


def validate_skew_pair(p):
    """Return a list of human-readable violations; empty means valid.

    The conditions are stated on plain ints >= 1, so an entry that is not
    one (a bool, a float, 0 or a negative entry) is a violation of its own,
    and only such entries are then listed."""
    violations = [
        f"{name}_{i + 1} = {x!r} not a positive integer"
        for name, row in zip("bacd", (p.b, p.a, p.c, p.d))
        for i, x in enumerate(row)
        if type(x) is not int or x < 1
    ]
    if violations:
        return violations
    t = p.width
    cols1, cols2 = list(zip(p.b, p.a)), list(zip(p.c, p.d))
    if not _is_lexicographic(p.b, p.a):
        violations.append("pi1 is not lexicographic")
    if not _is_lexicographic(p.d, p.c):
        violations.append("transpose of pi2 is not lexicographic")
    pairs = []
    for i in range(t):
        j = t - 1 - i
        violations.extend(dual_column_violations(cols1[i], cols2[j], i, j))
        pairs.extend(column_duality_pairs(cols1[i], cols2[j]))
    # (v): value -> dual value must be a strictly decreasing map
    conflict = duality_conflict(pairs)
    if conflict:
        (v1, d1), (v2, d2) = conflict
        if v1 == v2:
            violations.append(f"duality maps value {v1} to both {d1} and {d2}")
        else:
            violations.append(f"duality not decreasing: {v1} -> {d1}, {v2} -> {d2}")
    return violations


def psi_inv(u1, u2):
    """Rebuild the canonical skew pair from its columns' points: pi1 columns
    (b, a), read off the points (a, b) of u1, sorted by b then a descending;
    pi2 columns (c, d), read off the points (d, c) of u2, sorted by d then c
    descending."""
    if len(u1) != len(u2):
        raise LengthMismatch(f"|U1| = {len(u1)} != |U2| = {len(u2)}")
    cols1 = sorted(((b, a) for a, b in u1), key=lambda col: (-col[0], -col[1]))
    cols2 = sorted(((c, d) for d, c in u2), key=lambda col: (-col[1], -col[0]))
    return SkewPair.from_columns(cols1, cols2)
