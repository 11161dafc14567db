"""Finite multisets on N and N^2, formal differences, and the counting order.

A multiset of positive integers is kept as a sorted tuple.  A plane multiset
is a sorted tuple of (x, y) pairs of positive integers.

A formal difference A - B (with B a genuine set) stands for the multiset
A together with the complement N \\ B.  Its counting function at z is

    |A^{<=z}| + z - |B^{<=z}|

and the counting order compares two differences by

    D1 <= D2  iff  for every z >= 1 the count of D1 at z is >= that of D2.

Larger counts low down mean smaller elements, hence the direction flip.
The empty difference () - () stands for all of N.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

from .errors import ContainmentViolation, MinusNotSet, ValidationError


class Cmp(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def nat_multiset(entries):
    """Normalize an iterable of positive integers into a sorted tuple."""
    out = tuple(sorted(entries))
    for e in out:
        if not isinstance(e, int) or e < 1:
            raise ValidationError(f"multiset entries must be positive integers, got {e!r}")
    return out


def plane_multiset(points):
    """Normalize an iterable of (x, y) pairs into a sorted tuple of tuples.

    Every entry must be an int >= 1; a bool, a float or any other number is
    refused, not converted."""
    out = [(x, y) for x, y in points]
    for x, y in out:
        if type(x) is not int or type(y) is not int or x < 1 or y < 1:
            raise ValidationError(f"plane multiset entries must be positive integers, got {(x, y)!r}")
    out.sort()
    return tuple(out)


def count_le(entries, z):
    """Number of entries <= z in a sorted tuple."""
    return bisect.bisect_right(entries, z)


def multiset_minus(a, b):
    """Honest multiset difference a \\ b; every element of b must occur in a."""
    remaining = list(a)
    for x in b:
        try:
            remaining.remove(x)
        except ValueError:
            raise ContainmentViolation(f"{x!r} occurs more often in subtrahend than in {a!r}")
    return tuple(sorted(remaining))


def proj1(points):
    return nat_multiset(x for x, _ in points)


def proj2(points):
    return nat_multiset(y for _, y in points)


def is_chain(points):
    """True iff the plane multiset is strictly increasing in x and strictly
    decreasing in y when sorted; repeated x (or y) values disqualify it."""
    pts = sorted(points)
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if not (x1 < x2 and y1 > y2):
            return False
    return True


def duality_conflict(pairs):
    """The first two (value, dual value) pairs, in sorted order, that keep
    value -> dual value from being a well-defined strictly decreasing map;
    None when it is one."""
    pairs = sorted(pairs)
    for (v1, d1), (v2, d2) in zip(pairs, pairs[1:]):
        if (v1 == v2 and d1 != d2) or (v1 != v2 and d1 <= d2):
            return (v1, d1), (v2, d2)
    return None


@dataclass(frozen=True)
class FormalDiff:
    """A formal difference plus - (N \\ minus-complement); minus must be a set."""

    plus: tuple
    minus: tuple

    def __post_init__(self):
        object.__setattr__(self, "plus", nat_multiset(self.plus))
        object.__setattr__(self, "minus", nat_multiset(self.minus))
        if len(set(self.minus)) != len(self.minus):
            raise MinusNotSet(f"minus part {self.minus} has a repeated element")

    def count(self, z):
        """Counting function |plus^{<=z}| + z - |minus^{<=z}|."""
        return count_le(self.plus, z) + z - count_le(self.minus, z)

    @property
    def tail_offset(self):
        """count(z) - z for z beyond every entry; determines the stabilized tail."""
        return len(self.plus) - len(self.minus)


EMPTY_DIFF = FormalDiff((), ())


def diff_compare(d1, d2):
    """Compare two formal differences in the counting order.

    The z terms cancel in count1(z) - count2(z), so the difference of the
    counts changes only where z is an entry of either operand.  Comparing at
    the distinct entries therefore settles every z: below the least entry the
    difference is 0, and from the greatest entry on it is the difference of
    the tail offsets.
    """
    le = ge = True  # le: d1 <= d2 so far (counts of d1 dominate)
    for z in sorted({*d1.plus, *d1.minus, *d2.plus, *d2.minus}):
        c1, c2 = d1.count(z), d2.count(z)
        if c1 < c2:
            le = False
        elif c1 > c2:
            ge = False
    if le and ge:
        return Cmp.EQUAL
    if le:
        return Cmp.LESS
    if ge:
        return Cmp.GREATER
    return Cmp.INCOMPARABLE


def plane_diff(points):
    """The formal difference proj1 - proj2 by which a plane multiset is
    compared; raises MinusNotSet when the second projection has a repeat."""
    return FormalDiff(proj1(points), proj2(points))


def plane_compare(s, t):
    """Compare plane multisets by proj1 - proj2 in the counting order.

    Raises MinusNotSet when either second projection has a repeat.
    """
    return diff_compare(plane_diff(s), plane_diff(t))
