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

from .errors import MinusNotSet, ValidationError


def nat_multiset(entries):
    """Normalize an iterable of positive integers into a sorted tuple.

    Every entry must be an int >= 1; a bool, a float or any other number is
    refused, not converted, as in plane_multiset."""
    out = list(entries)
    for e in out:
        if type(e) is not int or e < 1:
            raise ValidationError(f"multiset entries must be positive integers, got {e!r}")
    out.sort()
    return tuple(out)


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


def proj1(points):
    return nat_multiset(x for x, _ in points)


def proj2(points):
    return nat_multiset(y for _, y in points)


def _precedes(p, q):
    """p may come just before q in a chain: x strictly less, y strictly greater."""
    return p[0] < q[0] and p[1] > q[1]


def enumerate_extended_chains(support):
    """All nonempty chains inside a set of plane points: the subsets strictly
    increasing in x and strictly decreasing in y, so no two points share an
    x or a y; each is a tuple in increasing x."""
    pts = sorted(set(support), key=lambda p: (p[0], -p[1]))
    chains = []

    def extend(prefix, start):
        for i in range(start, len(pts)):
            if not prefix or _precedes(prefix[-1], pts[i]):
                chains.append(prefix + (pts[i],))
                extend(chains[-1], i + 1)

    extend((), 0)
    return chains


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


def diff_leq(d1, d2):
    """D1 <= D2 in the counting order: the count of d1 is at least that of d2
    at every z >= 1.

    The z terms cancel in count1(z) - count2(z), which rises at the entries
    of d1.plus and d2.minus and falls only at the entries of d1.minus and
    d2.plus.  Below every entry it is 0, so if it is ever negative, the
    first z where it is negative is one where it falls, an entry of d1.minus
    or d2.plus; comparing the counts at those entries settles every z.
    """
    return all(d1.count(z) >= d2.count(z) for z in {*d1.minus, *d2.plus})


def plane_diff(points):
    """The formal difference proj1 - proj2 by which a plane multiset is
    compared; raises MinusNotSet when the second projection has a repeat."""
    return FormalDiff(proj1(points), proj2(points))

