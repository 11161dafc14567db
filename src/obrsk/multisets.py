"""Chains of plane points, and duality maps.

The package builds its chains of points directly.  tests/oracles.py states
the paper's multisets: a multiset of positive integers as a sorted tuple
(nat_multiset) and the normalization of a plane multiset (plane_multiset).
The counting order on formal differences, by which the paper compares them,
is tableaux.rows_leq; tests/oracles.py states it on formal differences, as
the paper defines it, and the tests check the two against each other.
"""

from __future__ import annotations


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
