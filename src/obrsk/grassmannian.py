"""Admissible d-subsets, the grid attached to one, and chain combinatorics.

I(d) is the set of d-subsets of {1, ..., 2d} containing exactly one of each
pair {k, 2d+1-k} and an even number of entries above d; it is ordered
entrywise on sorted entry lists.

Fixing beta in I(d), the grid consists of the positions (r, c) with r outside
beta and c inside beta.  Writing x* = 2d+1-x, its roots are the positions
(x*, y) with x > y in beta (roots_of, the one rule; split_chain refuses any
other point): positive when r > c and negative when r < c.  The other grid
positions lie on the diagonal (r = c*) or below it (r > c*); the paper's
five-way rule is tests/oracles.region_of, which the tests check against
roots_of for every beta with d <= 8.  The reflection (r, c) -> (c*, r*)
exchanges roots and below-diagonal positions.

A triple alpha <= beta <= gamma declares some chains of roots bad: those
whose negative part maps to a w with alpha not <= w, or whose positive part
maps to a w with w not <= gamma.  A chain is thus bad exactly when one of its
two sign-pure parts is, and a negative chain's badness depends on the half
(alpha, beta) alone, a positive chain's on (beta, gamma) alone.  Each sign's
chains of a beta are imaged and valued once, w and the image's bound operand
together (_signed_chains, at most 2 |I(d)| tables per d).  A negative chain's
image is one bounded insertion step from the memoised image of its parent
chain, the chain without its last point (chain_image).  chain_image images
negative chains only: obrsk takes a positive part through L and then iota,
so a positive chain's pairs are read off the image of its transpose, a
negative chain, with each pair swapped (_signed_chains).  chain_image builds
no skew pair and checks none: it is handed the negative chains of roots of
a beta and the transposes of its positive ones, sorted by position, and
tests/test_grassmannian.py certifies that the pair (C, C^#) of every chain
of roots with d <= 8 is a valid skew pair and, with d <= 7, that the pairs
each row reads equal those of obrsk's image.
defining_chains decides each sign-pure chain of roots once per half, not once
per triple, by the w of its row, checks each decision against the
boundedness of the chain's image by T (negative half) or W (positive half),
on the operand of the same row, and keeps the minimal bad chains;
a root monomial lies in the chain ideal exactly when its support contains
one.  The halves are memoised, at most 2 |I(d)|^2 of them per d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import le

from .correspondence import forward_step
# perfbench/tracing.py patches grassmannian.obrsk, so the name stays importable here
from .correspondence import obrsk  # noqa: F401
from .errors import BoundsNotComparable, MixedSigns, NotInId, SignAssertionFailure, VerificationError
from .multisets import diff_leq, enumerate_extended_chains, plane_diff, plane_multiset
from .tableaux import EMPTY_BITABLEAU, up_down


@dataclass(frozen=True)
class IdElement:
    entries: tuple
    d: int

    def __post_init__(self):
        entries = tuple(self.entries)
        # a float or a bool equals and hashes like its int, so the element
        # would share, and poison, the memos keyed by the int element
        if type(self.d) is not int or any(type(x) is not int for x in entries):
            raise NotInId(f"IdElement takes plain ints, got entries {entries!r} and d = {self.d!r}")
        object.__setattr__(self, "entries", tuple(sorted(entries)))
        e, d = self.entries, self.d
        if len(e) != d or len(set(e)) != d:
            raise NotInId(f"{e} is not a d-subset for d = {d}")
        if any(x < 1 or x > 2 * d for x in e):
            raise NotInId(f"{e} has entries outside 1..{2 * d}")
        full = 2 * d + 1
        if any(full - x in e for x in e):
            raise NotInId(f"{e} contains a pair summing to {full}")
        if sum(1 for x in e if x > d) % 2:
            raise NotInId(f"{e} has an odd number of entries above {d}")

    def __str__(self):
        return ",".join(str(x) for x in self.entries)


@lru_cache(maxsize=None)
def enumerate_id(d):
    """All elements of I(d) in lexicographic order of their entry lists."""
    out = []
    for picks in itertools.product(*([k, 2 * d + 1 - k] for k in range(1, d + 1))):
        if sum(1 for x in picks if x > d) % 2 == 0:
            out.append(IdElement(tuple(sorted(picks)), d))
    return tuple(sorted(out, key=lambda v: v.entries))


def id_leq(v, w):
    """Entrywise order on sorted entry lists."""
    return all(map(le, v.entries, w.entries))


def hash_reflect(point, d):
    """The reflection (r, c) -> (c*, r*); an involution exchanging roots and
    below-diagonal positions."""
    r, c = point
    full = 2 * d + 1
    return (full - c, full - r)


@lru_cache(maxsize=None)
def roots_of(v):
    """All roots of the grid of v, sorted by (row, column): the positions
    (x*, y) with x > y in v, x* = 2d+1-x, so d(d-1)/2 of them.  Memoised:
    one entry per element of I(d)."""
    full = 2 * v.d + 1
    return tuple(sorted((full - x, y) for y, x in itertools.combinations(v.entries, 2)))


class ChainSign(Enum):
    MINUS = "minus"
    PLUS = "plus"


def split_chain(chain, v):
    """Partition a chain, or any sequence, of roots of the grid of v into its
    negative (r < c) and positive (r > c) parts; MixedSigns on a point that
    is not a root (roots_of is the one rule)."""
    roots = roots_of(v)
    neg, pos = [], []
    for p in chain:
        if tuple(p) not in roots:
            raise MixedSigns(f"{p} is not a root of the grid of {v}")
        (neg if p[0] < p[1] else pos).append(p)
    return tuple(neg), tuple(pos)


@lru_cache(maxsize=None)
def chain_image(chain, d):
    """The bitableau image of a negative chain of roots C, obrsk of the
    canonical skew pair of (C, C^#), where C^# reflects each point of C by
    hash_reflect.

    chain must be a nonempty chain of negative points (r < c), sorted by
    position, as _signed_chains supplies it: a negative chain of roots or
    the transpose of a positive one; nothing here checks that.  The tests
    certify that the pair of every chain of roots with d <= 8 is a valid
    skew pair, and that this image equals obrsk's for every negative one
    with d <= 7.

    obrsk consumes a negative chain's points in increasing row order, one
    forward step each, so its image is one step from that of the chain
    without its last point.  Memoised: one entry per chain asked for,
    however many betas or longer chains ask for it."""
    (r, c), rest = chain[-1], chain[:-1]
    parent = chain_image(rest, d) if rest else EMPTY_BITABLEAU
    c_star, r_star = hash_reflect((r, c), d)
    return forward_step(parent, r, c, r_star, c_star)


@lru_cache(maxsize=None)
def _signed_chains(beta, sign):
    """Each chain of roots of beta of one sign, as enumerate_extended_chains
    yields it, mapped to (w, operand).  The up set (MINUS) or down set (PLUS)
    of the chain image gives pairs (x, y); w is beta with the seconds taken
    out and the firsts put in, and must be <= beta (MINUS) or >= beta (PLUS);
    operand is the pairs' counting-order operand.

    obrsk takes a positive chain C through L and then iota.  L of its pair
    is the pair of its transpose, the negative chain C^T (hash_reflect
    commutes with swapping the coordinates), so its image is iota of
    chain_image(C^T), and the down set of that is the up set of
    chain_image(C^T) with each pair swapped; iota itself is never built.
    The tests certify these pairs against obrsk's down set for every
    positive chain of roots with d <= 7.  Memoised per (beta, sign)."""
    minus = sign is ChainSign.MINUS
    table = {}
    for chain in enumerate_extended_chains(split_chain(roots_of(beta), beta)[0 if minus else 1]):
        # the transpose of a chain sorted by position, reversed, is sorted
        imaged = chain if minus else tuple((y, x) for x, y in reversed(chain))
        up = up_down(chain_image(imaged, beta.d))[0]
        pairs = up if minus else plane_multiset((y, x) for x, y in up)
        entries = set(beta.entries)
        for _, y in pairs:
            if y not in entries:
                raise VerificationError(f"second coordinate {y} not in beta = {beta.entries}")
            entries.remove(y)
        entries.update(x for x, _ in pairs)
        w = IdElement(tuple(sorted(entries)), beta.d)
        if not (id_leq(w, beta) if minus else id_leq(beta, w)):
            raise SignAssertionFailure(f"w = {w.entries} not {'<=' if minus else '>='} beta = {beta.entries}")
        table[chain] = (w, plane_diff(pairs))
    return table


def w_of_chain(chain, beta, sign):
    """The element of I(d) attached to a chain of roots of beta of the sign,
    its points in any order (_signed_chains); MixedSigns for anything else."""
    entry = _signed_chains(beta, sign).get(tuple(sorted(chain)))
    if entry is None:
        raise MixedSigns(f"{list(chain)} is not a {sign.value} chain of roots of {beta}")
    return entry[0]


def _half_bound(bound, beta):
    """T (bound alpha) or W (bound gamma): the i-th smallest element of
    bound - beta paired with the i-th smallest of beta - bound.  Since
    alpha <= beta <= gamma (_check_triple refuses anything else), T is a
    negative plane set and W a positive one; the tests certify this for
    every half with d <= 8."""
    vset, bset = set(bound.entries), set(beta.entries)
    return plane_multiset(zip(sorted(vset - bset), sorted(bset - vset)))


def _check_triple(alpha, beta, gamma):
    """Refuse a triple that is not alpha <= beta <= gamma in one I(d).
    id_leq compares entries pairwise and stops at the shorter list, so
    elements of different d are refused first."""
    if not alpha.d == beta.d == gamma.d:
        raise BoundsNotComparable(f"alpha, beta and gamma must share d, got d = {alpha.d}, {beta.d}, {gamma.d}")
    if not (id_leq(alpha, beta) and id_leq(beta, gamma)):
        raise BoundsNotComparable(
            f"need alpha <= beta <= gamma, got {alpha.entries}, {beta.entries}, {gamma.entries}"
        )


@lru_cache(maxsize=None)
def _minimal_bad_chains(bound, beta, sign):
    """The inclusion-minimal bad chains among the chains of roots of beta of
    one sign, as frozensets: the negative half of a triple (bound alpha) or
    its positive half (bound gamma).

    Every chain of the sign is decided by both routes, each read off the
    chain's row of _signed_chains: the defining rule on its w, alpha not <= w
    for a negative chain and w not <= gamma for a positive one; and
    boundedness of the chain's image, T <= up for a negative chain
    and down <= W for a positive one, on its operand.  The two must agree.
    Memoised: a half is decided once, however many triples share it, so the
    cache holds at most 2 |I(d)|^2 entries per d."""
    minus = sign is ChainSign.MINUS
    limit = plane_diff(_half_bound(bound, beta))
    bad = []
    for chain, (w, operand) in _signed_chains(beta, sign).items():
        in_set = not (id_leq(bound, w) if minus else id_leq(w, bound))
        if in_set == (diff_leq(limit, operand) if minus else diff_leq(operand, limit)):
            raise VerificationError(
                f"chain-membership routes disagree on {list(chain)} for the {sign.value} half "
                f"({bound.entries}, {beta.entries})"
            )
        if in_set:
            bad.append(frozenset(chain))
    minimal = []
    for chain in sorted(bad, key=len):
        if not any(kept <= chain for kept in minimal):
            minimal.append(chain)
    return tuple(minimal)


def defining_chains(alpha, beta, gamma):
    """The minimal bad chains of roots of the triple, as frozensets.

    A chain is bad exactly when its negative part is bad for alpha or its
    positive part is bad for gamma, so the minimal bad chains are sign pure
    and are those of the two halves, (alpha, beta) and (beta, gamma), joined:
    a negative chain never contains a positive one.  Each half decides each
    of its chains by two routes that must agree (_minimal_bad_chains), once
    per half, not once per triple.  A monomial lies in the chain ideal when
    its support contains a bad chain, hence when it contains a minimal one,
    and these are the minimal generators of the chain ideal."""
    _check_triple(alpha, beta, gamma)
    return _minimal_bad_chains(alpha, beta, ChainSign.MINUS) + _minimal_bad_chains(gamma, beta, ChainSign.PLUS)


def is_quotient_monomial(u, alpha, beta, gamma):
    """True iff the support of u, an iterable of roots (repeats allowed),
    contains no bad chain of the triple."""
    bad = defining_chains(alpha, beta, gamma)
    support = set(u)
    stray = support.difference(roots_of(beta))
    if stray:
        raise MixedSigns(f"{min(stray)} is not a root of the grid of {beta}")
    return not any(chain <= support for chain in bad)

