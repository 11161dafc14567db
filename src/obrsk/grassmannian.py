"""Admissible d-subsets, the grid attached to one, and chain combinatorics.

I(d) is the set of d-subsets of {1, ..., 2d} containing exactly one of each
pair {k, 2d+1-k} and an even number of entries above d; it is ordered
entrywise on sorted entry lists.  One memo per d (_id_poset) holds I(d) in
order, the position of each sorted entry list, each position's up set and
the mirror as a permutation of positions; enumerate_id reads it, and the
chain tables and the ideal layer compare positions by their up sets.

Fixing beta in I(d), the grid consists of the positions (r, c) with r outside
beta and c inside beta.  Writing x* = 2d+1-x, its roots are the positions
(x*, y) with x > y in beta (roots_of, the one rule; split_chain refuses any
other point): positive when r > c and negative when r < c.  A chain's sign
is read off its points by split_chain, so w_of_chain takes none.  The
other grid positions lie on the diagonal (r = c*) or below it (r > c*); the
paper's five-way rule is tests/oracles.region_of, which the tests check
against roots_of for every beta with d <= 8.  The reflection
(r, c) -> (c*, r*) exchanges roots and below-diagonal positions.

A triple alpha <= beta <= gamma declares some chains of roots bad: those
whose negative part maps to a w with alpha not <= w, or whose positive part
maps to a w with w not <= gamma.  A chain is thus bad exactly when one of its
two sign-pure parts is, and a negative chain's badness depends on the half
(alpha, beta) alone, a positive chain's on (beta, gamma) alone.

Only negative chains have rows and values.  The longest Weyl element of
type D, mirror on I(d) and phi on roots, swaps the two halves: phi takes the
positive chains of beta onto the negative chains of mirror(beta), mirror
reverses the order, and the w of a positive chain C is mirror of the w of
phi(C).  So each beta has one table, of its negative chains with the
position of w in I(d) and the top rows of each chain's image
(_signed_chains, at most |I(d)| tables per d), and a positive half is the
negative half of the mirrored pair (_half), its positions mirrored and its
chains mapped by phi; no element of I(d) is built per chain or per half.
A table is one walk over the chains, each taking its top rows by one
bounded insertion step on those of its parent chain, the chain without its
last point; no image is built whole.
tests/test_grassmannian.py certifies that the pair (C, C^#) of every chain
of roots with d <= 8 is a valid skew pair, that the top rows equal those
of obrsk's image with d <= 7, that each position is the element its
entries give with d <= 8, and that the mirror gives every positive w and
every positive half as the direct positive rule does with d <= 7.
defining_chains decides each negative chain once per half, not once per
triple, by whether its w lies in the up set of alpha, checks each decision
against the boundedness of the chain's image by T in the one counting
order (tableaux.rows_leq), and keeps the minimal bad chains; a root
monomial lies in the chain ideal exactly when its support contains one.
One memo, _half, holds each half: the theta it leaves out, those its
multichains run through and its minimal bad chains, at most 2 |I(d)|^2
halves per d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import le
from typing import NamedTuple

from .correspondence import forward_step
# perfbench/tracing.py patches grassmannian.obrsk, so the name stays importable here
from .correspondence import obrsk  # noqa: F401
from .errors import BoundsNotComparable, MixedSigns, NotInId, SignAssertionFailure, VerificationError
from .multisets import enumerate_extended_chains
from .tableaux import rows_leq


@dataclass(frozen=True)
class IdElement:
    entries: tuple
    d: int
    # the hash of (entries, d), taken once the entries are sorted; not part
    # of equality, so every memo keyed by an element reads it without
    # rehashing the entries
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        # a float or a bool equals and hashes like its int, so the element
        # would share, and poison, the memos keyed by the int element
        if type(self.d) is not int or any(type(x) is not int for x in entries):
            raise NotInId(f"IdElement takes plain ints, got entries {entries!r} and d = {self.d!r}")
        object.__setattr__(self, "entries", tuple(sorted(entries)))
        object.__setattr__(self, "_hash", hash((self.entries, self.d)))
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

    def __hash__(self):
        return self._hash

    def __str__(self):
        return ",".join(str(x) for x in self.entries)


@lru_cache(maxsize=None)
def _id_poset(d):
    """I(d) as a poset on positions: its elements in lexicographic order of
    their entry lists; the position in that order of each element's sorted
    entry list, so a list derived from other entries is found, or found
    missing, without building an element; the up set of each position, the
    positions of the elements w with v <= w; and the mirror as a
    permutation, the position of mirror(v) at the position of v.  The chain
    tables and the ideal layer work on positions, so they test membership
    in a set of ints where they would compare entry lists.  Memoised per d;
    enumerate_id reads the elements from here."""
    out = []
    for picks in itertools.product(*([k, 2 * d + 1 - k] for k in range(1, d + 1))):
        if sum(1 for x in picks if x > d) % 2 == 0:
            out.append(IdElement(tuple(sorted(picks)), d))
    elements = tuple(sorted(out, key=lambda v: v.entries))
    position = {v.entries: i for i, v in enumerate(elements)}
    up = tuple(frozenset(j for j, w in enumerate(elements) if id_leq(v, w)) for v in elements)
    mirrored = tuple(position[mirror(v).entries] for v in elements)
    return elements, position, up, mirrored


def enumerate_id(d):
    """All elements of I(d) in lexicographic order of their entry lists."""
    return _id_poset(d)[0]


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


def _point(p):
    """A point given as a list as the tuple roots_of holds; anything else as
    given, so that what is not a pair is refused as no root."""
    return tuple(p) if isinstance(p, list) else p


def split_chain(chain, v):
    """Partition a chain, or any sequence, of roots of the grid of v into its
    negative (r < c) and positive (r > c) parts, each point as a tuple; the
    package's one sign rule.  MixedSigns on a point that is not a root
    (roots_of is the one rule)."""
    roots = roots_of(v)
    neg, pos = [], []
    for p in map(_point, chain):
        if p not in roots:
            raise MixedSigns(f"{p!r} is not a root of the grid of {v}")
        (neg if p[0] < p[1] else pos).append(p)
    return tuple(neg), tuple(pos)


def _middle_swap(x, d):
    """x with d and d+1 exchanged when d is odd, and otherwise x itself."""
    return 2 * d + 1 - x if d % 2 and x in (d, d + 1) else x


def mirror(v):
    """mu, the longest Weyl element w0 of type D acting on I(d): each entry x
    goes to 2d+1-x, and when d is odd, d and d+1 are then swapped, which
    keeps the number of entries above d even.  The tests certify that it is
    an order-reversing involution of I(d) for every d <= 6."""
    full = 2 * v.d + 1
    return IdElement(tuple(_middle_swap(full - x, v.d) for x in v.entries), v.d)


def phi(point, d):
    """The root map of the mirror: (r, c) -> (c, r), with d and d+1 swapped
    in each coordinate when d is odd.  An involution taking the roots of
    beta onto those of mirror(beta), negative onto positive, and chains onto
    chains; the tests certify it on the roots of every beta with d <= 8."""
    r, c = point
    return _middle_swap(c, d), _middle_swap(r, d)


@lru_cache(maxsize=None)
def _signed_chains(beta):
    """Each negative chain of roots of beta, as enumerate_extended_chains
    yields it, mapped to (w, (p, q)), where p and q are the top rows of P
    and Q of its image, obrsk of the canonical skew pair of (C, C^#), C^#
    reflecting each point of C by hash_reflect.  The up set of the image
    pairs the i-th entries of those two strictly increasing rows, so (p, q)
    is the up set as rows_leq compares it, and w is beta with the entries
    of q taken out and those of p put in, held as its position in
    enumerate_id(d): the position of its sorted entry list in _id_poset,
    which must be there, and w must be <= beta, read off beta's position in
    the up set of w.  No element of I(d) is built; the tests certify each
    position against the element of those entries with d <= 8.

    obrsk consumes a negative chain's points in increasing row order, one
    forward step each, and the iterator yields each chain just after its
    parent, the chain without its last point, so one walk takes each
    chain's top rows by one step on its parent's.  The top rows alone are
    exact, as forward_step finishes changing row 0 before it reads row 1.
    No skew pair is built or checked: the tests certify the pair of every
    chain of roots with d <= 8, and these rows against obrsk's with d <= 7.

    Only negative chains have rows: a positive chain of beta is read through
    the mirror, as the negative chain phi(C) of mirror(beta) (w_of_chain,
    _half).  Memoised per beta."""
    _, position, up, _ = _id_poset(beta.d)
    b, bset = position[beta.entries], set(beta.entries)
    top, table, where = {(): ((), ())}, {}, f"chain table of beta = {beta.entries}"
    for chain in enumerate_extended_chains(split_chain(roots_of(beta), beta)[0]):
        (r, c), (p, q) = chain[-1], top[chain[:-1]]
        prows, qrows = [list(p)], [list(q)]
        c_star, r_star = hash_reflect((r, c), beta.d)
        forward_step(prows, qrows, r, c, r_star, c_star)
        p, q = top[chain] = tuple(prows[0]), tuple(qrows[0])
        missing = set(q) - bset
        if missing:
            raise VerificationError(f"{where}: second coordinate {min(missing)} not in beta")
        entries = tuple(sorted(bset.difference(q).union(p)))
        w = position.get(entries)
        if w is None:
            raise VerificationError(f"{where}: w = {entries} of the chain {list(chain)} is not in I({beta.d})")
        if b not in up[w]:
            raise SignAssertionFailure(f"{where}: w = {entries} not <= beta")
        table[chain] = (w, (p, q))
    return table


def w_of_chain(chain, beta):
    """The element of I(d) attached to a sign-pure chain of roots of beta,
    its points in any order; MixedSigns for anything else.  The sign is read
    off the points (split_chain).  A negative chain reads the position of
    its w in its row of _signed_chains.  A positive chain C is read through
    the mirror: its w is mirror of the w of the negative chain phi(C) of
    mirror(beta), which the tests certify against obrsk's down set for every
    positive chain of roots with d <= 7.  The position is turned back into
    its element of enumerate_id(d)."""
    elements, position, _, mirrored = _id_poset(beta.d)
    neg, pos = split_chain(chain, beta)
    entry = None
    if not pos:
        entry = _signed_chains(beta).get(tuple(sorted(neg)))
    elif not neg:
        mirror_beta = elements[mirrored[position[beta.entries]]]
        entry = _signed_chains(mirror_beta).get(tuple(sorted(phi(p, beta.d) for p in pos)))
    if entry is None:
        raise MixedSigns(f"{list(neg + pos)} is not a sign-pure chain of roots of {beta}")
    return elements[mirrored[entry[0]] if pos else entry[0]]


def _half_bound(alpha, beta):
    """T of the negative half (alpha, beta) as the row pair rows_leq
    compares: the entries of alpha outside beta and those of beta outside
    alpha, each sorted.  T pairs their i-th smallest entries, and alpha <=
    beta (_check_triple refuses anything else) makes it a negative plane
    set; the tests certify this for every half with d <= 8.  The positive
    half's bound W is never built: that half is read through the mirror."""
    aset, bset = set(alpha.entries), set(beta.entries)
    return tuple(sorted(aset - bset)), tuple(sorted(bset - aset))


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


class Half(NamedTuple):
    """One half of a triple, as _half states it."""

    left_out: tuple  # positions, in enumerate_id order, of the theta it leaves out
    interval: tuple  # and of the theta its multichains run through
    chains: tuple  # its minimal bad chains, as frozensets


@lru_cache(maxsize=None)
def _half(bound, beta, sign):
    """The negative half of a triple (sign -1 of tableaux.row_sign, bound
    alpha) or its positive half (sign +1, bound gamma).  The negative half
    is read off the up sets of _id_poset: it leaves out each theta with
    alpha not <= theta and runs through alpha <= theta < beta.  A chain of
    roots is bad exactly when its w is left out: each negative chain is
    decided by two routes, each read off its row of _signed_chains, the
    position of w outside the up set of alpha and boundedness of its image,
    T <= up by rows_leq on the row pairs of T and of the up set, and the
    two must agree.  mirror reverses the order and w(C) is mirror of
    w(phi(C)), so the positive half of (beta, gamma) is the negative half
    of (mirror(gamma), mirror(beta)), its positions mirrored and its chains
    mapped by phi.  Memoised: a half is decided once, however many triples
    share it."""
    elements, position, up, mirrored = _id_poset(beta.d)
    if sign > 0:
        mirror_bound, mirror_beta = (elements[mirrored[position[v.entries]]] for v in (bound, beta))
        left_out, interval, chains = _half(mirror_bound, mirror_beta, -1)
        return Half(
            tuple(sorted(mirrored[t] for t in left_out)),
            tuple(sorted(mirrored[t] for t in interval)),
            tuple(frozenset(phi(p, beta.d) for p in chain) for chain in chains),
        )
    b = position[beta.entries]
    above = up[position[bound.entries]]
    left_out = tuple(t for t in range(len(elements)) if t not in above)
    interval = tuple(t for t in range(len(elements)) if t in above and t != b and b in up[t])
    limit = _half_bound(bound, beta)
    bad = []
    for chain, (w, operand) in _signed_chains(beta).items():
        in_set = w not in above
        if in_set == rows_leq(limit, operand):
            raise VerificationError(
                f"chain-membership routes disagree on {list(chain)} for the negative half "
                f"({bound.entries}, {beta.entries})"
            )
        if in_set:
            bad.append(frozenset(chain))
    minimal = []
    for chain in sorted(bad, key=len):
        if not any(kept <= chain for kept in minimal):
            minimal.append(chain)
    return Half(left_out, interval, tuple(minimal))


def defining_chains(alpha, beta, gamma):
    """The minimal bad chains of roots of the triple, as frozensets.

    A chain is bad exactly when its negative part is bad for alpha or its
    positive part is bad for gamma, so the minimal bad chains are sign pure
    and are those of the two halves, (alpha, beta) and (beta, gamma), joined:
    a negative chain never contains a positive one.  Each half decides each
    of its chains by two routes that must agree (_half), once per half, not
    once per triple.  A monomial lies in the chain ideal when its support
    contains a bad chain, hence when it contains a minimal one, and these
    are the minimal generators of the chain ideal."""
    _check_triple(alpha, beta, gamma)
    return _half(alpha, beta, -1).chains + _half(gamma, beta, +1).chains


def is_quotient_monomial(u, alpha, beta, gamma):
    """True iff the support of u, an iterable of roots (repeats allowed),
    contains no bad chain of the triple."""
    bad = defining_chains(alpha, beta, gamma)
    neg, pos = split_chain(u, beta)
    support = {*neg, *pos}
    return not any(chain <= support for chain in bad)

