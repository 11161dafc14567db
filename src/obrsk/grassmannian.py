"""Admissible d-subsets, the grid attached to one, and chain combinatorics.

I(d) is the set of d-subsets of {1, ..., 2d} containing exactly one of each
pair {k, 2d+1-k} and an even number of entries above d; it is ordered
entrywise on sorted entry lists.

Fixing beta in I(d), the grid consists of the positions (r, c) with r outside
beta and c inside beta.  Writing x* = 2d+1-x, a grid position is on the
diagonal when r = c*, below it when r > c*, and otherwise it is a root:
positive when r > c and negative when r < c.  The reflection
(r, c) -> (c*, r*) exchanges roots and below-diagonal positions.

A triple alpha <= beta <= gamma declares some chains of roots bad: those
whose negative part maps to a w with alpha not <= w, or whose positive part
maps to a w with w not <= gamma.  A chain is thus bad exactly when one of its
two sign-pure parts is, and a negative chain's badness depends on the half
(alpha, beta) alone, a positive chain's on (beta, gamma) alone.  Each sign's
chains of a beta are imaged and valued once, w and the image's bound operand
together (_signed_chains, at most 2 |I(d)| tables per d).  Each chain's image
is one bounded insertion step from the memoised image of its parent chain,
the chain without its last point (negative) or first point (positive)
(chain_image).
defining_chains decides each sign-pure chain of roots once per half, not once
per triple, checks each decision against the boundedness of the chain's image
by T (negative half) or W (positive half), and keeps the minimal bad chains;
a root monomial lies in the chain ideal exactly when its support contains
one.  The halves are memoised, at most 2 |I(d)|^2 of them per d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import le

from .arrays import psi_inv, validate_skew_pair
from .correspondence import forward_step
# perfbench/tracing.py patches grassmannian.obrsk, so the name stays importable here
from .correspondence import obrsk  # noqa: F401
from .errors import (
    BoundsNotComparable,
    EmptyChain,
    InvalidPair,
    MixedSigns,
    NotInId,
    SignAssertionFailure,
    VanishingColumn,
    VerificationError,
)
from .multisets import diff_leq, enumerate_extended_chains, is_chain, plane_diff, plane_multiset
from .tableaux import EMPTY_BITABLEAU, down_of, iota, is_signed_plane_set, up_of


@dataclass(frozen=True)
class IdElement:
    entries: tuple
    d: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
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

    @property
    def complement(self):
        mine = set(self.entries)
        return tuple(x for x in range(1, 2 * self.d + 1) if x not in mine)

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


class Region(Enum):
    NOT_GRID = "not-grid"
    DIAG = "diag"
    BELOW = "below"
    ROOT_NEG = "root-negative"
    ROOT_POS = "root-positive"


def region_of(v, r, c):
    """Classify the position (r, c) relative to the grid of v."""
    full = 2 * v.d + 1
    if r in v.entries or c not in v.entries or not (1 <= r <= 2 * v.d):
        return Region.NOT_GRID
    c_star = full - c
    if r == c_star:
        return Region.DIAG
    if r > c_star:
        return Region.BELOW
    return Region.ROOT_POS if r > c else Region.ROOT_NEG


def hash_reflect(point, d):
    """The reflection (r, c) -> (c*, r*); an involution exchanging roots and
    below-diagonal positions."""
    r, c = point
    full = 2 * d + 1
    return (full - c, full - r)


@lru_cache(maxsize=None)
def roots_of(v):
    """All roots of the grid of v, sorted by (row, column).  Memoised: one
    entry per element of I(d)."""
    out = []
    for r in v.complement:
        for c in v.entries:
            if region_of(v, r, c) in (Region.ROOT_NEG, Region.ROOT_POS):
                out.append((r, c))
    return tuple(sorted(out))


class ChainSign(Enum):
    MINUS = "minus"
    PLUS = "plus"


def split_chain(chain, v):
    """Partition a chain, or any sequence, of roots into its negative and
    positive parts."""
    neg, pos = [], []
    for p in chain:
        reg = region_of(v, *p)
        if reg is Region.ROOT_NEG:
            neg.append(p)
        elif reg is Region.ROOT_POS:
            pos.append(p)
        else:
            raise MixedSigns(f"{p} is not a root of the grid of {v}")
    return tuple(neg), tuple(pos)


def chain_pair(chain, d):
    """The pair of plane multisets (C, C^#) built from a sign-pure chain."""
    if not chain:
        raise EmptyChain("a chain pair needs at least one point")
    if not is_chain(chain):
        raise MixedSigns(f"{chain} is not a chain")
    signs = {r < c for r, c in chain}
    if len(signs) != 1:
        raise MixedSigns(f"{chain} mixes positive and negative points")
    u1 = plane_multiset(chain)
    u2 = plane_multiset(hash_reflect(p, d) for p in chain)
    return u1, u2


@lru_cache(maxsize=None)
def chain_image(chain, d):
    """The bitableau image of the canonical skew pair of (C, C^#), as
    obrsk(psi_inv(*chain_pair(chain, d))) defines it.

    obrsk consumes a negative chain's points in increasing row order, one
    forward step each, so its image is one step from that of the chain
    without its last point.  A positive chain goes through L, which reverses
    that order, and through iota, so its image is one step, taken between two
    iotas, from that of the chain without its first point.  The pair is
    validated as obrsk validates it, and each iota checks its argument.
    Memoised: chain is a tuple of roots sorted by position, so there is one
    entry per chain of roots of I(d), however many betas or longer chains
    ask for it."""
    violations = validate_skew_pair(psi_inv(*chain_pair(chain, d)))
    if violations:
        raise InvalidPair("; ".join(violations))
    if any(r == c for r, c in chain):
        raise VanishingColumn("a column with equal entries has no sign")
    points = tuple(sorted(chain))
    full = 2 * d + 1
    if points[0][0] < points[0][1]:
        (r, c), rest = points[-1], points[:-1]
        parent = chain_image(rest, d) if rest else EMPTY_BITABLEAU
        return forward_step(parent, r, c, full - r, full - c)
    (r, c), rest = points[0], points[1:]
    parent = iota(chain_image(rest, d)) if rest else EMPTY_BITABLEAU
    return iota(forward_step(parent, c, r, full - c, full - r))


@lru_cache(maxsize=None)
def _signed_chains(beta, sign):
    """Each chain of roots of beta of one sign, as enumerate_extended_chains
    yields it, mapped to (w, operand).  The up set (MINUS) or down set (PLUS)
    of the chain image gives pairs (x, y); w is beta with the seconds taken
    out and the firsts put in, and must be <= beta (MINUS) or >= beta (PLUS);
    operand is the pairs' counting-order operand.  Memoised per (beta, sign)."""
    minus = sign is ChainSign.MINUS
    table = {}
    for chain in enumerate_extended_chains(split_chain(roots_of(beta), beta)[0 if minus else 1]):
        image = chain_image(chain, beta.d)
        pairs = up_of(image) if minus else down_of(image)
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


def _half_bound(bound, beta, sign):
    """T (sign MINUS, bound alpha) or W (sign PLUS, bound gamma): the i-th
    smallest element of bound - beta paired with the i-th smallest of
    beta - bound.  T must be a negative plane set and W a positive one."""
    vset, bset = set(bound.entries), set(beta.entries)
    points = plane_multiset(zip(sorted(vset - bset), sorted(bset - vset)))
    if sign is ChainSign.MINUS and not is_signed_plane_set(points, -1):
        raise SignAssertionFailure(f"T = {points} is not negative")
    if sign is ChainSign.PLUS and not is_signed_plane_set(points, +1):
        raise SignAssertionFailure(f"W = {points} is not positive")
    return points


def _check_triple(alpha, beta, gamma):
    if not (id_leq(alpha, beta) and id_leq(beta, gamma)):
        raise BoundsNotComparable(
            f"need alpha <= beta <= gamma, got {alpha.entries}, {beta.entries}, {gamma.entries}"
        )


def t_w_bounds(alpha, beta, gamma):
    """The bound pair (T, W) of the triple alpha <= beta <= gamma.

    T pairs the i-th smallest element of alpha - beta with the i-th smallest
    of beta - alpha (a negative plane set); W does the same with gamma and is
    positive.
    """
    _check_triple(alpha, beta, gamma)
    return _half_bound(alpha, beta, ChainSign.MINUS), _half_bound(gamma, beta, ChainSign.PLUS)


def chain_in_chains_set(chain, alpha, beta, gamma):
    """Membership of a chain in the defining set of the chain ideal: the
    negative part fails alpha <= w, or the positive part fails w <= gamma."""
    neg, pos = split_chain(chain, beta)
    if neg and not id_leq(alpha, w_of_chain(neg, beta, ChainSign.MINUS)):
        return True
    if pos and not id_leq(w_of_chain(pos, beta, ChainSign.PLUS), gamma):
        return True
    return False


@lru_cache(maxsize=None)
def _minimal_bad_chains(bound, beta, sign):
    """The inclusion-minimal bad chains among the chains of roots of beta of
    one sign, as frozensets: the negative half of a triple (bound alpha) or
    its positive half (bound gamma).

    Every chain of the sign is decided by both routes: chain_in_chains_set,
    with beta standing in for the bound of the other sign, which a sign-pure
    chain never reads; and boundedness of the chain's image, T <= up for a
    negative chain and down <= W for a positive one.  The two must agree.
    Memoised: a half is decided once, however many triples share it, so the
    cache holds at most 2 |I(d)|^2 entries per d."""
    minus = sign is ChainSign.MINUS
    limit = plane_diff(_half_bound(bound, beta, sign))
    alpha, gamma = (bound, beta) if minus else (beta, bound)
    bad = []
    for chain, (_, operand) in _signed_chains(beta, sign).items():
        in_set = chain_in_chains_set(chain, alpha, beta, gamma)
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


__all__ = [
    "ChainSign",
    "IdElement",
    "Region",
    "chain_image",
    "chain_in_chains_set",
    "chain_pair",
    "defining_chains",
    "enumerate_extended_chains",
    "enumerate_id",
    "hash_reflect",
    "id_leq",
    "is_quotient_monomial",
    "region_of",
    "roots_of",
    "split_chain",
    "t_w_bounds",
    "w_of_chain",
]
