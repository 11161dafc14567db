"""Pfaffian generators, degreewise initial monomials, and the main check.

Fix a triple alpha <= beta <= gamma in I(d).  The ideal is generated by the
Pfaffians f(theta) over all theta in I(d) failing alpha <= theta or
theta <= gamma.  The main check confirms, degree by degree, that the leading
monomials of the ideal are exactly the root monomials covering a bad chain
of the triple, and that the standard monomials (products of Pfaffians indexed
by multichains through the interval) complement the ideal slice exactly.

The term order and every f(theta) depend on beta alone, so they are derived
from beta and shared by every triple with that beta.  Every f(theta), and
every product of them, has integer coefficients; rationals appear only in
elimination, where _rref normalises a pivot row.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add

from .errors import ColumnNotInBeta, DimensionMismatch, OddSize, VerificationError
from .grassmannian import Region, defining_chains, enumerate_id, id_leq, region_of
# perfbench/tracing.py patches ideal.is_quotient_monomial, so the name stays importable here
from .grassmannian import is_quotient_monomial  # noqa: F401
from .polynomials import SparsePoly, term_order


class EntryKind(Enum):
    UNIT = "unit"
    OFFUNIT = "offunit"
    ZERO = "zero"
    VAR = "var"
    NEGVAR = "negvar"


@dataclass(frozen=True)
class PatchEntry:
    kind: EntryKind
    root: tuple | None = None  # the variable, for VAR / NEGVAR


def patch_entry(beta, r, c):
    """Entry (r, c) of the patch matrix of beta.

    Rows indexed by 1..2d; columns only by beta.  Rows inside beta carry the
    identity; a row r outside beta carries the variable X(r, c) left of the
    antidiagonal, 0 on it, and minus the reflected variable below it.
    """
    if c not in beta.entries:
        raise ColumnNotInBeta(f"column {c} is not in beta = {beta.entries}")
    if not (1 <= r <= 2 * beta.d):
        raise DimensionMismatch(f"row {r} outside 1..{2 * beta.d}")
    if r in beta.entries:
        return PatchEntry(EntryKind.UNIT if r == c else EntryKind.OFFUNIT)
    reg = region_of(beta, r, c)
    if reg is Region.DIAG:
        return PatchEntry(EntryKind.ZERO)
    if reg is Region.BELOW:
        full = 2 * beta.d + 1
        return PatchEntry(EntryKind.NEGVAR, (full - c, full - r))
    return PatchEntry(EntryKind.VAR, (r, c))


def _entry_poly(order, r, c):
    beta = order.beta
    e = patch_entry(beta, r, c)
    if e.kind is EntryKind.UNIT:
        return SparsePoly.constant(order, 1)
    if e.kind in (EntryKind.OFFUNIT, EntryKind.ZERO):
        return SparsePoly.zero(order)
    sign = 1 if e.kind is EntryKind.VAR else -1
    return SparsePoly.variable(order, e.root, sign)


def pfaffian(a):
    """Combinatorial Pfaffian of a skew-symmetric matrix of polynomials,
    expanded along the first row."""
    n = len(a)
    if n == 0:
        raise OddSize("empty matrix: use the constant 1 directly")
    order = a[0][0].order
    if n % 2:
        raise OddSize(f"Pfaffian of odd size {n}")

    def rec(indices):
        if not indices:
            return SparsePoly.constant(order, 1)
        i0 = indices[0]
        total = SparsePoly.zero(order)
        for pos in range(1, len(indices)):
            j = indices[pos]
            entry = a[i0][j]
            if entry.is_zero:
                continue
            rest = indices[1:pos] + indices[pos + 1:]
            sign = 1 if pos % 2 else -1
            total = total + sign * (entry * rec(rest))
        return total

    return rec(tuple(range(n)))


def determinant(a, order):
    """Leibniz determinant of a square matrix of polynomials (small sizes)."""
    n = len(a)
    total = SparsePoly.zero(order)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = SparsePoly.constant(order, sign)
        for i in range(n):
            prod = prod * a[i][perm[i]]
            if prod.is_zero:
                break
        total = total + prod
    return total


def pfaffian_matrix(theta, beta, order):
    """The skew-symmetric matrix of the pair (theta, beta): rows theta - beta
    ascending, columns beta - theta ascending reversed, read off the patch."""
    rows = sorted(set(theta.entries) - set(beta.entries))
    cols = sorted(set(beta.entries) - set(theta.entries))
    n = len(rows)
    if n != len(cols):
        raise DimensionMismatch(f"{len(rows)} rows vs {len(cols)} columns")
    if n % 2:
        raise OddSize(f"odd difference size {n} for theta, beta in I(d)")
    a = [[_entry_poly(order, rows[i], cols[n - 1 - j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if not a[i][i].is_zero:
            raise VerificationError(f"diagonal entry ({rows[i]}, {cols[n - 1 - i]}) not zero")
        for j in range(i + 1, n):
            if not (a[i][j] + a[j][i]).is_zero:
                raise VerificationError(f"matrix not skew-symmetric at ({i}, {j})")
    return a


@lru_cache(maxsize=None)
def pfaffian_generator(theta, beta):
    """The Pfaffian polynomial f(theta) attached to theta relative to beta,
    over term_order(beta).  Memoised: the cache holds at most |I(d)|^2
    entries per d, 256 at d = 5 and 16,384 at d = 8."""
    order = term_order(beta)
    if theta.entries == beta.entries:
        return SparsePoly.constant(order, 1)
    return pfaffian(pfaffian_matrix(theta, beta, order))


def beta_degree(theta, beta):
    """Half the size of beta - theta; the degree of f(theta)."""
    return len(set(beta.entries) - set(theta.entries)) // 2


def generators(alpha, beta, gamma):
    """The Pfaffians f(theta) over theta in I(d) with alpha not <= theta or
    theta not <= gamma; returned as (theta, polynomial) pairs."""
    out = []
    for theta in enumerate_id(beta.d):
        if not (id_leq(alpha, theta) and id_leq(theta, gamma)):
            out.append((theta, pfaffian_generator(theta, beta)))
    return out


# -- exact linear algebra on degree slices -----------------------------------


def slice_size(nvars, m):
    """The number of monomials of degree m in nvars variables."""
    return comb(nvars + m - 1, m) if nvars else (1 if m == 0 else 0)


@lru_cache(maxsize=None)
def monomials_of_degree(nvars, m):
    """All exponent tuples of total degree m.  Memoised: every beta of I(d)
    has d(d-1)/2 roots, so there is one entry per degree and d."""
    if nvars == 0:
        return ((),) if m == 0 else ()
    out = []
    for cuts in itertools.combinations(range(m + nvars - 1), nvars - 1):
        prev = -1
        exps = []
        for cut in cuts:
            exps.append(cut - prev - 1)
            prev = cut
        exps.append(m + nvars - 2 - prev)
        out.append(tuple(exps))
    return tuple(out)


def _top_reduce(row, basis):
    """Subtract pivot rows of basis from row until its leading column has no
    pivot; returns the remainder as a sparse row, empty when row reduces to
    zero.  The input row is not changed."""
    if not row or row[0][0] not in basis:
        return row
    acc = dict(row)
    todo = [c for c, _ in row]  # sorted, hence already a heap
    while todo:
        col = heapq.heappop(todo)
        x = acc.pop(col)
        if not x:
            continue
        pivot_row = basis.get(col)
        if pivot_row is None:
            acc[col] = x
            return sorted((c, v) for c, v in acc.items() if v)
        for c, y in pivot_row[1:]:
            old = acc.get(c)
            if old is None:
                acc[c] = -x * y
                heapq.heappush(todo, c)
            else:
                acc[c] = old - x * y
    return []


def _rref(rows):
    """Sparse echelon form over the rationals.

    Each row is a list of (column, coefficient) pairs, coefficients nonzero
    ints or Fractions and columns ascending, so row[0] is its leading term.
    Every row is top-reduced against the pivot rows found so far, keyed by
    pivot column; a nonzero remainder is normalised to leading coefficient 1
    and becomes the pivot row of its leading column.  This is the one place
    a Fraction can arise from integer rows: a leading -1 is removed by
    negation, so those rows stay integer.  A row whose leading column has no
    pivot yet costs one lookup, so rows already in echelon form pass
    straight through.  rows is replaced by the pivot rows in column order;
    returns the sorted pivot columns."""
    basis = {}
    for row in rows:
        row = _top_reduce(row, basis)
        if not row:
            continue
        lead = row[0][1]
        if lead == -1:
            row = [(c, -x) for c, x in row]
        elif lead != 1:
            inv = Fraction(1) / lead
            row = [(c, x * inv) for c, x in row]
        basis[row[0][0]] = row
    pivots = sorted(basis)
    rows[:] = [basis[c] for c in pivots]
    return pivots


class DegreeSlice:
    """The degree-m piece of the ideal in echelon form by sparse exact
    rational elimination, against the monomial basis sorted greatest first
    (column 0 is the greatest monomial)."""

    def __init__(self, gens, m, order):
        self.order = order
        self.m = m
        self.monos = sorted(monomials_of_degree(order.nvars, m), key=order.mono_key, reverse=True)
        self.col = col = {mono: i for i, mono in enumerate(self.monos)}
        rows = []
        for _, g in gens:
            if g.is_zero:
                continue
            dg = g.degree()
            if dg > m:
                continue
            # multiplying by a monomial keeps the order of g's terms, so
            # each row comes out sorted by column
            for mult in monomials_of_degree(order.nvars, m - dg):
                rows.append([(col[tuple(map(add, mono, mult))], coeff) for mono, coeff in g.terms])
        self.rows = rows
        self.pivots = _rref(self.rows)

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def total(self):
        return slice_size(self.order.nvars, self.m)

    def initial_monomials(self):
        return {self.monos[j] for j in self.pivots}

    def vector_of(self, poly):
        """The sparse row of a degree-m polynomial."""
        for mono, _ in poly.terms:
            if sum(mono) != self.m:
                raise DimensionMismatch(f"monomial of degree {sum(mono)} in a degree-{self.m} slice")
        return sorted((self.col[mono], coeff) for mono, coeff in poly.terms)

    def rank_with(self, polys):
        """Rank of the slice extended by the given degree-m polynomials."""
        return len(_rref(list(self.rows) + [self.vector_of(p) for p in polys]))


@lru_cache(maxsize=None)
def _support_masks(nvars, m):
    """The support of each monomial of monomials_of_degree(nvars, m), in the
    same order, as a bitmask: bit i is set when variable i occurs.  Memoised
    like monomials_of_degree."""
    return tuple(sum(1 << i for i, e in enumerate(mono) if e) for mono in monomials_of_degree(nvars, m))


def chains_monomials_degree(alpha, beta, gamma, m):
    """Degree-m root monomials whose support contains a bad chain of the
    triple; the combinatorial prediction for the initial monomials.

    The minimal bad chains of defining_chains, decided once per half of the
    triple, become bitmasks over the variable indices of term_order(beta); a
    monomial is kept when its support mask covers one of them."""
    order = term_order(beta)
    bad, _ = defining_chains(alpha, beta, gamma)
    masks = [sum(1 << order.index[v] for v in chain) for chain in bad]
    return {
        mono
        for mono, support in zip(monomials_of_degree(order.nvars, m), _support_masks(order.nvars, m))
        if any(support & mask == mask for mask in masks)
    }


def _multichain_levels(alpha, beta, gamma):
    """Yields the lists of standard_monomials of degree 0, 1, 2, ... without
    end.  A multichain of degree m is one of degree m - beta_degree(theta)
    ending at or below theta, or the empty one with alpha <= theta, extended
    by theta; so each degree is built from the last few, which are all that
    is kept, and no recursion grows with m."""
    candidates = [
        (theta, beta_degree(theta, beta))
        for theta in enumerate_id(beta.d)
        if theta.entries != beta.entries
        and (id_leq(theta, beta) or id_leq(beta, theta))
        and id_leq(theta, gamma)
    ]
    level = [()]
    lower = deque(maxlen=max((deg for _, deg in candidates), default=1))
    while True:
        yield level
        lower.append(level)  # lower[-k]: the level k below the next one
        level = [
            prefix + (theta,)
            for theta, deg in candidates
            if deg <= len(lower)
            for prefix in lower[-deg]
            if id_leq(prefix[-1] if prefix else alpha, theta)
        ]


def standard_monomials(alpha, beta, gamma, m):
    """Multichains theta_1 <= ... <= theta_r through the interval: every
    theta_i comparable to and distinct from beta, alpha <= theta_1,
    theta_r <= gamma, with beta-degrees summing to m."""
    return next(itertools.islice(_multichain_levels(alpha, beta, gamma), m, None))


def standard_products(alpha, beta, gamma):
    """Yields, for m = 0, 1, 2, ... without end, the degree-m standard
    monomials and their products of f(theta).  Each product is its prefix's
    product times f of its last theta, and the prefix, of lower degree, has
    been built already; the products live in a dict local to the generator."""
    products = {(): SparsePoly.constant(term_order(beta), 1)}
    for level in _multichain_levels(alpha, beta, gamma):
        for thetas in level:
            if thetas:
                products[thetas] = products[thetas[:-1]] * pfaffian_generator(thetas[-1], beta)
        yield level, [products[thetas] for thetas in level]


def standard_poly(thetas, beta):
    """The product of f(theta) over a multichain."""
    prod = SparsePoly.constant(term_order(beta), 1)
    for theta in thetas:
        prod = prod * pfaffian_generator(theta, beta)
    return prod


# -- the main check ----------------------------------------------------------


@dataclass
class DegreeReport:
    m: int
    total: int
    n_initial: int
    n_chains: int
    n_standard: int
    initial_matches_chains: bool
    counts_match: bool
    standard_independent: bool

    @property
    def passed(self):
        return self.initial_matches_chains and self.counts_match and self.standard_independent


@dataclass
class VerifyReport:
    alpha: object
    beta: object
    gamma: object
    degrees: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.degrees)


def verify_main_theorem(alpha, beta, gamma, max_degree):
    """Check, for each degree up to max_degree, that the initial monomials of
    the Pfaffian ideal are exactly the chain monomials, and that the standard
    monomials span a complement of the ideal slice."""
    order = term_order(beta)
    gens = generators(alpha, beta, gamma)
    report = VerifyReport(alpha, beta, gamma)
    standard = itertools.islice(standard_products(alpha, beta, gamma), 1, None)
    for m, (std, std_polys) in zip(range(1, max_degree + 1), standard):
        slice_m = DegreeSlice(gens, m, order)
        initial = slice_m.initial_monomials()
        chains = chains_monomials_degree(alpha, beta, gamma, m)
        counts = len(std) == slice_m.total - slice_m.dim and len(initial) == slice_m.dim
        independent = slice_m.rank_with(std_polys) == slice_m.dim + len(std)
        report.degrees.append(
            DegreeReport(
                m=m,
                total=slice_m.total,
                n_initial=len(initial),
                n_chains=len(chains),
                n_standard=len(std),
                initial_matches_chains=initial == chains,
                counts_match=counts,
                standard_independent=independent,
            )
        )
    return report


def hilbert_counts(alpha, beta, gamma, max_degree):
    """Quotient dimensions by degree: (total, ideal dim, quotient dim)."""
    order = term_order(beta)
    gens = generators(alpha, beta, gamma)
    out = []
    for m in range(max_degree + 1):
        slice_m = DegreeSlice(gens, m, order)
        out.append((m, slice_m.total, slice_m.dim, slice_m.total - slice_m.dim))
    return out
