"""Pfaffian generators, degreewise initial monomials, and the main check.

Fix a triple alpha <= beta <= gamma in I(d).  The ideal is generated by the
Pfaffians f(theta) over the theta in I(d) that a half of the triple leaves
out.  One memo, grassmannian._half, holds each half's left-out theta, the
theta its multichains run through and its minimal bad chains: the negative
half (alpha, beta) leaves out each theta with alpha not <= theta and runs
through alpha <= theta < beta, and the positive half (beta, gamma) is its
mirror.  generators, _multichain_levels and defining_chains each join the
two halves' fields, so each half is computed once.  The main check
confirms, degree by degree, that the leading monomials of the ideal are
exactly the root monomials covering a bad chain of the triple, and that the
standard monomials (products of Pfaffians indexed by multichains through
the interval) complement the ideal slice exactly.

Each f(theta) is the Pfaffian of the skew-symmetric matrix on beta - theta
whose entry (x, y), for x > y, is the variable of the root (x*, y), where
x* = 2d+1-x.  It is built straight from the perfect matchings of beta -
theta (_BetaTable.pfaffian): each matching is one term, a product of such
variables with the sign of its crossings, and no two matchings give the
same monomial.  So f(theta) is homogeneous of degree |beta - theta| / 2,
which the one degree rule, SparsePoly.degree, reads off its leading term,
and its terms are sorted once, by monomial alone.

Each input of the check is derived once at its key, behind one memo, and
shared by every triple that needs it.  The term order (term_order) is kept
per beta, and so is one table of what the ideal layer derives from beta
(_beta_table): read by position in I(d), it holds each f(theta) with its
degree, built on first use, and the sparse row of each product of them per
(multichain, degree).  pfaffian_generator and standard_poly read it by
element; the degree loop fetches it once per call and reads it by position,
so no element is hashed per Pfaffian or per product.  Nothing takes a term
order as a parameter.  A degree slice's monomials and column map are kept
per (number of variables, degree) (_slice_columns), and the columns of a
monomial times every multiplier per (monomial, degree) (_shifted_columns).
Every f(theta), and every product of them, has integer coefficients;
rationals appear only in elimination, where _rref normalises a pivot row.

The degree loop of the main check works on columns and positions, not on
polynomials and elements.  A multichain is a tuple of positions in
enumerate_id(d), grown by lookups in the up sets of
grassmannian._id_poset, and a triple's multichains of degree 0 to
max_degree are one table (_multichain_levels), each level built from the
levels below it and read by degree; standard_monomials alone turns
positions back into elements.  A product of Pfaffians is built straight as its sparse row
in the slice of its degree, its prefix's row times one Pfaffian, so
rank_with takes rows and no product polynomial is sorted by the term
order; the degree is the multichain's level, handed down.  The chain
monomials are taken once per triple, and each degree compares the set of
pivot columns with the set of their multiples (_multiples).

A slice has one special case, its dead variables.  Each f(theta) with
|beta - theta| = 2 is plus or minus one variable, a dead variable, and
spans every multiple of it; so DegreeSlice counts the columns of those
multiples (_multiples) among its pivots and builds no row that holds a
dead variable.
Every other generator enters as its live terms times the live multipliers,
and only those rows are eliminated.

The chain prediction rests on the same rule, stated once: _multiples, the
columns of a slice that are multiples of one of a set of monomials.  The
chain ideal is squarefree, generated by the products of the roots of each
minimal bad chain, so its degree-m piece is the multiples of those chain
monomials, one union over the chains; no monomial of the slice is tested on
its own.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, sub

from .errors import DimensionMismatch, ValidationError, VerificationError
from .grassmannian import _check_triple, _half, _id_poset, defining_chains, enumerate_id
# perfbench/tracing.py patches ideal.is_quotient_monomial, so the name stays importable here
from .grassmannian import is_quotient_monomial  # noqa: F401
from .polynomials import SparsePoly, term_order


class _BetaTable:
    """What the ideal layer derives from beta alone, read by position in
    I(d): at the position of each theta, f(theta) and its degree, built on
    first use (pfaffian); and the sparse row of each product of Pfaffians
    per (multichain, degree) (row).  One table per beta (_beta_table)
    serves every triple of that beta."""

    def __init__(self, beta):
        self.beta = beta
        self.order = term_order(beta)
        self.elements = enumerate_id(beta.d)
        self.pfaffians = [None] * len(self.elements)
        self.rows = {}

    def pfaffian(self, t):
        """(f(theta), its degree) for the theta at position t: the signed
        sum over the perfect matchings of beta - theta, expanded along the
        first row with the keys greatest first.  Pairing the first key x
        with the key y at position pos contributes the variable of the root
        (x*, y), x* = 2d+1-x, and the sign alternates with pos.  No two
        matchings share a monomial and all have one degree, so each finished
        matching is one term and the terms sort by monomial alone, greatest
        first; theta = beta is the empty matching, the constant 1."""
        entry = self.pfaffians[t]
        if entry is not None:
            return entry
        beta, order = self.beta, self.order
        index = order.index
        full = 2 * beta.d + 1
        terms = []

        def expand(keys, sign, mono):
            if not keys:
                terms.append((tuple(mono), sign))
                return
            x = keys[0]
            for pos in range(1, len(keys)):
                i = index[full - x, keys[pos]]
                mono[i] = 1
                expand(keys[1:pos] + keys[pos + 1:], sign if pos % 2 else -sign, mono)
                mono[i] = 0

        expand(sorted(set(beta.entries) - set(self.elements[t].entries), reverse=True), 1, [0] * order.nvars)
        terms.sort(reverse=True)
        f = SparsePoly(order, tuple(terms))
        entry = self.pfaffians[t] = (f, f.degree())
        return entry

    def row(self, thetas, m):
        """The product of f(theta) over the multichain thetas, a tuple of
        positions in I(d), as its sparse row in the slice of its degree m,
        which the caller knows from the multichain's level: a tuple of
        (column, coefficient) pairs, columns ascending, coefficients nonzero
        ints.  The row is its prefix's row times f of the last theta, and
        the prefix has degree m less the degree of f: a term t of f, of
        degree k, takes column j of the prefix, the j-th monomial of degree
        m - k, to _shifted_columns(t, m)[j], the column of t times that
        monomial.  The empty multichain is the constant 1, column 0 of the
        degree-0 slice, in degree 0 only: a wrong degree recurses down to it
        and raises VerificationError there, so no row is kept under it.
        Kept per (multichain, m), so every triple of the beta shares the
        products of their common multichains; verify_main_theorem asks for
        the prefix, of lower degree, first, so the recursion is one call
        deep."""
        if not thetas:
            if m != 0:
                raise VerificationError(f"the empty multichain has degree 0, not {m}")
            return ((0, 1),)
        key = (thetas, m)
        row = self.rows.get(key)
        if row is not None:
            return row
        f, k = self.pfaffian(thetas[-1])
        prefix = self.row(thetas[:-1], m - k)
        acc = {}
        for mono, c in f.terms:
            cols = _shifted_columns(mono, m)
            for j, x in prefix:
                col = cols[j]
                acc[col] = acc.get(col, 0) + c * x
        row = self.rows[key] = tuple(sorted((col, x) for col, x in acc.items() if x))
        return row


@lru_cache(maxsize=None)
def _beta_table(beta):
    """The one _BetaTable of beta; at most |I(d)| tables per d."""
    return _BetaTable(beta)


def pfaffian_generator(theta, beta):
    """The Pfaffian polynomial f(theta) attached to theta relative to beta,
    over term_order(beta): the signed sum over the perfect matchings of
    beta - theta (_BetaTable.pfaffian), read from the table of beta."""
    if theta.d != beta.d:
        raise DimensionMismatch(f"theta in I({theta.d}) against beta in I({beta.d})")
    return _beta_table(beta).pfaffian(_id_poset(beta.d)[1][theta.entries])[0]


def generators(alpha, beta, gamma):
    """(theta, f(theta)) for each theta that either half of the triple leaves
    out, once each in enumerate_id order: the join of the two halves.  The
    triple must satisfy alpha <= beta <= gamma (BoundsNotComparable
    otherwise): out of order, f(beta) = 1 would join the generators."""
    _check_triple(alpha, beta, gamma)
    elements = enumerate_id(beta.d)
    pfaffian = _beta_table(beta).pfaffian
    left_out = sorted({*_half(alpha, beta, -1).left_out, *_half(gamma, beta, +1).left_out})
    return [(elements[t], pfaffian(t)[0]) for t in left_out]


# -- exact linear algebra on degree slices -----------------------------------


def slice_size(nvars, m):
    """The number of monomials of degree m in nvars variables; 0 when m is
    negative."""
    return comb(nvars + m - 1, m) if nvars and m >= 0 else int(m == 0)


def monomials_of_degree(nvars, m):
    """All exponent tuples of total degree m, greatest first: within one
    degree TermOrder.mono_key compares the tuples alone.  Empty when m is
    negative."""
    if nvars == 0 or m < 0:
        return ((),) if (nvars, m) == (0, 0) else ()
    # exponent i is s_i - s_(i-1) over partial sums 0 = s_0 <= ... <= s_nvars = m;
    # the inner sums come in increasing order, hence so do the tuples
    sums = itertools.combinations_with_replacement(range(m + 1), nvars - 1)
    return tuple(reversed([tuple(map(sub, (*s, m), (0, *s))) for s in sums]))


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
    (column 0 is the greatest monomial).

    The one special case is the dead variables: those of the one-term
    generators of degree 1, each plus or minus one variable.  Such a
    generator spans every degree-m multiple of its variable, so those
    columns (_multiples) are kept as cleared and count among the pivots,
    and no row holding a dead variable is built.  Every other generator
    enters as its live terms, free of dead variables, times the live
    multipliers of its degree, and a generator with no live term is skipped.
    A live row holds no cleared column, so these rows go to _rref as built,
    and the pivots are the set of the cleared columns and _rref's pivots,
    the set full elimination finds.  A generator enters when its degree, its
    leading term's, is at most m."""

    def __init__(self, beta, gens, m):
        self.nvars = term_order(beta).nvars
        self.m = m
        gens = [g for _, g in gens if g.degree() <= m]
        dead = [g.terms[0][0] for g in gens if len(g.terms) == 1 and g.degree() == 1]
        dead_vars = [x.index(1) for x in dead]
        self.cleared = _multiples(dead, m)
        mults = {}  # the positions of the live multipliers in the slice of each degree
        rows = []
        for g in gens:
            terms = [(mono, c) for mono, c in g.terms if not any(map(mono.__getitem__, dead_vars))]
            if terms:
                k = m - g.degree()
                if k not in mults:
                    held = _multiples(dead, k)
                    mults[k] = [j for j in range(slice_size(self.nvars, k)) if j not in held]
                rows += _generator_rows(terms, mults[k], m)
        self.rows = rows
        self.pivots = self.cleared.union(_rref(self.rows))

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def total(self):
        return slice_size(self.nvars, self.m)

    def rank_with(self, rows):
        """Rank of the slice extended by the given sparse rows of degree-m
        polynomials, as _BetaTable.row builds them: each row loses its
        entries in cleared columns, and a row left empty is dropped."""
        rows = ([(c, x) for c, x in row if c not in self.cleared] for row in rows)
        return len(self.cleared) + len(_rref(self.rows + [row for row in rows if row]))


@lru_cache(maxsize=None)
def _slice_columns(nvars, m):
    """The monomials of degree m greatest first and the map from each to its
    column.  The order of the monomials is the same for every beta, so one
    entry per (nvars, m) serves every beta and every triple."""
    monos = monomials_of_degree(nvars, m)
    return monos, {mono: i for i, mono in enumerate(monos)}


@lru_cache(maxsize=None)
def _shifted_columns(mono, m):
    """The column in the degree-m slice of mono times each monomial of
    degree m - deg(mono), greatest first.  Memoised per (monomial, m): every
    Pfaffian with that term, and every chain with that product of roots,
    shares it, whatever its beta."""
    _, col = _slice_columns(len(mono), m)
    mults, _ = _slice_columns(len(mono), m - sum(mono))
    return tuple(col[tuple(map(add, mono, mult))] for mult in mults)


def _generator_rows(terms, mults, m):
    """The sparse rows in the degree-m slice of the polynomial whose terms,
    of one degree k and greatest first, are given: row i is it times the
    monomial at position mults[i] of degree m - k, read off each term's
    shifted columns and zipped with the coefficients.  Multiplying by a
    monomial keeps the order of the terms, so each row comes out sorted by
    column."""
    coeffs = [c for _, c in terms]
    shifted = [list(map(_shifted_columns(mono, m).__getitem__, mults)) for mono, _ in terms]
    return [list(zip(cols, coeffs)) for cols in zip(*shifted)]


def _check_degree(m):
    """Refuse a degree that is not a plain int: a float or a string would
    fail further in with a raw error, and True would run as degree 1."""
    if type(m) is not int:
        raise ValidationError(f"a degree must be a plain int, got {m!r}")


def _chain_exponents(alpha, beta, gamma):
    """The chain monomials of the triple: the exponent tuple over
    term_order(beta) of each minimal bad chain of defining_chains, its roots
    to the first power.  A root monomial lies in the chain ideal exactly
    when it is a multiple of one of them."""
    variables = term_order(beta).variables
    return [tuple([1 if v in chain else 0 for v in variables]) for chain in defining_chains(alpha, beta, gamma)]


def _multiples(monos, m):
    """The columns of the degree-m slice that are multiples of one of the
    exponent tuples monos: the union of their shifted columns.  A monomial
    of degree above m has no multiple of degree m and is skipped.  The dead
    columns of a slice and the chain prediction are both read here."""
    return set().union(*(_shifted_columns(mono, m) for mono in monos if sum(mono) <= m))


def chains_monomials_degree(alpha, beta, gamma, m):
    """Degree-m root monomials whose support contains a bad chain of the
    triple; the combinatorial prediction for the initial monomials, none
    when m is negative; m must be a plain int.  Such a support contains a
    minimal bad chain, so these are the monomials of the columns of
    _multiples, the rule the main check applies to columns."""
    _check_degree(m)
    monos, _ = _slice_columns(term_order(beta).nvars, m)
    return {monos[j] for j in _multiples(_chain_exponents(alpha, beta, gamma), m)}


def _multichain_levels(alpha, beta, gamma, max_degree):
    """The multichains of degree 0 to max_degree as one table: levels[m]
    lists those of degree m, each a tuple of positions in enumerate_id(d),
    as standard_monomials lists them.  A multichain of degree m is one of
    degree m - k ending at or below theta, or the empty one, extended by
    theta, where k >= 1 is the degree of f(theta), its leading term's; so
    each level is built from the levels below it, and no recursion grows
    with m.  Each theta is one of the two half intervals of _half, joined in
    enumerate_id order: the lexicographic order extends the entrywise one,
    so the negative half comes first.  Both intervals lie at or above alpha,
    so the first theta needs no comparison.  Its degree is read from the
    table of beta, and each comparison is a lookup in an up set of
    _id_poset."""
    up = _id_poset(beta.d)[2]
    pfaffian = _beta_table(beta).pfaffian
    candidates = [(t, pfaffian(t)[1]) for t in _half(alpha, beta, -1).interval + _half(gamma, beta, +1).interval]
    levels = [[()]]
    for m in range(1, max_degree + 1):
        levels.append([
            prefix + (t,)
            for t, deg in candidates
            if deg <= m
            for prefix in levels[m - deg]
            if not prefix or t in up[prefix[-1]]
        ])
    return levels


def standard_monomials(alpha, beta, gamma, m):
    """Multichains theta_1 <= ... <= theta_r through the interval: every
    theta_i comparable to and distinct from beta, alpha <= theta_1,
    theta_r <= gamma, with beta-degrees summing to m; none when m is
    negative, and m must be a plain int.  The triple must satisfy
    alpha <= beta <= gamma (BoundsNotComparable otherwise)."""
    _check_degree(m)
    _check_triple(alpha, beta, gamma)
    if m < 0:
        return []
    elements = enumerate_id(beta.d)
    return [tuple(elements[t] for t in thetas) for thetas in _multichain_levels(alpha, beta, gamma, m)[m]]


def standard_poly(thetas, beta, m):
    """The product of f(theta) over the multichain thetas, a tuple of
    positions in enumerate_id(beta.d), as its sparse row in the slice of its
    degree m (_BetaTable.row), read from the table of beta: a tuple of
    (column, coefficient) pairs, columns ascending.  A wrong degree raises
    VerificationError and keeps no row."""
    return _beta_table(beta).row(thetas, m)


# -- the main check ----------------------------------------------------------


@dataclass
class DegreeReport:
    m: int
    total: int
    n_initial: int
    n_chains: int
    n_standard: int
    initial_matches_chains: bool
    standard_independent: bool

    @property
    def counts_match(self):
        return self.n_standard == self.total - self.n_initial

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
    monomials span a complement of the ideal slice.  max_degree must be a
    plain int at least 1: a check of no degree would pass while saying
    nothing."""
    if type(max_degree) is not int or max_degree < 1:
        raise ValidationError(f"the main check needs an int max_degree >= 1, got {max_degree!r}")
    gens = generators(alpha, beta, gamma)
    chain_monos = _chain_exponents(alpha, beta, gamma)
    report = VerifyReport(alpha, beta, gamma)
    levels = _multichain_levels(alpha, beta, gamma, max_degree)
    row = _beta_table(beta).row
    for m in range(1, max_degree + 1):
        std = levels[m]
        slice_m = DegreeSlice(beta, gens, m)
        # the initial monomials are the pivots' monomials, one per column
        chains = _multiples(chain_monos, m)
        std_rows = [row(thetas, m) for thetas in std]
        independent = slice_m.rank_with(std_rows) == slice_m.dim + len(std)
        report.degrees.append(
            DegreeReport(
                m=m,
                total=slice_m.total,
                n_initial=slice_m.dim,
                n_chains=len(chains),
                n_standard=len(std),
                initial_matches_chains=slice_m.pivots == chains,
                standard_independent=independent,
            )
        )
    return report


def hilbert_counts(alpha, beta, gamma, max_degree):
    """Quotient dimensions by degree: (total, ideal dim, quotient dim), for
    degrees 0..max_degree; max_degree must be a plain int at least 0."""
    if type(max_degree) is not int or max_degree < 0:
        raise ValidationError(f"hilbert counts need an int max_degree >= 0, got {max_degree!r}")
    gens = generators(alpha, beta, gamma)
    out = []
    for m in range(max_degree + 1):
        slice_m = DegreeSlice(beta, gens, m)
        out.append((m, slice_m.total, slice_m.dim, slice_m.total - slice_m.dim))
    return out
