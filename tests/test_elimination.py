"""The sparse elimination of degree slices, checked against sympy's dense
rref as an independent reference."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from obrsk.grassmannian import IdElement, id_leq  # noqa: E402
from obrsk.ideal import (  # noqa: E402
    DegreeSlice,
    _rref,
    generators,
    monomials_of_degree,
    standard_monomials,
    standard_poly,
)
from obrsk.polynomials import SparsePoly, TermOrder  # noqa: E402


def ide(entries, d):
    return IdElement(tuple(entries), d)


def sparse(dense_row):
    return [(j, Fraction(x)) for j, x in enumerate(dense_row) if x != 0]


def sympy_matrix(dense, ncols):
    flat = [sympy.Rational(x.numerator, x.denominator) for row in dense for x in row]
    return sympy.Matrix(len(dense), ncols, flat)


# about half the entries zero, so rows are sparse and pivots get skipped
entries = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


@st.composite
def rational_matrices(draw):
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(0, 7))
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)], ncols


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
# reducing the second row cancels its last entry behind the new leading term
@example(([[Fraction(x) for x in row] for row in ((1, 0, 1), (1, 1, 1))], 3))
def test_rref_pivots_match_sympy(matrix):
    dense, ncols = matrix
    rows = [sparse(r) for r in dense]
    pivots = _rref(rows)
    reference = sympy_matrix(dense, ncols)
    assert pivots == list(reference.rref()[1])
    # rows now holds one normalised row per pivot, spanning the same space
    assert [row[0] for row in rows] == [(p, 1) for p in pivots]
    assert all(row == sorted(row) and all(x != 0 for _, x in row) for row in rows)
    echelon = [[Fraction(0)] * ncols for _ in rows]
    for out, row in zip(echelon, rows):
        for j, x in row:
            out[j] = x
    assert sympy_matrix(dense + echelon, ncols).rank() == len(pivots)


@settings(max_examples=50, deadline=None)
@given(rational_matrices())
def test_rref_leaves_echelon_rows_unchanged(matrix):
    dense, _ = matrix
    rows = [sparse(r) for r in dense]
    pivots = _rref(rows)
    echelon = list(rows)
    assert _rref(rows) == pivots
    assert rows == echelon


# triples of I(4), the first being one whose Pfaffians are not a Groebner
# basis (an extra leading monomial in degree 2)
D4_TRIPLES = [
    ((1, 2, 3, 4), (1, 2, 3, 4), (2, 4, 6, 8)),
    ((1, 2, 3, 4), (2, 4, 6, 8), (5, 6, 7, 8)),
    ((1, 2, 3, 4), (1, 3, 5, 7), (5, 6, 7, 8)),
    ((1, 3, 5, 7), (2, 4, 6, 8), (3, 4, 7, 8)),
    ((1, 2, 5, 6), (1, 3, 5, 7), (2, 4, 6, 8)),
]


def dense_slice(gens, m, order):
    """The degree-m Macaulay matrix, one dense row per generator times
    monomial, columns the degree-m monomials greatest first."""
    monos = sorted(monomials_of_degree(order.nvars, m), key=order.mono_key, reverse=True)
    col = {mono: j for j, mono in enumerate(monos)}
    dense = []
    for _, g in gens:
        if g.is_zero or g.degree() > m:
            continue
        for mult in monomials_of_degree(order.nvars, m - g.degree()):
            row = [Fraction(0)] * len(monos)
            for mono, coeff in g.terms:
                row[col[tuple(x + y for x, y in zip(mono, mult))]] += coeff
            dense.append(row)
    return dense, monos


@pytest.mark.parametrize("triple", D4_TRIPLES)
def test_initial_monomials_match_sympy_d4(triple):
    alpha, beta, gamma = (ide(t, 4) for t in triple)
    assert id_leq(alpha, beta) and id_leq(beta, gamma)
    order = TermOrder(beta)
    gens = generators(alpha, beta, gamma, order)
    for m in (1, 2, 3):
        dense, monos = dense_slice(gens, m, order)
        pivots = sympy_matrix(dense, len(monos)).rref()[1] if dense else ()
        assert DegreeSlice(gens, m, order).initial_monomials() == {monos[j] for j in pivots}


def test_rank_with_leaves_the_slice_unchanged():
    alpha, beta, gamma = (ide(t, 4) for t in D4_TRIPLES[3])
    order = TermOrder(beta)
    gens = generators(alpha, beta, gamma, order)
    s = DegreeSlice(gens, 2, order)
    std = [standard_poly(thetas, beta, order) for thetas in standard_monomials(alpha, beta, gamma, 2)]
    dim, rows, row_ids = s.dim, [list(r) for r in s.rows], [id(r) for r in s.rows]
    assert std and s.dim
    first = s.rank_with(std)
    assert first == s.rank_with(std) == dim + len(std)
    assert s.dim == dim and s.rows == rows and [id(r) for r in s.rows] == row_ids
    # a multiple of a generator lies in the slice and adds nothing
    g = min((g for _, g in gens if not g.is_zero), key=SparsePoly.degree)
    x = SparsePoly.variable(order, order.variables[0])
    while g.degree() < 2:
        g = g * x
    assert s.rank_with([g]) == dim

