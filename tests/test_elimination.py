"""The sparse elimination of degree slices, checked against sympy's dense
rref as an independent reference."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from obrsk.grassmannian import IdElement, enumerate_id, id_leq  # noqa: E402
from obrsk.ideal import (  # noqa: E402
    DegreeSlice,
    _rref,
    generators,
    monomials_of_degree,
    pfaffian_generator,
    standard_monomials,
    standard_poly,
)
from obrsk.polynomials import SparsePoly, term_order  # noqa: E402
from oracles import constant, initial_monomials, slice_columns, variable, vector_of  # noqa: E402


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.just(0), st.integers(-3, 3)), min_size=6, max_size=6), max_size=7))
def test_rref_on_integer_rows_matches_fraction_rows(dense):
    # products of Pfaffians reach elimination with int coefficients; they
    # must reduce exactly as the same rows given as Fractions
    int_rows = [[(j, x) for j, x in enumerate(row) if x] for row in dense]
    fraction_rows = [[(j, Fraction(x)) for j, x in row] for row in int_rows]
    assert _rref(int_rows) == _rref(fraction_rows)
    # equal pivot rows, value by value: the same echelon form, so the same
    # row space
    assert int_rows == fraction_rows
    assert all(row[0][1] == 1 for row in int_rows)


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
    order = term_order(beta)
    gens = generators(alpha, beta, gamma)
    for m in (1, 2, 3):
        dense, monos = dense_slice(gens, m, order)
        pivots = sympy_matrix(dense, len(monos)).rref()[1] if dense else ()
        assert initial_monomials(DegreeSlice(beta, gens, m)) == {monos[j] for j in pivots}


def test_rank_with_leaves_the_slice_unchanged():
    alpha, beta, gamma = (ide(t, 4) for t in D4_TRIPLES[3])
    gens = generators(alpha, beta, gamma)
    s = DegreeSlice(beta, gens, 2)
    position = {v: i for i, v in enumerate(enumerate_id(4))}
    chains = standard_monomials(alpha, beta, gamma, 2)
    std = [standard_poly(tuple(map(position.get, thetas)), beta, 2) for thetas in chains]
    dim, rows, row_ids = s.dim, [list(r) for r in s.rows], [id(r) for r in s.rows]
    assert std and s.dim
    first = s.rank_with(std)
    assert first == s.rank_with(std) == dim + len(std)
    assert s.dim == dim and s.rows == rows and [id(r) for r in s.rows] == row_ids
    # a multiple of a generator lies in the slice and adds nothing
    g = min((g for _, g in gens if not g.is_zero), key=SparsePoly.degree)
    order = term_order(beta)
    x = variable(order, order.variables[0])
    while g.degree() < 2:
        g = g * x
    assert s.rank_with([vector_of(g, slice_columns(order.nvars, 2))]) == dim


@pytest.mark.parametrize("extra", ["degree two", "coefficient -3", "constant", "zero", "all"])
def test_one_term_generators_among_pfaffians_match_sympy(extra):
    # the five Pfaffians of degree two of beta = 1,2,3,4,5 have three terms
    # each; next to them come one-term generators: a dead variable, one of
    # degree 1, has its columns cleared, and any other enters as rows
    beta = ide((1, 2, 3, 4, 5), 5)
    order = term_order(beta)
    pfaffians = [f for f in (pfaffian_generator(t, beta) for t in enumerate_id(5)) if f.degree() == 2]
    assert len(pfaffians) == 5 and all(len(g.terms) == 3 for g in pfaffians)
    x = [variable(order, v) for v in order.variables]
    hand = {
        "degree two": x[0] * x[3],
        "coefficient -3": variable(order, order.variables[1], -3),
        "constant": constant(order, 2),
        "zero": SparsePoly.zero(order),
    }
    gens = [(None, g) for g in pfaffians + (list(hand.values()) if extra == "all" else [hand[extra]])]
    for m in (2, 3):
        dense, monos = dense_slice(gens, m, order)
        s = DegreeSlice(beta, gens, m)
        assert initial_monomials(s) == {monos[j] for j in sympy_matrix(dense, len(monos)).rref()[1]}
        # degree-m polynomials with terms in cleared columns and outside them,
        # one of them in the ideal
        lift = x[2] if m == 3 else constant(order, 1)
        polys = [(x[0] + x[9]) * x[9] * lift, (x[1] - x[4]) * x[9] * lift, pfaffians[0] * lift, x[8] * x[9] * lift]
        rows = [[Fraction(0)] * len(monos) for _ in polys]
        col = {mono: j for j, mono in enumerate(monos)}
        for row, p in zip(rows, polys):
            for mono, coeff in p.terms:
                row[col[mono]] = Fraction(coeff)
        expected = len(sympy_matrix(dense + rows, len(monos)).rref()[1])
        assert s.rank_with([vector_of(p, col) for p in polys]) == expected
