import itertools

import pytest
from fractions import Fraction

from obrsk.errors import ContextMismatch
from obrsk.grassmannian import IdElement, enumerate_id
from obrsk.polynomials import SparsePoly, TermOrder, term_order
from oracles import constant, order_disagreements, var_greater, variable


@pytest.fixture(scope="module")
def o5():
    return TermOrder(IdElement((1, 3, 4, 6, 9), 5))


def test_term_order_builds_for_all_beta_through_d5():
    for d in (2, 3, 4, 5):
        for beta in enumerate_id(d):
            order = TermOrder(beta)
            assert order.nvars == len(order.variables)


def test_term_order_agrees_with_the_paper_rules_through_d8():
    # the key sort against the case rules on every pair: each earlier
    # variable is greater than each later one and never the reverse
    pairs = 0
    for d in range(1, 9):
        for beta in enumerate_id(d):
            variables = term_order(beta).variables
            assert not order_disagreements(variables), beta
            pairs += len(variables) * (len(variables) - 1) // 2
    assert pairs == 66_036


def test_variables_are_the_roots(o5):
    assert set(o5.variables) == {
        (2, 1), (2, 3), (2, 4), (2, 6),
        (5, 1), (5, 3), (5, 4),
        (7, 1), (7, 3),
        (8, 1),
    }


def test_var_greater_rules():
    assert var_greater((2, 1), (2, 3))  # positive beats negative on a row
    assert var_greater((2, 4), (2, 6))  # negatives: smaller column wins
    assert var_greater((5, 4), (5, 3))  # positives on a row: larger column
    assert var_greater((2, 1), (5, 1))  # positive with smaller row beats all
    assert var_greater((5, 1), (2, 6))  # tie-break: 5 < 6
    assert var_greater((2, 3), (5, 1))  # tie-break: 5 > 3
    assert var_greater((2, 3), (8, 1))  # tie-break: 8 > 3


def test_var_greater_is_strict_and_total(o5):
    for mu, nu in itertools.combinations(o5.variables, 2):
        assert var_greater(mu, nu) != var_greater(nu, mu)
        assert not var_greater(mu, mu)


def monomial(order, *roots):
    """The exponent tuple of the product of the variables of the roots."""
    product = constant(order, 1)
    for root in roots:
        product = product * variable(order, root)
    ((mono, _),) = product.terms
    return mono


def test_mono_compare(o5):
    m1 = monomial(o5, (5, 1), (2, 1))
    m2 = monomial(o5, (5, 3), (5, 3))
    assert o5.mono_key(m1) > o5.mono_key(m2)  # X21 beats X53 lexicographically
    m3 = monomial(o5, (5, 1))
    assert o5.mono_key(m3) < o5.mono_key(m1)  # degree first
    # a polynomial lists its terms greatest first
    p = SparsePoly.from_dict(o5, {m3: 1, m2: 1, m1: 1})
    assert [mono for mono, _ in p.terms] == [m1, m2, m3]


def test_format_mono(o5):
    assert o5.format_mono((0,) * o5.nvars) == "1"
    assert o5.format_mono(monomial(o5, (2, 1), (2, 1))) == "X2,1^2"


def test_poly_arithmetic(o5):
    x = variable(o5, (2, 1))
    y = variable(o5, (5, 3))
    p = (x + y) * (x - y)
    q = x * x - y * y
    assert (p - q).is_zero
    assert p.degree() == 2
    assert {sum(mono) for mono, _ in p.terms} == {2}
    # the degree is the leading term's, the greatest, on a sum of two degrees too
    assert (x * x + y).degree() == (y + x * x).degree() == 2
    assert SparsePoly.zero(o5).degree() == -1
    assert p.terms[0][0] == monomial(o5, (2, 1), (2, 1))
    assert (p * 0).is_zero
    assert (Fraction(1, 2) * p + Fraction(1, 2) * p - p).is_zero


def test_coefficients_stay_exact(o5):
    # ints stay ints, so products of Pfaffians never build a Fraction
    x = variable(o5, (2, 1), -2)
    assert type(constant(o5, 3).terms[0][1]) is int
    assert all(type(c) is int for _, c in (x * x - x * 3).terms)
    # a bool is stored as the plain int it stands for
    for p in (
        variable(o5, (2, 1), True),
        SparsePoly.from_dict(o5, {x.terms[0][0]: True}),
    ):
        ((_, c),) = p.terms
        assert type(c) is int and c == 1
    # a float never survives as a float: it becomes its exact Fraction
    mono = x.terms[0][0]
    for p, exact in (
        (variable(o5, (2, 1), 0.1), Fraction(0.1)),
        (SparsePoly.from_dict(o5, {mono: 1.25}), Fraction(5, 4)),
    ):
        ((_, c),) = p.terms
        assert type(c) is Fraction and c == exact


def test_poly_str(o5):
    x = variable(o5, (2, 1))
    y = variable(o5, (5, 3))
    assert str(x - y) == "X2,1 - X5,3"
    assert str(SparsePoly.zero(o5)) == "0"
    assert str(constant(o5, -3)) == "-3"


def test_context_mismatch(o5):
    other = TermOrder(IdElement((1, 3, 4, 6, 9), 5))
    with pytest.raises(ContextMismatch):
        variable(o5, (2, 1)) + variable(other, (2, 1))


def test_broken_order_is_rejected(o5):
    # sanity check that the pairwise agreement check actually fires
    assert order_disagreements(o5.variables, lambda mu, nu: mu != nu)


def _with_pair_comparison(variables, compare):
    """var_greater with the pair of the greatest and the least variable
    compared by compare(mu, nu) instead."""
    pair = {variables[0], variables[-1]}

    def greater(mu, nu):
        if {mu, nu} == pair:
            return compare(mu, nu)
        return var_greater(mu, nu)

    return greater


def test_order_with_a_flipped_pair_is_rejected(o5):
    # flipping the greatest and the least variable makes a cycle through
    # every other variable, which no sorted list can agree with pairwise
    least = o5.variables[-1]
    greater = _with_pair_comparison(o5.variables, lambda mu, nu: mu == least)
    assert order_disagreements(o5.variables, greater) == [(o5.variables[0], least)]


def test_order_greater_both_ways_on_a_pair_is_rejected(o5):
    greater = _with_pair_comparison(o5.variables, lambda mu, nu: True)
    assert order_disagreements(o5.variables, greater) == [(o5.variables[0], o5.variables[-1])]
