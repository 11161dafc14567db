import itertools

import pytest

import obrsk.grassmannian as grassmannian
from obrsk.errors import ColumnNotInBeta, DimensionMismatch, OddSize
from obrsk.grassmannian import IdElement, enumerate_id, id_leq, is_quotient_monomial
from obrsk.ideal import (
    DegreeSlice,
    EntryKind,
    beta_degree,
    chains_monomials_degree,
    determinant,
    generators,
    hilbert_counts,
    monomials_of_degree,
    patch_entry,
    pfaffian,
    pfaffian_generator,
    pfaffian_matrix,
    standard_monomials,
    standard_poly,
    standard_products,
    verify_main_theorem,
)
from obrsk.polynomials import SparsePoly, TermOrder, term_order


def ide(entries, d):
    return IdElement(tuple(entries), d)


# the full 10 x 5 patch matrix for d = 5, beta = (1,3,4,6,9):
# "1" unit, "." off-diagonal zero of the identity rows, "0" antidiagonal zero,
# (r, c) the variable X(r, c), ("-", r, c) its negative
_PATCH_5 = {
    1: ("1", ".", ".", ".", "."),
    2: ((2, 1), (2, 3), (2, 4), (2, 6), "0"),
    3: (".", "1", ".", ".", "."),
    4: (".", ".", "1", ".", "."),
    5: ((5, 1), (5, 3), (5, 4), "0", ("-", 2, 6)),
    6: (".", ".", ".", "1", "."),
    7: ((7, 1), (7, 3), "0", ("-", 5, 4), ("-", 2, 4)),
    8: ((8, 1), "0", ("-", 7, 3), ("-", 5, 3), ("-", 2, 3)),
    9: (".", ".", ".", ".", "1"),
    10: ("0", ("-", 8, 1), ("-", 7, 1), ("-", 5, 1), ("-", 2, 1)),
}


def test_patch_matrix_d5():
    beta = ide((1, 3, 4, 6, 9), 5)
    for r, row in _PATCH_5.items():
        for c, expected in zip(beta.entries, row):
            e = patch_entry(beta, r, c)
            if expected == "1":
                assert e.kind is EntryKind.UNIT, (r, c)
            elif expected == ".":
                assert e.kind is EntryKind.OFFUNIT, (r, c)
            elif expected == "0":
                assert e.kind is EntryKind.ZERO, (r, c)
            elif expected[0] == "-":
                assert e.kind is EntryKind.NEGVAR and e.root == expected[1:], (r, c)
            else:
                assert e.kind is EntryKind.VAR and e.root == expected, (r, c)


def test_patch_entry_rejects_bad_indices():
    beta = ide((3, 4), 2)
    with pytest.raises(ColumnNotInBeta):
        patch_entry(beta, 1, 2)
    with pytest.raises(DimensionMismatch):
        patch_entry(beta, 5, 3)


def test_pfaffian_generator_d2():
    beta = ide((3, 4), 2)
    assert str(pfaffian_generator(ide((1, 2), 2), beta)) == "X1,3"
    assert str(pfaffian_generator(beta, beta)) == "1"


def test_pfaffian_generator_d3():
    beta = ide((1, 2, 3), 3)
    expected = {(1, 4, 5): "X4,2", (2, 4, 6): "X4,1", (3, 5, 6): "X5,1"}
    for entries, s in expected.items():
        assert str(pfaffian_generator(ide(entries, 3), beta)) == s


def test_pfaffian_generator_d4_degree_two():
    beta = ide((2, 4, 6, 8), 4)
    f = pfaffian_generator(ide((5, 6, 7, 8), 4), beta)
    assert str(f) == "X5,2"
    theta = ide((1, 3, 5, 7), 4)
    g = pfaffian_generator(theta, beta)
    assert g.is_homogeneous() and g.degree() == 2 == beta_degree(theta, beta)


def test_pfaffian_squared_is_determinant():
    # classical certificate Pf(A)^2 = det(A), checked exactly
    for beta in enumerate_id(3):
        order = TermOrder(beta)
        for theta in enumerate_id(3):
            if theta.entries == beta.entries:
                continue
            a = pfaffian_matrix(theta, beta, order)
            pf = pfaffian(a)
            assert (pf * pf - determinant(a, order)).is_zero, (theta.entries, beta.entries)


def test_pfaffian_squared_is_determinant_d4():
    beta = ide((2, 4, 6, 8), 4)
    order = TermOrder(beta)
    theta = ide((1, 2, 3, 4), 4)
    a = pfaffian_matrix(theta, beta, order)
    pf = pfaffian(a)
    assert (pf * pf - determinant(a, order)).is_zero


def test_pfaffian_rejects_odd_size():
    beta = ide((3, 4), 2)
    order = TermOrder(beta)
    with pytest.raises(OddSize):
        pfaffian([[SparsePoly.zero(order)]])


def test_generators_are_homogeneous_of_beta_degree():
    for d in (2, 3):
        for beta in enumerate_id(d):
            for theta in enumerate_id(d):
                f = pfaffian_generator(theta, beta)
                assert f.is_homogeneous()
                if not f.is_zero:
                    assert f.degree() == beta_degree(theta, beta)


def test_generators_selection():
    alpha = beta = gamma = ide((3, 4), 2)
    gens = generators(alpha, beta, gamma)
    assert [theta.entries for theta, _ in gens] == [(1, 2)]
    # the full interval at d=2 excludes nothing
    assert generators(ide((1, 2), 2), ide((1, 2), 2), ide((3, 4), 2)) == []


def test_monomials_of_degree():
    from math import comb

    for nvars, m in ((1, 3), (3, 2), (4, 0), (0, 0), (0, 2)):
        monos = monomials_of_degree(nvars, m)
        expected = comb(nvars + m - 1, m) if nvars else (1 if m == 0 else 0)
        assert len(monos) == len(set(monos)) == expected
        assert all(sum(mono) == m for mono in monos)


def test_initial_equals_chains_d2_point():
    beta = ide((3, 4), 2)
    gens = generators(beta, beta, beta)
    for m in (1, 2, 3):
        assert DegreeSlice(gens, m, term_order(beta)).initial_monomials() == chains_monomials_degree(
            beta, beta, beta, m
        )


def test_chains_monomials_degree_matches_per_monomial_reference():
    # the reference tests each monomial's support on its own, as a list of
    # roots, through the package's single-support predicate
    for d in (1, 2, 3, 4):
        elements = enumerate_id(d)
        for beta in elements:
            variables = term_order(beta).variables
            for alpha in elements:
                if not id_leq(alpha, beta):
                    continue
                for gamma in elements:
                    if not id_leq(beta, gamma):
                        continue
                    for m in range(5):
                        reference = {
                            mono
                            for mono in monomials_of_degree(len(variables), m)
                            if not is_quotient_monomial(
                                [v for v, e in zip(variables, mono) if e], alpha, beta, gamma
                            )
                        }
                        assert chains_monomials_degree(alpha, beta, gamma, m) == reference


def test_standard_monomials_point_case():
    beta = ide((3, 4), 2)
    assert standard_monomials(beta, beta, beta, 1) == []
    assert standard_monomials(beta, beta, beta, 0) == [()]


def test_standard_monomials_full_interval_d2():
    alpha, beta = ide((1, 2), 2), ide((3, 4), 2)
    chains = standard_monomials(alpha, beta, beta, 2)
    assert chains == [(alpha, alpha)]
    assert standard_poly(chains[0], beta).degree() == 2


def test_standard_monomials_deep_degree():
    # multichains are built degree by degree, so depth does not grow with m
    beta, gamma = ide((1, 2), 2), ide((3, 4), 2)
    assert len(standard_monomials(beta, beta, gamma, 5000)) == 1


def test_prefix_products_equal_standard_poly_d4():
    beta = ide((1, 2, 5, 6), 4)
    elements = enumerate_id(4)
    triples = [(a, g) for a in elements if id_leq(a, beta) for g in elements if id_leq(beta, g)]
    assert len(triples) == 14
    for alpha, gamma in triples:
        for m, (level, products) in zip(range(5), standard_products(alpha, beta, gamma)):
            assert level == standard_monomials(alpha, beta, gamma, m)
            assert products == [standard_poly(thetas, beta) for thetas in level]


def test_pfaffians_and_their_products_have_integer_coefficients():
    for d in (2, 3, 4):
        for beta in enumerate_id(d):
            for theta in enumerate_id(d):
                f = pfaffian_generator(theta, beta)
                assert all(type(c) is int for _, c in f.terms), (theta.entries, beta.entries)
    # the main check's products on every d = 4 triple, degrees <= 3
    elements = enumerate_id(4)
    triples = [(a, b, g) for b in elements for a in elements if id_leq(a, b) for g in elements if id_leq(b, g)]
    assert len(triples) == 112
    for alpha, beta, gamma in triples:
        for _, products in itertools.islice(standard_products(alpha, beta, gamma), 4):
            assert all(type(c) is int for p in products for _, c in p.terms)


def test_verify_main_theorem_d2():
    alpha, beta = ide((1, 2), 2), ide((3, 4), 2)
    report = verify_main_theorem(alpha, beta, beta, 4)
    assert report.passed
    report = verify_main_theorem(beta, beta, beta, 4)
    assert report.passed
    # in the point case every nonconstant monomial is in the ideal
    for deg in report.degrees:
        assert deg.n_standard == 0 and deg.n_initial == deg.total


def test_verify_main_theorem_d3_interval():
    alpha = ide((1, 2, 3), 3)
    beta = ide((1, 4, 5), 3)
    gamma = ide((3, 5, 6), 3)
    report = verify_main_theorem(alpha, beta, gamma, 3)
    assert report.passed


def test_reports_do_not_depend_on_which_triple_of_a_beta_runs_first():
    # the term order and the Pfaffians are cached per beta, and the minimal
    # bad chains per half of the triple; all are shared by other triples
    beta = ide((1, 2, 5, 6), 4)
    elements = enumerate_id(4)
    triples = [(a, g) for a in elements if id_leq(a, beta) for g in elements if id_leq(beta, g)]
    assert len(triples) > 1

    def reports(pairs):
        term_order.cache_clear()
        pfaffian_generator.cache_clear()
        grassmannian.defining_chains.cache_clear()
        grassmannian._minimal_bad_chains.cache_clear()
        grassmannian._image_operand.cache_clear()
        return {(a, g): verify_main_theorem(a, beta, g, 3) for a, g in pairs}

    forward = reports(triples)
    assert forward == reports(triples[::-1])
    assert all(r.passed for r in forward.values())
    alpha, gamma = triples[0]
    assert all(f.order is term_order(beta) for _, f in generators(alpha, beta, gamma))


def test_hilbert_counts_point_case():
    beta = ide((3, 4), 2)
    counts = hilbert_counts(beta, beta, beta, 3)
    assert counts[0] == (0, 1, 0, 1)
    assert all(quot == 0 for m, total, dim, quot in counts[1:])


def test_hilbert_counts_full_interval_d2():
    alpha, beta = ide((1, 2), 2), ide((3, 4), 2)
    counts = hilbert_counts(alpha, beta, beta, 3)
    # no generators: the quotient is the full polynomial ring in one variable
    assert [quot for _, _, _, quot in counts] == [1, 1, 1, 1]


def test_degree_slice_shape():
    beta = ide((1, 2, 3), 3)
    gens = generators(beta, beta, beta)
    s = DegreeSlice(gens, 2, term_order(beta))
    assert s.total == len(s.monos)
    assert s.dim <= s.total
    assert len(s.initial_monomials()) == s.dim
