import itertools

import pytest

import obrsk.grassmannian as grassmannian
import obrsk.ideal as ideal
from obrsk.errors import BoundsNotComparable, DimensionMismatch, ValidationError, VerificationError
from obrsk.grassmannian import IdElement, defining_chains, enumerate_id, id_leq, is_quotient_monomial, mirror, phi
from obrsk.ideal import (
    DegreeSlice,
    chains_monomials_degree,
    generators,
    hilbert_counts,
    monomials_of_degree,
    pfaffian_generator,
    slice_size,
    standard_monomials,
    standard_poly,
    verify_main_theorem,
)
from obrsk.polynomials import SparsePoly, term_order
from oracles import (
    FullSlice,
    constant,
    determinant,
    initial_monomials,
    multichains,
    patch_entry,
    pfaffian_matrix,
    pfaffian_product,
    slice_columns,
    variable,
    vector_of,
)


def ide(entries, d):
    return IdElement(tuple(entries), d)


def all_triples(d):
    elements = enumerate_id(d)
    return [(a, b, g) for b in elements for a in elements if id_leq(a, b) for g in elements if id_leq(b, g)]


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
    # the paper's rule, entry by entry
    beta = ide((1, 3, 4, 6, 9), 5)
    order = term_order(beta)
    for r, row in _PATCH_5.items():
        for c, expected in zip(beta.entries, row):
            if expected == "1":
                poly = constant(order, 1)
            elif expected in (".", "0"):
                poly = SparsePoly.zero(order)
            elif expected[0] == "-":
                poly = variable(order, expected[1:], -1)
            else:
                poly = variable(order, expected)
            assert patch_entry(beta, r, c) == poly, (r, c)


def test_degree_one_generators_are_the_patch_entries_and_roots_are_their_pairs_through_d8(package_caches):
    # every beta the command line accepts: each pair x > y of beta is
    # beta - theta for exactly one theta, and f(theta) is the paper's 2d x d
    # patch entry at (x*, y); these are all the entries the Pfaffians read.
    # The roots are the same positions (x*, y).
    generators_checked = 0
    for d in range(1, 9):
        full = 2 * d + 1
        for beta in enumerate_id(d):
            by_pair = {}
            for theta in enumerate_id(d):
                diff = tuple(sorted(set(beta.entries) - set(theta.entries), reverse=True))
                if len(diff) == 2:
                    assert diff not in by_pair, (beta, diff)
                    by_pair[diff] = theta
            pairs = sorted((full - x, y) for x, y in by_pair)
            assert pairs == sorted((full - x, y) for x in beta.entries for y in beta.entries if x > y)
            for (x, y), theta in by_pair.items():
                assert pfaffian_generator(theta, beta) == patch_entry(beta, full - x, y), (beta, x, y)
            generators_checked += len(by_pair)
            assert list(grassmannian.roots_of(beta)) == pairs
            assert len(pairs) == d * (d - 1) // 2
    assert generators_checked == 5630


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
    assert {sum(mono) for mono, _ in g.terms} == {2} == {g.degree()}


def test_pfaffian_squared_is_determinant():
    # Pf(A)^2 = det(A), exactly, for every pair with d <= 6: the shipped
    # f(theta) squared against the Leibniz determinant of the matrix read off
    # the paper's patch rule, which the package does not build
    pairs = 0
    for d in range(1, 7):
        for beta in enumerate_id(d):
            for theta in enumerate_id(d):
                if theta.entries == beta.entries:
                    continue
                pf = pfaffian_generator(theta, beta)
                assert pf * pf == determinant(pfaffian_matrix(theta, beta)), (theta.entries, beta.entries)
                pairs += 1
    assert pairs == 1302


def test_pfaffian_squared_is_determinant_d4():
    beta = ide((2, 4, 6, 8), 4)
    theta = ide((1, 2, 3, 4), 4)
    pf = pfaffian_generator(theta, beta)
    assert pf * pf == determinant(pfaffian_matrix(theta, beta))


def test_pfaffian_rejects_odd_size():
    # beta - theta = {3} has no perfect matching: theta and beta lie in
    # different I(d), which is the one refusal the generator needs
    with pytest.raises(DimensionMismatch):
        pfaffian_generator(ide((1, 2), 2), ide((1, 2, 3), 3))
    # the order comes from the entries, so an empty matrix has none
    with pytest.raises(DimensionMismatch):
        determinant([])


def _reference_pfaffian_generator(theta, beta):
    """f(theta) by the first-row recursion through SparsePoly sums, over
    entries of the paper's 2d x d patch (oracles.pfaffian_matrix), checked
    for skew-symmetry here: an independent route to the matching expansion
    of pfaffian_generator."""
    order = term_order(beta)
    a = pfaffian_matrix(theta, beta)
    n = len(a)
    for i in range(n):
        for j in range(n):
            assert (a[i][j] + a[j][i]).is_zero, (theta, beta, i, j)

    def rec(indices):
        if not indices:
            return constant(order, 1)
        total = SparsePoly.zero(order)
        for pos in range(1, len(indices)):
            rest = indices[1:pos] + indices[pos + 1:]
            sign = 1 if pos % 2 else -1
            total = total + sign * (a[indices[0]][indices[pos]] * rec(rest))
        return total

    return rec(tuple(range(n)))


def test_pfaffian_generator_matches_the_first_row_recursion_through_d5():
    for d in (1, 2, 3, 4, 5):
        for beta in enumerate_id(d):
            for theta in enumerate_id(d):
                f = pfaffian_generator(theta, beta)
                assert f == _reference_pfaffian_generator(theta, beta), (theta, beta)


def _mirrored(f, beta):
    """f with each variable X(r, c) replaced by that of phi(r, c), over the
    term order of mirror(beta)."""
    order = term_order(beta)
    target = term_order(mirror(beta))
    out = {}
    for mono, c in f.terms:
        image = [0] * target.nvars
        for v, e in zip(order.variables, mono):
            if e:
                image[target.index[phi(v, beta.d)]] = e
        out[tuple(image)] = c
    return SparsePoly.from_dict(target, out)


def test_pfaffians_of_mirrored_pairs_are_their_phi_images_up_to_one_sign_through_d7(package_caches):
    # w0 of type D: f(mu theta, mu beta) = +-phi(f(theta, beta)), with one
    # sign for the whole polynomial of each pair
    pairs = 0
    for d in range(1, 8):
        for beta in enumerate_id(d):
            for theta in enumerate_id(d):
                image = _mirrored(pfaffian_generator(theta, beta), beta)
                f = pfaffian_generator(mirror(theta), mirror(beta))
                assert f == image or f == -image, (theta, beta)
                pairs += 1
    assert pairs == 5461


def test_every_pfaffian_through_d7_has_the_torus_weight_of_beta_minus_theta(package_caches):
    # X(x*, y) has the weight e_x + e_y on the keys of beta, and a term of
    # f(theta) is a perfect matching of beta - theta: each key of beta -
    # theta is an endpoint of exactly one of its variables, and no other
    # key is one; so f(theta) is homogeneous of degree |beta - theta| / 2,
    # the degree its leading term gives
    pairs = 0
    for d in range(2, 8):
        full = 2 * d + 1
        for beta in enumerate_id(d):
            variables = term_order(beta).variables
            for theta in enumerate_id(d):
                keys = sorted(set(beta.entries) - set(theta.entries))
                f = pfaffian_generator(theta, beta)
                for mono, _ in f.terms:
                    ends = sorted(e for (r, c), k in zip(variables, mono) for e in (full - r, c) * k)
                    assert ends == keys, (theta, beta, mono)
                assert f.degree() == len(keys) // 2, (theta, beta)
                pairs += 1
    assert pairs == 5460


def test_generators_selection():
    alpha = beta = gamma = ide((3, 4), 2)
    gens = generators(alpha, beta, gamma)
    assert [theta.entries for theta, _ in gens] == [(1, 2)]
    # the full interval at d=2 excludes nothing
    assert generators(ide((1, 2), 2), ide((1, 2), 2), ide((3, 4), 2)) == []


def test_generators_are_the_join_of_the_halves_up_to_d6():
    # certified by id_leq: each half lists exactly the theta its one-sided
    # rule leaves out, and each triple exactly the theta with not
    # (alpha <= theta <= gamma), in enumerate_id order, once each, with f(theta)
    def with_f(thetas, beta):
        return [(theta, pfaffian_generator(theta, beta)) for theta in thetas]

    counts = []
    for d in range(1, 7):
        elements = enumerate_id(d)
        for beta in elements:
            for bound in elements:
                halves = []
                if id_leq(bound, beta):  # bound is the alpha of a negative half
                    halves.append((-1, [theta for theta in elements if not id_leq(bound, theta)]))
                if id_leq(beta, bound):  # bound is the gamma of a positive half
                    halves.append((+1, [theta for theta in elements if not id_leq(theta, bound)]))
                for sign, left_out in halves:
                    listed = [(elements[t], f) for t, f in ideal._half_generators(bound, beta, sign)]
                    assert listed == with_f(left_out, beta), (bound, beta, sign)
        triples = all_triples(d)
        for alpha, beta, gamma in triples:
            left_out = [theta for theta in elements if not (id_leq(alpha, theta) and id_leq(theta, gamma))]
            assert generators(alpha, beta, gamma) == with_f(left_out, beta), (alpha, beta, gamma)
        counts.append(len(triples))
    assert counts == [1, 4, 20, 112, 672, 4224]


def test_half_intervals_are_the_thetas_between_the_bounds_up_to_d6():
    # certified by id_leq: the negative half runs through alpha <= theta <
    # beta, the positive one through beta < theta <= gamma, in enumerate_id
    # order, each theta with the degree of f(theta), |beta - theta| / 2
    counts = []
    for d in range(1, 7):
        elements = enumerate_id(d)
        halves = 0
        for beta in elements:
            for bound in elements:
                for sign, low, high in ((-1, bound, beta), (+1, beta, bound)):
                    if not id_leq(low, high):
                        continue
                    inside = [t for t, theta in enumerate(elements) if theta != beta and id_leq(low, theta) and id_leq(theta, high)]
                    degrees = [len(set(beta.entries) - set(elements[t].entries)) // 2 for t in inside]
                    assert ideal._half_interval(bound, beta, sign) == list(zip(inside, degrees)), (bound, beta, sign)
                    assert all(pfaffian_generator(elements[t], beta).degree() == k for t, k in zip(inside, degrees))
                    halves += 1
        counts.append(halves)
    # each pair low <= high is one negative and one positive half
    assert counts == [2, 6, 20, 70, 252, 924]


def test_generators_refuse_a_triple_out_of_order():
    # (1,2,3) <= (1,4,5) <= (2,4,6); reversed, f(beta) = 1 would join the
    # generators and every degree of the quotient would read 0
    alpha, beta, gamma = ide((1, 2, 3), 3), ide((1, 4, 5), 3), ide((2, 4, 6), 3)
    assert generators(alpha, beta, gamma)
    with pytest.raises(BoundsNotComparable):
        generators(gamma, beta, alpha)


def test_monomials_of_degree():
    from math import comb

    # mono_key reads the exponent tuple alone, so any beta's order serves
    mono_key = term_order(ide((3, 4), 2)).mono_key
    for nvars, m in ((1, 3), (3, 2), (3, 4), (4, 0), (0, 0), (0, 2)):
        monos = monomials_of_degree(nvars, m)
        expected = comb(nvars + m - 1, m) if nvars else (1 if m == 0 else 0)
        assert len(monos) == len(set(monos)) == expected
        assert all(sum(mono) == m for mono in monos)
        # greatest first
        assert list(monos) == sorted(monos, key=mono_key, reverse=True)


def test_initial_equals_chains_d2_point():
    beta = ide((3, 4), 2)
    gens = generators(beta, beta, beta)
    for m in (1, 2, 3):
        assert initial_monomials(DegreeSlice(beta, gens, m)) == chains_monomials_degree(beta, beta, beta, m)


def test_negative_degree_is_an_empty_slice(package_caches):
    for nvars in range(4):
        for m in (-1, -2):
            assert monomials_of_degree(nvars, m) == ()
            assert slice_size(nvars, m) == 0
    # x^2 has no multiple of degree 1, nor x*y one of degree 1 or 0
    assert ideal._shifted_columns((2,), 1) == ()
    assert ideal._shifted_columns((1, 1), 1) == ideal._shifted_columns((1, 1), 0) == ()
    # nor is any multichain
    alpha, beta = ide((1, 2), 2), ide((3, 4), 2)
    assert standard_monomials(alpha, beta, beta, -1) == standard_monomials(alpha, beta, beta, -2) == []


def test_shifted_columns_are_the_multiples_of_a_monomial(package_caches):
    # the reference compares exponents one by one: mono divides t when no
    # exponent of mono exceeds the one of t
    for nvars in range(5):
        for m in range(5):
            slice_monos = monomials_of_degree(nvars, m)
            for k in range(m + 1):
                for mono in monomials_of_degree(nvars, k):
                    multiples = [j for j, t in enumerate(slice_monos) if all(a <= b for a, b in zip(mono, t))]
                    assert list(ideal._shifted_columns(mono, m)) == multiples, (mono, m)


def test_chains_monomials_degree_matches_per_monomial_reference():
    # the reference tests each monomial's support on its own, as a list of
    # roots, through the package's single-support predicate: every triple of
    # d <= 4 at m <= 4 and of d = 5 at m <= 3
    for d, max_degree in ((1, 4), (2, 4), (3, 4), (4, 4), (5, 3)):
        elements = enumerate_id(d)
        for beta in elements:
            variables = term_order(beta).variables
            for alpha in elements:
                if not id_leq(alpha, beta):
                    continue
                for gamma in elements:
                    if not id_leq(beta, gamma):
                        continue
                    for m in range(max_degree + 1):
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
    # f(alpha) is the one variable, so the product is its square: the one
    # monomial of the degree-2 slice in one variable
    assert standard_poly((0, 0), beta, 2) == ((0, 1),)


def test_standard_monomials_deep_degree():
    # multichains are built degree by degree, so depth does not grow with m
    beta, gamma = ide((1, 2), 2), ide((3, 4), 2)
    assert len(standard_monomials(beta, beta, gamma, 5000)) == 1


def test_standard_monomials_refuse_a_triple_out_of_order():
    # in order, the d = 4 triple has multichains; reversed, it had none
    alpha, beta, gamma = ide((1, 2, 3, 4), 4), ide((1, 2, 5, 6), 4), ide((5, 6, 7, 8), 4)
    assert standard_monomials(alpha, beta, gamma, 2)
    with pytest.raises(BoundsNotComparable, match="need alpha <= beta <= gamma"):
        standard_monomials(gamma, beta, alpha, 2)


def test_prefix_products_equal_standard_poly_d4():
    beta = ide((1, 2, 5, 6), 4)
    elements = enumerate_id(4)
    triples = [(a, g) for a in elements if id_leq(a, beta) for g in elements if id_leq(beta, g)]
    assert len(triples) == 14
    for alpha, gamma in triples:
        for m, level in enumerate(ideal._multichain_levels(alpha, beta, gamma, 4)):
            chains = [tuple(elements[t] for t in thetas) for thetas in level]
            assert chains == standard_monomials(alpha, beta, gamma, m)
            col = slice_columns(term_order(beta).nvars, m)
            products = [standard_poly(thetas, beta, m) for thetas in level]
            assert products == [tuple(vector_of(pfaffian_product(c, beta), col)) for c in chains]


def _standard_poly_rows_checked(d, max_degree):
    """Check every standard_poly row of every multichain of every triple of
    I(d) up to max_degree against the product of its Pfaffians by SparsePoly
    multiplication, mapped to columns by name; each (multichain, beta) once.
    Returns how many were checked."""
    elements = enumerate_id(d)
    seen = set()
    for alpha, beta, gamma in all_triples(d):
        nvars = term_order(beta).nvars
        for m, level in enumerate(ideal._multichain_levels(alpha, beta, gamma, max_degree)):
            col = slice_columns(nvars, m)
            for thetas in level:
                if (thetas, beta) in seen:
                    continue
                seen.add((thetas, beta))
                product = pfaffian_product([elements[t] for t in thetas], beta)
                assert standard_poly(thetas, beta, m) == tuple(vector_of(product, col)), (thetas, beta)
    return len(seen)


def test_standard_poly_rows_are_the_products_of_their_pfaffians_through_d5(package_caches):
    # every multichain of every triple with d <= 4 at m <= 4, and with d = 5
    # at m <= 3
    assert [_standard_poly_rows_checked(d, 4) for d in (1, 2, 3, 4)] == [1, 10, 140, 1680]
    assert _standard_poly_rows_checked(5, 3) == 4576


def test_standard_poly_refuses_a_degree_off_by_one_through_d4(package_caches):
    # a wrong degree recurses down to the empty multichain, which is the
    # constant 1 in degree 0 only, so it raises even where the row of the
    # right degree is kept, and leaves no row behind: the tables hold one
    # row per nonempty (multichain, beta), the empty multichain none
    products = [
        (thetas, beta, m)
        for d in range(1, 5)
        for alpha, beta, gamma in all_triples(d)
        for m, level in enumerate(ideal._multichain_levels(alpha, beta, gamma, 3))
        for thetas in level
    ]
    assert len(products) == 3199
    for thetas, beta, m in products:
        standard_poly(thetas, beta, m)
        for wrong in (m - 1, m + 1):
            with pytest.raises(VerificationError, match="the empty multichain has degree 0, not"):
                standard_poly(thetas, beta, wrong)
    betas = {beta for _, beta, _ in products}
    assert ideal._beta_table.cache_info().currsize == len(betas) == 1 + 2 + 4 + 8
    kept = sum(len(ideal._beta_table(beta).rows) for beta in betas)
    assert kept == len({(thetas, beta) for thetas, beta, _ in products if thetas})


def test_standard_monomials_are_the_multichains_of_the_definition_through_d5():
    # the package walks positions and up sets; the reference compares the
    # elements by id_leq, recursing on the last one.  The table of levels
    # up to degree 4 holds the same multichains, level by level
    for d in range(1, 6):
        elements = enumerate_id(d)
        for alpha, beta, gamma in all_triples(d):
            for m in range(5):
                assert standard_monomials(alpha, beta, gamma, m) == multichains(alpha, beta, gamma, m)
            levels = ideal._multichain_levels(alpha, beta, gamma, 4)
            assert len(levels) == 5
            for m, level in enumerate(levels):
                assert [tuple(elements[t] for t in thetas) for thetas in level] == multichains(alpha, beta, gamma, m)


def test_pfaffians_and_their_products_have_integer_coefficients():
    for d in (2, 3, 4):
        for beta in enumerate_id(d):
            for theta in enumerate_id(d):
                f = pfaffian_generator(theta, beta)
                assert all(type(c) is int for _, c in f.terms), (theta.entries, beta.entries)
    # the main check's products on every d = 4 triple, degrees <= 3
    triples = all_triples(4)
    assert len(triples) == 112
    for alpha, beta, gamma in triples:
        for m, level in enumerate(ideal._multichain_levels(alpha, beta, gamma, 3)):
            products = [standard_poly(thetas, beta, m) for thetas in level]
            assert all(type(c) is int for row in products for _, c in row)


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


def test_package_caches_include_the_shared_memos(package_caches):
    assert {
        term_order,
        ideal._beta_table,
        ideal._slice_columns,
        ideal._shifted_columns,
        grassmannian._minimal_bad_chains,
    } <= package_caches


def test_reports_do_not_depend_on_which_triple_of_a_beta_runs_first(package_caches):
    # the term order, the Pfaffians and their products are kept per beta,
    # the minimal bad chains per half of the triple and the slice columns
    # per degree; all are shared by other triples.  The triples of two betas
    # with the same number of variables run interleaved, so a memo keyed
    # without beta would hand one beta's polynomials to the other.
    elements = enumerate_id(4)
    by_beta = {
        b: [(a, b, g) for a in elements if id_leq(a, b) for g in elements if id_leq(b, g)] for b in elements
    }
    first, second = sorted(by_beta.values(), key=len)[-2:]
    assert len(first) > 1 and len(second) > 1
    triples = [t for pair in itertools.zip_longest(first, second) for t in pair if t is not None]

    def reports(order):
        for cache in package_caches:
            cache.cache_clear()
        return {t: verify_main_theorem(*t, 3) for t in order}

    forward = reports(triples)
    assert forward == reports(triples[::-1])
    assert all(r.passed for r in forward.values())
    # and each triple alone, from cold caches
    for t in (first[-1], second[-1]):
        assert reports([t])[t] == forward[t]
    alpha, beta, gamma = triples[0]
    assert all(f.order is term_order(beta) for _, f in generators(alpha, beta, gamma))


def test_generator_rows_equal_products_by_monomials_d4():
    # an independent route to each row: g times x^mult by SparsePoly
    # multiplication, mapped to columns of the slice sorted by mono_key
    for beta in enumerate_id(4):
        order = term_order(beta)
        for m in (1, 2, 3):
            monos = sorted(monomials_of_degree(order.nvars, m), key=order.mono_key, reverse=True)
            col = {mono: i for i, mono in enumerate(monos)}
            for theta in enumerate_id(4):
                g = pfaffian_generator(theta, beta)
                if g.degree() > m:
                    continue
                mults = monomials_of_degree(order.nvars, m - g.degree())
                rows = ideal._generator_rows(g.terms, range(len(mults)), m)
                assert len(rows) == len(mults)
                for row, mult in zip(rows, mults):
                    product = g * SparsePoly.from_dict(order, {mult: 1})
                    assert row == sorted((col[mono], c) for mono, c in product.terms), (beta, theta, m, mult)
                # some of the terms, times some of the multipliers in the
                # order given, as a slice builds its live rows
                part = SparsePoly(order, g.terms[::2])
                picked = range(len(mults) - 1, -1, -2)
                rows = ideal._generator_rows(part.terms, picked, m)
                assert len(rows) == len(picked)
                for row, j in zip(rows, picked):
                    product = part * SparsePoly.from_dict(order, {mults[j]: 1})
                    assert row == sorted((col[mono], c) for mono, c in product.terms), (beta, theta, m, j)


def test_slice_columns_are_one_entry_per_degree_after_all_d4_triples(package_caches):
    elements = enumerate_id(4)
    triples = all_triples(4)
    assert len(triples) == 112
    assert all(verify_main_theorem(a, b, g, 3).passed for a, b, g in triples)
    # every beta of I(4) has 6 roots, and the check builds degrees 1..3,
    # whose generators take multipliers of degrees 0..2
    assert {len(grassmannian.roots_of(b)) for b in elements} == {6}
    info = ideal._slice_columns.cache_info()
    assert (info.currsize, info.misses) == (4, 4)


def test_each_pfaffian_is_built_once_after_all_d4_triples(package_caches, monkeypatch):
    elements = enumerate_id(4)
    triples = all_triples(4)
    assert len(triples) == 112
    built = []
    original = ideal._BetaTable.pfaffian

    def counted(table, t):
        if table.pfaffians[t] is None:
            built.append((t, table.beta))
        return original(table, t)

    monkeypatch.setattr(ideal._BetaTable, "pfaffian", counted)
    assert all(verify_main_theorem(a, b, g, 3).passed for a, b, g in triples)
    # each f(theta) the triples need is built once per (theta, beta): every
    # theta but beta itself, whose f is the constant 1, for each of 8 betas
    assert len(elements) == 8
    assert len(built) == len(set(built)) == 56
    assert ideal._beta_table.cache_info().misses == 8
    tables = [ideal._beta_table(beta) for beta in elements]
    assert sum(entry is not None for table in tables for entry in table.pfaffians) == 56
    assert all(table.pfaffians[t] is None for t, table in enumerate(tables))


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


def test_hilbert_counts_refuse_a_triple_out_of_order():
    alpha, beta, gamma = ide((1, 2, 3), 3), ide((1, 4, 5), 3), ide((2, 4, 6), 3)
    assert hilbert_counts(alpha, beta, gamma, 2)[0] == (0, 1, 0, 1)
    with pytest.raises(BoundsNotComparable):
        hilbert_counts(gamma, beta, alpha, 2)


def test_a_triple_that_mixes_values_of_d_is_refused():
    # id_leq stops at the shorter entry list, so each of alpha and beta
    # compares <= the other, although no I(d) holds them both
    alpha, beta, gamma = ide((1, 2, 3), 3), ide((1, 2, 3, 4), 4), ide((5, 6, 7, 8), 4)
    assert id_leq(alpha, beta) and id_leq(beta, alpha) and id_leq(beta, gamma)
    for check in (
        lambda: generators(alpha, beta, gamma),
        lambda: defining_chains(alpha, beta, gamma),
        lambda: verify_main_theorem(alpha, beta, gamma, 2),
        lambda: hilbert_counts(alpha, beta, gamma, 2),
        lambda: standard_monomials(alpha, beta, gamma, 2),
    ):
        with pytest.raises(BoundsNotComparable, match="must share d"):
            check()


def test_a_check_of_no_degree_is_refused():
    # the library's floors are the CLI's: a main check of no degree would
    # pass vacuously, and hilbert counts start at degree 0
    beta = ide((3, 4), 2)
    for max_degree in (0, -1):
        with pytest.raises(ValidationError, match="max_degree >= 1"):
            verify_main_theorem(beta, beta, beta, max_degree)
    with pytest.raises(ValidationError, match="max_degree >= 0"):
        hilbert_counts(beta, beta, beta, -1)
    assert [r.m for r in verify_main_theorem(beta, beta, beta, 1).degrees] == [1]
    assert hilbert_counts(beta, beta, beta, 0) == [(0, 1, 0, 1)]


@pytest.mark.parametrize("max_degree", [2.0, "2", True, None])
def test_a_degree_that_is_not_a_plain_int_is_refused(max_degree):
    # a float or a string would fail inside range() with a raw TypeError,
    # and True would run as degree 1; IdElement refuses such values too
    beta = ide((3, 4), 2)
    with pytest.raises(ValidationError, match=f"int max_degree >= 1, got {max_degree!r}$"):
        verify_main_theorem(beta, beta, beta, max_degree)
    with pytest.raises(ValidationError, match=f"int max_degree >= 0, got {max_degree!r}$"):
        hilbert_counts(beta, beta, beta, max_degree)


@pytest.mark.parametrize("m", [2.0, "2", True, None])
def test_a_degree_of_the_chain_and_standard_monomials_that_is_not_a_plain_int_is_refused(m):
    # 2.0 would fail inside range with a raw TypeError, "2" in a
    # comparison with a raw TypeError, and True would run as degree 1
    alpha, beta = ide((1, 2), 2), ide((3, 4), 2)
    for function in (standard_monomials, chains_monomials_degree):
        with pytest.raises(ValidationError, match=f"a degree must be a plain int, got {m!r}$"):
            function(alpha, beta, beta, m)
    # a negative degree still has no monomial of either kind
    assert standard_monomials(alpha, beta, beta, -1) == []
    assert chains_monomials_degree(alpha, beta, beta, -1) == set()


@pytest.mark.parametrize("d, max_degree, count", [(4, 3, 112), (5, 2, 672)])
def test_degree_slice_equals_full_elimination(d, max_degree, count):
    # clearing the columns of one-term generators finds the pivots and ranks
    # that eliminating every row of every generator finds
    triples = all_triples(d)
    assert len(triples) == count
    for alpha, beta, gamma in triples:
        gens = generators(alpha, beta, gamma)
        for m in range(1, max_degree + 1):
            s, full = DegreeSlice(beta, gens, m), FullSlice(beta, gens, m)
            assert (s.pivots, s.dim) == (set(full.pivots), len(full.pivots)), (alpha, beta, gamma, m)
            level = ideal._multichain_levels(alpha, beta, gamma, m)[m]
            rows = [standard_poly(thetas, beta, m) for thetas in level]
            products = [pfaffian_product(c, beta) for c in standard_monomials(alpha, beta, gamma, m)]
            assert s.rank_with(rows) == full.rank_with(products), (alpha, beta, gamma, m)


def test_elimination_gets_only_the_rows_of_multi_term_generators(monkeypatch):
    # the rows of the one-term generators never reach _rref: eliminating
    # every row, the 112 checks of d = 4 at m <= 3 hand it 19,166 rows,
    # 9,870 of them while building the slices
    handed = []
    rref = ideal._rref

    def counting_rref(rows):
        handed.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(ideal, "_rref", counting_rref)
    triples = all_triples(4)
    for alpha, beta, gamma in triples:
        gens = generators(alpha, beta, gamma)
        for m in (1, 2, 3):
            DegreeSlice(beta, gens, m)
    built = sum(handed)
    assert all(verify_main_theorem(*t, 3).passed for t in triples)
    assert (built, sum(handed) - built) == (48, 3004)


def test_slices_build_only_their_live_rows(monkeypatch):
    # a row whose multiplier holds the variable of a one-term generator of
    # degree 1 is cleared whole, and so is each term that holds one: the
    # 112 checks of d = 4 at m <= 3 build 48 rows where all the rows of the
    # multi-term generators number 462, and the 48 are the rows handed to
    # _rref while building the slices
    built = []
    rows = ideal._generator_rows

    def counting_rows(terms, mults, m):
        out = rows(terms, mults, m)
        built.append(len(out))
        return out

    monkeypatch.setattr(ideal, "_generator_rows", counting_rows)
    everything = 0
    for alpha, beta, gamma in all_triples(4):
        gens = generators(alpha, beta, gamma)
        for m in (1, 2, 3):
            DegreeSlice(beta, gens, m)
            everything += sum(slice_size(len(g.terms[0][0]), m - g.degree()) for _, g in gens
                              if len(g.terms) > 1 and g.degree() <= m)
    assert (sum(built), everything) == (48, 462)


def test_degree_slice_shape():
    beta = ide((1, 2, 3), 3)
    gens = generators(beta, beta, beta)
    s = DegreeSlice(beta, gens, 2)
    assert s.total == len(monomials_of_degree(s.nvars, 2))
    assert s.dim <= s.total
    assert len(initial_monomials(s)) == s.dim
