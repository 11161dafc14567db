import itertools

import pytest

import obrsk.grassmannian as grassmannian
from obrsk.arrays import psi_inv
from obrsk.correspondence import obrsk, obrsk_negative_steps
from obrsk.errors import (
    BoundsNotComparable,
    EmptyChain,
    InvalidPair,
    MixedSigns,
    NotInId,
    NotSemistandard,
    VanishingColumn,
    VerificationError,
)
from obrsk.grassmannian import (
    ChainSign,
    IdElement,
    Region,
    chain_image,
    chain_in_chains_set,
    chain_pair,
    defining_chains,
    enumerate_extended_chains,
    enumerate_id,
    hash_reflect,
    id_leq,
    is_quotient_monomial,
    region_of,
    roots_of,
    split_chain,
    t_w_bounds,
    w_of_chain,
)
from obrsk.multisets import FormalDiff, Cmp, diff_compare, plane_compare
from obrsk.tableaux import NotchedBitableau, down_of, up_of


def ide(entries, d):
    return IdElement(tuple(entries), d)


def test_id_membership():
    ide((3, 4), 2)
    ide((1, 2), 2)
    with pytest.raises(NotInId):
        ide((1, 4), 2)  # 1 and 4 are partners
    with pytest.raises(NotInId):
        ide((1, 3), 2)  # odd number of entries above d
    with pytest.raises(NotInId):
        ide((2, 2), 2)


def test_enumerate_id_small():
    assert [v.entries for v in enumerate_id(2)] == [(1, 2), (3, 4)]
    assert [v.entries for v in enumerate_id(3)] == [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)]
    assert len(enumerate_id(4)) == 8
    assert len(enumerate_id(5)) == 16


def test_id_leq():
    assert id_leq(ide((1, 2, 3), 3), ide((1, 4, 5), 3))
    assert not id_leq(ide((1, 4, 5), 3), ide((1, 2, 3), 3))


def test_id3_is_totally_ordered():
    for v, w in itertools.combinations(enumerate_id(3), 2):
        assert id_leq(v, w) or id_leq(w, v)


def test_id4_has_incomparable_elements():
    v, w = ide((1, 4, 6, 7), 4), ide((2, 3, 5, 8), 4)
    assert not id_leq(v, w) and not id_leq(w, v)


def test_order_matches_counting_order_on_differences():
    # theta <-> (theta - beta, beta - theta); entrywise order on I(d) is the
    # counting order on the corresponding formal differences
    for d in (2, 3, 4):
        for beta in enumerate_id(d):
            bset = set(beta.entries)
            for v, w in itertools.product(enumerate_id(d), repeat=2):
                dv = FormalDiff(tuple(set(v.entries) - bset), tuple(bset - set(v.entries)))
                dw = FormalDiff(tuple(set(w.entries) - bset), tuple(bset - set(w.entries)))
                assert id_leq(v, w) == (diff_compare(dv, dw) in (Cmp.LESS, Cmp.EQUAL))


def test_region_of_matches_patch_matrix():
    # d = 5, v = (1,3,4,6,9): classifications agree with the explicit matrix
    v = ide((1, 3, 4, 6, 9), 5)
    assert region_of(v, 2, 1) is Region.ROOT_POS
    assert region_of(v, 2, 3) is Region.ROOT_NEG
    assert region_of(v, 5, 6) is Region.DIAG  # 5 = 11 - 6
    assert region_of(v, 7, 6) is Region.BELOW
    assert region_of(v, 3, 3) is Region.NOT_GRID  # row inside v
    assert region_of(v, 2, 2) is Region.NOT_GRID  # column outside v


def test_roots_d2():
    assert roots_of(ide((3, 4), 2)) == ((1, 3),)
    assert roots_of(ide((1, 2), 2)) == ((3, 1),)


def test_hash_reflect():
    assert hash_reflect((1, 3), 2) == (2, 4)
    v = ide((1, 3, 4, 6, 9), 5)
    for p in roots_of(v):
        q = hash_reflect(p, 5)
        assert region_of(v, *q) is Region.BELOW
        assert hash_reflect(q, 5) == p


def test_enumerate_extended_chains():
    support = ((1, 6), (2, 5), (2, 3), (4, 3))
    chains = enumerate_extended_chains(support)
    assert ((1, 6),) in chains
    assert ((1, 6), (2, 5), (4, 3)) in chains
    assert ((2, 5), (2, 3)) not in chains  # same row
    assert all(len(set(c)) == len(c) for c in chains)
    # each chain strictly increases in rows and decreases in columns
    for c in chains:
        assert all(r1 < r2 and c1 > c2 for (r1, c1), (r2, c2) in zip(c, c[1:]))


def test_split_chain():
    beta = ide((1, 3, 4, 6, 9), 5)
    neg, pos = split_chain(((2, 3), (5, 1)), beta)
    assert neg == ((2, 3),)
    assert pos == ((5, 1),)
    with pytest.raises(MixedSigns):
        split_chain(((5, 6),), beta)  # diagonal point is not a root


def test_chain_pair_d2():
    u1, u2 = chain_pair(((1, 3),), 2)
    assert u1 == ((1, 3),)
    assert u2 == ((2, 4),)
    with pytest.raises(MixedSigns):
        chain_pair(((1, 3), (3, 1)), 2)  # not a chain (mixed, not monotone)


def test_chain_image_d2():
    image = chain_image(((1, 3),), 2)
    assert image.P.rows == ((1, 2),)
    assert image.Q.rows == ((3, 4),)


def chains_of_roots(d, sign=None):
    """Every sign-pure chain of roots of I(d), each once, of the one sign if
    given."""
    chains = {}
    for beta in enumerate_id(d):
        for part_sign, part in zip(ChainSign, split_chain(roots_of(beta), beta)):
            if sign in (None, part_sign):
                chains.update(dict.fromkeys(enumerate_extended_chains(part)))
    return list(chains)


def test_chain_image_equals_obrsk_on_every_chain_of_roots_through_d6(package_caches):
    # each image is built by one step from its parent's; obrsk on the
    # canonical pair is the oracle
    chains = [(chain, d) for d in range(1, 7) for chain in chains_of_roots(d)]
    assert len(chains) == 858
    for chain, d in chains:
        assert chain_image(chain, d) == obrsk(psi_inv(*chain_pair(chain, d))), (chain, d)


def test_negative_chain_images_are_the_steps_of_obrsk_through_d5(package_caches):
    # obrsk consumes a negative chain's points in order, so its k-th
    # intermediate bitableau is the image of the first k points
    for d in range(1, 6):
        for chain in chains_of_roots(d, ChainSign.MINUS):
            steps = list(obrsk_negative_steps(psi_inv(*chain_pair(chain, d))))
            assert steps == [chain_image(chain[:k], d) for k in range(1, len(chain) + 1)], (chain, d)


def test_chain_images_take_one_forward_step_each_over_all_d4_triples(monkeypatch, package_caches):
    steps = []
    original = grassmannian.forward_step

    def counted_step(*args):
        steps.append(args)
        return original(*args)

    monkeypatch.setattr(grassmannian, "forward_step", counted_step)
    monkeypatch.setattr(grassmannian, "obrsk", lambda p: pytest.fail("chain_image called obrsk"))
    for alpha, beta, gamma in ordered_triples(4):
        defining_chains(alpha, beta, gamma)
    assert len(steps) == 48
    assert chain_image.cache_info().misses == 48


@pytest.mark.parametrize(
    "chain, d, error",
    [
        (((2, 2),), 2, VanishingColumn),  # no sign: a column with equal entries
        (((1, 1), (2, 3)), 3, MixedSigns),
        (((1, 6),), 3, InvalidPair),  # on the antidiagonal
        (((5, 2),), 3, InvalidPair),
        ((), 3, EmptyChain),
    ],
)
def test_chain_image_raises_what_obrsk_raises(chain, d, error, package_caches):
    with pytest.raises(error) as raised:
        chain_image(chain, d)
    if error in (VanishingColumn, InvalidPair):
        with pytest.raises(error) as expected:
            obrsk(psi_inv(*chain_pair(chain, d)))
        assert str(raised.value) == str(expected.value)


def test_chain_image_validates_the_pair(monkeypatch, package_caches):
    monkeypatch.setattr(grassmannian, "validate_skew_pair", lambda p: ["a planted violation"])
    with pytest.raises(InvalidPair, match="a planted violation"):
        chain_image(((1, 3),), 2)


def test_chain_image_checks_each_step_of_a_positive_chain(monkeypatch, package_caches):
    # iota checks skew-symmetry, which needs a semistandard step result
    broken = NotchedBitableau(((2, 1),), ((3, 4),))
    monkeypatch.setattr(grassmannian, "forward_step", lambda *args: broken)
    with pytest.raises(NotSemistandard):
        chain_image(((4, 1),), 3)


def test_w_of_chain_d2():
    beta = ide((3, 4), 2)
    w = w_of_chain(((1, 3),), beta, ChainSign.MINUS)
    assert w.entries == (1, 2)


def test_w_of_chain_d3_positive():
    beta = ide((1, 2, 3), 3)
    w = w_of_chain(((4, 1),), beta, ChainSign.PLUS)
    assert w.entries == (2, 4, 6)
    assert id_leq(beta, w)


def reference_w_of_chain(chain, beta, sign):
    # the rule itself: the seconds of the up set (negative chain) or the down
    # set (positive chain) of the chain image leave beta, the firsts come in
    image = chain_image(chain, beta.d)
    pairs = up_of(image) if sign is ChainSign.MINUS else down_of(image)
    entries = set(beta.entries) - {y for _, y in pairs} | {x for x, _ in pairs}
    return ide(entries, beta.d)


def test_w_of_chain_matches_reference_on_every_chain_d4():
    for d in (1, 2, 3, 4):
        for beta in enumerate_id(d):
            for sign, part in zip(ChainSign, split_chain(roots_of(beta), beta)):
                for chain in enumerate_extended_chains(part):
                    w = w_of_chain(chain, beta, sign)
                    assert w == reference_w_of_chain(chain, beta, sign), (beta, sign, chain)
                    # any order of the points names the same chain
                    assert w_of_chain(chain[::-1], beta, sign) == w


def test_w_of_chain_rejects_what_is_not_a_chain_of_its_sign():
    beta = ide((1, 3, 4, 6, 9), 5)
    neg, pos = split_chain(roots_of(beta), beta)
    assert neg and pos
    for chain, sign in (
        ((), ChainSign.MINUS),  # empty
        ((), ChainSign.PLUS),
        ((neg[0], neg[0]), ChainSign.MINUS),  # a repeated point is not a chain
        (((2, 3), (2, 4)), ChainSign.MINUS),  # same row
        ((pos[0],), ChainSign.MINUS),  # a chain of the other sign
        ((neg[0],), ChainSign.PLUS),
        (((5, 6),), ChainSign.PLUS),  # a diagonal point is not a root
    ):
        with pytest.raises(MixedSigns):
            w_of_chain(chain, beta, sign)


def test_signed_chains_are_one_table_per_beta_and_sign_after_all_d4_triples(package_caches):
    triples = list(ordered_triples(4))
    assert len(triples) == 112
    for alpha, beta, gamma in triples:
        defining_chains(alpha, beta, gamma)
    # 8 betas, two signs each; the 72 chains of their tables are 48 distinct
    # chains of roots, each imaged once
    assert grassmannian._signed_chains.cache_info().currsize == 16
    assert chain_image.cache_info().misses == 48
    tables = [grassmannian._signed_chains(b, s) for b in enumerate_id(4) for s in ChainSign]
    assert (sum(map(len, tables)), len(set().union(*tables))) == (72, 48)


def test_t_w_bounds():
    d = 3
    alpha, beta, gamma = ide((1, 2, 3), 3), ide((1, 4, 5), 3), ide((3, 5, 6), 3)
    t, w = t_w_bounds(alpha, beta, gamma)
    assert t == ((2, 4), (3, 5))
    assert w == ((3, 1), (6, 4))
    with pytest.raises(BoundsNotComparable):
        t_w_bounds(beta, alpha, gamma)


def test_chain_in_chains_set_d2():
    alpha = beta = gamma = ide((3, 4), 2)
    assert chain_in_chains_set(((1, 3),), alpha, beta, gamma)
    alpha = ide((1, 2), 2)
    assert not chain_in_chains_set(((1, 3),), alpha, beta, gamma)


def test_is_quotient_monomial_d2():
    beta = gamma = ide((3, 4), 2)
    alpha = ide((1, 2), 2)
    assert is_quotient_monomial(((1, 3), (1, 3)), alpha, beta, gamma)
    assert is_quotient_monomial((), alpha, beta, gamma)
    assert not is_quotient_monomial(((1, 3),), beta, beta, gamma)


def test_quotient_routes_agree_d3():
    # defining_chains decides every chain of roots by both routes and raises
    # if they ever disagree
    for beta in enumerate_id(3):
        roots = roots_of(beta)
        elements = enumerate_id(3)
        for alpha in elements:
            if not id_leq(alpha, beta):
                continue
            for gamma in elements:
                if not id_leq(beta, gamma):
                    continue
                for k in range(0, 3):
                    for u in itertools.combinations_with_replacement(roots, k):
                        is_quotient_monomial(u, alpha, beta, gamma)


def ordered_triples(d):
    elements = enumerate_id(d)
    for beta in elements:
        for alpha in elements:
            if not id_leq(alpha, beta):
                continue
            for gamma in elements:
                if id_leq(beta, gamma):
                    yield alpha, beta, gamma


def reference_is_quotient_monomial(u, alpha, beta, gamma):
    # the definition itself, one chain of the support at a time: no chain
    # inside the support of u is in the defining set
    return not any(
        chain_in_chains_set(chain, alpha, beta, gamma) for chain in enumerate_extended_chains(set(u))
    )


def test_is_quotient_monomial_matches_reference_d4():
    for d in (1, 2, 3, 4):
        for alpha, beta, gamma in ordered_triples(d):
            roots = roots_of(beta)
            for k in range(4):
                for u in itertools.combinations_with_replacement(roots, k):
                    assert is_quotient_monomial(u, alpha, beta, gamma) == reference_is_quotient_monomial(
                        u, alpha, beta, gamma
                    )


def test_defining_chains_d2():
    alpha, beta = ide((1, 2), 2), ide((3, 4), 2)
    assert defining_chains(alpha, beta, beta) == ()
    assert defining_chains(beta, beta, beta) == (frozenset({(1, 3)}),)
    with pytest.raises(BoundsNotComparable):
        defining_chains(beta, alpha, beta)


def test_defining_chains_routes_disagree(monkeypatch, package_caches):
    # flip the chain-membership route: every chain of roots now disagrees
    # with the boundedness route
    original = grassmannian.chain_in_chains_set
    monkeypatch.setattr(grassmannian, "chain_in_chains_set", lambda *args: not original(*args))
    alpha, beta, gamma = ide((1, 2, 3), 3), ide((1, 4, 5), 3), ide((3, 5, 6), 3)
    with pytest.raises(VerificationError, match="disagree"):
        defining_chains(alpha, beta, gamma)
    with pytest.raises(VerificationError):
        is_quotient_monomial((), alpha, beta, gamma)


def test_is_quotient_monomial_rejects_non_roots():
    alpha, beta = ide((1, 2), 2), ide((3, 4), 2)
    for point in ((2, 3), (3, 3), (1, 1)):  # diagonal, row in beta, column outside beta
        with pytest.raises(MixedSigns):
            is_quotient_monomial(((1, 3), point), alpha, beta, beta)


def test_defining_chains_are_sign_pure_and_minimal():
    for d in (2, 3, 4):
        for alpha, beta, gamma in ordered_triples(d):
            bad = defining_chains(alpha, beta, gamma)
            for chain in bad:
                neg, pos = split_chain(tuple(chain), beta)
                assert not neg or not pos, sorted(chain)
            for c1, c2 in itertools.permutations(bad, 2):
                assert not c1 <= c2, (sorted(c1), sorted(c2))


def test_defining_chains_generate_the_chain_ideal_d4():
    # reference: every chain of roots, mixed ones included, decided one at a
    # time; a set of roots contains a returned chain exactly when it
    # contains one of these bad chains
    for d in (2, 3, 4):
        for alpha, beta, gamma in ordered_triples(d):
            roots = roots_of(beta)
            reference = [
                frozenset(chain)
                for chain in enumerate_extended_chains(roots)
                if chain_in_chains_set(chain, alpha, beta, gamma)
            ]
            bad = defining_chains(alpha, beta, gamma)
            for k in range(len(roots) + 1):
                for support in map(frozenset, itertools.combinations(roots, k)):
                    assert any(c <= support for c in bad) == any(c <= support for c in reference)


def reference_defining_chains(alpha, beta, gamma):
    # one triple at a time: every sign-pure chain of roots decided by the
    # membership route and by boundedness against (T, W), which must agree;
    # the minimal bad chains kept
    t, w = t_w_bounds(alpha, beta, gamma)
    bad = []
    for negative, part in zip((True, False), split_chain(roots_of(beta), beta)):
        for chain in enumerate_extended_chains(part):
            image = chain_image(chain, beta.d)
            if negative:
                within = plane_compare(t, up_of(image)) in (Cmp.LESS, Cmp.EQUAL)
            else:
                within = plane_compare(down_of(image), w) in (Cmp.LESS, Cmp.EQUAL)
            in_set = chain_in_chains_set(chain, alpha, beta, gamma)
            assert in_set != within, (chain, alpha, beta, gamma)
            if in_set:
                bad.append(frozenset(chain))
    return {c for c in bad if not any(other < c for other in bad)}


@pytest.mark.parametrize("reverse", [False, True])
def test_defining_chains_match_per_triple_reference(reverse, package_caches):
    # the halves are shared by every triple with the same (alpha, beta) or
    # (beta, gamma); visiting the triples in either order with cold caches
    # gives each triple its own answer
    triples = [t for d in (1, 2, 3, 4) for t in ordered_triples(d)]
    for alpha, beta, gamma in reversed(triples) if reverse else triples:
        bad = defining_chains(alpha, beta, gamma)
        assert len(set(bad)) == len(bad)
        assert set(bad) == reference_defining_chains(alpha, beta, gamma)
