import copy
import itertools
import pickle

import pytest

import obrsk.grassmannian as grassmannian
from obrsk.arrays import psi_inv, validate_skew_pair
from obrsk.cli import EXIT_FAILED, ideal_main
from obrsk.correspondence import obrsk, obrsk_negative_steps
from obrsk.errors import (
    BoundsNotComparable,
    MixedSigns,
    NotInId,
    VerificationError,
)
from obrsk.grassmannian import (
    IdElement,
    defining_chains,
    enumerate_extended_chains,
    enumerate_id,
    hash_reflect,
    id_leq,
    is_quotient_monomial,
    mirror,
    phi,
    roots_of,
    split_chain,
    w_of_chain,
)
from obrsk.ideal import generators, verify_main_theorem
from obrsk.tableaux import rows_leq
from oracles import (
    FormalDiff,
    L_involution,
    Region,
    bitableau_bounded_by,
    chain_in_chains_set,
    chain_pair,
    diff_leq,
    half_bound,
    is_signed_plane_set,
    plane_diff,
    positive_chain_rows,
    positive_half,
    proj1,
    proj2,
    region_of,
    transpose,
    up_down,
)


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


@pytest.mark.parametrize("entries, d", [((3.0, 4), 2), ((True,), 1), (("1", "2"), 2), ((3, 4), 2.0)])
def test_id_refuses_what_is_not_a_plain_int(entries, d):
    with pytest.raises(NotInId):
        IdElement(entries, d)


def test_a_float_element_cannot_poison_the_memos(package_caches):
    # IdElement((3.0, 4), 2) would equal and hash like IdElement((3, 4), 2),
    # so its roots, (1, 3.0), would be memoised for the int element
    with pytest.raises(NotInId):
        roots_of(IdElement((3.0, 4), 2))
    v = IdElement((3, 4), 2)
    assert [type(x) for p in roots_of(v) for x in p] == [int, int]
    assert verify_main_theorem(v, v, v, 3).passed


def test_equal_elements_hash_equal_however_they_are_built():
    # the hash is taken once, after the entries are sorted, and is the hash
    # of (entries, d) whichever way the element was made
    for d in range(1, 6):
        for v in enumerate_id(d):
            built = (
                IdElement(list(v.entries), d),
                IdElement(tuple(reversed(v.entries)), d),
                copy.copy(v),
                pickle.loads(pickle.dumps(v)),
            )
            for w in built:
                assert w == v and hash(w) == hash(v), (v, w)
            assert hash(v) == hash((v.entries, v.d))
            assert repr(v) == f"IdElement(entries={v.entries!r}, d={d})"


def test_enumerate_id_small():
    assert [v.entries for v in enumerate_id(2)] == [(1, 2), (3, 4)]
    assert [v.entries for v in enumerate_id(3)] == [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)]
    assert len(enumerate_id(4)) == 8
    assert len(enumerate_id(5)) == 16


def test_up_sets_are_id_leq_on_every_pair_through_d7(package_caches):
    # the ideal layer compares positions by their up sets; each must hold
    # exactly the positions of the elements id_leq puts at or above it
    pairs = 0
    for d in range(1, 8):
        elements, position, up, _ = grassmannian._id_poset(d)
        assert elements == enumerate_id(d)
        assert [v.entries for v in elements] == sorted(v.entries for v in elements)
        assert position == {v.entries: i for i, v in enumerate(elements)}
        for (i, v), (j, w) in itertools.product(enumerate(elements), repeat=2):
            assert (j in up[i]) == id_leq(v, w), (v, w)
            pairs += 1
    assert pairs == 5461


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
                assert id_leq(v, w) == diff_leq(dv, dw)


def test_region_of_matches_patch_matrix():
    # d = 5, v = (1,3,4,6,9): classifications agree with the explicit matrix
    v = ide((1, 3, 4, 6, 9), 5)
    assert region_of(v, 2, 1) is Region.ROOT_POS
    assert region_of(v, 2, 3) is Region.ROOT_NEG
    assert region_of(v, 5, 6) is Region.DIAG  # 5 = 11 - 6
    assert region_of(v, 7, 6) is Region.BELOW
    assert region_of(v, 3, 3) is Region.NOT_GRID  # row inside v
    assert region_of(v, 2, 2) is Region.NOT_GRID  # column outside v


def test_roots_are_the_root_positions_of_the_paper_grid_through_d8():
    # roots_of is the package's one root rule and split_chain refuses every
    # other point; the paper's five-way rule must say ROOT_NEG or ROOT_POS on
    # exactly those positions, and split_chain must file each root by its sign
    positions = 0
    for d in range(1, 9):
        for beta in enumerate_id(d):
            roots = set(roots_of(beta))
            for r, c in itertools.product(range(1, 2 * d + 1), repeat=2):
                positions += 1
                region = region_of(beta, r, c)
                if (r, c) not in roots:
                    assert region not in (Region.ROOT_NEG, Region.ROOT_POS), (beta, r, c)
                    with pytest.raises(MixedSigns):
                        split_chain(((r, c),), beta)
                    continue
                assert region is (Region.ROOT_NEG if r < c else Region.ROOT_POS), (beta, r, c)
                assert split_chain(((r, c),), beta) == ((((r, c),), ()) if r < c else ((), ((r, c),)))
                # a point given as a list is a root too, and is handed back as a tuple
                assert split_chain(([r, c],), beta) == split_chain(((r, c),), beta)
    assert positions == 52212


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


def test_signed_chains_d2():
    # the one root of beta = (3, 4) is negative; its image has the top rows
    # P = (1, 2) and Q = (3, 4), so w is (3, 4) without 3, 4 and with 1, 2,
    # held as its position in I(2)
    table = grassmannian._signed_chains(ide((3, 4), 2))
    assert table == {((1, 3),): (0, ((1, 2), (3, 4)))}
    assert enumerate_id(2)[0] == ide((1, 2), 2)


def chains_of_roots(d, sign=None):
    """Every sign-pure chain of roots of I(d), each once, of the one sign
    (-1 or +1) if given."""
    chains = {}
    for beta in enumerate_id(d):
        for part_sign, part in zip((-1, +1), split_chain(roots_of(beta), beta)):
            if sign in (None, part_sign):
                chains.update(dict.fromkeys(enumerate_extended_chains(part)))
    return list(chains)


def image_of(chain, d):
    # the oracle for a chain's image: obrsk on the canonical pair (C, C^#)
    return obrsk(psi_inv(*chain_pair(chain, d)))


def table_rows(ds):
    """(beta, chain, (p, q)) for each row of the table of each beta of I(d),
    for each d in ds."""
    return [
        (beta, chain, operand)
        for d in ds
        for beta in enumerate_id(d)
        for chain, (_, operand) in grassmannian._signed_chains(beta).items()
    ]


def test_table_rows_are_the_top_rows_of_obrsk_through_d7(package_caches):
    # each row is taken by one step on its parent's top rows alone; every
    # negative chain of roots of every beta with d <= 7
    rows = table_rows(range(1, 8))
    assert len(rows) == 4374
    for beta, chain, (p, q) in rows:
        image = image_of(chain, beta.d)
        assert (p, q) == (image.P[0], image.Q[0]), (beta, chain)


def test_positive_chain_pairs_are_the_down_sets_of_obrsk_through_d7(package_caches):
    # w_of_chain reads a positive chain through the mirror, as mirror of the
    # w of the negative chain phi(C) of mirror(beta); it must be what the
    # down set of obrsk's image gives by the row rule
    rows = 0
    for d in range(1, 8):
        for beta in enumerate_id(d):
            for chain in enumerate_extended_chains(split_chain(roots_of(beta), beta)[1]):
                pairs = up_down(obrsk(psi_inv(*chain_pair(chain, d))))[1]
                entries = set(beta.entries) - {y for _, y in pairs} | {x for x, _ in pairs}
                assert w_of_chain(chain, beta) == ide(entries, d), (beta, chain)
                rows += 1
    assert rows == 4374


def test_every_chain_of_roots_through_d8_has_a_valid_skew_pair():
    # _signed_chains builds and checks no skew pair; this certifies that
    # every chain it steps through, each sign's chains of roots of a beta as
    # enumerate_extended_chains yields them, is a nonempty sign-pure chain
    # sorted by position whose pair (C, C^#) is a valid skew pair
    chains = [(chain, d) for d in range(1, 9) for chain in chains_of_roots(d)]
    assert len(chains) == 11030
    assert all(chain == tuple(sorted(chain)) for chain, _ in chains)
    invalid = [(chain, d) for chain, d in chains if validate_skew_pair(psi_inv(*chain_pair(chain, d)))]
    assert invalid == []


def test_table_rows_are_the_steps_of_obrsk_through_d5(package_caches):
    # obrsk consumes a negative chain's points in order, so the top rows of
    # its k-th intermediate bitableau are the row of the first k points
    for beta, chain, _ in table_rows(range(1, 6)):
        table = grassmannian._signed_chains(beta)
        steps = obrsk_negative_steps(psi_inv(*chain_pair(chain, beta.d)))
        rows = [table[chain[:k]][1] for k in range(1, len(chain) + 1)]
        assert [(b.P[0], b.Q[0]) for b in steps] == rows, (beta, chain)


def test_positive_chain_images_go_through_L_through_d6(package_caches):
    # L of a positive chain's pair is its transpose's pair, as hash_reflect
    # commutes with swapping the coordinates, so the image is iota of the
    # transpose's image, the rule obrsk applies to a positive part
    chains = [(chain, d) for d in range(1, 7) for chain in chains_of_roots(d, +1)]
    assert chains
    for chain, d in chains:
        assert psi_inv(*chain_pair(transpose(chain), d)) == L_involution(psi_inv(*chain_pair(chain, d))), (chain, d)


def test_tables_take_one_forward_step_per_row_over_all_d4_triples(monkeypatch, package_caches):
    # a forward step per row of each beta's table and nothing else: a
    # positive half is the mirror of a negative one, and no chain is imaged
    # by obrsk
    steps = []
    original_step = grassmannian.forward_step

    def counted_step(*args):
        steps.append(args)
        return original_step(*args)

    monkeypatch.setattr(grassmannian, "forward_step", counted_step)
    monkeypatch.setattr(grassmannian, "obrsk", lambda p: pytest.fail("a table called obrsk"))
    for alpha, beta, gamma in ordered_triples(4):
        defining_chains(alpha, beta, gamma)
    assert not hasattr(grassmannian, "iota")
    assert len(steps) == 36


def test_w_of_chain_d2():
    beta = ide((3, 4), 2)
    w = w_of_chain(((1, 3),), beta)
    assert w.entries == (1, 2)


def test_w_of_chain_d3_positive():
    beta = ide((1, 2, 3), 3)
    w = w_of_chain(((4, 1),), beta)
    assert w.entries == (2, 4, 6)
    assert id_leq(beta, w)


def reference_w_of_chain(chain, beta):
    # the rule itself: the seconds of the up set (negative chain) or the down
    # set (positive chain) of the chain image leave beta, the firsts come in
    pairs = up_down(image_of(chain, beta.d))[0 if chain[0][0] < chain[0][1] else 1]
    entries = set(beta.entries) - {y for _, y in pairs} | {x for x, _ in pairs}
    return ide(entries, beta.d)


def test_w_of_chain_matches_reference_on_every_chain_d4():
    for d in (1, 2, 3, 4):
        for beta in enumerate_id(d):
            for part in split_chain(roots_of(beta), beta):
                for chain in enumerate_extended_chains(part):
                    w = w_of_chain(chain, beta)
                    assert w == reference_w_of_chain(chain, beta), (beta, chain)
                    # any order of the points names the same chain, and a
                    # point may be given as a list
                    assert w_of_chain(chain[::-1], beta) == w
                    assert w_of_chain([list(p) for p in chain], beta) == w


def test_w_of_chain_rejects_what_is_not_a_chain_of_its_sign():
    beta = ide((1, 3, 4, 6, 9), 5)
    neg, pos = split_chain(roots_of(beta), beta)
    assert neg and pos
    for chain in (
        (),  # empty
        (neg[0], neg[0]),  # a repeated point is not a chain
        (pos[0], pos[0]),
        ((2, 3), (2, 4)),  # same row
        (neg[0], pos[0]),  # both signs
        ((5, 6),),  # a diagonal point is not a root
        (pos[0] + (1,),),  # points that are not pairs
        (pos[0][:1],),
        (5,),
        ([5],),
        (neg[0] + (1,),),
    ):
        with pytest.raises(MixedSigns):
            w_of_chain(chain, beta)


def test_signed_chains_are_one_table_per_beta_after_all_d4_triples(package_caches):
    triples = list(ordered_triples(4))
    assert len(triples) == 112
    for alpha, beta, gamma in triples:
        defining_chains(alpha, beta, gamma)
    # 8 betas, one table of negative chains each, mirror(beta) being another
    # beta of I(4); the 36 rows of their tables hold the 24 distinct
    # negative chains of roots
    assert grassmannian._signed_chains.cache_info().currsize == 8
    tables = [grassmannian._signed_chains(b) for b in enumerate_id(4)]
    assert (sum(map(len, tables)), len(set().union(*tables))) == (36, 24)


def test_table_positions_are_the_elements_of_beta_less_q_plus_p_through_d8(package_caches):
    # _signed_chains looks each w up by its entry list and builds no
    # element; here each is built and checked, and must sit at its position
    rows = 0
    for d in range(1, 9):
        elements = enumerate_id(d)
        for beta in elements:
            for chain, (w, (p, q)) in grassmannian._signed_chains(beta).items():
                element = IdElement(tuple(set(beta.entries) - set(q) | set(p)), d)
                assert elements[w] == element and id_leq(element, beta), (beta, chain)
                rows += 1
    assert rows == 19_665


def test_chain_tables_and_halves_build_no_element_over_all_d4_triples(monkeypatch, package_caches):
    # I(4) is built once, by _id_poset; the tables and the halves of all
    # 112 triples then build no element, as w and the mirrored halves are
    # positions.  The main check reads each of the 70 halves from its one
    # memo: generators, the multichains and the chains share one scan.
    triples = list(ordered_triples(4))
    built = []
    original = IdElement.__post_init__

    def counted(self):
        built.append(self.entries)
        original(self)

    monkeypatch.setattr(IdElement, "__post_init__", counted)
    for alpha, beta, gamma in triples:
        defining_chains(alpha, beta, gamma)
    assert grassmannian._signed_chains.cache_info().currsize == 8
    assert grassmannian._half.cache_info().currsize == 70
    for alpha, beta, gamma in triples:
        assert verify_main_theorem(alpha, beta, gamma, 3).passed
    info = grassmannian._half.cache_info()
    assert (info.misses, info.currsize) == (70, 70)
    assert built == []
    # the spy sees what is built
    mirror(triples[0][0])
    assert len(built) == 1


def test_t_w_bounds():
    # T of the half (alpha, beta), as the row pair the package compares, and
    # W of the half (beta, gamma), which only the oracle builds
    alpha, beta, gamma = ide((1, 2, 3), 3), ide((1, 4, 5), 3), ide((3, 5, 6), 3)
    assert grassmannian._half_bound(alpha, beta) == ((2, 3), (4, 5))
    assert half_bound(alpha, beta) == ((2, 4), (3, 5))
    assert half_bound(gamma, beta) == ((3, 1), (6, 4))
    with pytest.raises(BoundsNotComparable):
        defining_chains(beta, alpha, gamma)


def test_half_bounds_through_d8_are_signed_plane_sets():
    # _half_bound checks nothing: alpha <= beta makes T, its two rows paired
    # by rank, a negative plane set, for every negative half with d <= 8;
    # the oracle's W of every positive half is a positive one
    halves = [
        (bound, beta)
        for d in range(1, 9)
        for beta, bound in itertools.product(enumerate_id(d), repeat=2)
        if id_leq(bound, beta)
    ]
    assert len(halves) == 8788
    wrong = [half for half in halves if not is_signed_plane_set(tuple(zip(*grassmannian._half_bound(*half))), -1)]
    assert wrong == []
    wrong = [half for half in halves if not is_signed_plane_set(half_bound(mirror(half[0]), mirror(half[1])), +1)]
    assert wrong == []


def test_mirror_is_an_order_reversing_involution_through_d6():
    pairs = 0
    for d in range(1, 7):
        elements = enumerate_id(d)
        assert sorted(map(mirror, elements), key=lambda v: v.entries) == list(elements)
        for v in elements:
            assert mirror(mirror(v)) == v, v
        for v, w in itertools.product(elements, repeat=2):
            assert id_leq(v, w) == id_leq(mirror(w), mirror(v)), (v, w)
            pairs += 1
    assert pairs == 1365


def test_mirror_permutation_is_mirror_on_positions_through_d8(package_caches):
    # the chain side mirrors positions; the permutation must be mirror on
    # the elements, an involution, and must reverse the up sets
    for d in range(1, 9):
        elements, _, up, mirrored = grassmannian._id_poset(d)
        assert [elements[j] for j in mirrored] == [mirror(v) for v in elements], d
        assert [mirrored[j] for j in mirrored] == list(range(len(elements))), d
        for i, j in enumerate(mirrored):
            assert up[j] == {mirrored[k] for k in range(len(elements)) if i in up[k]}, (d, i)


def test_phi_maps_the_roots_of_beta_onto_those_of_its_mirror_through_d8():
    # negative roots onto positive ones and back, and chains onto chains
    chains = 0
    for d in range(1, 9):
        for beta in enumerate_id(d):
            neg, pos = split_chain(roots_of(beta), beta)
            m_neg, m_pos = split_chain(roots_of(mirror(beta)), mirror(beta))
            assert sorted(phi(p, d) for p in neg) == sorted(m_pos), beta
            assert sorted(phi(p, d) for p in pos) == sorted(m_neg), beta
            assert all(phi(phi(p, d), d) == p for p in roots_of(beta)), beta
            mirrored = [frozenset(phi(p, d) for p in chain) for chain in enumerate_extended_chains(pos)]
            assert set(mirrored) == set(map(frozenset, enumerate_extended_chains(m_neg))), beta
            chains += len(mirrored)
    assert chains == 19665


def test_mirrored_positive_halves_equal_the_direct_positive_rule_through_d7(package_caches):
    # _half reads a positive half as phi of the negative half
    # of (mirror(gamma), mirror(beta)); the oracle decides each positive
    # chain from obrsk's down set by w and by boundedness against W
    halves = 0
    for d in range(1, 8):
        for beta in enumerate_id(d):
            rows = positive_chain_rows(beta)
            for gamma in enumerate_id(d):
                if id_leq(beta, gamma):
                    mirrored = grassmannian._half(gamma, beta, +1).chains
                    assert len(set(mirrored)) == len(mirrored)
                    assert set(mirrored) == positive_half(gamma, beta, rows), (gamma, beta)
                    halves += 1
    assert halves == 2353


def test_rows_leq_decides_every_chain_as_the_formal_differences_do_through_d6(package_caches):
    # the one counting order against the paper's, on formal differences, at
    # every chain decision of every half: a negative chain's up set against
    # T, and a positive chain's down set (direct rule) against W
    decisions = 0
    for d in range(1, 7):
        for beta in enumerate_id(d):
            negative = grassmannian._signed_chains(beta)
            positive = positive_chain_rows(beta)
            ups = {chain: up_down(image_of(chain, d))[0] for chain in negative}
            for chain, (_, operand) in negative.items():
                assert operand == (proj1(ups[chain]), proj2(ups[chain])), (beta, chain)
            for bound in enumerate_id(d):
                if id_leq(bound, beta):
                    t = half_bound(bound, beta)
                    for chain, (_, operand) in negative.items():
                        expected = diff_leq(plane_diff(t), plane_diff(ups[chain]))
                        assert rows_leq(grassmannian._half_bound(bound, beta), operand) == expected
                        decisions += 1
                if id_leq(beta, bound):
                    w = half_bound(bound, beta)
                    for chain, (_, down) in positive.items():
                        expected = diff_leq(plane_diff(down), plane_diff(w))
                        assert rows_leq((proj1(down), proj2(down)), (proj1(w), proj2(w))) == expected
                        decisions += 1
    assert decisions == 39856


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


def test_points_given_as_lists_are_read_as_tuples():
    beta = ide((3, 4), 2)
    alpha = ide((1, 2), 2)
    assert split_chain([[1, 3]], beta) == (((1, 3),), ())
    assert w_of_chain([[1, 3]], beta) == w_of_chain(((1, 3),), beta) == alpha
    assert is_quotient_monomial([[1, 3], [1, 3]], alpha, beta, beta)
    assert not is_quotient_monomial([[1, 3]], beta, beta, beta)
    # a point that is not a pair at all is no root
    for point in (5, [5], "13"):
        with pytest.raises(MixedSigns, match="is not a root of the grid of 3,4"):
            split_chain((point,), beta)
        with pytest.raises(MixedSigns, match="is not a root of the grid of 3,4"):
            is_quotient_monomial((point,), alpha, beta, beta)


def test_is_quotient_monomial_names_the_first_stray_point_as_given():
    # stray points that do not compare with each other, or with a root,
    # are refused one at a time in the order given, never sorted
    beta = ide((3, 4), 2)
    alpha = ide((1, 2), 2)
    for u, first in [
        ((5, (9, 9)), "5"),
        (((9, 9), 5), r"\(9, 9\)"),
        (((1, 3), "13", (1, 3)), "'13'"),
        (((1, 3), None), "None"),
    ]:
        with pytest.raises(MixedSigns, match=f"^{first} is not a root of the grid of 3,4$"):
            is_quotient_monomial(u, alpha, beta, beta)


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
    # flip the boundedness route: every chain of roots now disagrees with
    # the chain-membership route
    original = grassmannian.rows_leq
    monkeypatch.setattr(grassmannian, "rows_leq", lambda *args: not original(*args))
    alpha, beta, gamma = ide((1, 2, 3), 3), ide((1, 4, 5), 3), ide((3, 5, 6), 3)
    with pytest.raises(VerificationError, match="disagree"):
        defining_chains(alpha, beta, gamma)
    with pytest.raises(VerificationError):
        is_quotient_monomial((), alpha, beta, gamma)
    # generators decides the halves' chains on first use, so the CLI
    # commands that only list generators or count dimensions fail too
    with pytest.raises(VerificationError, match="disagree"):
        generators(alpha, beta, gamma)
    triple = ["--d", "3", "--alpha", "1,2,3", "--beta", "1,4,5", "--gamma", "3,5,6"]
    assert ideal_main(["generators", *triple]) == EXIT_FAILED
    assert ideal_main(["hilbert", *triple]) == EXIT_FAILED


def test_defining_chains_routes_disagree_when_w_is_wrong(monkeypatch, package_caches):
    # rows whose w is beta itself: the chain-membership route reads every
    # chain as good, while in the point case every chain is bad
    original = grassmannian._signed_chains

    def wrong_w(beta):
        b = enumerate_id(beta.d).index(beta)
        return {chain: (b, operand) for chain, (_, operand) in original(beta).items()}

    beta = ide((1, 4, 5), 3)
    assert defining_chains(beta, beta, beta)
    grassmannian._half.cache_clear()
    monkeypatch.setattr(grassmannian, "_signed_chains", wrong_w)
    with pytest.raises(VerificationError, match="disagree"):
        defining_chains(beta, beta, beta)


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
    # membership route and by boundedness of its image by (T, W), which must
    # agree; the minimal bad chains kept
    t = half_bound(alpha, beta)
    w = half_bound(gamma, beta)
    bad = []
    for part in split_chain(roots_of(beta), beta):
        for chain in enumerate_extended_chains(part):
            within = bitableau_bounded_by(image_of(chain, beta.d), t, w)
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
