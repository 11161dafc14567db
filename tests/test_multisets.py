import itertools

import pytest
from hypothesis import given, strategies as st

from obrsk.errors import ValidationError
from obrsk.multisets import duality_conflict, enumerate_extended_chains
from oracles import FormalDiff, MinusNotSet, count_le, diff_leq, is_chain, nat_multiset, plane_diff, plane_multiset

EMPTY_DIFF = FormalDiff((), ())


def order(d1, d2):
    """(d1 <= d2, d2 <= d1) in the counting order: (True, False) when d1 is
    the smaller, (True, True) when the two are equal, (False, False) when
    they are incomparable."""
    return diff_leq(d1, d2), diff_leq(d2, d1)


def test_count_le():
    m = nat_multiset([4, 15, 15, 25])
    assert count_le(m, 3) == 0
    assert count_le(m, 4) == 1
    assert count_le(m, 15) == 3
    assert count_le(m, 100) == 4
    assert count_le((), 7) == 0


def test_minus_part_must_be_a_set():
    with pytest.raises(MinusNotSet):
        FormalDiff((1,), (2, 2))


def test_empty_diff_counts_like_n():
    assert EMPTY_DIFF.count(7) == 7
    assert order(EMPTY_DIFF, EMPTY_DIFF) == (True, True)


def test_fixture_bottom_row_is_below_empty():
    # the bottom row of the worked example: {4,15} - {14,25} against N
    d = FormalDiff((4, 15), (14, 25))
    assert order(d, EMPTY_DIFF) == (True, False)


def test_diff_compare_distinguishes_minus_parts():
    d1 = FormalDiff((3, 12), (17, 26))
    d2 = FormalDiff((3, 12), (17, 25))
    # removing 26 from N leaves the smaller element 25 in place
    assert order(d1, d2) == (True, False)


def test_diff_compare_incomparable():
    d1 = FormalDiff((1,), (2,))
    d2 = FormalDiff((2,), (1,))
    # d1 has the smaller plus entry but also removes the smaller complement
    assert order(d1, EMPTY_DIFF) == (True, False)
    assert order(FormalDiff((1, 4), ()), FormalDiff((2, 3), ())) == (False, False)


def test_plane_compare():
    # plane multisets compare by proj1 - proj2 in the counting order
    assert order(plane_diff(((1, 4),)), plane_diff(((2, 3),))) == (True, False)
    assert order(plane_diff(((1, 4),)), plane_diff(((1, 4),))) == (True, True)
    with pytest.raises(MinusNotSet):
        plane_diff(((1, 4), (2, 4)))


def test_plane_multiset_sorts_pairs():
    assert plane_multiset([[3, 1], (1, 4), (1, 2)]) == ((1, 2), (1, 4), (3, 1))
    assert plane_multiset([]) == ()


@pytest.mark.parametrize(
    "points",
    [
        [(2.7, 3)],
        [(2, 3.0)],
        [(True, 3)],
        [(3, False)],
        [(0, 1)],
        [(1, -2)],
        [("1", 2)],
        [(1, 2), (None, 1)],
    ],
)
def test_plane_multiset_refuses_non_positive_integers(points):
    # refused, never truncated or converted: (2.7, 3) is not (2, 3)
    with pytest.raises(ValidationError):
        plane_multiset(points)


@pytest.mark.parametrize("entries", [[True, 2], [False], [2.0], [0], [-1], ["1", 2], [1, None]])
def test_nat_multiset_refuses_non_positive_integers(entries):
    # a bool is an int to isinstance, but never a multiset entry
    with pytest.raises(ValidationError):
        nat_multiset(entries)


def test_formal_diff_refuses_bool_entries():
    with pytest.raises(ValidationError):
        FormalDiff((True,), ())
    with pytest.raises(ValidationError):
        FormalDiff((1,), (True,))


entries = st.integers(min_value=1, max_value=12)


@st.composite
def duality_pairs(draw):
    """(value, dual value) pairs with entries <= 12: points of one strictly
    decreasing map, some of them repeated, with up to two arbitrary pairs
    mixed in, so that both verdicts are common."""
    values = sorted(draw(st.sets(entries, max_size=8)))
    duals = sorted(draw(st.lists(entries, min_size=len(values), max_size=len(values), unique=True)), reverse=True)
    points = list(zip(values, duals))
    repeats = draw(st.lists(st.sampled_from(points), max_size=2)) if points else []
    extra = draw(st.lists(st.tuples(entries, entries), max_size=2))
    return draw(st.permutations(points + repeats + extra))


@given(duality_pairs())
def test_duality_map_is_consistent_exactly_when_every_two_pairs_are(pairs):
    # the lemma behind the bitableau search's bitmask prune: a well-defined
    # strictly decreasing map is a condition on every two of its pairs
    pairwise = all(duality_conflict([p, q]) is None for p, q in itertools.combinations(pairs, 2))
    assert (duality_conflict(pairs) is None) == pairwise


def test_is_chain():
    assert is_chain(())
    assert is_chain(((1, 6), (2, 5), (4, 2)))
    assert not is_chain(((1, 6), (2, 6)))
    assert not is_chain(((1, 3), (2, 5)))
    assert not is_chain(((1, 3), (1, 3)))


def test_enumerate_extended_chains_are_the_subsets_that_are_chains():
    points = ((1, 6), (1, 4), (2, 5), (2, 3), (3, 6), (4, 3), (4, 1), (5, 2))
    chains = enumerate_extended_chains(points + points[:2])  # repeats are ignored
    subsets = [c for k in range(1, len(points) + 1) for c in itertools.combinations(sorted(points), k) if is_chain(c)]
    assert len(chains) == len(set(chains))
    assert sorted(chains) == sorted(subsets)


small_multisets = st.lists(st.integers(min_value=1, max_value=12), max_size=6).map(nat_multiset)
small_sets = st.lists(
    st.integers(min_value=1, max_value=12), max_size=6, unique=True
).map(nat_multiset)


@given(small_multisets, small_sets)
def test_diff_compare_reflexive(plus, minus):
    assert diff_leq(FormalDiff(plus, minus), FormalDiff(plus, minus))


@given(small_multisets, small_sets, small_multisets, small_sets)
def test_diff_compare_antisymmetric(p1, m1, p2, m2):
    # each below the other exactly when the two count alike at every z
    d1, d2 = FormalDiff(p1, m1), FormalDiff(p2, m2)
    zmax = max((*p1, *m1, *p2, *m2), default=0)
    same = all(d1.count(z) == d2.count(z) for z in range(1, zmax + 2))
    assert (diff_leq(d1, d2) and diff_leq(d2, d1)) == same


def tail_offset(d):
    """count(z) - z for z beyond every entry of d."""
    return len(d.plus) - len(d.minus)


def reference_order(d1, d2):
    """The counting order both ways straight from its definition: every z up
    to the greatest entry, then the tails."""
    zmax = max((*d1.plus, *d1.minus, *d2.plus, *d2.minus), default=0)
    counts = [(d1.count(z), d2.count(z)) for z in range(1, zmax + 1)]
    counts.append((tail_offset(d1), tail_offset(d2)))
    return all(c1 >= c2 for c1, c2 in counts), all(c1 <= c2 for c1, c2 in counts)


@given(small_multisets, small_sets, small_multisets, small_sets)
def test_diff_compare_equals_the_definition(p1, m1, p2, m2):
    d1, d2 = FormalDiff(p1, m1), FormalDiff(p2, m2)
    assert order(d1, d2) == reference_order(d1, d2)


@given(small_multisets, small_sets, small_multisets, small_sets)
def test_diff_leq_equals_the_count_at_every_z(p1, m1, p2, m2):
    # every z from 1 to one past the greatest entry, where the counts have
    # become linear with the tail offsets
    d1, d2 = FormalDiff(p1, m1), FormalDiff(p2, m2)
    zmax = max((*p1, *m1, *p2, *m2), default=0)
    assert diff_leq(d1, d2) == all(d1.count(z) >= d2.count(z) for z in range(1, zmax + 2))


def test_diff_compare_at_huge_entries():
    # walking every z up to 10^12 would take days
    big = 10**12
    assert order(FormalDiff((1, big), (big + 1,)), FormalDiff((big,), ())) == (True, False)
    assert order(FormalDiff((2, big), ()), FormalDiff((1, big + 1), ())) == (False, False)
    assert order(FormalDiff((big,), (big,)), EMPTY_DIFF) == (True, True)


@given(small_multisets, small_sets)
def test_counting_function_eventually_linear(plus, minus):
    d = FormalDiff(plus, minus)
    zmax = max((*plus, *minus), default=0)
    for z in (zmax + 1, zmax + 5):
        assert d.count(z) == z + tail_offset(d)
