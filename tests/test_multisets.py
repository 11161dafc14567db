import pytest
from hypothesis import given, strategies as st

from obrsk.errors import ContainmentViolation, MinusNotSet, ValidationError
from obrsk.multisets import (
    Cmp,
    EMPTY_DIFF,
    FormalDiff,
    count_le,
    diff_compare,
    is_chain,
    multiset_minus,
    nat_multiset,
    plane_compare,
    plane_multiset,
)


def test_count_le():
    m = nat_multiset([4, 15, 15, 25])
    assert count_le(m, 3) == 0
    assert count_le(m, 4) == 1
    assert count_le(m, 15) == 3
    assert count_le(m, 100) == 4
    assert count_le((), 7) == 0


def test_multiset_minus():
    assert multiset_minus((1, 2, 2, 5), (2, 5)) == (1, 2)
    assert multiset_minus((3,), ()) == (3,)
    with pytest.raises(ContainmentViolation):
        multiset_minus((1, 2), (2, 2))


def test_minus_part_must_be_a_set():
    with pytest.raises(MinusNotSet):
        FormalDiff((1,), (2, 2))


def test_empty_diff_counts_like_n():
    assert EMPTY_DIFF.count(7) == 7
    assert diff_compare(EMPTY_DIFF, EMPTY_DIFF) is Cmp.EQUAL


def test_fixture_bottom_row_is_below_empty():
    # the bottom row of the worked example: {4,15} - {14,25} against N
    d = FormalDiff((4, 15), (14, 25))
    assert diff_compare(d, EMPTY_DIFF) is Cmp.LESS
    assert diff_compare(EMPTY_DIFF, d) is Cmp.GREATER


def test_diff_compare_distinguishes_minus_parts():
    d1 = FormalDiff((3, 12), (17, 26))
    d2 = FormalDiff((3, 12), (17, 25))
    # removing 26 from N leaves the smaller element 25 in place
    assert diff_compare(d1, d2) is Cmp.LESS


def test_diff_compare_incomparable():
    d1 = FormalDiff((1,), (2,))
    d2 = FormalDiff((2,), (1,))
    # d1 has the smaller plus entry but also removes the smaller complement
    assert diff_compare(d1, FormalDiff((), ())) is Cmp.LESS
    assert diff_compare(FormalDiff((1, 4), ()), FormalDiff((2, 3), ())) is Cmp.INCOMPARABLE


def test_plane_compare():
    assert plane_compare(((1, 4),), ((2, 3),)) is Cmp.LESS
    assert plane_compare(((2, 3),), ((1, 4),)) is Cmp.GREATER
    assert plane_compare(((1, 4),), ((1, 4),)) is Cmp.EQUAL
    with pytest.raises(MinusNotSet):
        plane_compare(((1, 4), (2, 4)), ())


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


def test_is_chain():
    assert is_chain(())
    assert is_chain(((1, 6), (2, 5), (4, 2)))
    assert not is_chain(((1, 6), (2, 6)))
    assert not is_chain(((1, 3), (2, 5)))
    assert not is_chain(((1, 3), (1, 3)))


small_multisets = st.lists(st.integers(min_value=1, max_value=12), max_size=6).map(nat_multiset)
small_sets = st.lists(
    st.integers(min_value=1, max_value=12), max_size=6, unique=True
).map(nat_multiset)


@given(small_multisets, small_sets)
def test_diff_compare_reflexive(plus, minus):
    assert diff_compare(FormalDiff(plus, minus), FormalDiff(plus, minus)) is Cmp.EQUAL


@given(small_multisets, small_sets, small_multisets, small_sets)
def test_diff_compare_antisymmetric(p1, m1, p2, m2):
    d1, d2 = FormalDiff(p1, m1), FormalDiff(p2, m2)
    forward, backward = diff_compare(d1, d2), diff_compare(d2, d1)
    flipped = {Cmp.LESS: Cmp.GREATER, Cmp.GREATER: Cmp.LESS}
    assert backward is flipped.get(forward, forward)


def reference_diff_compare(d1, d2):
    """The counting order straight from its definition: every z up to the
    greatest entry, then the tails."""
    zmax = max((*d1.plus, *d1.minus, *d2.plus, *d2.minus), default=0)
    counts = [(d1.count(z), d2.count(z)) for z in range(1, zmax + 1)]
    counts.append((d1.tail_offset, d2.tail_offset))
    le = all(c1 >= c2 for c1, c2 in counts)
    ge = all(c1 <= c2 for c1, c2 in counts)
    return {(True, True): Cmp.EQUAL, (True, False): Cmp.LESS, (False, True): Cmp.GREATER}.get(
        (le, ge), Cmp.INCOMPARABLE
    )


@given(small_multisets, small_sets, small_multisets, small_sets)
def test_diff_compare_equals_the_definition(p1, m1, p2, m2):
    d1, d2 = FormalDiff(p1, m1), FormalDiff(p2, m2)
    assert diff_compare(d1, d2) is reference_diff_compare(d1, d2)


def test_diff_compare_at_huge_entries():
    # walking every z up to 10^12 would take days
    big = 10**12
    assert diff_compare(FormalDiff((1, big), (big + 1,)), FormalDiff((big,), ())) is Cmp.LESS
    assert diff_compare(FormalDiff((big,), ()), FormalDiff((1, big), (big + 1,))) is Cmp.GREATER
    assert diff_compare(FormalDiff((2, big), ()), FormalDiff((1, big + 1), ())) is Cmp.INCOMPARABLE
    assert diff_compare(FormalDiff((big,), (big,)), EMPTY_DIFF) is Cmp.EQUAL


@given(small_multisets, small_multisets)
def test_multiset_minus_roundtrip(a, b):
    joined = nat_multiset(a + b)
    assert multiset_minus(joined, b) == a


@given(small_multisets, small_sets)
def test_counting_function_eventually_linear(plus, minus):
    d = FormalDiff(plus, minus)
    zmax = max((*plus, *minus), default=0)
    for z in (zmax + 1, zmax + 5):
        assert d.count(z) == z + d.tail_offset
