import pytest

from obrsk.arrays import SkewPair, psi_inv, validate_skew_pair
from obrsk.enumeration import enumerate_negative_pairs, enumerate_nonvanishing_pairs
from obrsk.errors import InvalidPair, LengthMismatch, VanishingColumn
from oracles import L_involution, is_negative_pair, psi, split_parts


def test_width_mismatch():
    # any one of the four rows of another length; the two rows of an array
    # are compared first, then the widths of the arrays.  A row that is not
    # a sequence is named
    for rows, message in [
        (((1, 2), (3,), (4, 5), (6, 7)), "rows of length 2 and 1"),
        (((5,), (1,), (), ()), "pi1 width 1 != pi2 width 0"),
        (((1,), (2,), (3,), ()), "rows of length 1 and 0"),
        (((1,), (2,), (3, 4), (5,)), "rows of length 2 and 1"),
        ((1, 2, 3, 4), "row b is not a sequence: 1"),
        (((1,), 2, (3,), (4,)), "row a is not a sequence: 2"),
        (((1,), (2,), (3,), None), "row d is not a sequence: None"),
    ]:
        with pytest.raises(LengthMismatch, match=f"^{message}$"):
            SkewPair(*rows)


def test_fixture_is_valid_negative(worked_pair):
    assert validate_skew_pair(worked_pair) == []
    assert is_negative_pair(worked_pair)
    assert worked_pair.degree == 10


def test_fixture_perturbations_are_invalid(worked_pair):
    # a_1 raised to 13 breaks a_i < d_{t+1-i} at i = 1 (13 >= 12)
    bad = SkewPair(worked_pair.b, (13,) + worked_pair.a[1:], worked_pair.c, worked_pair.d)
    assert any("a_1" in v for v in validate_skew_pair(bad))
    # swapping the first two columns of pi1 breaks lexicographic order
    bad = SkewPair((17, 17, 14, 10, 9), (3, 4, 3, 7, 4), worked_pair.c, worked_pair.d)
    assert any("lexicographic" in v for v in validate_skew_pair(bad))


@pytest.mark.parametrize(
    "row, i, value, messages",
    [
        # (iii) a_1 < d_5 fails
        ("a", 0, 13, {"a_1 = 13 not < d_5 = 12", "duality not decreasing: 12 -> 17, 13 -> 25"}),
        # (iv) b_1 < c_5 fails
        ("b", 0, 30, {"b_1 = 30 not < c_5 = 25", "duality maps value 12 to both 17 and 30"}),
        # (v) alone: 4 is paired with both c_1 and c_5
        ("c", 0, 24, {"duality maps value 4 to both 24 and 25"}),
        # (vi) a positive column opposite a negative dual column
        ("a", 4, 10, {"duality maps value 10 to both 19 and 25", "column 5 positive but dual column 1 not"}),
        # (vi) a negative column opposite a positive dual column
        ("c", 0, 19, {"duality maps value 4 to both 19 and 25", "column 5 negative but dual column 1 not"}),
    ],
)
def test_violation_messages_per_condition(worked_pair, row, i, value, messages):
    rows = {name: list(getattr(worked_pair, name)) for name in "abcd"}
    rows[row][i] = value
    bad = SkewPair(rows["b"], rows["a"], rows["c"], rows["d"])
    assert set(validate_skew_pair(bad)) == messages


def test_psi_fixture(worked_pair):
    u1, u2 = psi(worked_pair)
    assert u1 == ((3, 14), (3, 17), (4, 9), (4, 17), (7, 10))
    assert u2 == ((12, 25), (12, 26), (15, 26), (19, 22), (20, 25))
    assert psi_inv(u1, u2) == worked_pair


def test_psi_roundtrip_small():
    for p in enumerate_nonvanishing_pairs(4, 2):
        assert psi_inv(*psi(p)) == p


def test_L_fixture(worked_pair):
    flipped = L_involution(worked_pair)
    assert validate_skew_pair(flipped) == []
    assert split_parts(flipped)[0].width == 0  # every column positive
    assert flipped.b == (7, 4, 4, 3, 3)
    assert flipped.a == (10, 17, 9, 17, 14)
    assert L_involution(flipped) == worked_pair


def test_L_is_involution_and_sign_swapping():
    negatives = enumerate_negative_pairs(5, 2)
    images = set()
    for p in negatives:
        q = L_involution(p)
        assert validate_skew_pair(q) == [], p
        assert split_parts(q)[0].width == 0, p  # every column positive
        assert L_involution(q) == p
        images.add(q)
    assert len(images) == len(negatives)


def test_split_parts_fixture(worked_pair):
    neg, pos = split_parts(worked_pair)
    assert neg == worked_pair
    assert pos.width == 0


def test_split_parts_mixed():
    # one negative and one positive column; duals pair up across the mirror
    p = SkewPair((4, 1), (1, 4), (5, 6), (6, 5))
    assert validate_skew_pair(p) == []
    neg, pos = split_parts(p)
    assert neg == SkewPair((4,), (1,), (6,), (5,))
    assert pos == SkewPair((1,), (4,), (5,), (6,))


def test_split_parts_vanishing_column():
    with pytest.raises(VanishingColumn, match="a column"):
        split_parts(SkewPair((2,), (2,), (5,), (5,)))


def test_split_parts_vanishing_dual_column():
    # pi1's column is negative and pi2's has no sign: the sign counts would
    # not match either, but the vanishing column is named first
    with pytest.raises(VanishingColumn, match="a dual column"):
        split_parts(SkewPair((2,), (1,), (5,), (5,)))
    with pytest.raises(InvalidPair):
        split_parts(SkewPair((2,), (1,), (5,), (6,)))
