import itertools
from collections import Counter

import pytest

from obrsk.enumeration import enumerate_even_bitableaux
from obrsk.errors import BadBounds, NotSemistandard, NotSkewSymmetric, ShapeMismatch, ValidationError
from obrsk.tableaux import (
    EMPTY_BITABLEAU,
    NotchedBitableau,
    NotchedTableau,
    SignKind,
    bitableau_bounded_by,
    classify_sign,
    iota,
    row_sign,
    sign_split,
    up_down,
    validate_row_strict,
    validate_semistandard,
    validate_skew_symmetric,
)


def bt(p_rows, q_rows):
    return NotchedBitableau(NotchedTableau(p_rows), NotchedTableau(q_rows))


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        bt([[1, 2]], [[3]])


def test_row_strict():
    assert validate_row_strict(NotchedTableau([[1, 3, 7], [2, 4]]))
    assert not validate_row_strict(NotchedTableau([[1, 3, 3]]))
    assert validate_row_strict(NotchedTableau(()))


def test_semistandard_fixture(worked_bitableau):
    assert validate_semistandard(worked_bitableau)


def test_semistandard_empty():
    assert validate_semistandard(EMPTY_BITABLEAU)


def test_semistandard_row_order_matters():
    # single rows in the wrong vertical order are not semistandard
    good = bt([[1, 2], [3, 4]], [[5, 6], [5, 6]])
    swapped = bt([[3, 4], [1, 2]], [[5, 6], [5, 6]])
    assert validate_semistandard(good)
    assert not validate_semistandard(swapped)


def test_skew_symmetric_fixture(worked_bitableau):
    assert validate_skew_symmetric(worked_bitableau)


def test_skew_symmetric_needs_even_rows():
    assert not validate_skew_symmetric(bt([[1, 2, 3]], [[4, 5, 6]]))


def test_skew_symmetric_duality_failure():
    # semistandard, but 1 < 2 while their duals 3 < 4 fail to decrease
    assert not validate_skew_symmetric(bt([[1, 4]], [[2, 3]]))


def test_skew_symmetric_rejects_non_semistandard():
    with pytest.raises(NotSemistandard):
        validate_skew_symmetric(bt([[2, 1]], [[3, 4]]))


def test_one_row_duality_exhaustive():
    # brute-force oracle: a single even row is skew-symmetric iff the value ->
    # dual map collected from both sides is strictly decreasing
    for prow in itertools.combinations(range(1, 7), 2):
        for qrow in itertools.combinations(range(1, 7), 2):
            b = bt([prow], [qrow])
            pairs = sorted(
                [(prow[0], qrow[1]), (prow[1], qrow[0]), (qrow[0], prow[1]), (qrow[1], prow[0])]
            )
            expected = all(
                (v1 < v2 and d1 > d2) or (v1 == v2 and d1 == d2)
                for (v1, d1), (v2, d2) in zip(pairs, pairs[1:])
            )
            assert validate_skew_symmetric(b) == expected, (prow, qrow)


def test_classify_fixture(worked_bitableau):
    assert classify_sign(worked_bitableau).kind is SignKind.NEGATIVE


def test_classify_empty():
    cls = classify_sign(EMPTY_BITABLEAU)
    assert cls.kind is SignKind.NONVANISHING
    assert cls.negative_part.is_empty and cls.positive_part.is_empty


def test_classify_rejects_vanishing_row():
    cls = classify_sign(bt([[3, 4]], [[3, 4]]))
    assert cls.kind is SignKind.VANISHING


def test_classify_entrywise_not_just_counting():
    # below the empty difference in the counting order, yet not negative:
    # sorted entries do not dominate entrywise (1 vs 1), and the inverse
    # correspondence would be stuck on it
    cls = classify_sign(bt([[1, 2, 3, 5]], [[1, 3, 4, 5]]))
    assert cls.kind is SignKind.VANISHING


def test_classify_requires_skew_symmetric():
    with pytest.raises(NotSkewSymmetric):
        classify_sign(bt([[1, 4]], [[2, 3]]))


def test_iota_fixture(worked_bitableau):
    flipped = iota(worked_bitableau)
    assert classify_sign(flipped).kind is SignKind.POSITIVE
    assert iota(flipped) == worked_bitableau
    assert flipped.P.rows == worked_bitableau.Q.rows[::-1]


def reference_sign_kind(b):
    # the kind read off the row signs one by one: a row without a sign, or a
    # negative row below a positive one, vanishes
    signs = [row_sign(p, q) for p, q in zip(b.P.rows, b.Q.rows)]
    if 0 in signs or signs != sorted(signs):
        return SignKind.VANISHING
    if signs and set(signs) == {-1}:
        return SignKind.NEGATIVE
    if signs and set(signs) == {+1}:
        return SignKind.POSITIVE
    return SignKind.NONVANISHING


def test_sign_split_and_iota_agree_with_the_row_signs_on_every_even_bitableau():
    # iota reads the sign kind through sign_split, which classify_sign also
    # uses; it raises on exactly the vanishing bitableaux, and classify_sign's
    # parts stack back to the whole
    bitableaux = enumerate_even_bitableaux(6, 4)
    kinds = Counter()
    for b in bitableaux:
        kind, n_neg = sign_split(b)
        cls = classify_sign(b)
        assert kind is cls.kind is reference_sign_kind(b), b
        kinds[kind] += 1
        if kind is SignKind.VANISHING:
            with pytest.raises(NotSkewSymmetric):
                iota(b)
            continue
        assert len(cls.negative_part.P.rows) == n_neg
        assert cls.negative_part.P.rows + cls.positive_part.P.rows == b.P.rows
        assert cls.negative_part.Q.rows + cls.positive_part.Q.rows == b.Q.rows
        assert iota(iota(b)) == b
    assert len(bitableaux) == 767
    assert kinds[SignKind.VANISHING] == 289
    assert all(kinds[kind] for kind in SignKind)


def test_tableau_shape_is_its_row_lengths_and_list_rows_equal_tuple_rows():
    for b in enumerate_even_bitableaux(6, 4):
        for t in (b.P, b.Q):
            assert t.shape == tuple(map(len, t.rows))
            from_lists = NotchedTableau([list(row) for row in t.rows])
            assert from_lists == t and hash(from_lists) == hash(t)
            assert repr(from_lists) == repr(t)
    assert repr(NotchedTableau([[1, 2], [3]])) == "NotchedTableau(1 2; 3)"


def test_up_down_fixture(worked_bitableau):
    up, down = up_down(worked_bitableau)
    assert up == ((3, 10), (4, 17), (12, 25), (19, 26))
    assert down == ((4, 14), (15, 25))


def test_up_down_empty():
    assert up_down(EMPTY_BITABLEAU) == ((), ())


def test_bounded_by_fixture(worked_bitableau):
    up = ((3, 10), (4, 17), (12, 25), (19, 26))
    # T equal to up itself bounds the bitableau; W is vacuous (no positive part)
    assert bitableau_bounded_by(worked_bitableau, up, ((9, 5),))
    # T with a larger first coordinate at the same height does not
    assert not bitableau_bounded_by(worked_bitableau, ((5, 10), (6, 17), (13, 25), (20, 26)), ((9, 5),))


def test_bounded_by_empty_parts():
    assert bitableau_bounded_by(EMPTY_BITABLEAU, ((1, 2),), ((2, 1),))


def test_bounded_by_bad_bounds(worked_bitableau):
    with pytest.raises(BadBounds):
        bitableau_bounded_by(worked_bitableau, ((5, 3),), ((9, 5),))
    with pytest.raises(BadBounds):
        bitableau_bounded_by(worked_bitableau, ((3, 5),), ((5, 9),))
    with pytest.raises(ValidationError):
        bitableau_bounded_by(worked_bitableau, ((1.9, 3.5),), ())

