import copy
import itertools
import pickle
import re
from collections import Counter

import pytest

from obrsk.errors import NotSemistandard, NotSkewSymmetric, ShapeMismatch, ValidationError
from obrsk.tableaux import (
    NotchedBitableau,
    SignKind,
    classify_sign,
    row_sign,
    validate_semistandard,
    validate_skew_symmetric,
)
from oracles import (
    bitableau_bounded_by,
    enumerate_even_bitableaux,
    iota,
    row_diffs_weakly_increase,
    sorted_row_sign,
    up_down,
)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch, match=r"^shapes differ: \(2,\) vs \(1,\)$"):
        NotchedBitableau([[1, 2]], [[3]])
    # a side, or a row of it, that is not a sequence is named
    for sides, message in [
        (([1], [2]), "row 1 of P is not a sequence: 1"),
        ((5, [[1]]), "P is not a sequence of rows: 5"),
        (([[1]], [[2], 3.5]), "row 2 of Q is not a sequence: 3.5"),
        (([[1]], None), "Q is not a sequence of rows: None"),
    ]:
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            NotchedBitableau(*sides)


def test_row_strict():
    assert validate_semistandard(NotchedBitableau([[1, 3, 7], [2, 4]], [[1, 3, 7], [2, 4]]))
    assert not validate_semistandard(NotchedBitableau([[1, 3, 3]], [[1, 2, 4]]))
    assert not validate_semistandard(NotchedBitableau([[1, 2, 4]], [[1, 3, 3]]))
    assert validate_semistandard(NotchedBitableau((), ()))


def test_semistandard_fixture(worked_bitableau):
    assert validate_semistandard(worked_bitableau)


def test_semistandard_empty():
    assert validate_semistandard(NotchedBitableau((), ()))


def test_semistandard_row_order_matters():
    # single rows in the wrong vertical order are not semistandard
    good = NotchedBitableau([[1, 2], [3, 4]], [[5, 6], [5, 6]])
    swapped = NotchedBitableau([[3, 4], [1, 2]], [[5, 6], [5, 6]])
    assert validate_semistandard(good)
    assert not validate_semistandard(swapped)


def strict_rows(max_entry, max_length):
    return [row for k in range(1, max_length + 1) for row in itertools.combinations(range(1, max_entry + 1), k)]


def test_semistandard_equals_the_row_differences_on_every_two_row_bitableau():
    # every two-row bitableau of strictly increasing rows of length <= 2
    # with entries <= 5: rows_leq reads the counting order off the rows as
    # they stand, and must agree with the formal differences everywhere
    rows = strict_rows(5, 2)
    row_pairs = [(p, q) for p in rows for q in rows if len(p) == len(q)]
    verdicts = Counter()
    for (p1, q1), (p2, q2) in itertools.product(row_pairs, repeat=2):
        b = NotchedBitableau([p1, p2], [q1, q2])
        semistandard = validate_semistandard(b)
        assert semistandard == row_diffs_weakly_increase(b), b
        verdicts[semistandard] += 1
    assert verdicts[True] and verdicts[False]


def test_row_sign_equals_the_sorted_entries_definition():
    rows = strict_rows(7, 4)
    signs = Counter()
    for prow in rows:
        for qrow in rows:
            if len(prow) == len(qrow):
                sign = row_sign(prow, qrow)
                assert sign == sorted_row_sign(prow, qrow), (prow, qrow)
                signs[sign] += 1
    assert signs[-1] == signs[+1] and signs[0]


def test_skew_symmetric_fixture(worked_bitableau):
    assert validate_skew_symmetric(worked_bitableau)


def test_skew_symmetric_needs_even_rows():
    assert not validate_skew_symmetric(NotchedBitableau([[1, 2, 3]], [[4, 5, 6]]))


def test_skew_symmetric_duality_failure():
    # semistandard, but 1 < 2 while their duals 3 < 4 fail to decrease
    assert not validate_skew_symmetric(NotchedBitableau([[1, 4]], [[2, 3]]))


def test_skew_symmetric_rejects_non_semistandard():
    with pytest.raises(NotSemistandard):
        validate_skew_symmetric(NotchedBitableau([[2, 1]], [[3, 4]]))


@pytest.mark.parametrize(
    "rows, verdict",
    [(([[1, 2]], [[3, 4]]), True), (([[1, 4]], [[2, 3]]), False), (([[1, 2, 3]], [[4, 5, 6]]), False)],
)
def test_the_kept_verdict_is_not_part_of_the_value(rows, verdict):
    # a bitableau whose verdict has been asked equals, hashes and prints as
    # one whose verdict has not, and so do their copies and pickled copies,
    # which give the same verdict
    checked, fresh = NotchedBitableau(*rows), NotchedBitableau(*rows)
    assert validate_skew_symmetric(checked) is verdict
    copies = [copy.copy(checked), pickle.loads(pickle.dumps(checked))]
    copies += [copy.copy(fresh), pickle.loads(pickle.dumps(fresh))]
    for b in [checked, *copies]:
        assert b == fresh and hash(b) == hash(fresh) and repr(b) == repr(fresh)
    assert len({checked, fresh, *copies}) == 1
    assert repr(fresh) == f"NotchedBitableau(P={fresh.P!r}, Q={fresh.Q!r})"
    for b in copies:
        assert validate_skew_symmetric(b) is verdict


def test_one_row_duality_exhaustive():
    # brute-force oracle: a single even row is skew-symmetric iff the value ->
    # dual map collected from both sides is strictly decreasing
    for prow in itertools.combinations(range(1, 7), 2):
        for qrow in itertools.combinations(range(1, 7), 2):
            b = NotchedBitableau([prow], [qrow])
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
    cls = classify_sign(NotchedBitableau((), ()))
    assert cls.kind is SignKind.NONVANISHING
    assert cls.negative_rows == 0


def test_classify_rejects_vanishing_row():
    cls = classify_sign(NotchedBitableau([[3, 4]], [[3, 4]]))
    assert cls.kind is SignKind.VANISHING


def test_classify_entrywise_not_just_counting():
    # below the empty difference in the counting order, yet not negative:
    # sorted entries do not dominate entrywise (1 vs 1), and the inverse
    # correspondence would be stuck on it
    cls = classify_sign(NotchedBitableau([[1, 2, 3, 5]], [[1, 3, 4, 5]]))
    assert cls.kind is SignKind.VANISHING


def test_classify_requires_skew_symmetric():
    with pytest.raises(NotSkewSymmetric):
        classify_sign(NotchedBitableau([[1, 4]], [[2, 3]]))


def test_iota_fixture(worked_bitableau):
    flipped = iota(worked_bitableau)
    assert classify_sign(flipped).kind is SignKind.POSITIVE
    assert iota(flipped) == worked_bitableau
    assert flipped.P == worked_bitableau.Q[::-1]


def reference_sign_kind(b):
    # the kind read off the row signs one by one: a row without a sign, or a
    # negative row below a positive one, vanishes
    signs = [row_sign(p, q) for p, q in zip(b.P, b.Q)]
    if 0 in signs or signs != sorted(signs):
        return SignKind.VANISHING
    if signs and set(signs) == {-1}:
        return SignKind.NEGATIVE
    if signs and set(signs) == {+1}:
        return SignKind.POSITIVE
    return SignKind.NONVANISHING


def test_classify_sign_and_iota_agree_with_the_row_signs_on_every_even_bitableau():
    # the oracle iota reads the sign kind through classify_sign; it raises
    # on exactly the vanishing bitableaux.  No bitableau has a positive row
    # above a negative one (classify_sign's docstring says why), so
    # classify_sign does not look for one
    bitableaux = enumerate_even_bitableaux(6, 4)
    kinds = Counter()
    for b in bitableaux:
        signs = [row_sign(p, q) for p, q in zip(b.P, b.Q)]
        assert not any(s1 > 0 > s2 for s1, s2 in itertools.combinations(signs, 2)), b
        cls = classify_sign(b)
        kind = cls.kind
        assert kind is reference_sign_kind(b), b
        kinds[kind] += 1
        if kind is SignKind.VANISHING:
            with pytest.raises(NotSkewSymmetric):
                iota(b)
            continue
        assert cls.negative_rows == signs.count(-1)
        assert iota(iota(b)) == b
    assert len(bitableaux) == 767
    assert kinds[SignKind.VANISHING] == 289
    assert all(kinds[kind] for kind in SignKind)


def test_sign_split_counts_the_negative_rows_on_every_even_bitableau():
    # the count splits the rows where the signs turn from -1 to +1
    for b in enumerate_even_bitableaux(6, 4):
        kind, n_neg = classify_sign(b)
        assert kind is reference_sign_kind(b), b
        signs = [row_sign(p, q) for p, q in zip(b.P, b.Q)]
        if b.is_empty:
            assert n_neg == 0
        elif kind is not SignKind.VANISHING:
            assert signs == [-1] * n_neg + [+1] * (len(signs) - n_neg), b


def test_tableau_shape_is_its_row_lengths_and_list_rows_equal_tuple_rows():
    for b in enumerate_even_bitableaux(6, 4):
        assert b.shape == tuple(map(len, b.P)) == tuple(map(len, b.Q))
        assert b.degree == sum(b.shape)
        from_lists = NotchedBitableau([list(row) for row in b.P], [list(row) for row in b.Q])
        assert from_lists == b and hash(from_lists) == hash(b)
        assert repr(from_lists) == repr(b)


def test_up_down_fixture(worked_bitableau):
    up, down = up_down(worked_bitableau)
    assert up == ((3, 10), (4, 17), (12, 25), (19, 26))
    assert down == ((4, 14), (15, 25))


def test_up_down_empty():
    assert up_down(NotchedBitableau((), ())) == ((), ())


def test_bounded_by_fixture(worked_bitableau):
    up = ((3, 10), (4, 17), (12, 25), (19, 26))
    # T equal to up itself bounds the bitableau; W is vacuous (no positive part)
    assert bitableau_bounded_by(worked_bitableau, up, ((9, 5),))
    # T with a larger first coordinate at the same height does not
    assert not bitableau_bounded_by(worked_bitableau, ((5, 10), (6, 17), (13, 25), (20, 26)), ((9, 5),))


def test_bounded_by_empty_parts():
    assert bitableau_bounded_by(NotchedBitableau((), ()), ((1, 2),), ((2, 1),))


def test_bounded_by_bad_bounds(worked_bitableau):
    with pytest.raises(ValidationError, match="not a negative plane set"):
        bitableau_bounded_by(worked_bitableau, ((5, 3),), ((9, 5),))
    with pytest.raises(ValidationError, match="not a positive plane set"):
        bitableau_bounded_by(worked_bitableau, ((3, 5),), ((5, 9),))
    with pytest.raises(ValidationError):
        bitableau_bounded_by(worked_bitableau, ((1.9, 3.5),), ())

