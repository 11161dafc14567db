"""The bounded insertion correspondence between skew pairs and bitableaux.

One forward step consumes a column (a, b) of pi1 together with its dual
column (c, d) of pi2.  The entry a is inserted into P bounded by b: within a
row only the entries below b may be bumped, and the bumped entry is the
smallest one >= a among them; if none exists, a lands at the end of that
prefix and the chain stops.  The mirror image of the bumping path is replayed
on Q from the right with c.  Finally d is appended to the terminal row of P
and b is prefixed to the terminal row of Q.

P and Q are walked together, one row at a time: the entry at forward
position i of a row of P (i-th from the left) matches the entry at backward
position i of the same row of Q (i-th from the right), which has the same
length.  forward_step and reverse_step are the one step each way.
"""

from __future__ import annotations

import bisect

from .arrays import SkewPair, psi_inv, split_parts, validate_skew_pair, L_involution
from .errors import BoundViolation, EmptyBitableau, InvalidPair, NotNegative, PathShapeMismatch
from .tableaux import EMPTY_BITABLEAU, NotchedBitableau, NotchedTableau, SignKind, classify_sign, iota, sign_split


def forward_step(bit, a, b, c, d):
    """One step of the correspondence: insert a into P bounded by b, carrying
    c through Q along the mirrored path, then append d to the terminal row of
    P and put b in front of the terminal row of Q."""
    if a >= b:
        raise BoundViolation(f"entry {a} must be below its bound {b}")
    prows = [list(r) for r in bit.P.rows]
    qrows = [list(r) for r in bit.Q.rows]
    x, y = a, c
    for prow, qrow in zip(prows, qrows):
        prefix = bisect.bisect_left(prow, b)  # entries < b form a prefix
        i = bisect.bisect_left(prow, x)
        if i >= prefix:
            prow.insert(prefix, x)
            prow.append(d)
            qrow.insert(len(qrow) - prefix, y)
            qrow.insert(0, b)
            break
        j = len(qrow) - 1 - i
        x, prow[i] = prow[i], x
        y, qrow[j] = qrow[j], y
    else:
        prows.append([x, d])
        qrows.append([b, y])
    return NotchedBitableau(NotchedTableau(prows), NotchedTableau(qrows))


def _negative_image(p):
    """The correspondence on a negative skew pair, which is not checked."""
    bit = EMPTY_BITABLEAU
    for bit in obrsk_negative_steps(p):
        pass
    return bit


def obrsk_negative_steps(p):
    """Yield the intermediate bitableaux of the correspondence on a negative
    pair, one per column."""
    t = p.width
    bit = EMPTY_BITABLEAU
    for i in range(t):
        bit = forward_step(bit, p.a[i], p.b[i], p.c[t - 1 - i], p.d[t - 1 - i])
        yield bit


def reverse_step(bit):
    """Undo one forward step.  Returns (smaller bitableau, a, b, c, d)."""
    if bit.is_empty:
        raise EmptyBitableau("nothing to reverse")
    prows = [list(r) for r in bit.P.rows]
    qrows = [list(r) for r in bit.Q.rows]
    b = min(e for row in qrows for e in row)
    s = max(i for i, row in enumerate(qrows) if b in row)
    d = prows[s].pop()
    qrows[s].remove(b)
    # the newest box of row s holds the greatest entry below b; it rises
    prow, qrow = prows[s], qrows[s]
    i = bisect.bisect_left(prow, b) - 1
    if i < 0:
        raise PathShapeMismatch(f"row {s + 1} has no entry below the bound {b}")
    x = prow.pop(i)
    y = qrow.pop(len(qrow) - 1 - i)
    for r in range(s - 1, -1, -1):
        prow, qrow = prows[r], qrows[r]
        i = bisect.bisect_right(prow, x) - 1
        if i < 0 or prow[i] >= b:
            raise PathShapeMismatch(f"no entry <= {x} below the bound {b} in row {r + 1}")
        j = len(qrow) - 1 - i
        x, prow[i] = prow[i], x
        y, qrow[j] = qrow[j], y
    while prows and not prows[-1]:
        prows.pop()
        qrows.pop()
    return NotchedBitableau(NotchedTableau(prows), NotchedTableau(qrows)), x, b, y, d


def robrsk(bit):
    """Invert the correspondence on a negative skew-symmetric bitableau."""
    kind = sign_split(bit)[0]
    if not bit.is_empty and kind is not SignKind.NEGATIVE:
        raise NotNegative(f"bitableau is {kind.value}, not negative")
    return SkewPair.from_columns(*_preimage_columns(bit))


def _preimage_columns(bit):
    """The columns of the pair that a negative bitableau comes from, by
    reverse steps and without a check that bit is negative: the pi1 columns
    (b, a) and the pi2 columns (c, d), each in its array's order."""
    cols1 = []  # (b, a), collected last column first
    cols2 = []  # (c, d), collected first column first
    while not bit.is_empty:
        bit, a, b, c, d = reverse_step(bit)
        cols1.append((b, a))
        cols2.append((c, d))
    cols1.reverse()
    return cols1, cols2


def obrsk(p):
    """The correspondence on an arbitrary valid skew pair.

    The negative part maps directly; the positive part maps through the two
    involutions (iota after the correspondence after L); the image stacks the
    negative block on top of the positive block.
    """
    violations = validate_skew_pair(p)
    if violations:
        raise InvalidPair("; ".join(violations))
    neg, pos = split_parts(p)
    neg_bit = _negative_image(neg)
    pos_bit = iota(_negative_image(L_involution(pos)))
    return NotchedBitableau(
        NotchedTableau(neg_bit.P.rows + pos_bit.P.rows),
        NotchedTableau(neg_bit.Q.rows + pos_bit.Q.rows),
    )


def obrsk_inverse(bit):
    """Invert the correspondence on a nonvanishing skew-symmetric bitableau.

    classify_sign is the one validation.  The negative block is inverted as
    robrsk inverts it; the positive block as obrsk images it, through iota
    and L.  Both preimages are taken as psi's points, and one psi_inv
    rebuilds the pair from their union.  iota's own check of the positive
    block is implied: a block of rows of a skew-symmetric bitableau is
    skew-symmetric, and classify_sign has found every row of it positive.
    psi's check of the entries is implied too, as validate_semistandard has
    found every entry an int >= 1.
    """
    cls = classify_sign(bit)
    if cls.kind is SignKind.VANISHING:
        raise NotNegative("only nonvanishing bitableaux are in the image")
    pos = cls.positive_part
    neg1, neg2 = _preimage_columns(cls.negative_part)
    # iota of the positive block, built without its check
    flipped = NotchedBitableau(NotchedTableau(pos.Q.rows[::-1]), NotchedTableau(pos.P.rows[::-1]))
    pos1, pos2 = _preimage_columns(flipped)
    # psi reads a pi1 column (b, a) as the point (a, b) and a pi2 column
    # (c, d) as (d, c); L swaps the coordinates of every point, so each
    # positive column, read as it stands, is already its point
    return psi_inv([(a, b) for b, a in neg1] + pos1, [(d, c) for c, d in neg2] + pos2)
