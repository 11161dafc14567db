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

Both maps work on columns.  obrsk reads each pi1 column (b, a) with its dual
pi2 column (c, d) as one step (a, b, c, d) and walks two blocks: the
negative steps (a < b) in the pair's order, and the positive steps (a > b),
taken with their (a, b) descending and each swapped to (b, a, d, c).  The
image stacks the negative block on top of the positive block flipped, P and
Q swapped and the rows reversed (_flip).  This is the paper's composition
read column by column.  The paper splits the pair into its negative and
positive parts and maps the positive part through L, which swaps the rows
of each array and restores the canonical column orders (so pi1's columns
come with the old (a, b) descending), and then through iota, which is the
flip.  L keeps each column opposite its dual: the duality map is strictly
decreasing, so pi1's columns in descending order put their duals in
ascending order.  iota's check that its argument is nonvanishing holds by
construction.  tests/oracles.py states split_parts, L and iota, and the
tests check obrsk against their composition.  obrsk_inverse undoes each
block by reverse steps and rebuilds the pair from its columns' points.
"""

from __future__ import annotations

import bisect

from .arrays import SkewPair, psi_inv, validate_skew_pair
from .errors import BoundViolation, EmptyBitableau, InvalidPair, NotNegative, PathShapeMismatch, VanishingColumn
from .tableaux import EMPTY_BITABLEAU, NotchedBitableau, NotchedTableau, SignKind, classify_sign


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


def _walk(steps):
    """The bitableaux that the forward steps (a, b, c, d) build one at a
    time from the empty one, which comes first."""
    bits = [EMPTY_BITABLEAU]
    for a, b, c, d in steps:
        bits.append(forward_step(bits[-1], a, b, c, d))
    return bits


def _column_steps(p):
    """The step (a, b, c, d) of each pi1 column (b, a) and its dual pi2
    column (c, d), in pi1's order."""
    return list(zip(p.a, p.b, reversed(p.c), reversed(p.d)))


def obrsk_negative_steps(p):
    """The intermediate bitableaux of the correspondence on a negative pair,
    one per column."""
    return _walk(_column_steps(p))[1:]


def _flip(bit):
    """Swap P and Q and reverse the rows: the paper's iota, without its
    check that bit is nonvanishing."""
    return NotchedBitableau(NotchedTableau(bit.Q.rows[::-1]), NotchedTableau(bit.P.rows[::-1]))


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
    kind = classify_sign(bit).kind
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
    """The correspondence on an arbitrary valid skew pair, by columns (see
    the module docstring).

    A column with a = b has no sign and is refused.  A dual column with
    c = d needs no refusal of its own: by (vi) its column has a = b.
    """
    violations = validate_skew_pair(p)
    if violations:
        raise InvalidPair("; ".join(violations))
    steps = _column_steps(p)
    if any(a == b for a, b, _, _ in steps):
        raise VanishingColumn("a column with equal entries has no sign")
    neg = _walk(step for step in steps if step[0] < step[1])[-1]
    # a step's dual (c, d) follows from its (a, b), so sorting whole steps
    # sorts by (a, b)
    pos = _walk((b, a, d, c) for a, b, c, d in sorted(steps, reverse=True) if a > b)[-1]
    flipped = _flip(pos)
    return NotchedBitableau(
        NotchedTableau(neg.P.rows + flipped.P.rows),
        NotchedTableau(neg.Q.rows + flipped.Q.rows),
    )


def obrsk_inverse(bit):
    """Invert the correspondence on a nonvanishing skew-symmetric bitableau.

    classify_sign is the one validation.  The negative block is inverted as
    robrsk inverts it, and the positive block is flipped back and inverted
    the same way.  Both preimages are taken as points, and one psi_inv
    rebuilds the pair from their union, which puts the positive columns
    back in pi1's order.  A block of rows of a skew-symmetric bitableau is
    skew-symmetric, and classify_sign has found every row of the positive
    block positive, so the flip needs no check.
    """
    cls = classify_sign(bit)
    if cls.kind is SignKind.VANISHING:
        raise NotNegative("only nonvanishing bitableaux are in the image")
    neg1, neg2 = _preimage_columns(cls.negative_part)
    pos1, pos2 = _preimage_columns(_flip(cls.positive_part))
    # a pi1 column (b, a) is the point (a, b) and a pi2 column (c, d) the
    # point (d, c); a positive step was swapped, so each positive column,
    # read as it stands, is already its point
    return psi_inv([(a, b) for b, a in neg1] + pos1, [(d, c) for c, d in neg2] + pos2)
