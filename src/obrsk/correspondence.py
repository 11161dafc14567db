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
length.  The maps keep P and Q as two lists of rows while they walk and
freeze one bitableau per map, NotchedBitableau taking the two lists as they
stand: forward_step and undo_step are the one step each way, an insertion
and a removal in place on those lists.
tests/oracles.py keeps reverse_step, the removal on a frozen bitableau, as
the reference, with the maps as they were stated one frozen bitableau per
step.

Both maps work on columns.  obrsk reads each pi1 column (b, a) with its dual
pi2 column (c, d) as one step (a, b, c, d) and walks two blocks: the
negative steps (a < b) in the pair's order, and the positive steps (a > b),
taken with their (a, b) descending and each swapped to (b, a, d, c).  The
image stacks the negative block on top of the positive block flipped, P and
Q swapped and the rows reversed.  This is the paper's composition read
column by column.  The paper splits the pair into its negative and positive
parts and maps the positive part through L, which swaps the rows of each
array and restores the canonical column orders (so pi1's columns come with
the old (a, b) descending), and then through iota, which is the flip.  L
keeps each column opposite its dual: the duality map is strictly
decreasing, so pi1's columns in descending order put their duals in
ascending order.  iota's check that its argument is nonvanishing holds by
construction.  tests/oracles.py states split_parts, L and iota, and the
tests check obrsk against their composition.  obrsk_inverse splits the
rows at the number of negative rows (tableaux.sign_split), undoes the
negative block and the positive block flipped back, and rebuilds the pair
from its columns' points.
"""

from __future__ import annotations

import bisect

from .arrays import SkewPair, psi_inv, validate_skew_pair
from .errors import BoundViolation, EmptyBitableau, InvalidPair, NotNegative, PathShapeMismatch, VanishingColumn
from .tableaux import NotchedBitableau, SignKind, sign_split


def forward_step(prows, qrows, a, b, c, d):
    """One step of the correspondence, in place on the row lists of P and Q:
    insert a into P bounded by b, carrying c through Q along the mirrored
    path, then append d to the terminal row of P and put b in front of the
    terminal row of Q."""
    if a >= b:
        raise BoundViolation(f"entry {a} must be below its bound {b}")
    x, y = a, c
    for prow, qrow in zip(prows, qrows):
        prefix = bisect.bisect_left(prow, b)  # entries < b form a prefix
        i = bisect.bisect_left(prow, x)
        if i >= prefix:
            prow.insert(prefix, x)
            prow.append(d)
            qrow.insert(len(qrow) - prefix, y)
            qrow.insert(0, b)
            return
        j = len(qrow) - 1 - i
        x, prow[i] = prow[i], x
        y, qrow[j] = qrow[j], y
    prows.append([x, d])
    qrows.append([b, y])


def _column_steps(p):
    """The step (a, b, c, d) of each pi1 column (b, a) and its dual pi2
    column (c, d), in pi1's order; InvalidPair unless p is a valid skew
    pair."""
    violations = validate_skew_pair(p)
    if violations:
        raise InvalidPair("; ".join(violations))
    return list(zip(p.a, p.b, reversed(p.c), reversed(p.d)))


def _thawed(bit):
    """The rows of P and of Q, as lists of lists that the maps may change."""
    return list(map(list, bit.P)), list(map(list, bit.Q))


def obrsk_negative_steps(p):
    """The intermediate bitableaux of the correspondence on a negative pair,
    one per column.  InvalidPair on a pair that is not valid, and NotNegative,
    before any step, on one with a column that is not negative (a >= b); the
    empty pair counts as negative."""
    steps = _column_steps(p)
    if not all(a < b for a, b, _, _ in steps):
        raise NotNegative("the steps of the correspondence are only available for negative pairs")
    prows, qrows, bits = [], [], []
    for step in steps:
        forward_step(prows, qrows, *step)
        bits.append(NotchedBitableau(prows, qrows))
    return bits


def undo_step(prows, qrows):
    """Undo one forward step, in place on the row lists of P and Q, and
    return its (a, b, c, d): b is the least entry of Q, and the step ended
    in the last row that holds b.  Empty rows left at the bottom go."""
    if not any(qrows):
        raise EmptyBitableau("nothing to reverse")
    b = min(e for row in qrows for e in row)
    s = max(i for i, row in enumerate(qrows) if b in row)
    prow, qrow = prows[s], qrows[s]
    d = prow.pop()
    qrow.remove(b)
    # the newest box of row s holds the greatest entry below b; it rises
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
    return x, b, y, d


def robrsk(bit):
    """Invert the correspondence on a negative skew-symmetric bitableau."""
    kind, _ = sign_split(bit)
    if not bit.is_empty and kind is not SignKind.NEGATIVE:
        raise NotNegative(f"bitableau is {kind.value}, not negative")
    return SkewPair.from_columns(*_preimage_columns(*_thawed(bit)))


def _preimage_columns(prows, qrows):
    """The columns of the pair that a negative block of rows comes from, by
    undoing its steps on the row lists, which it empties, and without a
    check that the block is negative: the pi1 columns (b, a) and the pi2
    columns (c, d), each in its array's order."""
    cols1 = []  # (b, a), collected last column first
    cols2 = []  # (c, d), collected first column first
    # each step put two boxes into P
    for _ in range(sum(map(len, prows)) // 2):
        a, b, c, d = undo_step(prows, qrows)
        cols1.append((b, a))
        cols2.append((c, d))
    cols1.reverse()
    return cols1, cols2


def obrsk(p):
    """The correspondence on an arbitrary valid skew pair, by columns (see
    the module docstring); InvalidPair on anything else.

    A column with a = b has no sign and is refused.  A dual column with
    c = d needs no refusal of its own: by (vi) its column has a = b.
    """
    steps = _column_steps(p)
    if any(a == b for a, b, _, _ in steps):
        raise VanishingColumn("a column with equal entries has no sign")
    prows, qrows = [], []
    for a, b, c, d in steps:
        if a < b:
            forward_step(prows, qrows, a, b, c, d)
    pos_p, pos_q = [], []
    # a step's dual (c, d) follows from its (a, b), so sorting whole steps
    # sorts by (a, b)
    for a, b, c, d in sorted(steps, reverse=True):
        if a > b:
            forward_step(pos_p, pos_q, b, a, d, c)
    # the positive block goes below, flipped: P and Q swapped, rows reversed
    prows += reversed(pos_q)
    qrows += reversed(pos_p)
    return NotchedBitableau(prows, qrows)


def obrsk_inverse(bit):
    """Invert the correspondence on a nonvanishing skew-symmetric bitableau.

    sign_split is the one validation, and its number of negative rows
    splits the rows.  The negative block is inverted as robrsk inverts it,
    and the positive block is flipped back and inverted the same way.  Both
    preimages are taken as points, and one psi_inv rebuilds the pair from
    their union, which puts the positive columns back in pi1's order.  A
    block of rows of a skew-symmetric bitableau is skew-symmetric, and
    sign_split has found every row of the positive block positive, so the
    flip needs no check.
    """
    kind, n_neg = sign_split(bit)
    if kind is SignKind.VANISHING:
        raise NotNegative("only nonvanishing bitableaux are in the image")
    prows, qrows = _thawed(bit)
    neg1, neg2 = _preimage_columns(prows[:n_neg], qrows[:n_neg])
    pos1, pos2 = _preimage_columns(qrows[n_neg:][::-1], prows[n_neg:][::-1])
    # a pi1 column (b, a) is the point (a, b) and a pi2 column (c, d) the
    # point (d, c); a positive step was swapped, so each positive column,
    # read as it stands, is already its point
    return psi_inv([(a, b) for b, a in neg1] + pos1, [(d, c) for c, d in neg2] + pos2)
