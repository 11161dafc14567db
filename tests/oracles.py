"""Reference definitions the tests check the package against.

Each function here states a definition from the paper the plain way, one
object at a time, with no memo and no shortcut.  The package does not ship
them: it computes the same answers by its own routes, and the tests compare
the two.
"""

import bisect
import itertools
from dataclasses import dataclass
from enum import Enum

import obrsk.enumeration as enumeration
from obrsk.arrays import SkewPair, psi_inv, validate_skew_pair
from obrsk.correspondence import obrsk
from obrsk.errors import (
    BoundViolation,
    DimensionMismatch,
    EmptyBitableau,
    InvalidPair,
    MixedSigns,
    NotNegative,
    NotSemistandard,
    NotSkewSymmetric,
    PathShapeMismatch,
    ValidationError,
    VanishingColumn,
)
from obrsk.grassmannian import (
    IdElement,
    chain_image,
    hash_reflect,
    id_leq,
    roots_of,
    split_chain,
    w_of_chain,
)
from obrsk.ideal import _rref, monomials_of_degree, pfaffian_generator
from obrsk.multisets import duality_conflict, enumerate_extended_chains
from obrsk.polynomials import SparsePoly, term_order
from obrsk.tableaux import (
    EMPTY_BITABLEAU,
    NotchedBitableau,
    SignClassification,
    SignKind,
    classify_sign,
    row_duality_pairs,
    row_sign,
    rows_leq,
)


class MinusNotSet(ValidationError):
    """The minus part of a formal difference has a repeated element."""


def count_le(entries, z):
    """Number of entries <= z in a sorted tuple."""
    return bisect.bisect_right(entries, z)


def plane_multiset(points):
    """Normalize an iterable of (x, y) pairs into a sorted tuple of tuples.

    Every entry must be an int >= 1; a bool, a float or any other number is
    refused, not converted."""
    out = [(x, y) for x, y in points]
    for x, y in out:
        if type(x) is not int or type(y) is not int or x < 1 or y < 1:
            raise ValidationError(f"plane multiset entries must be positive integers, got {(x, y)!r}")
    out.sort()
    return tuple(out)


def nat_multiset(entries):
    """Normalize an iterable of positive integers into a sorted tuple.

    Every entry must be an int >= 1; a bool, a float or any other number is
    refused, not converted."""
    out = list(entries)
    for e in out:
        if type(e) is not int or e < 1:
            raise ValidationError(f"multiset entries must be positive integers, got {e!r}")
    out.sort()
    return tuple(out)


def proj1(points):
    return nat_multiset(x for x, _ in points)


def proj2(points):
    return nat_multiset(y for _, y in points)


@dataclass(frozen=True)
class FormalDiff:
    """The formal difference plus - minus, which stands for the multiset plus
    together with N minus the set minus; minus must be a set.  Its counting
    function at z is |plus^{<=z}| + z - |minus^{<=z}|, and the empty
    difference () - () stands for all of N."""

    plus: tuple
    minus: tuple

    def __post_init__(self):
        object.__setattr__(self, "plus", nat_multiset(self.plus))
        object.__setattr__(self, "minus", nat_multiset(self.minus))
        if len(set(self.minus)) != len(self.minus):
            raise MinusNotSet(f"minus part {self.minus} has a repeated element")

    def count(self, z):
        """Counting function |plus^{<=z}| + z - |minus^{<=z}|."""
        return count_le(self.plus, z) + z - count_le(self.minus, z)


def diff_leq(d1, d2):
    """D1 <= D2 in the counting order, the paper's definition: the count of
    d1 is at least that of d2 at every z >= 1.  Larger counts low down mean
    smaller elements, hence the direction flip.

    The z terms cancel in count1(z) - count2(z), which rises at the entries
    of d1.plus and d2.minus and falls only at the entries of d1.minus and
    d2.plus.  Below every entry it is 0, so if it is ever negative, the
    first z where it is negative is one where it falls, an entry of d1.minus
    or d2.plus; comparing the counts at those entries settles every z.
    """
    return all(d1.count(z) >= d2.count(z) for z in {*d1.minus, *d2.plus})


def plane_diff(points):
    """The formal difference proj1 - proj2 by which a plane multiset is
    compared; raises MinusNotSet when the second projection has a repeat."""
    return FormalDiff(proj1(points), proj2(points))


def up_down(b):
    """(up, down): pair the i-th smallest entries of the top rows of P and Q,
    and likewise the bottom rows.  Empty bitableau gives two empty sets."""
    if b.is_empty:
        return (), ()
    up = plane_multiset(zip(sorted(b.P[0]), sorted(b.Q[0])))
    down = plane_multiset(zip(sorted(b.P[-1]), sorted(b.Q[-1])))
    return up, down


def psi(p):
    """Forget column order: pi1 columns become points (a_i, b_i), pi2 columns
    points (d_i, c_i).  Returns the pair of plane multisets (U1, U2)."""
    u1 = plane_multiset(zip(p.a, p.b))
    u2 = plane_multiset(zip(p.d, p.c))
    return u1, u2


def L_involution(p):
    """Swap the rows of each array, then restore the canonical column orders
    (pi1 lexicographic, transpose of pi2 lexicographic).  Exchanges negative
    and positive pairs and is an involution."""
    u1, u2 = psi(p)
    return psi_inv(tuple((b, a) for a, b in u1), tuple((c, d) for d, c in u2))


def is_negative_pair(p):
    """A valid pair whose every column has a < b (so the empty pair is
    negative); its positive part is empty."""
    return not validate_skew_pair(p) and all(a < b for a, b in zip(p.a, p.b))


def split_parts(p):
    """Split a valid pair into its negative and positive parts.

    Columns of pi1 with a_i < b_i go to the negative part together with their
    dual pi2 columns (index t+1-i), order preserved; the rest, with a_i > b_i,
    form the positive part.  A column or a dual column with equal entries
    has no sign, and the negative columns of the two arrays must match up.
    """
    cols1, cols2 = list(zip(p.b, p.a)), list(zip(p.c, p.d))
    if any(a == b for b, a in cols1):
        raise VanishingColumn("a column with equal entries has no sign")
    if any(d == c for c, d in cols2):
        raise VanishingColumn("a dual column with equal entries has no sign")
    neg1 = [(b, a) for b, a in cols1 if a < b]
    neg2 = [(c, d) for c, d in cols2 if d < c]
    if len(neg1) != len(neg2):
        raise InvalidPair("negative columns of pi1 and pi2 do not match up")
    pos1 = [(b, a) for b, a in cols1 if a > b]
    pos2 = [(c, d) for c, d in cols2 if d > c]
    return SkewPair.from_columns(neg1, neg2), SkewPair.from_columns(pos1, pos2)


def iota(b):
    """The sign-reversing involution on nonvanishing bitableaux: swap P and
    Q and reverse the row order."""
    if classify_sign(b).kind is SignKind.VANISHING:
        raise NotSkewSymmetric("iota is only defined on nonvanishing bitableaux")
    return NotchedBitableau(b.Q[::-1], b.P[::-1])


def negative_image(p):
    """The image of a negative pair: one forward step for each pi1 column i
    with its dual pi2 column t-1-i, from the empty bitableau."""
    t = p.width
    bit = EMPTY_BITABLEAU
    for i in range(t):
        bit = frozen_forward_step(bit, p.a[i], p.b[i], p.c[t - 1 - i], p.d[t - 1 - i])
    return bit


def paper_obrsk(p):
    """The correspondence composed as the paper composes it: split the pair,
    map the negative part by forward steps, and the positive part through L,
    forward steps and iota; stack the negative image on the positive one."""
    neg, pos = split_parts(p)
    neg_bit = negative_image(neg)
    pos_bit = iota(negative_image(L_involution(pos)))
    return NotchedBitableau(neg_bit.P + pos_bit.P, neg_bit.Q + pos_bit.Q)


# -- the correspondence one frozen bitableau per step ------------------------
#
# The routes the package took before it walked the correspondence on row
# lists: every step, forward and back, takes a bitableau and freezes a new
# one, the sign classification builds both blocks, and the semistandard check
# runs each row through nat_multiset.  The tests check that the package gives
# the same results, or raises the same exception class with the same
# message, on every input they try.


def frozen_forward_step(bit, a, b, c, d):
    """One forward step on a bitableau: the insertion of the module
    docstring of obrsk.correspondence, on copies of the rows."""
    if a >= b:
        raise BoundViolation(f"entry {a} must be below its bound {b}")
    prows = [list(r) for r in bit.P]
    qrows = [list(r) for r in bit.Q]
    x, y = a, c
    for prow, qrow in zip(prows, qrows):
        prefix = bisect.bisect_left(prow, b)
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
    return NotchedBitableau(prows, qrows)


def reverse_step(bit):
    """Undo one forward step.  Returns (smaller bitableau, a, b, c, d): b is
    the least entry of Q, and the step ended in the last row that holds it."""
    if bit.is_empty:
        raise EmptyBitableau("nothing to reverse")
    prows = [list(r) for r in bit.P]
    qrows = [list(r) for r in bit.Q]
    b = min(e for row in qrows for e in row)
    s = max(i for i, row in enumerate(qrows) if b in row)
    d = prows[s].pop()
    qrows[s].remove(b)
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
    return NotchedBitableau(prows, qrows), x, b, y, d


def validate_row_strict(rows):
    """True iff every row is strictly increasing."""
    for row in rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    return True


def stepwise_semistandard(b):
    """validate_semistandard: P's rows strict, then Q's; then each row's
    entries through nat_multiset; then rows_leq on consecutive rows."""
    if not (validate_row_strict(b.P) and validate_row_strict(b.Q)):
        return False
    rows = list(zip(b.P, b.Q))
    for prow, qrow in rows:
        nat_multiset(prow)
        nat_multiset(qrow)
    return all(map(rows_leq, rows, rows[1:]))


def stepwise_skew_symmetric(b):
    """validate_skew_symmetric over stepwise_semistandard."""
    if not stepwise_semistandard(b):
        raise NotSemistandard("skew-symmetry is only defined for semistandard bitableaux")
    if any(k % 2 for k in b.shape):
        return False
    pairs = [pair for prow, qrow in zip(b.P, b.Q) for pair in row_duality_pairs(prow, qrow)]
    return duality_conflict(pairs) is None


def stepwise_classify_sign(b):
    """classify_sign, reading every row's sign and building both blocks."""
    if not stepwise_skew_symmetric(b):
        raise NotSkewSymmetric("sign classification needs a skew-symmetric bitableau")
    if b.is_empty:
        return SignClassification(SignKind.NONVANISHING, EMPTY_BITABLEAU, EMPTY_BITABLEAU)
    signs = [row_sign(prow, qrow) for prow, qrow in zip(b.P, b.Q)]
    if 0 in signs:
        return SignClassification(SignKind.VANISHING, None, None)
    n_neg = signs.count(-1)
    if n_neg == len(signs):
        kind = SignKind.NEGATIVE
    elif n_neg == 0:
        kind = SignKind.POSITIVE
    else:
        kind = SignKind.NONVANISHING
    neg = NotchedBitableau(b.P[:n_neg], b.Q[:n_neg])
    pos = NotchedBitableau(b.P[n_neg:], b.Q[n_neg:])
    return SignClassification(kind, neg, pos)


def _walk(steps):
    bits = [EMPTY_BITABLEAU]
    for a, b, c, d in steps:
        bits.append(frozen_forward_step(bits[-1], a, b, c, d))
    return bits


def _flip(bit):
    return NotchedBitableau(bit.Q[::-1], bit.P[::-1])


def _valid_column_steps(p):
    """The step (a, b, c, d) of each pi1 column (b, a) and its dual pi2
    column (c, d), in pi1's order, of a valid skew pair."""
    violations = validate_skew_pair(p)
    if violations:
        raise InvalidPair("; ".join(violations))
    return list(zip(p.a, p.b, reversed(p.c), reversed(p.d)))


def stepwise_negative_steps(p):
    """obrsk_negative_steps, freezing each step."""
    steps = _valid_column_steps(p)
    if any(a >= b for a, b, _, _ in steps):
        raise NotNegative("the steps of the correspondence are only available for negative pairs")
    return _walk(steps)[1:]


def stepwise_obrsk(p):
    """obrsk, walking each block by frozen steps and flipping the positive
    image as a bitableau."""
    steps = _valid_column_steps(p)
    if any(a == b for a, b, _, _ in steps):
        raise VanishingColumn("a column with equal entries has no sign")
    neg = _walk(step for step in steps if step[0] < step[1])[-1]
    pos = _walk((b, a, d, c) for a, b, c, d in sorted(steps, reverse=True) if a > b)[-1]
    flipped = _flip(pos)
    return NotchedBitableau(neg.P + flipped.P, neg.Q + flipped.Q)


def _stepwise_preimage_columns(bit):
    cols1 = []
    cols2 = []
    while not bit.is_empty:
        bit, a, b, c, d = reverse_step(bit)
        cols1.append((b, a))
        cols2.append((c, d))
    cols1.reverse()
    return cols1, cols2


def stepwise_robrsk(bit):
    """robrsk, by reverse steps on frozen bitableaux."""
    kind = stepwise_classify_sign(bit).kind
    if not bit.is_empty and kind is not SignKind.NEGATIVE:
        raise NotNegative(f"bitableau is {kind.value}, not negative")
    return SkewPair.from_columns(*_stepwise_preimage_columns(bit))


def stepwise_obrsk_inverse(bit):
    """obrsk_inverse, by reverse steps on the two blocks that
    stepwise_classify_sign builds."""
    cls = stepwise_classify_sign(bit)
    if cls.kind is SignKind.VANISHING:
        raise NotNegative("only nonvanishing bitableaux are in the image")
    neg1, neg2 = _stepwise_preimage_columns(cls.negative_part)
    pos1, pos2 = _stepwise_preimage_columns(_flip(cls.positive_part))
    return psi_inv([(a, b) for b, a in neg1] + pos1, [(d, c) for c, d in neg2] + pos2)


def determinant(a):
    """Leibniz determinant of a square matrix of polynomials (small sizes)."""
    n = len(a)
    if n == 0:
        raise DimensionMismatch("empty matrix: use the constant 1 directly")
    order = a[0][0].order
    total = SparsePoly.zero(order)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = SparsePoly.constant(order, sign)
        for i in range(n):
            prod = prod * a[i][perm[i]]
            if prod.is_zero:
                break
        total = total + prod
    return total


class Region(Enum):
    NOT_GRID = "not-grid"
    DIAG = "diag"
    BELOW = "below"
    ROOT_NEG = "root-negative"
    ROOT_POS = "root-positive"


def region_of(v, r, c):
    """The paper's grid rule: classify the position (r, c) relative to the
    grid of v.  A grid position has r outside v and c inside it; writing
    c* = 2d+1-c, it is on the diagonal when r = c*, below it when r > c*,
    and otherwise a root, positive when r > c and negative when r < c."""
    full = 2 * v.d + 1
    if r in v.entries or c not in v.entries or not (1 <= r <= 2 * v.d):
        return Region.NOT_GRID
    c_star = full - c
    if r == c_star:
        return Region.DIAG
    if r > c_star:
        return Region.BELOW
    return Region.ROOT_POS if r > c else Region.ROOT_NEG


def is_signed_plane_set(points, sign):
    """Every point strictly below the diagonal (x < y) for sign -1, strictly
    above it (x > y) for sign +1, and both projections duplicate free."""
    return (
        all(sign * (x - y) > 0 for x, y in points)
        and len(set(proj1(points))) == len(points)
        and len(set(proj2(points))) == len(points)
    )


def patch_entry(beta, r, c):
    """Entry (r, c) of the paper's 2d x d patch matrix of beta, as a
    polynomial over term_order(beta).

    Rows indexed by 1..2d; columns only by beta.  Rows inside beta carry the
    identity, 1 or 0; a row r outside beta carries the variable X(r, c) left
    of the antidiagonal, 0 on it, and minus the reflected variable below it.
    """
    if c not in beta.entries:
        raise ValidationError(f"column {c} is not in beta = {beta.entries}")
    if not (1 <= r <= 2 * beta.d):
        raise DimensionMismatch(f"row {r} outside 1..{2 * beta.d}")
    order = term_order(beta)
    if r in beta.entries:
        return SparsePoly.constant(order, int(r == c))
    reg = region_of(beta, r, c)
    if reg is Region.DIAG:
        return SparsePoly.zero(order)
    if reg is Region.BELOW:
        return variable(order, hash_reflect((r, c), beta.d), -1)
    return variable(order, (r, c))


def variable(order, root, coeff=1):
    """coeff times the variable of root, as a polynomial over order."""
    mono = [0] * order.nvars
    mono[order.index[root]] = 1
    return SparsePoly.from_dict(order, {tuple(mono): coeff})


def pfaffian_matrix(theta, beta):
    """The skew matrix whose Pfaffian is f(theta), read off the paper's
    2d x d patch: its rows theta - beta ascending, its columns beta - theta
    greatest first, so row i is the reflection x* = 2d+1-x of column i."""
    rows = sorted(set(theta.entries) - set(beta.entries))
    cols = sorted(set(beta.entries) - set(theta.entries), reverse=True)
    return [[patch_entry(beta, r, c) for c in cols] for r in rows]


def pfaffian_product(thetas, beta):
    """The product of f(theta) over a multichain, one factor at a time."""
    prod = SparsePoly.constant(term_order(beta), 1)
    for theta in thetas:
        prod = prod * pfaffian_generator(theta, beta)
    return prod


def var_greater(mu, nu):
    """The term order on two roots as the paper states it, case by case:

      1. on a common row, the positive root is greater;
      2. two positive roots on a common row: the larger column is greater;
      3. a positive root with strictly smaller row beats everything it has
         not already been compared to by 1-2;
      4. on a common column, the negative root is greater;
      5. two negative roots on a common column: the larger row is greater;
      6. a negative root with strictly smaller column beats everything left.

    For a negative root mu and positive root nu with row(mu) < row(nu) and
    column(nu) < column(mu), none of 1-6 applies; then nu > mu exactly when
    row(nu) < column(mu), i.e. when the point (row(nu), column(mu)) lies
    outside the positive quadrant."""
    if mu == nu:
        return False
    r1, c1 = mu
    r2, c2 = nu
    mu_pos = r1 > c1
    nu_pos = r2 > c2
    if mu_pos and nu_pos:
        if r1 != r2:
            return r1 < r2
        return c1 > c2
    if not mu_pos and not nu_pos:
        if c1 != c2:
            return c1 < c2
        return r1 > r2
    if mu_pos:
        if r1 == r2:
            return True
        if c1 == c2:
            return False
        if r1 < r2:
            return True
        if c2 < c1:
            return False
        # row(mu) > row(nu) and col(mu) < col(nu): the leftover case.
        # The tie-break point (r1, c2) is tested against the positive
        # quadrant r > c, not just the positive roots; points on or below
        # the antidiagonal with r > c still count.  Testing roots only
        # creates cycles, e.g. X23 > X51 > X81 > X23 for (1,3,4,6,9).
        return r1 < c2
    return not var_greater(nu, mu)


def order_disagreements(variables, greater=var_greater):
    """The pairs of variables, earlier first, that greater does not put
    strictly that way round.  Empty exactly when greater agrees with the
    positions of the list on every pair, which makes greater a strict total
    order on the variables and the list that order, greatest first."""
    return [
        (mu, nu) for mu, nu in itertools.combinations(variables, 2) if not greater(mu, nu) or greater(nu, mu)
    ]


def is_chain(points):
    """True iff the plane multiset is strictly increasing in x and strictly
    decreasing in y when sorted; repeated x (or y) values disqualify it."""
    pts = sorted(points)
    return all(p[0] < q[0] and p[1] > q[1] for p, q in zip(pts, pts[1:]))


def chain_pair(chain, d):
    """The pair of plane multisets (C, C^#) the paper builds from a nonempty
    sign-pure chain C: C^# reflects each point by hash_reflect."""
    if not chain or not is_chain(chain) or len({r < c for r, c in chain}) != 1:
        raise MixedSigns(f"{chain} is not a nonempty chain of one sign")
    return plane_multiset(chain), plane_multiset(hash_reflect(p, d) for p in chain)


def chain_in_chains_set(chain, alpha, beta, gamma):
    """Membership of a chain in the defining set of the chain ideal: the
    negative part fails alpha <= w, or the positive part fails w <= gamma."""
    neg, pos = split_chain(chain, beta)
    if neg and not id_leq(alpha, w_of_chain(neg, beta)):
        return True
    if pos and not id_leq(w_of_chain(pos, beta), gamma):
        return True
    return False


def dual_chain_pairs(u1, u2):
    """All dual pairs of chains inside the pair of plane multisets (U1, U2).

    A chain C1 in the underlying set of U1 determines its partner: the i-th
    column of the canonical array of C1 matches the first identical column of
    the canonical array of U1, and the dual column of U2 (mirror index) is
    placed at the mirror position of the partner array.  The pair qualifies
    when the two arrays form a valid skew pair.
    """
    full = psi_inv(u1, u2)
    t = full.width
    cols1 = list(zip(full.b, full.a))  # (b, a), in canonical order
    cols2 = list(zip(full.c, full.d))  # (c, d)
    out = []
    for c1 in enumerate_extended_chains(u1):
        # the first pi1 column holding each point, in canonical order
        first = sorted(cols1.index((b, a)) for a, b in c1)
        cand = SkewPair.from_columns([cols1[i] for i in first], [cols2[t - 1 - i] for i in reversed(first)])
        if not validate_skew_pair(cand):
            out.append(cand)
    return out


def pair_up_down_sets(u1, u2):
    """For each dual pair of chains in (U1, U2): the up set of the image of
    its negative part and the down set of the image of its positive part.
    The image stacks the negative block on the positive one, so these are
    the up and down sets of the whole image."""
    ups, downs = [], []
    for cand in dual_chain_pairs(u1, u2):
        neg, pos = split_parts(cand)
        up, down = up_down(obrsk(cand))
        if neg.width:
            ups.append(up)
        if pos.width:
            downs.append(down)
    return ups, downs


def bitableau_bounded_by(b, t, w):
    """True iff T <= up(negative part) and down(positive part) <= W.

    T must be a negative plane set and W a positive one, both with duplicate
    free projections.  Empty parts are compared literally; a negative T is
    automatically <= the empty up, and the empty down is <= any positive W.
    """
    t = plane_multiset(t)
    w = plane_multiset(w)
    if not is_signed_plane_set(t, -1):
        raise ValidationError(f"T = {t} is not a negative plane set")
    if not is_signed_plane_set(w, +1):
        raise ValidationError(f"W = {w} is not a positive plane set")
    cls = classify_sign(b)
    if cls.kind is SignKind.VANISHING:
        raise NotSkewSymmetric("boundedness is only defined on nonvanishing bitableaux")
    up, down = up_down(cls.negative_part)[0], up_down(cls.positive_part)[1]
    return diff_leq(plane_diff(t), plane_diff(up)) and diff_leq(plane_diff(down), plane_diff(w))


def half_bound(bound, beta):
    """The paper's bound of a half as a plane set: T (bound alpha) or W
    (bound gamma), the i-th smallest element of bound - beta paired with the
    i-th smallest of beta - bound."""
    vset, bset = set(bound.entries), set(beta.entries)
    return plane_multiset(zip(sorted(vset - bset), sorted(bset - vset)))


def transpose(chain):
    """The chain with the coordinates of each point swapped, sorted."""
    return tuple(sorted((c, r) for r, c in chain))


def positive_chain_rows(beta):
    """The direct positive rule, each positive chain C of roots of beta
    mapped to (w, down).  obrsk takes C through L, whose pair is that of the
    transpose of C, a negative chain, and then iota, so the image of C is
    iota of the image of its transpose; down is that image's down set, and
    w is beta with the second coordinates of down taken out and the first
    ones put in, which must be >= beta."""
    rows = {}
    for chain in enumerate_extended_chains(split_chain(roots_of(beta), beta)[1]):
        down = up_down(iota(chain_image(transpose(chain), beta.d)))[1]
        w = IdElement(tuple(set(beta.entries) - set(proj2(down)) | set(proj1(down))), beta.d)
        if not id_leq(beta, w):
            raise ValidationError(f"w = {w.entries} not >= beta = {beta.entries}")
        rows[chain] = (w, down)
    return rows


def positive_half(gamma, beta, rows):
    """The minimal bad chains of the positive half (beta, gamma) by the
    direct positive rule, as a set of frozensets, from rows =
    positive_chain_rows(beta).  A chain is bad when its w is not <= gamma,
    and exactly then its down set is not <= W in the counting order on
    formal differences; the two must agree."""
    limit = plane_diff(half_bound(gamma, beta))
    bad = []
    for chain, (w, down) in rows.items():
        in_set = not id_leq(w, gamma)
        assert in_set != diff_leq(plane_diff(down), limit), (chain, gamma, beta)
        if in_set:
            bad.append(frozenset(chain))
    return {c for c in bad if not any(other < c for other in bad)}


def sorted_row_sign(prow, qrow):
    """The sign of a row by its definition: pair the i-th smallest entries
    of the P row and the Q row; -1 when every pair has p < q, +1 when every
    pair has p > q, 0 otherwise."""
    pairs = list(zip(sorted(prow), sorted(qrow)))
    if all(p < q for p, q in pairs):
        return -1
    if all(p > q for p, q in pairs):
        return +1
    return 0


def row_diffs_weakly_increase(b):
    """Semistandardness by its definition for a row-strict bitableau: the
    formal differences P_i - Q_i weakly increase in the counting order."""
    diffs = [FormalDiff(p, q) for p, q in zip(b.P, b.Q)]
    return all(diff_leq(d1, d2) for d1, d2 in zip(diffs, diffs[1:]))


def even_shapes(max_boxes):
    """All row-length sequences with even parts and at most max_boxes boxes,
    each shape before its extensions."""
    shapes = []

    def extend(prefix, remaining):
        for k in range(2, remaining + 1, 2):
            shapes.append(tuple(prefix + [k]))
            extend(prefix + [k], remaining - k)

    extend([], max_boxes)
    return shapes


def enumerate_even_bitableaux(max_entry, max_boxes):
    """All skew-symmetric bitableaux with even rows, <= max_boxes boxes and
    entries <= max_entry, whatever the signs of their rows."""
    return list(enumeration._bitableaux(max_entry, max_boxes, {-1, 0, +1}))


def enumerate_bound_sets(max_entry, max_points, sign):
    """All negative (sign=-1) or positive (sign=+1) plane sets with at most
    max_points points, entries <= max_entry and duplicate free projections.
    Includes the empty set."""
    if sign not in (-1, +1):
        raise ValidationError(f"sign must be -1 or +1, got {sign!r}")
    points = [
        (x, y)
        for x in range(1, max_entry + 1)
        for y in range(1, max_entry + 1)
        if is_signed_plane_set([(x, y)], sign)
    ]
    out = [()]
    for k in range(1, max_points + 1):
        for combo in itertools.combinations(points, k):
            if is_signed_plane_set(combo, sign):
                out.append(tuple(sorted(combo)))
    return out


class FullSlice:
    """The degree-m slice of the ideal the plain way: every generator times
    every monomial of the missing degree is one row, one-term generators
    included, and all of them go to _rref.  Columns are the degree-m
    monomials greatest first, as in DegreeSlice."""

    def __init__(self, beta, gens, m):
        nvars = term_order(beta).nvars
        self.col = {mono: j for j, mono in enumerate(monomials_of_degree(nvars, m))}
        self.rows = [
            self.vector_of(g * SparsePoly.from_dict(g.order, {mult: 1}))
            for _, g in gens
            if not g.is_zero and g.degree() <= m
            for mult in monomials_of_degree(nvars, m - g.degree())
        ]
        self.pivots = _rref(self.rows)

    def vector_of(self, poly):
        return sorted((self.col[mono], c) for mono, c in poly.terms)

    def rank_with(self, polys):
        return len(_rref(list(self.rows) + [self.vector_of(p) for p in polys]))
