"""Exact multivariate polynomials over the roots of a grid, and the term order.

Variables are the roots of the grid of beta.  The order on variables:

  1. on a common row, the positive root is greater;
  2. two positive roots on a common row: the larger column is greater;
  3. a positive root with strictly smaller row beats everything it has not
     already been compared to by 1-2;
  4. on a common column, the negative root is greater;
  5. two negative roots on a common column: the larger row is greater;
  6. a negative root with strictly smaller column beats everything left.

For a negative root mu and positive root nu with row(mu) < row(nu) and
column(nu) < column(mu), none of 1-6 applies; then nu > mu exactly when
row(nu) < column(mu), i.e. when the point (row(nu), column(mu)) lies outside
the positive quadrant.  When the order is built, the variables are sorted by
it and every pair of them is checked against its place in that list: a
relation that agrees with the positions of a list on every pair is a strict
total order, so this certifies totality, antisymmetry and transitivity in
one pass over the pairs.

Monomials are exponent tuples over the variables sorted greatest first, and
monomials are compared by total degree, then lexicographically variable by
variable from the greatest down.

Coefficients are exact: Python ints stay ints, so every Pfaffian and every
product of Pfaffians has integer coefficients, and anything else (a float, a
Fraction) is kept as a Fraction.  Rationals proper arise only in the
elimination of the ideal layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations
from operator import add

from .errors import ContextMismatch, VerificationError
from .grassmannian import roots_of


class TermOrder:
    """The monomial order attached to beta; holds the ordered variable list."""

    def __init__(self, beta):
        self.beta = beta
        self.d = beta.d
        roots = roots_of(beta)
        # the roots are distinct, so no two compare equal
        greatest_first = cmp_to_key(lambda mu, nu: -1 if self.var_greater(mu, nu) else 1)
        self.variables = tuple(sorted(roots, key=greatest_first))
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.nvars = len(self.variables)
        self._verify_total_order()

    def var_greater(self, mu, nu):
        """Strict comparison of two distinct roots."""
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
        return not self.var_greater(nu, mu)

    def _verify_total_order(self):
        """Each pair of variables, greater first in the sorted list, must
        compare that way round and not the other: then var_greater is a
        strict total order on the roots, whatever it did inside the sort."""
        for mu, nu in combinations(self.variables, 2):
            if not self.var_greater(mu, nu) or self.var_greater(nu, mu):
                raise VerificationError(f"order of beta = {self.beta.entries} not a strict total order on {mu}, {nu}")

    # -- monomials -----------------------------------------------------------

    def mono_key(self, mono):
        """Sort key: bigger key means greater monomial."""
        return (sum(mono), mono)

    def format_mono(self, mono):
        parts = []
        for v, e in zip(self.variables, mono):
            if e == 1:
                parts.append(f"X{v[0]},{v[1]}")
            elif e > 1:
                parts.append(f"X{v[0]},{v[1]}^{e}")
        return "*".join(parts) if parts else "1"


@lru_cache(maxsize=None)
def term_order(beta):
    """The term order of beta.

    There is one instance per beta, so polynomials built for the same beta
    can be combined (SparsePoly._check compares orders by identity).  The
    cache holds at most |I(d)| = 2^(d-1) orders per d."""
    return TermOrder(beta)


def _exact(c):
    """c as an exact coefficient: an int stays an int, a bool (or another
    int subclass) becomes a plain int, and anything else becomes a Fraction
    (a float the Fraction of its exact binary value)."""
    if type(c) is int:
        return c
    return int(c) if isinstance(c, int) else Fraction(c)


@dataclass(frozen=True)
class SparsePoly:
    """A polynomial as a map from exponent tuples to exact coefficients."""

    order: TermOrder
    terms: tuple  # sorted tuple of (mono, int or Fraction), greatest monomial first

    @classmethod
    def from_dict(cls, order, d):
        terms = tuple(
            sorted(
                ((m, _exact(c)) for m, c in d.items() if c != 0),
                key=lambda t: order.mono_key(t[0]),
                reverse=True,
            )
        )
        return cls(order, terms)

    @classmethod
    def zero(cls, order):
        return cls(order, ())

    @classmethod
    def constant(cls, order, c):
        if c == 0:
            return cls.zero(order)
        return cls(order, (((0,) * order.nvars, _exact(c)),))

    @classmethod
    def variable(cls, order, root, coeff=1):
        coeff = _exact(coeff)
        if coeff == 0:
            return cls.zero(order)
        mono = [0] * order.nvars
        mono[order.index[root]] = 1
        return cls(order, ((tuple(mono), coeff),))

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m, _ in self.terms), default=-1)

    def _check(self, other):
        if self.order is not other.order:
            raise ContextMismatch("polynomials built over different term orders")

    def __add__(self, other):
        self._check(other)
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return SparsePoly.from_dict(self.order, d)

    def __neg__(self):
        return SparsePoly(self.order, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return SparsePoly.zero(self.order)
            return SparsePoly(self.order, tuple((m, c * other) for m, c in self.terms))
        self._check(other)
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(map(add, m1, m2))
                d[m] = d.get(m, 0) + c1 * c2
        return SparsePoly.from_dict(self.order, d)

    __rmul__ = __mul__

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.terms:
            mono = self.order.format_mono(m)
            if c == 1 and mono != "1":
                parts.append(mono)
            elif c == -1 and mono != "1":
                parts.append(f"-{mono}")
            elif mono == "1":
                parts.append(str(c))
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")
