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
the positive quadrant.  Totality and transitivity are verified exhaustively
when the order is built.

Monomials are exponent tuples over the variables sorted greatest first, and
monomials are compared by total degree, then lexicographically variable by
variable from the greatest down.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import ContextMismatch, VerificationError
from .grassmannian import Region, region_of
from .multisets import Cmp


class TermOrder:
    """The monomial order attached to beta; holds the ordered variable list."""

    def __init__(self, beta):
        self.beta = beta
        self.d = beta.d
        roots = []
        for r in beta.complement:
            for c in beta.entries:
                reg = region_of(beta, r, c)
                if reg in (Region.ROOT_NEG, Region.ROOT_POS):
                    roots.append((r, c))
        self._positive = {p for p in roots if p[0] > p[1]}
        self.variables = tuple(sorted(roots, key=self._sort_key()))
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.nvars = len(self.variables)
        self._verify_total_order(roots)

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

    def _sort_key(self):
        order = self

        class _Key:
            __slots__ = ("v",)

            def __init__(self, v):
                self.v = v

            def __lt__(self, other):
                return order.var_greater(self.v, other.v)  # greatest first

        return _Key

    def _verify_total_order(self, roots):
        n = len(roots)
        for i in range(n):
            for j in range(i + 1, n):
                g1 = self.var_greater(roots[i], roots[j])
                g2 = self.var_greater(roots[j], roots[i])
                if g1 == g2:
                    raise VerificationError(f"order not total/antisymmetric on {roots[i]}, {roots[j]}")
        for x, y, z in permutations(roots, 3):
            if self.var_greater(x, y) and self.var_greater(y, z) and not self.var_greater(x, z):
                raise VerificationError(f"order not transitive on {x}, {y}, {z}")

    # -- monomials -----------------------------------------------------------

    def mono_key(self, mono):
        """Sort key: bigger key means greater monomial."""
        return (sum(mono), mono)

    def mono_compare(self, m1, m2):
        k1, k2 = self.mono_key(m1), self.mono_key(m2)
        if k1 == k2:
            return Cmp.EQUAL
        return Cmp.GREATER if k1 > k2 else Cmp.LESS

    def mono_of_vars(self, points):
        """Exponent tuple of a multiset of roots."""
        exps = [0] * self.nvars
        for p in points:
            exps[self.index[p]] += 1
        return tuple(exps)

    def vars_of_mono(self, mono):
        """Multiset of roots of an exponent tuple, sorted by position."""
        out = []
        for v, e in zip(self.variables, mono):
            out.extend([v] * e)
        return tuple(sorted(out))

    def format_mono(self, mono):
        parts = []
        for v, e in zip(self.variables, mono):
            if e == 1:
                parts.append(f"X{v[0]},{v[1]}")
            elif e > 1:
                parts.append(f"X{v[0]},{v[1]}^{e}")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class SparsePoly:
    """A polynomial as a map from exponent tuples to rational coefficients."""

    order: TermOrder
    terms: tuple  # sorted tuple of (mono, Fraction), greatest monomial first

    @classmethod
    def from_dict(cls, order, d):
        terms = tuple(
            sorted(
                ((m, Fraction(c)) for m, c in d.items() if c != 0),
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
        return cls(order, (((0,) * order.nvars, Fraction(c)),))

    @classmethod
    def variable(cls, order, root, coeff=1):
        mono = [0] * order.nvars
        mono[order.index[root]] = 1
        return cls.from_dict(order, {tuple(mono): Fraction(coeff)})

    @property
    def is_zero(self):
        return not self.terms

    def leading_monomial(self):
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading monomial")
        return self.terms[0][0]

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m, _ in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(m) for m, _ in self.terms}
        return len(degs) <= 1

    def _check(self, other):
        if self.order is not other.order:
            raise ContextMismatch("polynomials built over different term orders")

    def __add__(self, other):
        self._check(other)
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, Fraction(0)) + c
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
                m = tuple(x + y for x, y in zip(m1, m2))
                d[m] = d.get(m, Fraction(0)) + c1 * c2
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
