"""Exact multivariate polynomials over the roots of a grid, and the term order.

Variables are the roots of the grid of beta.  The order on variables is a
sort key: mu is greater than nu exactly when

    (max(mu), -min(mu)) < (max(nu), -min(nu)),

that is, the root whose larger coordinate is smaller is greater, and on equal
larger coordinates the root whose smaller coordinate is larger is greater.
This is the order the paper states case by case (tests/oracles.var_greater):

  - within one sign its rules compare the row of a positive root or the
    column of a negative root, which is max(r, c) either way, and break
    ties by the larger min(r, c);
  - across signs its tie-break, row(nu) < column(mu) for a positive nu and
    a negative mu, also compares the two maxes, and its other mixed rules
    agree with that;
  - no two roots of one beta share a key, since (r, c) and (c, r) cannot
    both be roots: c lies in beta and r does not.

A sort by a key is a strict total order by construction.

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
from functools import lru_cache
from operator import add

from .errors import ContextMismatch
from .grassmannian import roots_of


class TermOrder:
    """The monomial order attached to beta; holds the ordered variable list."""

    def __init__(self, beta):
        self.variables = tuple(sorted(roots_of(beta), key=lambda v: (max(v), -min(v))))
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.nvars = len(self.variables)

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

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree, its leading term's, as terms are kept greatest first
        and monomials compare by degree first; -1 for the zero polynomial."""
        return sum(self.terms[0][0]) if self.terms else -1

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
