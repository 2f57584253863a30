"""Exact arithmetic in cyclotomic fields.

An element of conductor n is stored as a vector of rational coefficients
over the power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n), where z is a
fixed primitive n-th root of unity and phi is Euler's totient.  Mixed
conductors are handled by lifting both operands to the least common
multiple.  All operations are exact; nothing is ever rounded.

Arithmetic touches the coefficients directly where it can: an int or
Fraction operand of +, - or * (on either side) acts on the coefficients
as a rational number, and so does an element of conductor 1, which
lifts to any conductor by padding with zeros; two operands of one
conductor are added or subtracted coordinate by coordinate.  Only
operands of different conductors above 1 are lifted through a
reduction modulo Phi_m, and only a product of two irrational elements
multiplies polynomials.  Results are built without re-validating their
coefficients, which are already phi(n) Fractions.

Polynomial division, the extended Euclidean algorithm and the linear
solve behind conductor descent are the field-generic functions of gf,
run over QQ.  Only the reduction modulo Phi_n, the hot path of every
product, keeps its own precomputed power table.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .gf import mat_solve, poly_exact_div, poly_xgcd


class _Rationals:
    """Q as a coefficient field for the polynomial and matrix code in gf."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)


QQ = _Rationals()


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, little-endian, monic."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n.
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = poly_exact_div(QQ, num, cyclotomic_polynomial(d))
    return tuple(int(c) for c in num)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row k is zeta_n^k expressed over the power basis, for 0 <= k < n."""
    d = euler_phi(n)
    phi = cyclotomic_polynomial(n)
    # z^d = -(phi_0 + phi_1 z + ... + phi_{d-1} z^{d-1})
    rows: list[tuple[Fraction, ...]] = []
    for k in range(d):
        rows.append(tuple(Fraction(1) if i == k else Fraction(0) for i in range(d)))
    for k in range(d, n):
        prev = rows[k - 1]
        shifted = [Fraction(0)] + list(prev[:-1])
        lead = prev[-1]
        if lead:
            for i in range(d):
                shifted[i] -= lead * phi[i]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce_poly(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_n of any degree to the power basis."""
    d = euler_phi(n)
    table = _power_table(n)
    out = [Fraction(0)] * d
    for k, c in enumerate(coeffs):
        if c:
            row = table[k % n]
            for i in range(d):
                if row[i]:
                    out[i] += c * row[i]
    return tuple(out)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to a rational number")


class Cyclotomic:
    """An exact element of some cyclotomic field Q(zeta_n)."""

    __slots__ = ("n", "coeffs", "_min")

    def __init__(self, n: int, coeffs) -> None:
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        d = euler_phi(n)
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) > d:
            raise ValueError("coefficient vector longer than the basis")
        cs += [Fraction(0)] * (d - len(cs))
        self.n = n
        self.coeffs = tuple(cs)
        self._min = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(value) -> "Cyclotomic":
        return _make(1, (_as_fraction(value),))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        """The root of unity zeta_n^k."""
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        poly = [Fraction(0)] * (k % n) + [Fraction(1)]
        return _make(n, _reduce_poly(n, poly))

    # -- conductor handling ------------------------------------------

    def lift(self, m: int) -> "Cyclotomic":
        """Rewrite over Q(zeta_m); m must be a multiple of the conductor."""
        if m % self.n != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        if m == self.n:
            return self
        if self.n == 1:
            zeros = (Fraction(0),) * (euler_phi(m) - 1)
            return _make(m, self.coeffs + zeros)
        step = m // self.n
        poly = [Fraction(0)] * (euler_phi(self.n) * step)
        for k, c in enumerate(self.coeffs):
            if c:
                poly[k * step] = c
        return _make(m, _reduce_poly(m, poly))

    def _pair(self, other: "Cyclotomic"):
        m = self.n * other.n // gcd(self.n, other.n)
        return self.lift(m), other.lift(m)

    # -- arithmetic --------------------------------------------------

    def _combine(self, other, op):
        """self + other or self - other, coordinate by coordinate."""
        if isinstance(other, Cyclotomic) and other.n == 1:
            other = other.coeffs[0]
        if isinstance(other, (int, Fraction)):
            cs = self.coeffs
            return _make(self.n, (op(cs[0], other),) + cs[1:])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = (self, other) if self.n == other.n else self._pair(other)
        return _make(a.n, tuple(map(op, a.coeffs, b.coeffs)))

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.n, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self)._combine(other, operator.add)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.n, tuple([c * other for c in self.coeffs]))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if other.is_rational():
            r = other.coeffs[0]
            return _make(self.n, tuple([c * r for c in self.coeffs]))
        if self.is_rational():
            r = self.coeffs[0]
            return _make(other.n, tuple([c * r for c in other.coeffs]))
        a, b = (self, other) if self.n == other.n else self._pair(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return _make(a.n, _reduce_poly(a.n, prod))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Cyclotomic":
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = ONE
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.coeffs[0])
        g, u, _ = poly_xgcd(QQ, self.coeffs, cyclotomic_polynomial(self.n))
        if len(g) != 1:
            raise ArithmeticError("element is not invertible")
        return _make(self.n, _reduce_poly(self.n, u))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # -- Galois action -----------------------------------------------

    def galois(self, t: int) -> "Cyclotomic":
        """Apply the automorphism zeta |-> zeta^t; t must be prime to n."""
        if gcd(t, self.n) != 1:
            raise ValueError("Galois exponent must be prime to the conductor")
        poly = [Fraction(0)] * self.n
        for k, c in enumerate(self.coeffs):
            if c:
                poly[(k * t) % self.n] += c
        return _make(self.n, _reduce_poly(self.n, poly))

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta |-> zeta^(-1)."""
        return self.galois(self.n - 1) if self.n > 1 else self

    # -- predicates and conversions ----------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is irrational")
        return self.coeffs[0]

    def as_int(self) -> int:
        q = self.as_fraction()
        if q.denominator != 1:
            raise ValueError("value is not an integer")
        return q.numerator

    def is_p_integral(self, p: int) -> bool:
        """True when every basis coordinate has denominator prime to p.

        The power basis is an integral basis of the ring of integers of
        Q(zeta_n), so this tests membership in the localization at p.
        """
        return all(c.denominator % p != 0 for c in self.coeffs)

    def minimal(self) -> "Cyclotomic":
        """Canonical copy over the smallest conductor containing the value."""
        if self._min is not None:
            return self._min
        reduced = self
        for d in sorted(k for k in range(1, self.n + 1) if self.n % k == 0):
            if d == self.n:
                break
            cand = _try_descend(self, d)
            if cand is not None:
                reduced = cand
                break
        self._min = reduced
        reduced._min = reduced
        return reduced

    # -- comparisons -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and self.is_rational()
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = (self, other) if self.n == other.n else self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        m = self.minimal()
        return hash((m.n, m.coeffs))

    def __repr__(self):
        if self.is_rational():
            return f"Cyclotomic({self.coeffs[0]})"
        terms = " + ".join(
            f"{c}*z{self.n}^{k}" for k, c in enumerate(self.coeffs) if c
        )
        return f"Cyclotomic[{terms}]"


def _coerce(value):
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.from_rational(value)
    return NotImplemented


_new = object.__new__


def _make(n: int, coeffs: tuple) -> Cyclotomic:
    """An element from a tuple of phi(n) Fractions, taken as it is."""
    out = _new(Cyclotomic)
    out.n = n
    out.coeffs = coeffs
    out._min = None
    return out


def _try_descend(x: Cyclotomic, d: int):
    """Express x over Q(zeta_d) if possible, else None (d divides conductor)."""
    n = x.n
    # Quick Galois-fixedness test before the linear algebra.
    for t in range(2, n + 1):
        if gcd(t, n) == 1 and t % d == 1:
            if x.galois(t) != x:
                return None
    cols = [Cyclotomic.zeta(d, j).lift(n).coeffs for j in range(euler_phi(d))]
    sol = mat_solve(QQ, list(zip(*cols)), x.coeffs)
    if sol is None:
        return None
    return Cyclotomic(d, sol)


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)
