"""Exact arithmetic in cyclotomic fields.

An element of conductor n is a vector of rational coordinates over the
power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n), where z is a fixed
primitive n-th root of unity and phi is Euler's totient.  It is stored
as phi(n) integer numerators ``num`` over one common denominator
``den`` >= 1, in lowest terms: gcd(den, *num) == 1, so two elements of
one conductor are equal exactly when their numerators and denominators
are.  Character values are algebraic integers, whose power-basis
coordinates are integers (Washington, Introduction to Cyclotomic
Fields, Thm 2.6), so the denominator is mostly 1 and arithmetic runs on
Python ints; ``coeffs`` gives the coordinates as Fractions.  Mixed
conductors are handled by lifting both operands to the least common
multiple.  All operations are exact; nothing is ever rounded.

Arithmetic touches the numerators directly where it can: an int operand
of +, - or * (on either side) scales or shifts the numerators, a
Fraction operand scales the numerators and the denominator, and so does
an element of conductor 1, which lifts to any conductor by padding with
zeros; two operands of one conductor and one denominator are added
coordinate by coordinate.  Only operands of different conductors above
1 are lifted through a reduction modulo Phi_m, and only a product of
two irrational elements convolves numerators.

No linear algebra is needed.  ``minimal`` descends one prime p of the
conductor n at a time: the relative trace from Q(zeta_n) down to
Q(zeta_(n/p)), over its degree, is read straight off the numerators,
and the value lies in the subfield exactly when that candidate lifts
back to it.  ``inverse`` is the product of the other Galois conjugates
over the rational norm.  The reduction modulo Phi_n, the hot path of
every product, runs through a precomputed power table, and the module
imports nothing from the rest of the package.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, little-endian, monic.

    Phi_n is the product of (x^d - 1)^mu(n/d) over the divisors d of n:
    the factors with mu(n/d) = 1 are multiplied together, then those
    with mu(n/d) = -1 are divided out exactly, all on ints.
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    f = [1]
    for d in divisors:
        if _moebius(n // d) == 1:
            # times x^d - 1: c_i = f_(i-d) - f_i
            f = [(f[i - d] if i >= d else 0) - (f[i] if i < len(f) else 0)
                 for i in range(len(f) + d)]
    for d in divisors:
        if _moebius(n // d) == -1:
            # f = g (x^d - 1) gives g_i = g_(i-d) - f_i
            g = [0] * (len(f) - d)
            for i in range(len(g)):
                g[i] = (g[i - d] if i >= d else 0) - f[i]
            f = g
    return tuple(f)


def _moebius(m: int) -> int:
    primes = _prime_divisors(m)
    if any(m % (p * p) == 0 for p in primes):
        return 0
    return (-1) ** len(primes)


def _prime_divisors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k is zeta_n^k expressed over the power basis, for 0 <= k < n.

    Phi_n is monic with integer coefficients, so every row is integral.
    Row k is z times row k-1: its coordinates shifted up by one, and,
    when the coordinate shifted out is c != 0, c Phi_n subtracted.
    """
    d = euler_phi(n)
    phi = cyclotomic_polynomial(n)[:d]
    zero = (0,) * d
    rows = [zero[:k] + (1,) + zero[k + 1:] for k in range(d)]
    prev = rows[-1]
    for _ in range(d, n):
        lead = prev[-1]
        prev = (0,) + prev[:-1]
        if lead:
            prev = tuple(map(operator.sub, prev, [lead * c for c in phi]))
        rows.append(prev)
    return tuple(rows)


def _reduce_poly(n: int, poly) -> tuple[int, ...]:
    """Reduce an int polynomial in zeta_n of any degree to the power basis.

    The coordinates below phi(n) are kept as they are; only the higher
    degrees are rewritten through the power table.
    """
    d = euler_phi(n)
    if len(poly) <= d:
        return tuple(poly) + (0,) * (d - len(poly))
    out = list(poly[:d])
    table = _power_table(n)
    for k in range(d, len(poly)):
        c = poly[k]
        if c:
            for i, r in enumerate(table[k % n]):
                if r:
                    out[i] += c * r
    return tuple(out)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to a rational number")


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Fractions as integer numerators over their least common denominator."""
    den = lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


class Cyclotomic:
    """An exact element of some cyclotomic field Q(zeta_n)."""

    __slots__ = ("n", "num", "den", "_min")

    def __init__(self, n: int, coeffs) -> None:
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        d = euler_phi(n)
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) > d:
            raise ValueError("coefficient vector longer than the basis")
        cs += [Fraction(0)] * (d - len(cs))
        num, den = _over_common_denominator(cs)
        self.n = n
        self.num = tuple(num)
        self.den = den
        self._min = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(n) power-basis coordinates, as Fractions."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.num])

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(value) -> "Cyclotomic":
        if type(value) is int:
            return _make(1, (value,), 1)
        q = _as_fraction(value)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        """The root of unity zeta_n^k."""
        return Cyclotomic.from_exponents(n, [0] * (k % n) + [1])

    @staticmethod
    def from_exponents(n: int, coeffs) -> "Cyclotomic":
        """sum c_k zeta_n^k over int coefficients c_0, c_1, ..., of any
        length, reduced to the power basis in one pass."""
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        return _make(n, _reduce_poly(n, coeffs), 1)

    # -- conductor handling ------------------------------------------

    def lift(self, m: int) -> "Cyclotomic":
        """Rewrite over Q(zeta_m); m must be a multiple of the conductor."""
        if m % self.n != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        if m == self.n:
            return self
        return _make(m, _lift_num(self, m), self.den)

    def _pair(self, other: "Cyclotomic"):
        """The common conductor and both numerator vectors over it."""
        if self.n == other.n:
            return self.n, self.num, other.num
        m = lcm(self.n, other.n)
        return m, _lift_num(self, m), _lift_num(other, m)

    # -- arithmetic --------------------------------------------------

    def _combine(self, other, op):
        """self + other or self - other, coordinate by coordinate."""
        if isinstance(other, Cyclotomic):
            if other.n == 1:
                return self._shift(other.num[0], other.den, op)
            m, a, b = self._pair(other)
            da, db = self.den, other.den
            if da == db:
                return _make(m, tuple(map(op, a, b)), da)
            g = gcd(da, db)
            fa, fb = db // g, da // g
            return _make(m, tuple([op(x * fa, y * fb)
                                   for x, y in zip(a, b)]), da * fa)
        if isinstance(other, int):
            return self._shift(other, 1, op)
        if isinstance(other, Fraction):
            return self._shift(other.numerator, other.denominator, op)
        return NotImplemented

    def _shift(self, r: int, s: int, op):
        """self op r/s for a rational r/s, s >= 1."""
        num, den = self.num, self.den
        if s == den:
            return _make(self.n, (op(num[0], r),) + num[1:], den)
        g = gcd(den, s)
        fa, fb = s // g, den // g
        return _make(self.n, (op(num[0] * fa, r * fb),)
                     + tuple([c * fa for c in num[1:]]), den * fa)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.n, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self)._combine(other, operator.add)

    def __mul__(self, other):
        if isinstance(other, int):
            return _make(self.n, tuple([c * other for c in self.num]),
                         self.den)
        if isinstance(other, Fraction):
            r = other.numerator
            return _make(self.n, tuple([c * r for c in self.num]),
                         self.den * other.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        den = self.den * other.den
        if not any(other.num[1:]):
            r = other.num[0]
            return _make(self.n, tuple([c * r for c in self.num]), den)
        if not any(self.num[1:]):
            r = self.num[0]
            return _make(other.n, tuple([c * r for c in other.num]), den)
        m, a, b = self._pair(other)
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _make(m, _reduce_poly(m, prod), den)

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
        """Multiplicative inverse: the product of the other Galois
        conjugates of the value, divided by its norm, the product of all
        of them, which is a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return Cyclotomic.from_rational(Fraction(self.den, self.num[0]))
        n = self.n
        others = ONE
        for t in range(2, n):
            if gcd(t, n) == 1:
                others = others * self.galois(t)
        return others * (1 / (self * others).as_fraction())

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
        n = self.n
        if gcd(t, n) != 1:
            raise ValueError("Galois exponent must be prime to the conductor")
        num = self.num
        if not any(num[1:]):
            return self
        poly = [0] * n
        for k, c in enumerate(num):
            if c:
                poly[(k * t) % n] = c
        return _make(n, _reduce_poly(n, poly), self.den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta |-> zeta^(-1)."""
        return self.galois(self.n - 1) if self.n > 1 else self

    # -- predicates and conversions ----------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is irrational")
        return Fraction(self.num[0], self.den)

    def as_int(self) -> int:
        if not self.is_rational():
            raise ValueError("value is irrational")
        if self.den != 1:
            raise ValueError("value is not an integer")
        return self.num[0]

    def is_p_integral(self, p: int) -> bool:
        """True when every basis coordinate has denominator prime to p.

        The power basis is an integral basis of the ring of integers of
        Q(zeta_n), so this tests membership in the localization at p.
        """
        return self.den % p != 0

    def minimal(self) -> "Cyclotomic":
        """Canonical copy over the smallest conductor containing the value.

        The divisors d of n with the value in Q(zeta_d) are closed under
        gcd, since Q(zeta_a) meets Q(zeta_b) in Q(zeta_gcd(a, b)), so the
        smallest is reached by stripping the primes of n one at a time,
        each as often as the value stays in the smaller field: it does
        exactly when its relative trace there, over the degree, lifts
        back to it.
        """
        if self._min is not None:
            return self if self._min is True else self._min
        reduced = self
        if self.is_rational():
            if self.n > 1:
                reduced = _make(1, self.num[:1], self.den)
        else:
            for p in _prime_divisors(self.n):
                while reduced.n % p == 0:
                    cand = _trace_down(reduced, p)
                    if cand.lift(reduced.n) != reduced:
                        break
                    reduced = cand
        self._min = True if reduced is self else reduced
        reduced._min = True     # minimal, with no reference to itself
        return reduced

    # -- comparisons -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other \
                and self.is_rational()
        if isinstance(other, Fraction):
            return self.den == other.denominator \
                and self.num[0] == other.numerator and self.is_rational()
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.den != other.den:
            return False
        _, a, b = self._pair(other)
        return a == b

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        m = self.minimal()
        return hash((m.n, m.num, m.den))

    def __repr__(self):
        if self.is_rational():
            return f"Cyclotomic({self.as_fraction()})"
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


def _make(n: int, num: tuple, den: int) -> Cyclotomic:
    """An element from phi(n) int numerators over den >= 1, in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = tuple([c // g for c in num])
    out = _new(Cyclotomic)
    out.n = n
    out.num = num
    out.den = den
    out._min = None
    return out


def _lift_num(x: Cyclotomic, m: int) -> tuple[int, ...]:
    """The numerators of x over Q(zeta_m), for m a multiple of x.n.

    The denominator does not change: Z[zeta_m] meets Q(zeta_n) in
    Z[zeta_n], so lifting keeps the numerators in lowest terms.
    """
    n = x.n
    if n == m:
        return x.num
    if n == 1:
        return x.num + (0,) * (euler_phi(m) - 1)
    step = m // n
    poly = [0] * ((len(x.num) - 1) * step + 1)
    for k, c in enumerate(x.num):
        if c:
            poly[k * step] = c
    return _reduce_poly(m, poly)


def _trace_down(x: Cyclotomic, p: int) -> Cyclotomic:
    """The relative trace of x from Q(zeta_n) to Q(zeta_m), m = n/p,
    divided by the degree, with zeta_m = zeta_n^p.

    When p divides m, the trace of zeta_n^k is p zeta_m^(k/p) for k = 0
    mod p and 0 otherwise, so the candidate is every p-th numerator.
    Otherwise zeta_n^k = zeta_m^(k u) zeta_p^(k v) with u = p^-1 mod m
    and v = m^-1 mod p, and the trace of zeta_p^(k v) over Q(zeta_m) is
    p - 1 when p divides k and -1 when it does not.
    """
    n, num = x.n, x.num
    m = n // p
    if m % p == 0:
        return _make(m, num[::p], x.den)
    u = pow(p, -1, m)
    poly = [0] * m
    for k, c in enumerate(num):
        if c:
            poly[k * u % m] += c * (p - 1) if k % p == 0 else -c
    return _make(m, _reduce_poly(m, poly), x.den * (p - 1))


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)
