"""Exact arithmetic in cyclotomic fields, on rows of integer numerators.

An element of conductor n is a vector of rational coordinates over the
power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n), where z is a fixed
primitive n-th root of unity and phi is Euler's totient.  It is stored
as phi(n) integer numerators ``num`` over one common denominator
``den`` >= 1, in lowest terms: gcd(den, *num) == 1, so two elements of
one conductor are equal exactly when their numerators and denominators
are.  Character values are algebraic integers, whose power-basis
coordinates are integers (Washington, Introduction to Cyclotomic
Fields, Thm 2.6), so the denominator is mostly 1 and arithmetic runs on
Python ints; ``coeffs`` gives the coordinates as Fractions.  All
operations are exact; nothing is ever rounded.

One set of kernels does the arithmetic of Z[zeta_n] for this type and
for the class functions of characters.py.  Each reads an operand's
``n``, ``den`` and ``rows``: row t holds the t-th numerator of each of
k values, and a Cyclotomic is the case k = 1.  ``_reduce`` rewrites
rows by degree modulo Phi_n by synthetic division, one column at a time,
``_rows_over`` lifts to a multiple of the conductor and applies
zeta |-> zeta^t, ``_sum`` adds or subtracts over the lcm of the
conductors and denominators, and ``_bilinear`` multiplies, a row of
degree s times one of degree t landing in degree s + t.  Only a
rational factor of a product scales the numerators directly.

A value is built from a rational (``from_rational``) or from int
coefficients of powers of zeta_n (``from_exponents``), and otherwise by
arithmetic.  The verbs only multiply, lift, compare and descend values;
the other operators and ``inverse`` with ``galois`` have no caller in
the package and stay while perfbench/tracer.py counts them by name.

No linear algebra is needed.  ``minimal`` descends one prime p of the
conductor n at a time: the relative trace from Q(zeta_n) down to
Q(zeta_(n/p)), over its degree, is read straight off the numerators,
and the value lies in the subfield exactly when that candidate lifts
back to it.  ``inverse`` is the product of the other Galois conjugates
over the rational norm.  The module imports nothing from the rest of
the package.
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


def _reduce(n: int, poly, k: int) -> tuple:
    """Tuples of k ints by degree in zeta_n, None for a zero row, of any
    length, rewritten over the phi(n) rows of the power basis, missing
    rows being zero.  Each of the k columns is divided by Phi_n on its
    own, synthetically: from the top degree e down to phi(n), an entry b
    of degree e subtracts b c from degree e - phi(n) + i for each nonzero
    coefficient c of x^i in Phi_n below its leading one."""
    d = euler_phi(n)
    rows = [row or (0,) * k for row in poly]
    if len(rows) <= d:
        return tuple(rows + [(0,) * k] * (d - len(rows)))
    tail = [(i - d, c) for i, c in enumerate(cyclotomic_polynomial(n)[:d])
            if c]
    cols = [list(col) for col in zip(*rows)]
    for col in cols:
        for e in range(len(rows) - 1, d - 1, -1):
            b = col[e]
            if b:
                for i, c in tail:
                    col[e + i] -= c * b
    return tuple(zip(*[col[:d] for col in cols]))


def _rows_over(x, m: int, t: int = 1) -> tuple:
    """The rows of x over Q(zeta_m), for m a multiple of x.n, after
    zeta_n |-> zeta_n^t, for t prime to x.n.

    The denominator does not change: Z[zeta_m] meets Q(zeta_n) in
    Z[zeta_n], so lifting keeps the numerators in lowest terms.
    """
    rows = x.rows
    if x.n == m and t == 1:
        return rows
    if x.n == 1:
        return rows + ((0,) * len(rows[0]),) * (euler_phi(m) - 1)
    poly = [None] * m
    for e, row in enumerate(rows):
        poly[e * t * (m // x.n) % m] = row
    return _reduce(m, poly, len(rows[0]))


def _sum(f, g, op) -> tuple:
    """(m, rows, den) of f op g, op + or -, over m = lcm(f.n, g.n) and
    den = lcm(f.den, g.den)."""
    m, den = lcm(f.n, g.n), lcm(f.den, g.den)
    fa, fb = den // f.den, den // g.den
    return m, [[op(x * fa, y * fb) for x, y in zip(a, b)]
               for a, b in zip(_rows_over(f, m), _rows_over(g, m))], den


def _bilinear(f, g, form, k: int, scale: int = 1) -> tuple:
    """(m, rows, den) of the k values of form on f and g over zeta_m,
    m = lcm(f.n, g.n), divided by f.den g.den scale, a row x of f of
    degree s and a row y of g of degree t landing in degree s + t.
    form(x, ys) is bilinear on int rows and gives, in one flat list, the
    k entries of x against each of ys, the rows of g from its first
    nonzero one to its last: one call per nonzero row of f."""
    m = lcm(f.n, g.n)
    ys = _rows_over(g, m)
    ts = [t for t, y in enumerate(ys) if any(y)] or [0]
    ys = ys[ts[0]:ts[-1] + 1]
    flat, width = [0] * ((2 * euler_phi(m) - 1) * k), len(ys) * k
    for s, x in enumerate(_rows_over(f, m), ts[0]):
        if any(x):
            a = s * k
            flat[a:a + width] = map(operator.add, flat[a:a + width],
                                    form(x, ys))
    # rows of k entries, read off one iterator k at a time
    return m, _reduce(m, list(zip(*[iter(flat)] * k)), k), \
        f.den * g.den * scale


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to a rational number")


class Cyclotomic:
    """An exact element of some cyclotomic field Q(zeta_n), built by
    from_rational or from_exponents, or by arithmetic on others."""

    __slots__ = ("n", "num", "den", "_min")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(n) power-basis coordinates, as Fractions."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.num])

    @property
    def rows(self) -> tuple[tuple[int], ...]:
        """The numerators as rows of one int, the form the kernels read."""
        return tuple(zip(self.num))

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(value) -> "Cyclotomic":
        if type(value) is int:
            return _make(1, (value,), 1)
        q = _as_fraction(value)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def from_exponents(n: int, coeffs) -> "Cyclotomic":
        """sum c_k zeta_n^k over int coefficients c_0, c_1, ..., of any
        length, reduced to the power basis in one pass."""
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        return _from_rows(n, _reduce(n, [(c,) for c in coeffs], 1), 1)

    # -- conductor handling ------------------------------------------

    def lift(self, m: int) -> "Cyclotomic":
        """Rewrite over Q(zeta_m); m must be a multiple of the conductor."""
        if m % self.n != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        if m == self.n:
            return self
        return _from_rows(m, _rows_over(self, m), self.den)

    # -- arithmetic --------------------------------------------------

    def _combine(self, other, op):
        """self + other or self - other."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _from_rows(*_sum(self, other, op))

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.is_rational() or other.is_rational()):
            return _from_rows(*_bilinear(self, other, _times, 1))
        x, r = (other, self) if self.is_rational() else (self, other)
        return _make(x.n, tuple([c * r.num[0] for c in x.num]),
                     x.den * r.den)

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
        return _from_rows(n, _rows_over(self, n, t), self.den)

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = lcm(self.n, other.n)
        return self.den == other.den \
            and _rows_over(self, m) == _rows_over(other, m)

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


def _from_rows(n: int, rows, den: int) -> Cyclotomic:
    """The element whose numerators are the rows of one int."""
    return _make(n, tuple([row[0] for row in rows]), den)


def _times(x, ys) -> list[int]:
    """The one-entry form of a product of two elements."""
    c = x[0]
    return [c * y for y, in ys]


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
    return _from_rows(m, _reduce(m, [(c,) for c in poly], 1),
                      x.den * (p - 1))


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)
