"""Exact cyclotomic arithmetic: roots of unity, conductors, Galois action."""

from fractions import Fraction
from math import gcd

import pytest

from bisetblocks.cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi

zeta = Cyclotomic.zeta


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity_have_the_right_order():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        z = zeta(n)
        assert z ** n == 1
        for k in range(1, n):
            assert z ** k != 1


def test_vanishing_root_sums():
    # sum over all n-th roots of unity is zero for n > 1
    for n in (2, 3, 4, 6, 12):
        total = Cyclotomic.from_rational(0)
        for k in range(n):
            total = total + zeta(n, k)
        assert total.is_zero()
    assert 1 + zeta(3) + zeta(3) ** 2 == 0


def test_conductor_identities():
    assert zeta(6) ** 2 == zeta(3)
    assert zeta(6) == -(zeta(3) ** 2)
    assert zeta(4) ** 2 == -1
    assert zeta(12) ** 4 == zeta(3)
    assert zeta(12) ** 3 == zeta(4)


def test_minimal_conductor_descent():
    v = zeta(12) ** 4
    assert v.n == 12
    assert v.minimal().n == 3
    w = zeta(3).lift(12)
    assert w.n == 12 and w.minimal().n == 3
    assert zeta(8).minimal().n == 8
    assert Cyclotomic.from_rational(Fraction(5, 3)).minimal().n == 1


def test_lift_requires_a_multiple():
    with pytest.raises(ValueError):
        zeta(4).lift(6)


def test_mixed_conductor_arithmetic():
    s = zeta(3) + zeta(4)
    assert s.n == 12
    assert s - zeta(4) == zeta(3)
    assert (zeta(3) * zeta(4)) == zeta(12, 7)  # 1/3 + 1/4 = 7/12


def test_rational_coercion():
    z = zeta(7)
    assert (z / 2) * 2 == z
    assert z * Fraction(3, 5) == Fraction(3, 5) * z
    assert 1 - z == -(z - 1)
    assert Cyclotomic.from_rational(Fraction(3, 7)).as_fraction() == \
        Fraction(3, 7)


def test_inverse_and_division():
    z = 2 + zeta(5)
    assert z * z.inverse() == 1
    assert (z / z) == 1
    assert 1 / zeta(8) == zeta(8) ** 7
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0).inverse()


def test_galois_action():
    z = zeta(7)
    assert z.galois(3) == z ** 3
    assert z.galois(2).galois(4) == z  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(ValueError):
        zeta(6).galois(3)


def test_conjugation():
    z = zeta(5)
    assert z.conjugate() == z ** 4
    assert z.conjugate().conjugate() == z
    r = Cyclotomic.from_rational(Fraction(2, 3))
    assert r.conjugate() == r
    # z + conj(z) is real, hence fixed by conjugation
    s = z + z.conjugate()
    assert s.conjugate() == s


def test_as_int_rejects_non_integers():
    assert Cyclotomic.from_rational(4).as_int() == 4
    with pytest.raises(ValueError):
        Cyclotomic.from_rational(Fraction(1, 2)).as_int()
    with pytest.raises(ValueError):
        zeta(3).as_fraction()


def test_p_integrality():
    third = Cyclotomic.from_rational(Fraction(1, 3))
    assert not third.is_p_integral(3)
    assert third.is_p_integral(2)
    half_zeta = zeta(3) * Fraction(1, 2)
    assert half_zeta.is_p_integral(3)
    assert not half_zeta.is_p_integral(2)


def test_equality_and_hash_cross_conductor():
    a = zeta(6) ** 2
    b = zeta(3)
    assert a == b and hash(a) == hash(b)
    assert zeta(3) != zeta(4)
    assert Cyclotomic.from_rational(2) == 2


def test_power_with_negative_exponent():
    z = zeta(9)
    assert z ** -2 == z ** 7
    assert z ** 0 == 1


# -- oracles that share no code with the implementation --------------

@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_polynomial_vanishes_at_primitive_roots(n):
    import cmath
    from math import gcd
    coeffs = cyclotomic_polynomial(n)
    assert all(type(c) is int for c in coeffs)
    primitive = [k for k in range(1, n + 1) if gcd(k, n) == 1]
    assert len(coeffs) - 1 == len(primitive) and coeffs[-1] == 1
    for k in primitive:
        root = cmath.exp(2j * cmath.pi * k / n)
        assert abs(sum(c * root ** i for i, c in enumerate(coeffs))) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24])
def test_random_elements_times_their_inverse_are_one(n):
    import random
    rng = random.Random(1000 + n)
    for _ in range(6):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(euler_phi(n))]
        x = Cyclotomic(n, coeffs)
        if x.is_zero():
            continue
        assert x * x.inverse() == 1
        assert x.inverse() * x == 1


@pytest.mark.parametrize("n", [12, 15, 20, 24])
def test_minimal_conductor_of_roots_of_unity(n):
    from math import gcd
    for d in (d for d in range(1, n + 1) if n % d == 0):
        for j in range(d):
            o = d // gcd(d, j)
            want = o // 2 if o % 4 == 2 else o
            assert zeta(d, j).lift(n).minimal().n == want, (d, j)


# -- the coefficient fast paths against the general path ---------------

FAST_PATH_CONDUCTORS = (1, 3, 4, 5, 8, 12, 15, 24)


def _seeded_element(rng, n):
    return Cyclotomic(n, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          if rng.random() < 0.7 else 0
                          for _ in range(euler_phi(n))])


def _reduce_mod_phi(poly, m):
    """poly modulo Phi_m by long division, as phi(m) Fractions."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for top in range(len(poly) - 1, d - 1, -1):
        lead = poly[top]
        if lead:
            for i, c in enumerate(phi):
                poly[top - d + i] -= lead * c
    return poly[:d]


def _general(op, x, y):
    """x op y through an explicit lift of both operands to the lcm."""
    m = x.n * y.n // gcd(x.n, y.n)
    a, b = x.lift(m).coeffs, y.lift(m).coeffs
    if op == "*":
        prod = [Fraction(0)] * (len(a) + len(b))
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                prod[i + j] += u * v
        return Cyclotomic(m, _reduce_mod_phi(prod, m))
    combine = {"+": lambda u, v: u + v, "-": lambda u, v: u - v}[op]
    return Cyclotomic(m, [combine(u, v) for u, v in zip(a, b)])


def _same(result, expected):
    assert all(type(c) is Fraction for c in result.coeffs)
    assert len(result.coeffs) == euler_phi(result.n)
    assert result.n <= expected.n and expected.n % result.n == 0
    assert result.lift(expected.n).coeffs == expected.coeffs


@pytest.mark.parametrize("n", FAST_PATH_CONDUCTORS)
def test_fast_paths_equal_the_general_path(n):
    import operator
    import random
    rng = random.Random(4200 + n)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul}
    for _ in range(3):
        x = _seeded_element(rng, n)
        others = [_seeded_element(rng, m) for m in FAST_PATH_CONDUCTORS]
        scalars = [rng.randint(-5, 5), Fraction(rng.randint(-5, 5),
                                                rng.randint(1, 6))]
        for sym, fn in ops.items():
            for y in others:
                _same(fn(x, y), _general(sym, x, y))
                _same(fn(y, x), _general(sym, y, x))
            for r in scalars:
                c = Cyclotomic(1, [r])
                _same(fn(x, r), _general(sym, x, c))
                _same(fn(r, x), _general(sym, c, x))
        _same(-x, _general("-", Cyclotomic(1, [0]), x))


@pytest.mark.parametrize("n", FAST_PATH_CONDUCTORS)
def test_equal_values_at_other_conductors_hash_equally(n):
    import random
    rng = random.Random(4300 + n)
    for _ in range(3):
        x = _seeded_element(rng, n)
        for k in (2, 3, 5):
            y = x.lift(k * n)
            assert y == x and hash(y) == hash(x)
            assert hash(y - x) == hash(Cyclotomic.from_rational(0))
    r = Fraction(rng.randint(-9, 9), 7)
    assert hash(Cyclotomic.from_rational(r).lift(n)) == \
        hash(Cyclotomic.from_rational(r))
