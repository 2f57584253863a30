"""Exact cyclotomic arithmetic: roots of unity, conductors, Galois action."""

from fractions import Fraction
from math import gcd

import pytest

from bisetblocks.cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi

from oracles import cyclotomic, zeta


def test_power_tables_agree_with_long_division():
    # every row up to conductor 60; above it, up to 600, the last row
    # before the power basis ends, the first rows after it, the last
    # row and two seeded ones
    import random
    from bisetblocks.cyclotomic import _power_table
    from oracles import power_by_long_division
    rng = random.Random(26)
    for n in range(1, 601):
        # not through the cache, which would keep every table
        table = _power_table.__wrapped__(n)
        d = euler_phi(n)
        assert len(table) == n and all(len(row) == d for row in table)
        if n <= 60:
            ks = range(n)
        else:
            ks = {d - 1, d, min(d + 1, n - 1), n - 1,
                  rng.randrange(d, n), rng.randrange(d, n)}
        phi = cyclotomic_polynomial(n)
        for k in ks:
            assert table[k] == power_by_long_division(phi, k), (n, k)


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


def test_as_int_rejects_non_integers():
    assert Cyclotomic.from_rational(4).as_int() == 4
    with pytest.raises(ValueError):
        Cyclotomic.from_rational(Fraction(1, 2)).as_int()
    with pytest.raises(ValueError):
        zeta(3).as_fraction()


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

@pytest.mark.parametrize("n", list(range(1, 61)) + [840, 5040])
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


@pytest.mark.parametrize(
    "n", [n for n in range(1, 91) if euler_phi(n) <= 24])
def test_random_elements_times_their_inverse_are_one(n):
    import random
    rng = random.Random(1000 + n)
    for _ in range(6):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(euler_phi(n))]
        x = cyclotomic(n, coeffs)
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
    return cyclotomic(n, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
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
        return cyclotomic(m, _reduce_mod_phi(prod, m))
    combine = {"+": lambda u, v: u + v, "-": lambda u, v: u - v}[op]
    return cyclotomic(m, [combine(u, v) for u, v in zip(a, b)])


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
                c = Cyclotomic.from_rational(r)
                _same(fn(x, r), _general(sym, x, c))
                _same(fn(r, x), _general(sym, c, x))
        _same(-x, _general("-", Cyclotomic.from_rational(0), x))


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


# -- hashing agrees with equality --------------------------------------

def test_rational_values_hash_like_the_number_they_equal():
    from collections import Counter
    for q in (Fraction(1, 2), Fraction(-3, 4), Fraction(6), 0, 7, -2):
        c = Cyclotomic.from_rational(q)
        for v in (c, c.lift(3), c.lift(12), zeta(5) - zeta(5) + q):
            assert v == q and hash(v) == hash(q)
    half = Fraction(1, 2)
    counts = Counter([Cyclotomic.from_rational(half), half,
                      zeta(4) * 0 + half])
    assert counts[half] == 3 and len(counts) == 1


# -- the integer representation against complex evaluation -------------

ORACLE_CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24)


def _random_element(rng, n):
    """A random element of conductor n, coordinates with denominators 1-6."""
    return cyclotomic(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                          if rng.random() < 0.75 else 0
                          for _ in range(euler_phi(n))])


def _assert_normal(v):
    assert len(v.num) == euler_phi(v.n)
    assert all(type(c) is int for c in v.num) and type(v.den) is int
    assert v.den > 0 and gcd(v.den, *v.num) == 1


def dot(xs, ys):
    """sum x*y over the pairs, fused: every nonzero term is lifted to the
    lcm m of the conductors of the irrational factors and accumulated
    into one int list, rescaled when a term brings a new denominator,
    and reduced modulo Phi_m once, at the end.  It checks the row
    kernels of the module, on rows of one int, against its + and *."""
    from bisetblocks.cyclotomic import _make, _reduce, _rows_over
    terms = [(x, y) for x, y in zip(xs, ys)
             if not x.is_zero() and not y.is_zero()]
    m = 1
    for v in (v for t in terms for v in t if not v.is_rational()):
        m = m * v.n // gcd(m, v.n)
    acc = [0] * (2 * euler_phi(m) - 1)
    den = 1
    for x, y in terms:
        t = x.den * y.den
        if den % t:
            k = t // gcd(den, t)
            acc = [c * k for c in acc]
            den *= k
        a, b = ([c for (c,) in _rows_over(v, m)] if not v.is_rational()
                else v.num[:1] for v in (x, y))
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                acc[i + j] += u * v * (den // t)
    rows = _reduce(m, [(c,) for c in acc], 1)
    return _make(m, tuple([c for (c,) in rows]), den)


@pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
def test_arithmetic_agrees_with_complex_evaluation(n):
    import random

    from oracles import close, complex_value as cv
    rng = random.Random(5100 + n)
    for _ in range(4):
        x = _random_element(rng, n)
        _assert_normal(x)
        for m in ORACLE_CONDUCTORS:
            if n * m // gcd(n, m) > 60:
                continue        # keeps the division's Euclid small
            y = _random_element(rng, m)
            for got, want in ((x + y, cv(x) + cv(y)),
                              (x - y, cv(x) - cv(y)),
                              (x * y, cv(x) * cv(y))):
                _assert_normal(got)
                assert close(cv(got), want), (x, y, got)
            if not y.is_zero():
                q = x / y
                _assert_normal(q)
                assert close(cv(q), cv(x) / cv(y)), (x, y, q)
        for t in (t for t in range(1, n + 1) if gcd(t, n) == 1):
            g = x.galois(t)
            _assert_normal(g)
            assert close(cv(g), cv(x, t)), (x, t)
        for k in (2, 3):
            up = x.lift(k * n)
            _assert_normal(up)
            assert up.n == k * n and close(cv(up), cv(x))
        low = x.minimal()
        _assert_normal(low)
        assert n % low.n == 0 and close(cv(low), cv(x))
        assert low.lift(n) == x and x.lift(2 * n).minimal().n == low.n
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        rational = x - x + r
        _assert_normal(rational)
        assert rational.as_fraction() == r
        assert rational.minimal().n == 1
        assert close(complex(float(r)), cv(rational))
        # a dot product of terms over every conductor and denominator
        xs = [_random_element(rng, m) for m in (n, 1, 3, 4, n, 2)] \
            + [Cyclotomic.from_rational(0)]
        ys = [_random_element(rng, m) for m in (n, 1, 2, n, 12, 4, 5)]
        total = dot(xs, ys)
        _assert_normal(total)
        assert close(cv(total), sum(cv(a) * cv(b) for a, b in zip(xs, ys)))
        assert total == sum((a * b for a, b in zip(xs, ys)),
                            Cyclotomic.from_rational(0))
        assert dot([], []) == 0 and dot([x], [cyclotomic(n, [])]) == 0


# -- the shared row kernels against oracles of their own --------------

def test_reduce_matches_long_division_column_by_column():
    import random

    from bisetblocks.cyclotomic import _reduce
    from oracles import power_by_long_division
    rng = random.Random(3500)
    for n in ORACLE_CONDUCTORS:
        d, phi = euler_phi(n), cyclotomic_polynomial(n)
        for k in (1, 3):
            for length in (0, d // 2, d, n, 2 * n + 1):
                poly = [None if rng.random() < 0.25 else
                        tuple(rng.randint(-9, 9) for _ in range(k))
                        for _ in range(length)]
                got = _reduce(n, poly, k)
                assert len(got) == d and all(len(r) == k for r in got)
                for j in range(k):
                    want = [0] * d
                    for e, row in enumerate(poly):
                        if row:
                            for i, c in enumerate(
                                    power_by_long_division(phi, e)):
                                want[i] += row[j] * c
                    assert [r[j] for r in got] == want, (n, k, poly)


def test_rows_over_lifts_and_twists_every_value():
    import cmath
    import random

    from bisetblocks.characters import ClassFunction
    from bisetblocks.cyclotomic import _rows_over
    from bisetblocks.namedgroups import named_group
    from oracles import close, complex_value
    G = named_group("S4")
    rng = random.Random(3501)
    for n in ORACLE_CONDUCTORS:
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for conductors in ([1] * 5, [rng.choice(divisors) for _ in range(4)]
                           + [n]):
            vals = [_random_element(rng, c) for c in conductors]
            f = ClassFunction(G, vals)
            for m in (f.n, 2 * f.n, 3 * f.n):
                for t in (-1, *(t for t in range(1, f.n + 1)
                                if gcd(t, f.n) == 1)):
                    rows = _rows_over(f, m, t)
                    assert len(rows) == euler_phi(m)
                    for c, v in enumerate(vals):
                        got = sum(row[c] * cmath.exp(2j * cmath.pi * i / m)
                                  for i, row in enumerate(rows)) / f.den
                        assert close(got, complex_value(v, t)), (v, m, t)


# -- conductor descent against the Galois criterion --------------------

def _outside_every_proper_subfield(y):
    """For every proper divisor d of the conductor m, some t = 1 mod d
    prime to m moves y, so y lies in no Q(zeta_d) with d < m."""
    m = y.n
    return all(any(y.galois(t) != y for t in range(1 + d, m + 1, d)
                   if gcd(t, m) == 1)
               for d in range(1, m) if m % d == 0)


def _descent_values():
    import random
    from bisetblocks.characters import character_table
    from bisetblocks.groups import group_from_permutations
    from bisetblocks.namedgroups import BUNDLED_NAMES, named_group
    rng = random.Random(24)
    lifted = []
    for n in range(1, 121):
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        k = rng.choice([k for k in range(1, 6) if k * n <= 600])
        lifted += [_random_element(rng, n).lift(k * n),
                   _random_element(rng, d).lift(n)]
    values = []
    groups = [named_group(name) for name in BUNDLED_NAMES] + [
        group_from_permutations(gens) for gens in (
            ["(1 2 3)", "(1 2 3 4 5)"], ["(1 2)", "(1 2 3 4 5)"],
            ["(1 2)", "(1 2 3 4 5 6)"])]
    for G in groups:
        for chi in character_table(G).irreducibles:
            values += set(chi.values)
    return lifted + [x.lift(k * x.n) for x in values for k in range(1, 6)]


def test_minimal_lifts_back_and_lies_in_no_smaller_field():
    for x in _descent_values():
        # a fresh copy, so that no descent cached on a shared value is read
        x = cyclotomic(x.n, x.coeffs)
        y = x.minimal()
        assert x.n % y.n == 0 and y.lift(x.n) == x, x
        assert _outside_every_proper_subfield(y), (x, y)


def test_the_module_imports_nothing_from_the_package():
    import ast
    from pathlib import Path
    import bisetblocks.cyclotomic as module
    tree = ast.parse(Path(module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.dump(node)
            assert not node.module.startswith("bisetblocks"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("bisetblocks")
                           for a in node.names)
