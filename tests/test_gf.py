"""Finite fields F_q and polynomial/matrix helpers over them."""

import itertools
import random

import pytest

from bisetblocks.gf import (Fq, fq_field, mat_rank, mat_rref, mat_solve,
                            poly_deg, poly_factor, poly_gcd, poly_mul,
                            poly_monic, poly_sub, poly_trim, poly_xgcd)

from oracles import poly_eval


def test_field_parameters():
    F4 = fq_field(2, 2)
    assert (F4.p, F4.m, F4.q) == (2, 2, 4)
    F9 = fq_field(3, 2)
    assert F9.q == 9
    with pytest.raises(ValueError):
        fq_field(4, 1)
    with pytest.raises(ValueError):
        fq_field(2, 0)


def test_fq_field_is_cached():
    assert fq_field(2, 3) is fq_field(2, 3)


def test_field_axioms_exhaustive_f8():
    F = fq_field(2, 3)
    q = F.q
    for a in range(q):
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        for b in range(q):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_inverses():
    for p, m in [(2, 2), (3, 2), (5, 1), (7, 1)]:
        F = fq_field(p, m)
        for a in range(1, F.q):
            assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        fq_field(3, 1).inv(0)


def test_generator_has_full_order():
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 1)]:
        F = fq_field(p, m)
        g = F.generator
        seen = set()
        x = 1
        for _ in range(F.q - 1):
            x = F.mul(x, g)
            seen.add(x)
        assert len(seen) == F.q - 1


def test_frobenius_is_additive_and_fixes_prime_field():
    F = fq_field(2, 3)
    for a in range(F.q):
        for b in range(F.q):
            assert F.frobenius(F.add(a, b)) == \
                F.add(F.frobenius(a), F.frobenius(b))
    fixed = [a for a in range(F.q) if F.frobenius(a) == a]
    assert sorted(fixed) == [0, 1]  # exactly the prime field
    F9 = fq_field(3, 2)
    fixed9 = [a for a in range(9) if F9.frobenius(a) == a]
    assert len(fixed9) == 3


def test_roots_of_unity():
    F = fq_field(2, 2)  # q - 1 = 3
    w = F.root_of_unity(3)
    assert F.power(w, 3) == 1 and w != 1 and F.power(w, 2) != 1
    with pytest.raises(ValueError):
        F.root_of_unity(5)
    F9 = fq_field(3, 2)
    z8 = F9.root_of_unity(8)
    assert F9.power(z8, 8) == 1
    assert all(F9.power(z8, k) != 1 for k in range(1, 8))


def test_from_int_reduces_mod_p():
    F = fq_field(5, 1)
    assert F.from_int(12) == 2
    assert F.from_int(-1) == 4


def test_power_negative_exponent():
    F = fq_field(3, 2)
    for a in range(1, 9):
        assert F.mul(F.power(a, -1), a) == 1
        assert F.power(a, -2) == F.inv(F.mul(a, a))


def test_poly_arithmetic_basics():
    F = fq_field(5, 1)
    a = [1, 2, 3]          # 3x^2 + 2x + 1
    b = [4, 1]             # x + 4
    prod = poly_mul(F, a, b)
    assert poly_deg(prod) == 3
    assert poly_eval(F, prod, 2) == F.mul(poly_eval(F, a, 2),
                                          poly_eval(F, b, 2))
    assert poly_trim([0, 1, 0, 0]) == [0, 1]
    from bisetblocks.gf import poly_is_zero
    assert poly_is_zero(poly_sub(F, a, a))


def test_poly_xgcd_bezout_identity():
    rng = random.Random(12)
    F = fq_field(3, 2)
    for _ in range(40):
        a = [rng.randrange(F.q) for _ in range(rng.randint(1, 5))]
        b = [rng.randrange(F.q) for _ in range(rng.randint(1, 5))]
        if not any(a) or not any(b):
            continue
        g, u, v = poly_xgcd(F, a, b)
        from bisetblocks.gf import poly_add
        lhs = poly_add(F, poly_mul(F, u, a), poly_mul(F, v, b))
        assert poly_trim(lhs) == poly_trim(g)
        # g divides both inputs
        assert poly_trim(poly_gcd(F, a, b)) == poly_trim(poly_monic(F, g))


def test_poly_factor_recombines():
    rng = random.Random(3)
    F = fq_field(2, 2)
    for _ in range(20):
        f = [rng.randrange(F.q) for _ in range(rng.randint(2, 6))]
        if poly_deg(f) < 1:
            continue
        f = poly_monic(F, f)
        factors = poly_factor(F, f)
        prod = [1]
        for fac, mult in factors:
            for _ in range(mult):
                prod = poly_mul(F, prod, fac)
        assert poly_trim(prod) == poly_trim(f)


def test_poly_factor_splits_x_q_minus_x():
    F = fq_field(2, 2)
    # x^4 - x has every field element as a root
    f = [0, F.neg(1), 0, 0, 1]
    factors = poly_factor(F, f)
    assert sum(m for _, m in factors) == 4
    assert all(poly_deg(fac) == 1 for fac, _ in factors)
    roots = {F.neg(fac[0]) for fac, _ in factors}
    assert roots == set(range(4))


def test_mat_rref_and_rank():
    F = fq_field(5, 1)
    rows = [[1, 2, 3], [2, 4, 1], [0, 0, 1]]
    assert mat_rank(F, rows) == 2
    assert mat_rank(F, [[1, 0], [0, 1]]) == 2
    assert mat_rank(F, [[0, 0], [0, 0]]) == 0
    red, pivots = mat_rref(F, [[2, 4], [1, 3]])
    assert red[0][0] == 1  # leading entries normalized
    assert len(pivots) == 2


def test_mat_solve():
    F = fq_field(7, 1)
    rows = [[1, 2], [3, 4]]
    rhs = [5, 6]
    sol = mat_solve(F, rows, rhs)
    assert sol is not None
    for r, want in zip(rows, rhs):
        acc = 0
        for c, x in zip(r, sol):
            acc = F.add(acc, F.mul(c, x))
        assert acc == want
    # inconsistent system
    assert mat_solve(F, [[1, 1], [1, 1]], [0, 1]) is None


def test_mat_rank_random_products():
    rng = random.Random(8)
    F = fq_field(3, 1)
    for _ in range(20):
        # outer products have rank at most 1
        u = [rng.randrange(3) for _ in range(4)]
        v = [rng.randrange(3) for _ in range(4)]
        M = [[F.mul(a, b) for b in v] for a in u]
        expected = 1 if any(u) and any(v) else 0
        assert mat_rank(F, M) == expected


# -- F_q tables against an oracle that shares no code with gf --------

def _small_fields(limit=128):
    primes = [p for p in range(2, limit + 1)
              if all(p % k for k in range(2, p))]
    return [(p, m) for p in primes for m in range(1, 8) if p ** m <= limit]


def _digits(a, p, m):
    return [a // p ** i % p for i in range(m)]


def _undigits(ds, p):
    return sum(c * p ** i for i, c in enumerate(ds))


def _mod_poly(f, g, p):
    """Remainder of f by the monic g over Z/p, both little-endian."""
    f = [c % p for c in f]
    for k in range(len(f) - 1, len(g) - 2, -1):
        c = f[k]
        for i, gi in enumerate(g):
            f[k - len(g) + 1 + i] = (f[k - len(g) + 1 + i] - c * gi) % p
    return f[:len(g) - 1]


def _schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _monic(p, deg):
    """Monic polynomials of degree deg, in lexicographic order of the
    coefficients read from degree deg-1 down to 0."""
    for high_first in itertools.product(range(p), repeat=deg):
        yield list(reversed(high_first)) + [1]


def _irreducible(f, p):
    m = len(f) - 1
    return not any(not any(_mod_poly(f, g, p))
                   for d in range(1, m // 2 + 1) for g in _monic(p, d))


@pytest.mark.parametrize("p,m", _small_fields())
def test_fq_tables_match_an_independent_oracle(p, m):
    F = fq_field(p, m)
    q = p ** m
    assert F.q == q
    f = list(F.modulus)
    assert len(f) == m + 1 and f[-1] == 1 and _irreducible(f, p)
    assert f == next(g for g in _monic(p, m) if _irreducible(g, p))

    def mul(a, b):
        prod = _schoolbook(_digits(a, p, m), _digits(b, p, m), p)
        return _undigits(_mod_poly(prod, f, p), p)

    for a in range(q):
        da = _digits(a, p, m)
        assert F.neg_table[a] == _undigits([-x % p for x in da], p)
        for b in range(q):
            db = _digits(b, p, m)
            assert F.add_table[a][b] == \
                _undigits([(x + y) % p for x, y in zip(da, db)], p)
            assert F.mul_table[a][b] == mul(a, b)
        if a:
            assert mul(a, F.inv_table[a]) == 1

    def order(g):
        k, x = 1, g
        while x != 1:
            x, k = mul(x, g), k + 1
        return k

    assert order(F.generator) == q - 1
    assert all(order(g) < q - 1 for g in range(1, F.generator))
