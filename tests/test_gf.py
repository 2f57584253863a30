"""Finite fields F_q and polynomial/matrix helpers over them."""

import itertools
import random
from functools import reduce

import pytest

from bisetblocks.gf import (_digit_add_table, _digit_neg_table, eigenspaces,
                            fq_field, mat_kernel, mat_rank, mat_rref,
                            poly_deg, poly_factor, poly_mul, poly_sub,
                            poly_trim)

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


def test_digit_negation_matches_the_zero_of_each_add_table_row():
    # every field with q <= 729, against -a read off the row a + b
    primes = [p for p in range(2, 730) if all(p % d for d in range(2, p))]
    for p in primes:
        m = 1
        while p ** m <= 729:
            assert _digit_neg_table(p, m) == [
                row.index(0) for row in _digit_add_table(p, m)], (p, m)
            m += 1


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
            assert F.power(F.add(a, b), 2) == \
                F.add(F.power(a, 2), F.power(b, 2))
    fixed = [a for a in range(F.q) if F.power(a, 2) == a]
    assert sorted(fixed) == [0, 1]  # exactly the prime field
    F9 = fq_field(3, 2)
    fixed9 = [a for a in range(9) if F9.power(a, 3) == a]
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


@pytest.mark.parametrize("p, m", [(2, 2), (7, 1), (3, 2)])
def test_poly_factor_returns_distinct_linear_factors_sorted(p, m):
    F = fq_field(p, m)
    rng = random.Random(p ** m)
    for _ in range(20):
        roots = rng.sample(range(F.q), rng.randint(1, F.q))
        f = [rng.randrange(1, F.q)]             # any leading coefficient
        for lam in roots:
            f = poly_mul(F, f, [F.neg(lam), 1])
        want = sorted(((F.neg(lam), 1), 1) for lam in roots)
        assert poly_factor(F, f) == want


@pytest.mark.parametrize("f", [[1, 1, 1], [1, 0, 1], [1], [0]])
def test_poly_factor_refuses_what_does_not_split_into_distinct_lines(f):
    # x^2 + x + 1 is irreducible over F_2, x^2 + 1 = (x + 1)^2, and a
    # constant has no factors
    with pytest.raises(ValueError):
        poly_factor(fq_field(2, 1), f)


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


@pytest.mark.parametrize("p, m", [(2, 1), (7, 1), (2, 4), (3, 4)])
def test_mat_rank_agrees_with_the_reduced_form(p, m):
    # forward elimination against the pivots of the full reduced form, on
    # products of random n x r and r x k matrices (rank at most r, often
    # less over a small field) with zero rows and columns mixed in
    F = fq_field(p, m)
    rng = random.Random(p ** m)
    for _ in range(40):
        n, r, k = rng.randint(1, 9), rng.randint(0, 6), rng.randint(1, 9)
        A = [[rng.randrange(F.q) if rng.random() < 0.8 else 0
              for _ in range(r)] for _ in range(n)]
        B = [[rng.randrange(F.q) for _ in range(k)] for _ in range(r)]
        M = [[0] * k for _ in range(n)]
        for i in range(n):
            for j in range(k):
                for t in range(r):
                    M[i][j] = F.add(M[i][j], F.mul(A[i][t], B[t][j]))
        rank = mat_rank(F, M)
        assert rank == len(mat_rref(F, M)[1]) and rank <= min(r, n, k)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2)])
def test_mat_kernel_spans_every_solution(p, m):
    # every x in F^n with M x = 0, enumerated, is a combination of the
    # kernel basis, and the basis has q^dim combinations: it is free
    F = fq_field(p, m)
    q = F.q
    rng = random.Random(p * 10 + m)

    def times(M, x):
        out = []
        for row in M:
            acc = 0
            for a, b in zip(row, x):
                acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return out
    for _ in range(25):
        nrows, ncols = rng.randrange(0, 4), rng.randrange(1, 5)
        M = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        basis = mat_kernel(F, M, ncols)
        solutions = {x for x in itertools.product(range(q), repeat=ncols)
                     if not any(times(M, x))}
        span = set()
        for cs in itertools.product(range(q), repeat=len(basis)):
            x = [0] * ncols
            for c, v in zip(cs, basis):
                x = [F.add(a, F.mul(c, b)) for a, b in zip(x, v)]
            span.add(tuple(x))
        assert span == solutions
        assert len(solutions) == q ** len(basis)


# -- eigenspaces of diagonalizable matrices ----------------------------

def _times(F, A, B):
    return [[reduce(F.add, map(F.mul, row, col), 0) for col in zip(*B)]
            for row in A]


def _inverse(F, P):
    n = len(P)
    red, pivots = mat_rref(F, [list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(P)])
    assert pivots == list(range(n))
    return [row[n:] for row in red]


def _invertible(F, n, rng):
    while True:
        P = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
        if mat_rank(F, P) == n:
            return P


def _conjugated_diagonal(F, eigenvalues, rng):
    """M = P diag(eigenvalues) P^-1 and the eigenspace of each value,
    spanned by the columns of P that carry it, in reduced form."""
    n = len(eigenvalues)
    P = _invertible(F, n, rng)
    D = [[lam if i == j else 0 for j in range(n)]
         for i, lam in enumerate(eigenvalues)]
    M = _times(F, _times(F, P, D), _inverse(F, P))
    cols = list(zip(*P))
    spaces = {lam: mat_rref(F, [cols[i] for i, mu in enumerate(eigenvalues)
                                if mu == lam])
              for lam in set(eigenvalues)}
    return M, spaces


def _identity_space(n):
    return [[int(i == j) for j in range(n)] for i in range(n)], \
        list(range(n))


@pytest.mark.parametrize("p, m", [(7, 1), (3, 2), (2, 4)])
def test_eigenspaces_of_a_conjugated_diagonal(p, m):
    F = fq_field(p, m)
    rng = random.Random(p ** m)
    for n in (1, 2, 4, 6):
        # repeated eigenvalues, and zero among them
        eigenvalues = [rng.choice([0, 1, F.q - 1, F.generator])
                       for _ in range(n)]
        M, spaces = _conjugated_diagonal(F, eigenvalues, rng)
        got = eigenspaces(F, M, *_identity_space(n))
        assert sorted(got) == sorted(spaces.values())
        for rows, pivots in spaces.values():
            # an eigenspace is M-stable and comes back whole, a line too
            assert eigenspaces(F, M, rows, pivots) == [(rows, pivots)]
            line = mat_rref(F, rows[-1:])
            assert eigenspaces(F, M, *line) == [line]
        if len(spaces) > 1:
            # the sum of two eigenspaces splits back into them
            (a, _), (b, _) = list(spaces.values())[:2]
            got = eigenspaces(F, M, *mat_rref(F, a + b))
            assert sorted(got) == sorted(mat_rref(F, rows)
                                         for rows in (a, b))


@pytest.mark.parametrize("M", [
    [[3, 1], [0, 3]],         # a Jordan block: minimal polynomial (t - 3)^2
    [[0, 6], [1, 0]],         # t^2 + 1, irreducible over F_7
    [[2, 0, 0], [0, 3, 1], [0, 0, 3]]])
def test_eigenspaces_refuses_a_matrix_that_does_not_diagonalize(M):
    F = fq_field(7, 1)
    with pytest.raises(ValueError, match="distinct linear factors"):
        eigenspaces(F, M, *_identity_space(len(M)))


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
