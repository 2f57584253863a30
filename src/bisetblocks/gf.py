"""Small finite fields F_q, q = p^m, and polynomials and matrices over
them.

Elements of F_q are integers 0..q-1 read as base-p digit vectors over
the polynomial basis of F_p[x] modulo a fixed irreducible: the element
sum(c_i p^i) stands for sum(c_i x^i).  The modulus is the
lexicographically smallest monic irreducible of degree m, and the
generator is the smallest element of multiplicative order q-1, so a
field is determined by (p, m) alone.  Integers 0..p-1 are the prime
subfield.  The multiplication and inverse tables are read off the
generator's exponent and logarithm tables (g^i g^j = g^(i+j)), so
building them takes O(q) polynomial products; addition adds base-p
digits.

The polynomial and matrix functions take the field as their first
argument; mat_rref and mat_rank read its addition, multiplication and
negation tables directly.  Polynomials are little-endian coefficient
lists.

eigenspaces splits an M-stable subspace into the eigenspaces of M, for
the character tables and the block idempotents alike: the minimal
polynomial of M on the subspace comes from one Krylov sequence,
poly_factor finds its roots by evaluating it at every element of F_q
and refuses it unless it splits into distinct linear factors, and each
root gives one kernel.
"""

from __future__ import annotations

from functools import lru_cache

from .groups import _check_prime

FIELD_SIZE_CAP = 4096


def check_characteristic(p: int) -> None:
    """Refuse p unless it is a prime with a field inside the size cap;
    a p above the cap is refused before any primality test."""
    if p > FIELD_SIZE_CAP:
        raise ValueError(f"prime {p} is larger than the field size cap "
                         f"{FIELD_SIZE_CAP}")
    _check_prime(p)


def _int_to_poly(k: int, p: int) -> tuple[int, ...]:
    out = []
    while k:
        out.append(k % p)
        k //= p
    return tuple(out)


def _poly_to_int(poly, p: int) -> int:
    out = 0
    for c in reversed(poly):
        out = out * p + c
    return out


def _smallest_irreducible(Fp: Fq, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p."""
    for tail in range(Fp.p ** m):
        f = list(_int_to_poly(tail, Fp.p))
        f += [0] * (m - len(f)) + [1]
        if _is_irreducible(Fp, f):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


def _is_irreducible(Fp: Fq, f) -> bool:
    # x^(p^d) mod f for d = 1..m; f irreducible iff x^(p^m) = x and
    # gcd(x^(p^d) - x, f) = 1 for every proper divisor d of m.
    m = len(f) - 1
    x = [0, 1]
    xp = x
    for d in range(1, m + 1):
        xp = poly_powmod(Fp, xp, Fp.p, f)
        if d < m and m % d == 0 and \
                poly_deg(poly_gcd(Fp, poly_sub(Fp, xp, x), f)) > 0:
            return False
    return xp == x


def _generator_powers(q: int, times) -> list[int]:
    """Powers g^0..g^(q-2) of the smallest g of multiplicative order q-1.

    Walks the powers of 1, 2, ... in turn until one runs through q-1
    elements before coming back to 1.
    """
    for g in range(1, q):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = times(x, g)
        if len(powers) == q - 1:
            return powers
    raise AssertionError("no generator found")


def _digit_add_table(p: int, m: int) -> list[list[int]]:
    """a + b for base-p digit vectors of length m.

    With P = p^k, row r + P*t of the table for k+1 digits is row r with
    its p blocks of length P rotated by t blocks.  Entries are shared
    int objects, so a large table holds pointers only.
    """
    elems = list(range(p ** m))
    table = [[0]]
    for k in range(m):
        P = p ** k
        nxt = [None] * (P * p)
        for r in range(P):
            row = [elems[x + P * t] for t in range(p) for x in table[r]]
            for t in range(p):
                nxt[r + P * t] = row[P * t:] + row[:P * t]
        table = nxt
    return table


def _digit_neg_table(p: int, m: int) -> list[int]:
    """-a for base-p digit vectors of length m: each digit c becomes
    -c mod p, so the entry of r + P*t for k+1 digits is that of r for k
    digits plus P*(-t mod p), P = p^k."""
    table = [0]
    for k in range(m):
        P = p ** k
        table = [x + P * (-t % p) for t in range(p) for x in table]
    return table


class Fq:
    """The field with p^m elements; construct through fq_field()."""

    def __init__(self, p: int, m: int) -> None:
        if m < 1:
            raise ValueError("m must be positive")
        q = p ** m
        if q > FIELD_SIZE_CAP:
            raise ValueError(f"field size {q} exceeds the cap")
        _check_prime(p)
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus = (0, 1)

            def times(a, b):
                return a * b % p
        else:
            Fp = fq_field(p, 1)
            self.modulus = _smallest_irreducible(Fp, m)

            def times(a, b):
                prod = poly_mul(Fp, _int_to_poly(a, p), _int_to_poly(b, p))
                return _poly_to_int(poly_mod(Fp, prod, self.modulus), p)
        exp = _generator_powers(q, times)
        self.generator = exp[1 % (q - 1)]  # F_2: exp is [1], g = 1
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        exp2 = exp + exp
        self.mul_table = [[0] * q] + [
            [0] + [exp2[log[a] + log[b]] for b in range(1, q)]
            for a in range(1, q)]
        self.inv_table = [0] + [exp[-log[a]] for a in range(1, q)]
        self.add_table = _digit_add_table(p, m)
        self.neg_table = _digit_neg_table(p, m)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self.inv_table[a]

    def power(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        while e:
            if e & 1:
                out = self.mul_table[out][a]
            a = self.mul_table[a][a]
            e >>= 1
        return out

    def from_int(self, k: int) -> int:
        return k % self.p

    def root_of_unity(self, n: int) -> int:
        """A fixed primitive n-th root, g^((q-1)/n); n must divide q-1."""
        if n < 1 or (self.q - 1) % n != 0:
            raise ValueError(f"no primitive {n}-th root in F_{self.q}")
        return self.power(self.generator, (self.q - 1) // n)

    def __repr__(self):
        return f"Fq(p={self.p}, m={self.m})"


@lru_cache(maxsize=None)
def fq_field(p: int, m: int) -> Fq:
    return Fq(p, m)


# -- polynomials over a field (little-endian coefficient lists) -------

def poly_trim(f):
    f = list(f)
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def poly_is_zero(f) -> bool:
    return all(c == 0 for c in f)


def poly_deg(f) -> int:
    f = poly_trim(f)
    return -1 if f == [0] else len(f) - 1


def poly_add(F, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return poly_trim([F.add(x, y) for x, y in zip(a, b)])


def poly_sub(F, a, b):
    return poly_add(F, a, [F.neg(y) for y in b])


def poly_mul(F, a, b):
    if poly_is_zero(a) or poly_is_zero(b):
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(out)


def poly_scale(F, a, c):
    return poly_trim([F.mul(c, x) for x in a])


def poly_divmod(F, a, b):
    a = poly_trim(a)
    b = poly_trim(b)
    if poly_is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [0], a
    out = [0] * (len(a) - len(b) + 1)
    inv = F.inv(b[-1])
    a = list(a)
    for k in range(len(out) - 1, -1, -1):
        c = F.mul(a[k + len(b) - 1], inv)
        out[k] = c
        if c:
            for i in range(len(b)):
                a[k + i] = F.sub(a[k + i], F.mul(c, b[i]))
    return poly_trim(out), poly_trim(a[: len(b) - 1])


def poly_mod(F, a, b):
    return poly_divmod(F, a, b)[1]


def poly_gcd(F, a, b):
    a, b = poly_trim(a), poly_trim(b)
    while not poly_is_zero(b):
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def poly_monic(F, a):
    a = poly_trim(a)
    if poly_is_zero(a):
        return a
    return poly_scale(F, a, F.inv(a[-1]))


def poly_powmod(F, base, e: int, mod):
    out = [1]
    base = poly_mod(F, base, mod)
    while e:
        if e & 1:
            out = poly_mod(F, poly_mul(F, out, base), mod)
        base = poly_mod(F, poly_mul(F, base, base), mod)
        e >>= 1
    return out


def poly_factor(F: Fq, f):
    """The factors x - lam of an f that splits into distinct linear
    factors over F_q, as ((-lam, 1), 1) pairs sorted by coefficients.

    The roots are found by evaluating f at every element of F_q, and
    the product of the x - lam is checked against f made monic; an f
    with a repeated or nonlinear factor raises ValueError.
    """
    f = poly_monic(F, f)
    if len(f) < 2:
        raise ValueError("factor a polynomial of positive degree")
    add, mul = F.add_table, F.mul_table
    values = [f[-1]] * F.q
    for c in reversed(f[:-1]):
        values = [add[mul[lam][v]][c] for lam, v in enumerate(values)]
    factors = sorted(((F.neg(lam), 1), 1)
                     for lam, v in enumerate(values) if v == 0)
    product = [1]
    for factor, _ in factors:
        product = poly_mul(F, product, factor)
    if product != f:
        raise ValueError(f"{f} does not split into distinct linear "
                         f"factors over F_{F.q}")
    return factors


# -- linear algebra over F_q -----------------------------------------

def mat_rref(F: Fq, rows):
    """Reduced row echelon form; returns (rows, pivot column list).  A
    pivot row starts at its column, so row operations start there too,
    adding row[c] times the negated pivot row through the tables."""
    rows = [list(r) for r in rows]
    add, mul, neg = F.add_table, F.mul_table, F.neg_table
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        scale = mul[F.inv(rows[r][c])]
        pivot = rows[r][c:] = [scale[v] for v in rows[r][c:]]
        minus = [neg[w] for w in pivot]
        for row in rows[:r] + rows[r + 1:]:
            fac = row[c]
            if fac:
                times = mul[fac]
                row[c:] = [add[v][times[w]] for v, w in zip(row[c:], minus)]
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return rows, pivots


def mat_rank(F: Fq, rows) -> int:
    """Rank by forward elimination: a pivot clears only the rows below
    it, adding row[c] times the negated pivot row through the tables."""
    rows = [list(r) for r in rows]
    add, mul, neg = F.add_table, F.mul_table, F.neg_table
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is not None:
            rows[rank], rows[pr] = rows[pr], rows[rank]
            scale = mul[F.inv(rows[rank][c])]
            minus = [neg[scale[w]] for w in rows[rank][c:]]
            rank += 1
            for row in rows[rank:]:
                if row[c]:
                    times = mul[row[c]]
                    row[c:] = [add[v][times[w]]
                               for v, w in zip(row[c:], minus)]
    return rank


def mat_kernel(F, rows, ncols: int):
    """A basis of the x of length ncols with rows * x = 0: one vector
    per free column of the reduced form, 1 there and 0 at the others."""
    red, pivots = mat_rref(F, rows)
    out = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        x = [0] * ncols
        x[f] = 1
        for r, c in enumerate(pivots):
            x[c] = F.neg(red[r][f])
        out.append(x)
    return out


# -- eigenspaces over F_q ---------------------------------------------

def _dot(F: Fq, xs, ys) -> int:
    add, mul = F.add_table, F.mul_table
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = add[acc][mul[x][y]]
    return acc


def eigenspaces(F: Fq, M, rows, pivots):
    """Split an M-stable subspace of F_q^k into the eigenspaces of M.

    The subspace is given by its reduced basis rows and their pivot
    columns, so M restricted to it has the matrix A[u][s] = (M b_s) at
    pivot u.  The eigenvalues are the roots of the minimal polynomial of
    A, which poly_factor finds and which must split into distinct
    linear factors, as it does when M is diagonalizable over F_q; each
    eigenspace is one kernel of A - lam, and comes back as (rows,
    pivots) again.  A scalar A returns the subspace whole.
    """
    d = len(rows)
    A = [[_dot(F, M[p], b) for b in rows] for p in pivots]
    if all(A[u][s] == (A[0][0] if u == s else 0)
           for u in range(d) for s in range(d)):
        return [(rows, pivots)]
    cols = list(zip(*rows))
    out = []
    for (minus_lam, _), _ in poly_factor(F, _minimal_polynomial(F, A)):
        shifted = [[F.add(a, minus_lam) if u == s else a
                    for s, a in enumerate(row)] for u, row in enumerate(A)]
        out.append(mat_rref(F, [[_dot(F, x, col) for col in cols]
                                for x in mat_kernel(F, shifted, d)]))
    return out


def _minimal_polynomial(F: Fq, A):
    """The monic minimal polynomial of a square matrix A over F_q: the
    first power in the Krylov sequence I, A, ..., A^d that is a
    combination of the powers before it, read off the kernel vector of
    the first free column."""
    d = len(A)
    cols = list(zip(*A))
    powers = [[[int(u == s) for s in range(d)] for u in range(d)]]
    for _ in range(d):
        powers.append([[_dot(F, row, col) for col in cols]
                       for row in powers[-1]])
    flat = [[P[u][s] for P in powers] for u in range(d) for s in range(d)]
    return poly_trim(mat_kernel(F, flat, d + 1)[0])
