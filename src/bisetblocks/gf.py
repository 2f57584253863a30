"""Small finite fields F_q, q = p^m, and polynomials and matrices over
any field.

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

The polynomial and matrix functions take the coefficient field as their
first argument and use only its add, sub, mul, neg and inv and the
constants 0 and 1, so they serve F_q and the rationals
(cyclotomic.QQ) alike.  Polynomials are little-endian coefficient
lists.  Factorization, over F_q only, runs squarefree, distinct-degree,
then equal-degree splitting; the random choices inside equal-degree
splitting come from a seeded generator and the factor list is sorted,
so results are reproducible.
"""

from __future__ import annotations

import random
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
        self.neg_table = [row.index(0) for row in self.add_table]

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

    def frobenius(self, a: int) -> int:
        return self.power(a, self.p)

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


def poly_exact_div(F, a, b):
    """The quotient a / b; ArithmeticError unless b divides a."""
    q, r = poly_divmod(F, a, b)
    if not poly_is_zero(r):
        raise ArithmeticError("polynomial division was not exact")
    return q


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


def poly_derivative(F: Fq, f):
    # k % p is k's image in the prime subfield, which is 0..p-1
    return poly_trim([F.mul(k % F.p, f[k]) for k in range(1, len(f))] or [0])


def poly_xgcd(F, a, b):
    """Return (g, u, v) monic with u*a + v*b = g."""
    r0, r1 = poly_trim(a), poly_trim(b)
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]
    while not poly_is_zero(r1):
        q, r = poly_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(F, s0, poly_mul(F, q, s1))
        t0, t1 = t1, poly_sub(F, t0, poly_mul(F, q, t1))
    inv = F.inv(r0[-1])
    return (poly_scale(F, r0, inv), poly_scale(F, s0, inv),
            poly_scale(F, t0, inv))


def _pth_root_poly(F: Fq, f):
    """Write f = g(x^p) and return g; valid when f' = 0."""
    out = []
    for k in range(0, len(f), F.p):
        c = f[k]
        # p-th root in F_q is frobenius applied m-1 times.
        for _ in range(F.m - 1):
            c = F.frobenius(c)
        out.append(c)
    return poly_trim(out)


def squarefree_decomposition(F: Fq, f):
    """List of (squarefree factor, multiplicity), f monic."""
    out = []
    f = poly_monic(F, f)
    if poly_deg(f) == 0:
        return out
    d = poly_derivative(F, f)
    if poly_is_zero(d):
        for g, m in squarefree_decomposition(F, _pth_root_poly(F, f)):
            out.append((g, m * F.p))
        return out
    w = poly_gcd(F, f, d)
    s = poly_divmod(F, f, w)[0]  # product of squarefree part
    mult = 1
    while poly_deg(s) > 0:
        y = poly_gcd(F, s, w)
        piece = poly_divmod(F, s, y)[0]
        if poly_deg(piece) > 0:
            out.append((poly_monic(F, piece), mult))
        s = y
        w = poly_divmod(F, w, y)[0]
        mult += 1
    if poly_deg(w) > 0:
        # w is the product of the factors with multiplicity divisible by
        # p, each at full multiplicity; it is a p-th power, so the
        # recursion takes the derivative-zero branch.
        for g, m in squarefree_decomposition(F, w):
            out.append((g, m))
    return out


def distinct_degree_split(F: Fq, f):
    """Split a squarefree monic f into (product of degree-d factors, d)."""
    out = []
    x = [0, 1]
    h = x[:]
    d = 0
    rest = poly_trim(f)
    while poly_deg(rest) > 0:
        d += 1
        if 2 * d > poly_deg(rest):
            out.append((rest, poly_deg(rest)))
            break
        h = poly_powmod(F, h, F.q, rest)
        g = poly_gcd(F, poly_sub(F, h, x), rest)
        if poly_deg(g) > 0:
            out.append((g, d))
            rest = poly_divmod(F, rest, g)[0]
            h = poly_mod(F, h, rest)
    return out


def equal_degree_split(F: Fq, f, d: int, rng: random.Random):
    """Factor a squarefree monic f whose irreducible factors all have
    degree d, by repeated random splitting."""
    n = poly_deg(f)
    if n == d:
        return [f]
    while True:
        a = [rng.randrange(F.q) for _ in range(n)]
        a = poly_trim(a)
        if poly_deg(a) < 1:
            continue
        g = poly_gcd(F, a, f)
        if 0 < poly_deg(g) < n:
            break
        if F.p == 2:
            # Trace map over F_2: a + a^2 + a^4 + ... has md-1 doublings.
            t = a[:]
            acc = a[:]
            for _ in range(F.m * d - 1):
                t = poly_mod(F, poly_mul(F, t, t), f)
                acc = poly_add(F, acc, t)
            g = poly_gcd(F, acc, f)
        else:
            e = (F.q ** d - 1) // 2
            b = poly_powmod(F, a, e, f)
            g = poly_gcd(F, poly_sub(F, b, [1]), f)
        if 0 < poly_deg(g) < n:
            break
    rest = poly_divmod(F, f, g)[0]
    return (equal_degree_split(F, g, d, rng)
            + equal_degree_split(F, rest, d, rng))


def poly_factor(F: Fq, f, seed: int = 0):
    """Full factorization into monic irreducibles.

    Returns a list of (factor, multiplicity) sorted by degree then by
    coefficient tuple, so the output is independent of the internal
    random splitting choices.
    """
    f = poly_trim(f)
    if poly_deg(f) < 1:
        raise ValueError("factor a polynomial of positive degree")
    rng = random.Random(seed)
    out = []
    for sqf, mult in squarefree_decomposition(F, f):
        for block, d in distinct_degree_split(F, sqf):
            for irr in equal_degree_split(F, block, d, rng):
                out.append((tuple(poly_monic(F, irr)), mult))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


# -- linear algebra over a field ------------------------------------

def mat_rref(F, rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [F.sub(v, F.mul(fac, w))
                           for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def mat_rank(F, rows) -> int:
    return len(mat_rref(F, rows)[1])


def mat_solve(F, rows, rhs):
    """One solution of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return [] if all(v == 0 for v in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    red, pivots = mat_rref(F, aug)
    if ncols in pivots:  # a pivot on the right-hand side: 0 = 1
        return None
    sol = [0] * ncols
    for r, c in enumerate(pivots):
        sol[c] = red[r][-1]
    return sol
