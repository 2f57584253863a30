"""Small finite fields F_q, q = p^m, with table-driven arithmetic.

Elements are integers 0..q-1 read as base-p digit vectors over the
polynomial basis of F_p[x] modulo a fixed irreducible: the element
sum(c_i p^i) stands for sum(c_i x^i).  The modulus is the
lexicographically smallest monic irreducible of degree m, so a field is
determined by (p, m) alone.  Integers 0..p-1 are the prime subfield.

Polynomials over F_q are little-endian lists of element indices.
Factorization runs squarefree, distinct-degree, then equal-degree
splitting; the random choices inside equal-degree splitting come from a
seeded generator and the factor list is sorted, so results are
reproducible.
"""

from __future__ import annotations

import random
from functools import lru_cache

FIELD_SIZE_CAP = 4096


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


def _fp_poly_mulmod(a, b, mod, p):
    # a, b little-endian coefficient tuples over F_p, reduced mod `mod`.
    res = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] = (res[i + j] + x * y) % p
    m = len(mod) - 1
    for k in range(len(res) - 1, m - 1, -1):
        c = res[k]
        if c:
            res[k] = 0
            for i in range(m):
                res[k - m + i] = (res[k - m + i] - c * mod[i]) % p
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    return tuple(res)


def _fp_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p."""
    if m == 1:
        return (0, 1)
    for tail in range(p ** m):
        coeffs = list(_int_to_poly(tail, p))
        coeffs += [0] * (m - len(coeffs)) + [1]
        if _fp_is_irreducible(tuple(coeffs), p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")


def _fp_is_irreducible(f, p: int) -> bool:
    m = len(f) - 1
    # x^(p^d) mod f for d = 1..m; f irreducible iff x^(p^m) = x and
    # gcd(x^(p^d) - x, f) = 1 for every proper divisor d of m.
    x = (0, 1)
    xp = x
    for d in range(1, m + 1):
        xp = _fp_poly_powmod(xp, p, f, p)
        if d < m and m % d == 0:
            diff = _fp_poly_sub(xp, x, p)
            if len(_fp_poly_gcd(diff, f, p)) > 1:
                return False
    return xp == x


def _fp_poly_powmod(base, e, mod, p):
    out = (1,)
    while e:
        if e & 1:
            out = _fp_poly_mulmod(out, base, mod, p)
        base = _fp_poly_mulmod(base, base, mod, p)
        e >>= 1
    return out


def _fp_poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    res = [(x - y) % p for x, y in zip(a, b)]
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    return tuple(res)


def _fp_poly_gcd(a, b, p):
    a, b = tuple(a), tuple(b)
    while any(b):
        a, b = b, _fp_poly_mod(a, b, p)
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _fp_poly_mod(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv % p
        if c:
            for i in range(db + 1):
                a[k - db + i] = (a[k - db + i] - c * b[i]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return tuple(a)


class Fq:
    """The field with p^m elements; construct through fq_field()."""

    def __init__(self, p: int, m: int) -> None:
        if p < 2 or any(p % k == 0 for k in range(2, p)):
            raise ValueError("p must be prime")
        if m < 1:
            raise ValueError("m must be positive")
        q = p ** m
        if q > FIELD_SIZE_CAP:
            raise ValueError(f"field size {q} exceeds the cap")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = _fp_irreducible(p, m)
        polys = [_int_to_poly(k, p) for k in range(q)]
        self.add_table = [
            [_poly_to_int(_fp_poly_sub(a, tuple(-c % p for c in b), p), p)
             for b in polys] for a in polys]
        self.mul_table = [
            [_poly_to_int(_fp_poly_mulmod(a or (0,), b or (0,),
                                          self.modulus, p), p)
             if a and b else 0
             for b in polys] for a in polys]
        self.neg_table = [_poly_to_int(tuple(-c % p for c in a), p)
                          for a in polys]
        self.inv_table = [0] * q
        for a in range(1, q):
            self.inv_table[a] = next(
                b for b in range(1, q) if self.mul_table[a][b] == 1)
        self.generator = next(
            g for g in range(1, q)
            if self._order_of(g) == q - 1)

    def _order_of(self, a: int) -> int:
        k, x = 1, a
        while x != 1:
            x = self.mul_table[x][a]
            k += 1
        return k

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


# -- polynomials over Fq (little-endian lists of element indices) -----

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


def poly_add(F: Fq, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return poly_trim([F.add(x, y) for x, y in zip(a, b)])


def poly_sub(F: Fq, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return poly_trim([F.sub(x, y) for x, y in zip(a, b)])


def poly_mul(F: Fq, a, b):
    if poly_is_zero(a) or poly_is_zero(b):
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = F.mul_table[x]
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], row[y])
    return poly_trim(out)


def poly_scale(F: Fq, a, c: int):
    row = F.mul_table[c]
    return poly_trim([row[x] for x in a])


def poly_divmod(F: Fq, a, b):
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


def poly_mod(F: Fq, a, b):
    return poly_divmod(F, a, b)[1]


def poly_gcd(F: Fq, a, b):
    a, b = poly_trim(a), poly_trim(b)
    while not poly_is_zero(b):
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def poly_monic(F: Fq, a):
    a = poly_trim(a)
    if poly_is_zero(a):
        return a
    return poly_scale(F, a, F.inv(a[-1]))


def poly_powmod(F: Fq, base, e: int, mod):
    out = [1]
    base = poly_mod(F, base, mod)
    while e:
        if e & 1:
            out = poly_mod(F, poly_mul(F, out, base), mod)
        base = poly_mod(F, poly_mul(F, base, base), mod)
        e >>= 1
    return out


def poly_eval(F: Fq, f, x: int) -> int:
    out = 0
    for c in reversed(poly_trim(f)):
        out = F.add(F.mul(out, x), c)
    return out


def poly_derivative(F: Fq, f):
    out = [0] * max(len(f) - 1, 1)
    for k in range(1, len(f)):
        c = f[k]
        for _ in range(k % F.p):
            out[k - 1] = F.add(out[k - 1], c)
    return poly_trim(out)


def poly_xgcd(F: Fq, a, b):
    """Return (g, u, v) monic with u*a + v*b = g."""
    r0, r1 = poly_trim(a), poly_trim(b)
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]
    while not poly_is_zero(r1):
        q, r = poly_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(F, s0, poly_mul(F, q, s1))
        t0, t1 = t1, poly_sub(F, t0, poly_mul(F, q, t1))
    lead = r0[-1]
    inv = F.inv(lead)
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


# -- linear algebra over Fq ------------------------------------------

def mat_rref(F: Fq, rows):
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


def mat_rank(F: Fq, rows) -> int:
    return len(mat_rref(F, rows)[1])


def mat_solve(F: Fq, rows, rhs):
    """One solution of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return [] if all(v == 0 for v in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    red, pivots = mat_rref(F, aug)
    for row in red:
        if all(v == 0 for v in row[:-1]) and row[-1] != 0:
            return None
    sol = [0] * ncols
    for r, c in enumerate(pivots):
        if c < ncols:
            sol[c] = red[r][-1]
    if ncols in pivots:
        return None
    return sol
