"""Small finite fields F_q, q = p^m, and matrices over them.

Elements of F_q are integers 0..q-1 read as base-p digit vectors over
the polynomial basis of F_p[x] modulo a fixed irreducible: the element
sum(c_i p^i) stands for sum(c_i x^i).  The modulus is the
lexicographically smallest monic irreducible of degree m, found by
counting the fixed points of the p-power map (Berlekamp), and the
generator is the smallest element of multiplicative order q-1, so a
field is determined by (p, m) alone.  Integers 0..p-1 are the prime
subfield.  Addition adds base-p digits.  The multiplication and
inverse tables are read off the generator's exponent and logarithm
tables (g^i g^j = g^(i+j)), so building them takes O(q) products, each
m steps of Horner's rule through the addition table and a table of
products by x.

The matrix functions take the field as their first argument.  mat_rref
is the one elimination, reading the addition, multiplication and
negation tables directly; mat_rank counts its pivots and mat_kernel
reads its free columns.

eigenspaces splits a subspace into the common eigenspaces of commuting
matrices, for the character tables and the block idempotents alike:
each matrix in turn splits every piece found so far, until every piece
is a line.  The minimal polynomial of a matrix on a piece, a
little-endian coefficient list, comes from one Krylov sequence;
poly_factor finds its roots by evaluating it at every element of F_q
and refuses it unless it has as many roots as its degree, so unless it
splits into distinct linear factors; and each root gives one kernel.
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


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible f of degree
    m > 1 over F_p, by the p-power map Phi of A = F_p[x]/(f) (Berlekamp,
    1967).

    Phi is F_p-linear on A, and its matrix has the columns Phi(x^j) =
    x^(pj), read off the powers of x: each is the one before it with its
    base-p digits shifted up one place and the top digit c folded back
    as c x^m = -c (f_0 + ... + f_(m-1) x^(m-1)).  f is kept when Phi^m(x)
    = x, so f divides the squarefree x^(p^m) - x and has no repeated
    factor, and when the kernel of Phi - 1 is the line F_p, as Phi fixes
    one line in each local factor A/(g^e) of A, g irreducible.
    """
    Fp = fq_field(p, 1)
    x = [0, 1] + [0] * (m - 2)
    for tail in range(p ** m):
        f = [tail // p ** i % p for i in range(m)] + [1]
        minus_tail = [-c % p for c in f[:m]]
        powers = [[1] + [0] * (m - 1)]
        for _ in range(p * (m - 1)):
            *low, top = powers[-1]
            powers.append([(u + top * t) % p
                           for u, t in zip([0] + low, minus_tail)])
        cols = powers[::p]
        v = x
        for _ in range(m):
            out = [0] * m
            for c, col in zip(v, cols):
                if c:
                    out = [u + c * w for u, w in zip(out, col)]
            v = [u % p for u in out]
        if v == x and len(mat_kernel(Fp, [
                [(col[i] - (i == j)) % p for j, col in enumerate(cols)]
                for i in range(m)], m)) == 1:
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


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
        self.add_table = add = _digit_add_table(p, m)
        self.neg_table = _digit_neg_table(p, m)
        if m == 1:
            self.modulus = (0, 1)

            def times(a, b):
                return a * b % p
        else:
            self.modulus = f = _smallest_irreducible(p, m)
            # a x: the digits of a shifted up, the top digit c folded back
            # as c x^m; then a b by Horner's rule over the digits of a
            top = p ** (m - 1)
            fold = [sum(-c * t % p * p ** i for i, t in enumerate(f[:m]))
                    for c in range(p)]
            times_x = [add[a % top * p][fold[a // top]] for a in range(q)]
            places = [p ** i for i in reversed(range(m))]

            def times(a, b):
                multiples = [0, b]
                for _ in range(p - 2):
                    multiples.append(add[multiples[-1]][b])
                out = 0
                for P in places:
                    out = add[times_x[out]][multiples[a // P % p]]
                return out
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


# -- roots of polynomials over F_q (little-endian coefficient lists) --

def poly_trim(f):
    f = list(f)
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def poly_factor(F: Fq, f):
    """The factors x - lam of an f that splits into distinct linear
    factors over F_q, as ((-lam, 1), 1) pairs sorted by coefficients.

    The roots are found by evaluating f at every element of F_q.  An f
    of degree d splits into distinct linear factors exactly when it has
    d roots, so one with fewer raises ValueError.
    """
    f = poly_trim(f)
    if len(f) < 2:
        raise ValueError("factor a polynomial of positive degree")
    add, mul = F.add_table, F.mul_table
    values = [f[-1]] * F.q
    for c in reversed(f[:-1]):
        values = [add[mul[lam][v]][c] for lam, v in enumerate(values)]
    roots = [lam for lam, v in enumerate(values) if v == 0]
    if len(roots) < len(f) - 1:
        raise ValueError(f"{f} does not split into distinct linear "
                         f"factors over F_{F.q}")
    return sorted(((F.neg(lam), 1), 1) for lam in roots)


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
    """The number of pivots of the reduced row echelon form."""
    return len(mat_rref(F, rows)[1])


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


def eigenspaces(F: Fq, matrices, rows, pivots):
    """Split a subspace of F_q^k into the common eigenspaces of
    commuting matrices that keep it stable.

    The matrices are read one at a time, from any iterable, and each
    splits every piece found so far; none is read once every piece is a
    line.  A piece is given by its reduced basis rows and their pivot
    columns, and comes back as (rows, pivots) again.
    """
    spaces = [(rows, pivots)]
    matrices = iter(matrices)
    while any(len(rows) > 1 for rows, _ in spaces):
        M = next(matrices, None)
        if M is None:
            break
        spaces = [part for space in spaces
                  for part in _split(F, M, *space)]
    return spaces


def _split(F: Fq, M, rows, pivots):
    """The eigenspaces of M in an M-stable subspace.

    M restricted to the subspace has the matrix A[u][s] = (M b_s) at
    pivot u.  The eigenvalues are the roots of the minimal polynomial of
    A, which poly_factor finds and which must split into distinct
    linear factors, as it does when M is diagonalizable over F_q; each
    eigenspace is one kernel of A - lam.  A scalar A returns the
    subspace whole.
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
