"""Class functions and ordinary character tables, with exact values.

A class function holds its values as integer numerators over one
denominator and one conductor n, a row per power-basis coordinate of
Q(zeta_n); a permutation character has n = 1 and one row, its
fixed-point counts.  Induction, restriction, sums, products, inner
products and the contractions compute on the rows exactly through the
kernels of cyclotomic.py, which a Cyclotomic shares as the case of one
class: ``_sum`` adds over the lcm of the conductors and denominators,
``_rows_over`` lifts and conjugates, and ``_bilinear`` lands a product
of rows of degrees s and t in degree s + t, reduced modulo Phi_n once
per kernel.  This module has no reduction, lift or product of its own.
A Cyclotomic is formed only when ``values`` is read, one per class
over its minimal conductor.

irreducible_characters(G) computes the characters of any group by
the modular Dixon-Schneider method (Dixon, Numer. Math. 10 (1967);
Schneider, J. Symb. Comp. 9 (1990)): the central characters are the
common eigenvectors of the class matrices over a prime field F_r with
r = 1 mod exp(G), found one root of a minimal polynomial and one kernel
at a time; each gives the degree and the values mod r, and each value
is lifted to a sum of roots of unity.  Characters are listed trivial
first, then by degree, then by the minimal conductors and coordinates
of their values, and named chi0, chi1, ...  A table can also be
ingested from a document, each value a JSON int or a conductor n
dividing 2|G| with the int coefficients of 1, zeta_n, zeta_n^2, ...;
anything else is refused as it is read.  Either way the table validates
orthogonality and degree bookkeeping before it is used anywhere.

Induction and the contractions work one conjugacy class at a time
rather than one group element at a time:

* induction from S to G sums over the classes of S by class fusion,
  Ind chi(g) = |C_G(g)|/|S| * sum |d| chi(d) over the classes d of S
  inside the class of g (Isaacs, Character Theory of Finite Groups,
  (5.1)-(5.2));
* the classes of a ProductGroup G x H are the products of the factor
  classes, class i of G with class c of H at index i*k_H + c, so a
  contraction over the middle group H is a product of class matrices,
  sum over the classes c of H of |c| mu1[i*k_H + c] mu2[c*k_K + j];
* the extended contraction counts its middle witnesses by their pair
  of classes as integers, and sums count times values over the pairs.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd, isqrt, lcm
from operator import add, eq, mul

from .cyclotomic import (Cyclotomic, ZERO, _bilinear, _from_rows, _make,
                         _rows_over, _sum)
from .gf import eigenspaces, fq_field, mat_rref
from .groups import (FiniteGroup, ProductGroup, Subgroup,
                     class_structure_constants, element_by_name,
                     product_group)
from .subdirect import ProductSubgroup, middle_kernel, middle_witnesses, star


class ClassFunction:
    """A function on conjugacy classes of a fixed group.

    ``rows[t][c] / den`` is the t-th coordinate over Q(zeta_n) of the
    value at class c, for t < phi(n), in lowest terms: den >= 1 is prime
    to the numerators taken together, and n is 1 when every value is
    rational.  ``values`` forms the Cyclotomics on first read.  Two
    class functions are equal when their groups are and their rows agree
    over the lcm of the conductors.
    """

    __slots__ = ("group", "n", "rows", "den", "_values")

    def __init__(self, group: FiniteGroup, values) -> None:
        vals = [v if isinstance(v, Cyclotomic)
                else Cyclotomic.from_rational(v) for v in values]
        if len(vals) != len(group.conjugacy_classes()):
            raise ValueError("need one value per conjugacy class")
        n, den = lcm(*(v.n for v in vals)), lcm(*(v.den for v in vals))
        cols = [_rows_over(v, n) for v in vals]
        self._set(group, n, [[c * (den // v.den)
                              for (c,), v in zip(row, vals)]
                             for row in zip(*cols)], den)

    def _set(self, group, n: int, rows, den: int) -> None:
        if n > 1 and not any(map(any, rows[1:])):
            n, rows = 1, rows[:1]
        if den != 1:
            g = gcd(den, *chain.from_iterable(rows))
            if g != 1:
                den //= g
                rows = [[c // g for c in row] for row in rows]
        self.group, self.n, self.den = group, n, den
        self.rows = tuple(map(tuple, rows))
        self._values = None

    @property
    def values(self) -> tuple[Cyclotomic, ...]:
        if self._values is None:
            n, den = self.n, self.den
            self._values = tuple([_make(n, num, den).minimal()
                                  for num in zip(*self.rows)])
        return self._values

    def degree(self) -> Cyclotomic:
        return self.values[self.group.class_index(self.group.identity)]

    def __add__(self, other):
        self._same(other)
        return _class_function(self.group, *_sum(self, other, add))

    def __mul__(self, other):
        if not isinstance(other, ClassFunction):
            other = ClassFunction(self.group, [other] * len(self.rows[0]))
        self._same(other)
        return _class_function(self.group, *_bilinear(
            self, other, lambda x, ys: list(chain.from_iterable(
                map(mul, x, y) for y in ys)), len(self.rows[0])))

    __rmul__ = __mul__

    def conjugate(self) -> "ClassFunction":
        """Complex conjugation: row t goes to degree -t."""
        return _class_function(self.group, self.n,
                               _rows_over(self, self.n, -1), self.den)

    def _same(self, other) -> None:
        if not isinstance(other, ClassFunction) \
                or other.group.uid != self.group.uid:
            raise ValueError("class functions live over different groups")

    def _pulled(self, group: FiniteGroup, index) -> "ClassFunction":
        """The class function on group with this one's value at index[c]
        on class c."""
        return _class_function(group, self.n, [[row[i] for i in index]
                                               for row in self.rows],
                               self.den)

    def __eq__(self, other):
        if not isinstance(other, ClassFunction) \
                or self.group.uid != other.group.uid \
                or self.den != other.den:
            return False
        m = lcm(self.n, other.n)
        return _rows_over(self, m) == _rows_over(other, m)

    def __repr__(self):
        return f"ClassFunction({self.group.name}, {list(self.values)})"


def _class_function(group, n: int, rows, den: int) -> ClassFunction:
    out = ClassFunction.__new__(ClassFunction)
    out._set(group, n, rows, den)
    return out


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyclotomic:
    """The scalar product <a, b> = |G|^-1 sum_g a(g) conj(b(g))."""
    a._same(b)
    G = a.group
    sizes = [len(cls) for cls in G.conjugacy_classes()]
    m, rows, den = _bilinear(
        a, b.conjugate(),
        lambda x, ys: [sum(map(mul, x, map(mul, sizes, y))) for y in ys],
        1, G.order)
    return _from_rows(m, rows, den).minimal()


def perm_character(action) -> ClassFunction:
    """Fixed-point counts of a GAction, one value per class."""
    G = action.group
    points = range(action.size)
    return _class_function(G, 1, [[sum(map(eq, action.rows[cls[0]], points))
                                   for cls in G.conjugacy_classes()]], 1)


def induce(chi: ClassFunction, S: Subgroup) -> ClassFunction:
    """Induction of a character of S.as_group() up to the parent group.

    By class fusion: Ind chi(g) = |C_G(g)|/|S| * sum |d| chi(d), the sum
    running over the classes d of S that lie in the class of g.  Costs
    one class look-up per class of S where chi is not zero.
    """
    G = S.parent
    Sg = S.as_group()
    if chi.group.uid != Sg.uid:
        raise ValueError("character must live on the subgroup's local group")
    classes = G.conjugacy_classes()
    fused = [(G.class_index(S.from_local(d[0])), len(d), i)
             for i, d in enumerate(Sg.conjugacy_classes())
             if any(row[i] for row in chi.rows)]
    rows = []
    for row in chi.rows:
        sums = [0] * len(classes)
        for c, size, i in fused:
            sums[c] += size * row[i]
        rows.append([v * (G.order // len(cls))
                     for v, cls in zip(sums, classes)])
    return _class_function(G, chi.n, rows, chi.den * S.order)


def restrict(chi: ClassFunction, S: Subgroup) -> ClassFunction:
    """Restriction of a character of the parent group to S.as_group()."""
    if chi.group.uid != S.parent.uid:
        raise ValueError("character must live on the parent group")
    Sg = S.as_group()
    return chi._pulled(Sg, [chi.group.class_index(S.from_local(cls[0]))
                            for cls in Sg.conjugacy_classes()])


def external_character(chi: ClassFunction, theta: ClassFunction
                       ) -> ClassFunction:
    """The product character chi x theta on the direct product group,
    whose class i*k_H + c is class i of G times class c of H."""
    amb = product_group(chi.group, theta.group)
    return _class_function(amb, *_bilinear(
        chi, theta, lambda x, ys: [u * v for y in ys for u in x for v in y],
        len(amb.conjugacy_classes())))


def contract_middle(mu: ClassFunction, psi: ClassFunction,
                    ambient: ProductGroup) -> ClassFunction:
    """Pair a character on G x H against one on H, landing on G.

    The value at g is |H|^-1 sum_h mu(g,h) psi(h): the character of the
    image of the psi-module under the functor attached to mu.  It is
    contract_over_middle with K = 1, since the classes of H x 1 are
    indexed like those of H.
    """
    if mu.group.uid != ambient.uid:
        raise ValueError("mu must live on the ambient product group")
    H = ambient.right
    if psi.group.uid != H.uid:
        raise ValueError("psi must live on the right factor")
    return _contract(mu, psi, H, ambient.left, 1, ambient.left)


def contract_over_middle(mu1: ClassFunction, mu2: ClassFunction,
                         amb1: ProductGroup, amb2: ProductGroup
                         ) -> ClassFunction:
    """Compose two-sided characters: (g,k) |-> |H|^-1 sum_h mu1(g,h)mu2(h,k).
    """
    if amb1.right is not amb2.left:
        raise ValueError("matching middle group required")
    if mu1.group.uid != amb1.uid or mu2.group.uid != amb2.uid:
        raise ValueError("characters must live on their product groups")
    return _contract(mu1, mu2, amb1.right, amb1.left,
                     len(amb2.right.conjugacy_classes()),
                     product_group(amb1.left, amb2.right))


def _contract(mu1: ClassFunction, mu2: ClassFunction, H: FiniteGroup,
              G: FiniteGroup, kK: int, out: FiniteGroup) -> ClassFunction:
    """The contraction over H as a product of class matrices: on the
    class (i, j) of G x K, at index i*k_K + j of out, the value is
    |H|^-1 sum_c |c| mu1[i*k_H + c] mu2[c*k_K + j] over the classes c of
    H, k_G*k_H*k_K products per pair of rows."""
    sizes = [len(c) for c in H.conjugacy_classes()]
    kH, kG = len(sizes), len(G.conjugacy_classes())

    def form(x, ys):
        xw = [list(map(mul, sizes, x[i:i + kH]))
              for i in range(0, kG * kH, kH)]
        return [sum(map(mul, r, y[j::kK]))
                for y in ys for r in xw for j in range(kK)]
    return _class_function(out, *_bilinear(mu1, mu2, form, kG * kK, H.order))


def contract_extended(X: ProductSubgroup, Y: ProductSubgroup,
                      chi_m: ClassFunction, chi_n: ClassFunction, *,
                      witnesses=None) -> ClassFunction:
    """Character of the extended tensor product on star(X, Y).

    At (g,k) the value averages chi_m(g,h) chi_n(h,k) over the middle
    witnesses h, equivalently divides the full witness sum by the order
    of the joint kernel.  The witnesses are counted by their pair of
    classes (of (g,h) in X, of (h,k) in Y) first, so each distinct pair
    costs one product of numerators per pair of rows.  witnesses, when
    given, is middle_witnesses(X, Y).
    """
    Xg, Yg = X.as_group(), Y.as_group()
    if chi_m.group.uid != Xg.uid or chi_n.group.uid != Yg.uid:
        raise ValueError("characters must live on the local groups")
    if witnesses is None:
        witnesses = middle_witnesses(X, Y)
    S = star(X, Y, witnesses)
    Sg = S.as_group()
    ker = middle_kernel(X, Y, witnesses)
    x_class, y_class = Xg.class_index, Yg.class_index
    x_local, y_local = X.to_local, Y.to_local
    x_enc, y_enc = X.ambient.encode, Y.ambient.encode
    counts = []
    for cls in Sg.conjugacy_classes():
        g, k = S.ambient.decode(S.from_local(cls[0]))
        counts.append(Counter((x_class(x_local(x_enc(g, h))),
                               y_class(y_local(y_enc(h, k))))
                              for h in witnesses[(g, k)]).items())

    def form(x, ys):
        xw = [[(n * x[i], j) for (i, j), n in pairs] for pairs in counts]
        return [sum([c * y[j] for c, j in w]) for y in ys for w in xw]
    return _class_function(Sg, *_bilinear(chi_m, chi_n, form, len(counts),
                                          ker.order))


def conjugate_character_by(chi: ClassFunction, X: ProductSubgroup, x: int
                           ) -> tuple[ProductSubgroup, ClassFunction]:
    """Transport a character of X.as_group() to the conjugate subgroup."""
    amb = X.ambient
    Xc = X.conjugated_by_pair(x)
    Xg, Xcg = X.as_group(), Xc.as_group()
    xinv = amb.inv(x)
    return Xc, chi._pulled(Xcg, [
        Xg.class_index(X.to_local(amb.conj(xinv, Xc.from_local(cls[0]))))
        for cls in Xcg.conjugacy_classes()])


# -- character tables ------------------------------------------------

class CharacterTable:
    """A validated list of the irreducible characters of a group."""

    def __init__(self, group: FiniteGroup, irreducibles, names=None) -> None:
        self.group = group
        self.irreducibles = list(irreducibles)
        self.names = list(names) if names else [
            f"chi{i}" for i in range(len(self.irreducibles))]
        self._validate()
        self._dual = None

    def _validate(self) -> None:
        G = self.group
        k = len(G.conjugacy_classes())
        if len(self.irreducibles) != k:
            raise ValueError("need as many characters as classes")
        if len(self.names) != k or len(set(self.names)) != k:
            raise ValueError("character names must be distinct")
        if any(not v == 1 for v in self.irreducibles[0].values):
            raise ValueError("first character must be trivial")
        degs = self.degrees()
        if any(d < 1 for d in degs):
            raise ValueError("degrees must be positive integers")
        if degs != sorted(degs):
            raise ValueError("characters must be listed by degree")
        if sum(d * d for d in degs) != G.order:
            raise ValueError("degree squares must sum to the group order")
        for i, a in enumerate(self.irreducibles):
            for j in range(i + 1):
                ip = inner_product(a, self.irreducibles[j])
                if ip != (1 if i == j else 0):
                    raise ValueError(
                        f"orthogonality fails at characters {i}, {j}")

    def degrees(self) -> list[int]:
        return [chi.degree().as_int() for chi in self.irreducibles]

    def dual_index(self, i: int) -> int:
        """Index of the complex conjugate of character i."""
        if self._dual is None:
            table = {chi.values: k for k, chi in enumerate(self.irreducibles)}
            self._dual = [table[chi.conjugate().values]
                          for chi in self.irreducibles]
        return self._dual[i]

    def decompose(self, chi: ClassFunction) -> list[int]:
        """chi as an integer combination of the irreducibles."""
        mults = []
        for irr in self.irreducibles:
            ip = inner_product(chi, irr)
            if not ip.is_rational() or ip.as_fraction().denominator != 1:
                raise ValueError("not a virtual character of this table")
            mults.append(ip.as_int())
        acc = ClassFunction(self.group, [0] * len(self.irreducibles))
        for m, irr in zip(mults, self.irreducibles):
            if m:
                acc = acc + m * irr
        if acc != chi:
            raise ValueError("class function lies outside the virtual span")
        return mults


def ingest_character_table(doc: dict, group: FiniteGroup | None = None
                           ) -> CharacterTable:
    """Build a validated table from a plain document.

    The document carries the group (permutation generators), the class
    list (representative and size, in the document's column order) and
    the irreducible characters with values per column, each value an
    integer or {"conductor": n, "coeffs": [...]} over the power basis.
    """
    if group is None:
        from .scenario import group_from_spec
        group = group_from_spec(doc["group"])
    classes = group.conjugacy_classes()
    k = len(classes)
    cols = doc["classes"]
    if len(cols) != k:
        raise ValueError("class count does not match the group")
    col_to_class = []
    for col in cols:
        rep = element_by_name(group, col["rep"])
        idx = group.class_index(rep)
        if len(classes[idx]) != col["size"]:
            raise ValueError(f"class size mismatch at representative "
                             f"{col['rep']!r}")
        col_to_class.append(idx)
    if sorted(col_to_class) != list(range(k)):
        raise ValueError("class representatives do not cover all classes")
    chars = []
    names = []
    for row in doc["characters"]:
        vals: list[Cyclotomic] = [ZERO] * k
        if len(row["values"]) != k:
            raise ValueError("wrong number of character values")
        for col_idx, raw in enumerate(row["values"]):
            vals[col_to_class[col_idx]] = _value_from_doc(raw, group)
        chars.append(ClassFunction(group, vals))
        names.append(row["name"])
    return CharacterTable(group, chars, names)


def _value_from_doc(raw, group: FiniteGroup) -> Cyclotomic:
    """A value from its document form, as a character value of group:
    a JSON int, or a positive int conductor n with a list of int
    coefficients of 1, zeta_n, zeta_n^2, ...  A bool is not an int.

    Every character value of G lies in Q(zeta_|G|), so a conductor that
    does not divide 2|G| is refused before Phi_n is built for it.
    """
    if type(raw) is int:
        return Cyclotomic.from_rational(raw)
    if isinstance(raw, dict):
        n, coeffs = raw["conductor"], raw["coeffs"]
        if type(n) is not int or n < 1:
            raise ValueError(f"conductor {n!r} is not a positive integer")
        if (2 * group.order) % n:
            raise ValueError(f"conductor {n} does not divide "
                             f"2|G| = {2 * group.order}")
        if type(coeffs) is not list \
                or any(type(c) is not int for c in coeffs):
            raise ValueError(f"coefficients {coeffs!r} are not a list of "
                             f"integers")
        return Cyclotomic.from_exponents(n, coeffs)
    raise ValueError(f"bad character value {raw!r}")


def value_to_doc(v: Cyclotomic):
    m = v.minimal()
    if m.is_rational():
        return m.as_int()
    return {"conductor": m.n,
            "coeffs": [int(c) if c.denominator == 1 else str(c)
                       for c in m.coeffs]}


def character_table(G: FiniteGroup) -> CharacterTable:
    """irreducible_characters(G), kept on G.  The table refers to G, so
    this is only for groups that live for the process, bundled or given
    by a spec: any other would sit in a reference cycle with its table."""
    return G.kept("table", lambda: irreducible_characters(G))


def irreducible_characters(G: FiniteGroup) -> CharacterTable:
    """The character table of G by Dixon-Schneider, computed afresh:
    trivial first, then by degree, then by the minimal conductor and
    coordinates of their values class by class, named chi0, chi1, ... in
    that order."""
    chars = sorted(_dixon_schneider(G), key=lambda c: (
        not all(v == 1 for v in c.values), c.degree().as_int(),
        [(v.minimal().n, v.minimal().coeffs) for v in c.values]))
    return CharacterTable(G, chars)


def _dixon_schneider(G: FiniteGroup) -> list[ClassFunction]:
    """The irreducible characters from the class structure constants.

    Over F_r, r the smallest prime = 1 mod exp(G) with r^2 > 4|G|, the
    central characters omega(K_j) = |K_j| chi(g_j) / chi(1) are the
    common eigenvectors of the class matrices (M_i)_jl = a[i][j][l],
    with M_i omega = omega(K_i) omega, and stay distinct since r does
    not divide |G|.  F_r^k is split by each M_i in turn into common
    eigenspaces (gf.eigenspaces): the eigenvalues of M_i on a space are
    the roots of its minimal polynomial there, which split into distinct
    linear factors as r = 1 mod exp(G), and each root costs one kernel.
    Scaled to omega(K_1) = 1, an eigenvector gives
    chi(1)^2 = |G| / sum_j omega_j omega_j' / |K_j| (j' the class of the
    inverses), whose root in 1..sqrt|G| is unique mod r as r > 2 sqrt|G|,
    and chi(g_j) = omega_j chi(1) / |K_j| mod r.  A value at an element
    of order o is sum_t m_t zeta_o^t, each multiplicity m_t in 0..chi(1)
    read off mod r by the discrete Fourier sum over the powers of the
    element.  The roots of unity mod r are powers of one generator, so
    they are compatible across orders; the reduction picks one prime
    above r, and another would permute the characters by a Galois
    automorphism, which the sort in character_table undoes.
    """
    classes = G.conjugacy_classes()
    k = len(classes)
    e = G.exponent()
    r = e + 1
    while r * r <= 4 * G.order \
            or any(r % t == 0 for t in range(2, isqrt(r) + 1)):
        r += e
    F = fq_field(r, 1)
    sc = class_structure_constants(G)
    spaces = [mat_rref(F, [[int(i == j) for j in range(k)]
                           for i in range(k)])]
    for M in sc:
        M = [[a % r for a in row] for row in M]
        spaces = [part for space in spaces
                  for part in eigenspaces(F, M, *space)]
    if len(spaces) != k:
        raise AssertionError("class matrices did not split into lines")
    one = G.class_index(G.identity)
    inv_sizes = [F.inv(F.from_int(len(c))) for c in classes]
    inverse = [G.class_index(G.inv(c[0])) for c in classes]
    # the classes of g^0, g^1, ..., g^(o-1) for each representative g
    power_classes = []
    for c in classes:
        seq, h = [one], c[0]
        while h != G.identity:
            seq.append(G.class_index(h))
            h = G.mul(h, c[0])
        power_classes.append(seq)
    chars = []
    for (w,), _ in spaces:
        s = F.inv(w[one])
        w = [x * s % r for x in w]
        dsq = G.order * F.inv(sum(w[j] * w[inverse[j]] * inv_sizes[j]
                                  for j in range(k)) % r) % r
        d = next(d for d in range(1, isqrt(G.order) + 1)
                 if (d * d - dsq) % r == 0)
        residues = [w[j] * d * inv_sizes[j] % r for j in range(k)]
        chars.append(ClassFunction(G, [_lift(F, [residues[c] for c in seq])
                                       for seq in power_classes]))
    return chars


def _lift(F, xs) -> Cyclotomic:
    """chi(g) from the residues xs of chi(g^l), l = 0..o-1, o the order
    of g: sum_t m_t zeta_o^t with m_t = (1/o) sum_l xs[l] zeta^(-tl)."""
    r, o = F.p, len(xs)
    z = F.inv(F.root_of_unity(o))
    zs = [1]
    for _ in range(1, o):
        zs.append(zs[-1] * z % r)
    inv_o = F.inv(F.from_int(o))
    return Cyclotomic.from_exponents(o, [
        inv_o * sum(x * zs[t * l % o] for l, x in enumerate(xs)) % r
        for t in range(o)]).minimal()


def verify_tensor_character_formula(X: ProductSubgroup, Y: ProductSubgroup,
                                    chi_m: ClassFunction,
                                    chi_n: ClassFunction) -> dict:
    """Both sides of the double-coset formula at the character level.

    Left: the contraction over the middle group of the two induced
    characters.  Right: the sum over double cosets h of the induction,
    from star(X, conjugate of Y), of the extended-tensor character of
    chi_m with the transported chi_n.
    """
    from .groups import double_cosets
    H = X.ambient.right
    if Y.ambient.left is not H:
        raise ValueError("matching middle group required")
    lhs = contract_over_middle(induce(chi_m, X), induce(chi_n, Y),
                               X.ambient, Y.ambient)
    out_amb = product_group(X.ambient.left, Y.ambient.right)
    rhs = ClassFunction(out_amb,
                        [0] * len(out_amb.conjugacy_classes()))
    count = 0
    for h in double_cosets(H, X.p2, Y.p1):
        pid = Y.ambient.encode(h, Y.ambient.right.identity)
        Yc, chi_c = conjugate_character_by(chi_n, Y, pid)
        wits = middle_witnesses(X, Yc)
        t = contract_extended(X, Yc, chi_m, chi_c, witnesses=wits)
        rhs = rhs + induce(t, star(X, Yc, wits))
        count += 1
    return {"lhs": lhs, "rhs": rhs, "double_coset_count": count}
