"""Class functions and ordinary character tables, with exact values.

Values are cyclotomic numbers; every operation (induction, restriction,
inner products, the contraction of a two-sided character against a
one-sided one) is computed exactly over the rationals.

character_table(G) computes the irreducible characters of any group by
the modular Dixon-Schneider method (Dixon, Numer. Math. 10 (1967);
Schneider, J. Symb. Comp. 9 (1990)): the central characters are the
common eigenvectors of the class matrices over a prime field F_r with
r = 1 mod exp(G), found one root of a minimal polynomial and one kernel
at a time; each gives the degree and the values mod r, and each value
is lifted to a sum of roots of unity.  Characters are listed trivial
first, then by degree, then by the minimal conductors and coordinates
of their values, and named chi0, chi1, ...  A table can also be
ingested from a document.  Either way the table validates
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
  of classes as integers, and multiplies values once per distinct pair.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt

from .cyclotomic import Cyclotomic, ZERO, dot
from .gf import eigenspaces, fq_field, mat_rref
from .groups import (FiniteGroup, ProductGroup, Subgroup,
                     class_structure_constants, element_by_name,
                     product_group)
from .subdirect import ProductSubgroup, middle_kernel, middle_witnesses, star


def _cyc(value) -> Cyclotomic:
    if isinstance(value, Cyclotomic):
        return value
    return Cyclotomic.from_rational(value)


class ClassFunction:
    """A function on conjugacy classes of a fixed group."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values) -> None:
        self.group = group
        vals = tuple(_cyc(v) for v in values)
        if len(vals) != len(group.conjugacy_classes()):
            raise ValueError("need one value per conjugacy class")
        self.values = vals

    def at(self, g: int) -> Cyclotomic:
        return self.values[self.group.class_index(g)]

    def degree(self) -> Cyclotomic:
        return self.values[self.group.class_index(self.group.identity)]

    def __add__(self, other):
        self._same(other)
        return ClassFunction(self.group,
                             [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._same(other)
        return ClassFunction(self.group,
                             [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return ClassFunction(self.group, [-a for a in self.values])

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._same(other)
            return ClassFunction(
                self.group,
                [a * b for a, b in zip(self.values, other.values)])
        return ClassFunction(self.group, [a * other for a in self.values])

    __rmul__ = __mul__

    def conjugate(self) -> "ClassFunction":
        return ClassFunction(self.group, [v.conjugate() for v in self.values])

    def galois(self, t: int) -> "ClassFunction":
        return ClassFunction(self.group, [v.galois(t) for v in self.values])

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def _same(self, other) -> None:
        if not isinstance(other, ClassFunction) \
                or other.group.uid != self.group.uid:
            raise ValueError("class functions live over different groups")

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and self.group.uid == other.group.uid
                and self.values == other.values)

    def __hash__(self):
        return hash((self.group.uid, self.values))

    def __repr__(self):
        return f"ClassFunction({self.group.name}, {list(self.values)})"


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyclotomic:
    """The scalar product <a, b> = |G|^-1 sum_g a(g) conj(b(g))."""
    a._same(b)
    G = a.group
    weighted = [len(cls) * vb.conjugate()
                for cls, vb in zip(G.conjugacy_classes(), b.values)]
    return dot(a.values, weighted) * Fraction(1, G.order)


def perm_character(action) -> ClassFunction:
    """Fixed-point counts of a GAction, one value per class."""
    G = action.group
    reps = [cls[0] for cls in G.conjugacy_classes()]
    vals = []
    for r in reps:
        row = action.rows[r]
        vals.append(sum(1 for x in range(action.size) if row[x] == x))
    return ClassFunction(G, vals)


def induce(chi: ClassFunction, S: Subgroup) -> ClassFunction:
    """Induction of a character of S.as_group() up to the parent group.

    By class fusion: Ind chi(g) = |C_G(g)|/|S| * sum |d| chi(d), the sum
    running over the classes d of S that lie in the class of g.  Costs
    one class look-up per class of S.
    """
    G = S.parent
    Sg = S.as_group()
    if chi.group.uid != Sg.uid:
        raise ValueError("character must live on the subgroup's local group")
    classes = G.conjugacy_classes()
    sums = [ZERO] * len(classes)
    for d, v in zip(Sg.conjugacy_classes(), chi.values):
        if not v.is_zero():
            c = G.class_index(S.from_local(d[0]))
            sums[c] = sums[c] + len(d) * v
    return ClassFunction(G, [
        v * Fraction(G.order // len(cls), S.order)
        for v, cls in zip(sums, classes)])


def restrict(chi: ClassFunction, S: Subgroup) -> ClassFunction:
    """Restriction of a character of the parent group to S.as_group()."""
    if chi.group.uid != S.parent.uid:
        raise ValueError("character must live on the parent group")
    Sg = S.as_group()
    return ClassFunction(
        Sg, [chi.at(S.from_local(cls[0]))
             for cls in Sg.conjugacy_classes()])


def external_character(chi: ClassFunction, theta: ClassFunction
                       ) -> ClassFunction:
    """The product character chi x theta on the direct product group."""
    amb = product_group(chi.group, theta.group)
    vals = []
    for cls in amb.conjugacy_classes():
        a, b = amb.decode(cls[0])
        vals.append(chi.at(a) * theta.at(b))
    return ClassFunction(amb, vals)


def contract_middle(mu: ClassFunction, psi: ClassFunction,
                    ambient: ProductGroup) -> ClassFunction:
    """Pair a character on G x H against one on H, landing on G.

    The value at g is |H|^-1 sum_h mu(g,h) psi(h): the character of the
    image of the psi-module under the functor attached to mu.  On class
    i of G it is |H|^-1 sum_c |c| mu[i*k_H + c] psi[c] over the classes
    c of H.
    """
    if mu.group.uid != ambient.uid:
        raise ValueError("mu must live on the ambient product group")
    H = ambient.right
    if psi.group.uid != H.uid:
        raise ValueError("psi must live on the right factor")
    weighted = [len(c) * v for c, v in zip(H.conjugacy_classes(),
                                            psi.values)]
    kH = len(weighted)
    scale = Fraction(1, H.order)
    vals = [dot(mu.values[i * kH:(i + 1) * kH], weighted) * scale
            for i in range(len(ambient.left.conjugacy_classes()))]
    return ClassFunction(ambient.left, vals)


def contract_over_middle(mu1: ClassFunction, mu2: ClassFunction,
                         amb1: ProductGroup, amb2: ProductGroup
                         ) -> ClassFunction:
    """Compose two-sided characters: (g,k) |-> |H|^-1 sum_h mu1(g,h)mu2(h,k).

    As a product of class matrices: on the class (i, j) of G x K the
    value is |H|^-1 sum_c |c| mu1[i*k_H + c] mu2[c*k_K + j] over the
    classes c of H, k_G*k_H*k_K products in all.
    """
    if amb1.right is not amb2.left:
        raise ValueError("matching middle group required")
    if mu1.group.uid != amb1.uid or mu2.group.uid != amb2.uid:
        raise ValueError("characters must live on their product groups")
    H = amb1.right
    out_amb = product_group(amb1.left, amb2.right)
    sizes = [len(c) for c in H.conjugacy_classes()]
    kH = len(sizes)
    kK = len(amb2.right.conjugacy_classes())
    cols = [[n * v for n, v in zip(sizes, mu2.values[j::kK])]
            for j in range(kK)]
    scale = Fraction(1, H.order)
    vals = []
    for i in range(len(amb1.left.conjugacy_classes())):
        row = mu1.values[i * kH:(i + 1) * kH]
        vals += [dot(row, col) * scale for col in cols]
    return ClassFunction(out_amb, vals)


def contract_extended(X: ProductSubgroup, Y: ProductSubgroup,
                      chi_m: ClassFunction, chi_n: ClassFunction, *,
                      witnesses=None) -> ClassFunction:
    """Character of the extended tensor product on star(X, Y).

    At (g,k) the value averages chi_m(g,h) chi_n(h,k) over the middle
    witnesses h, equivalently divides the full witness sum by the order
    of the joint kernel.  The witnesses are counted by their pair of
    classes (of (g,h) in X, of (h,k) in Y) first, so each distinct pair
    costs one product of values.  witnesses, when given, is
    middle_witnesses(X, Y).
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
    products: dict = {}
    scale = Fraction(1, ker.order)
    vals = []
    for cls in Sg.conjugacy_classes():
        g, k = S.ambient.decode(S.from_local(cls[0]))
        counts = Counter((x_class(x_local(x_enc(g, h))),
                          y_class(y_local(y_enc(h, k))))
                         for h in witnesses[(g, k)])
        total = ZERO
        for pair, n in counts.items():
            v = products.get(pair)
            if v is None:
                v = products[pair] = (chi_m.values[pair[0]]
                                      * chi_n.values[pair[1]])
            total = total + n * v
        vals.append(total * scale)
    return ClassFunction(Sg, vals)


def conjugate_character_by(chi: ClassFunction, X: ProductSubgroup, x: int
                           ) -> tuple[ProductSubgroup, ClassFunction]:
    """Transport a character of X.as_group() to the conjugate subgroup."""
    amb = X.ambient
    Xc = X.conjugated_by_pair(x)
    Xg, Xcg = X.as_group(), Xc.as_group()
    xinv = amb.inv(x)
    vals = []
    for cls in Xcg.conjugacy_classes():
        e = Xc.from_local(cls[0])
        vals.append(chi.values[Xg.class_index(
            X.to_local(amb.conj(xinv, e)))])
    return Xc, ClassFunction(Xcg, vals)


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
    """A value from its document form, as a character value of group.

    Every character value of G lies in Q(zeta_|G|), so a conductor that
    does not divide 2|G| is refused before Phi_n is built for it.
    """
    if isinstance(raw, int):
        return Cyclotomic.from_rational(raw)
    if isinstance(raw, dict):
        n = raw["conductor"]
        if isinstance(n, int) and n >= 1 and (2 * group.order) % n:
            raise ValueError(f"conductor {n} does not divide "
                             f"2|G| = {2 * group.order}")
        out = ZERO
        for k, c in enumerate(raw["coeffs"]):
            if c:
                out = out + c * Cyclotomic.zeta(n, k)
        return out
    raise ValueError(f"bad character value {raw!r}")


def value_to_doc(v: Cyclotomic):
    m = v.minimal()
    if m.is_rational():
        return m.as_int()
    return {"conductor": m.n,
            "coeffs": [int(c) if c.denominator == 1 else str(c)
                       for c in m.coeffs]}


def character_table(G: FiniteGroup) -> CharacterTable:
    """The irreducible characters of G by Dixon-Schneider, kept on G.

    Listed trivial first, then by degree, then by the minimal conductor
    and coordinates of their values class by class, and named chi0,
    chi1, ... in that order.
    """
    table = G._subgroup_cache.get("table")
    if table is None:
        chars = sorted(_dixon_schneider(G), key=lambda c: (
            not all(v == 1 for v in c.values), c.degree().as_int(),
            [(v.minimal().n, v.minimal().coeffs) for v in c.values]))
        table = G._subgroup_cache["table"] = CharacterTable(G, chars)
    return table


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
    return {"lhs": lhs, "rhs": rhs, "double_coset_count": count,
            "equal": lhs == rhs}
