"""Block theory of group algebras over small finite fields.

Everything happens in F_q G for q = p^m with m large enough that F_q is
a splitting field (the multiplicative order of p modulo the p'-part of
the exponent).  Block idempotents are found inside the center: the
q-power map is F_q-linear there, its stable image is the maximal
separable subalgebra, and that subalgebra is split into primitive
idempotents by factoring minimal polynomials of its basis elements.
The Brauer homomorphism, defect groups, maximal Brauer pairs and the
dimension of the defect-zero simple over the central quotient are built
on top, and stay in the class-sum basis: br_D maps Z(F_q G) into
Z(F_q C_G(D)) class by class, products of central elements use the
class structure constants, and a central element is pushed along a
quotient map class by class.  Centralizers, local groups and block
idempotents are kept on their group, and the whole group as a local
group shares its rows.
The one vector over group elements left is the pushed block's, whose
rank on the permutation module of the cosets of a Sylow p-subgroup
gives the dimension: a block ideal is projective, so it is free over
any p-subgroup P, and its dimension is |P| times the rank of the block
on F_q[G/P].  The tests check the class-sum code against references
on element vectors; brauer_hom and group_algebra_mul are two of them,
kept here because the benchmark tracer wraps them by name, and the
others live in tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import CharacterTable
from .cyclotomic import Cyclotomic
from .gf import (Fq, mat_rank, mat_rref, mat_solve, poly_exact_div,
                 poly_factor, poly_mul, poly_trim, poly_xgcd)
from .groups import (FiniteGroup, GroupHom, Subgroup, centralizer,
                     int_p_prime_part, p_subgroups_up_to_conjugacy, quotient,
                     sylow_subgroup)


def multiplicative_order(a: int, n: int) -> int:
    if n == 1:
        return 1
    from math import gcd
    if gcd(a, n) != 1:
        raise ValueError("order undefined: arguments share a factor")
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


def splitting_params(G: FiniteGroup, p: int) -> tuple[int, int]:
    """(m, q): the order of p modulo the p'-part of exp(G), and p^m."""
    n = int_p_prime_part(G.exponent(), p)
    m = multiplicative_order(p, n)
    return m, p ** m


def splitting_field_degree(groups, p: int) -> int:
    """Least common multiple of the splitting degrees of several groups."""
    from math import lcm
    return lcm(*(splitting_params(G, p)[0] for G in groups))


class NotPIntegral(ValueError):
    """A cyclotomic value had a denominator divisible by p."""


class ReductionMap:
    """Reduction from cyclotomic numbers to a fixed finite field.

    A value of minimal conductor n = p^a n' goes to w^(inverse of p^a
    mod n') evaluated on the fixed primitive n'-th root w of the field;
    rational coefficients reduce mod p.  Requires n' to divide q - 1.
    """

    def __init__(self, field: Fq) -> None:
        self.field = field

    def __call__(self, value: Cyclotomic) -> int:
        F = self.field
        p = F.p
        v = value.minimal()
        n = v.n
        a = 0
        n_prime = n
        while n_prime % p == 0:
            n_prime //= p
            a += 1
        if (F.q - 1) % n_prime != 0:
            raise ValueError(
                f"field F_{F.q} has no {n_prime}-th roots of unity; "
                f"enlarge the field degree")
        if n_prime == 1:
            root_img = 1
        else:
            t = pow(p, -a, n_prime) if a else 1
            root_img = F.power(F.root_of_unity(n_prime), t)
        out = 0
        zk = 1
        for c in v.coeffs:
            if c.denominator % p == 0:
                raise NotPIntegral(
                    f"denominator {c.denominator} not prime to {p}")
            if c:
                cf = F.mul(F.from_int(c.numerator),
                           F.inv(F.from_int(c.denominator)))
                out = F.add(out, F.mul(cf, zk))
            zk = F.mul(zk, root_img)
        return out


# -- center of the group algebra -------------------------------------

def _structure_constants(G: FiniteGroup):
    """Integer constants a[i][j][k] with K_i K_j = sum_k a[i][j][k] K_k.

    a[i][j][k] counts the pairs x in K_i, y in K_j with x y = z_k for the
    representative z_k of K_k; each x has exactly one partner y = x^-1 z_k,
    so the count takes |G| products per target class.  Kept on G.
    """
    cached = G._subgroup_cache.get("structure")
    if cached is not None:
        return cached
    classes = G.conjugacy_classes()
    k = len(classes)
    class_of = [G.class_index(g) for g in range(G.order)]
    inverse_of = [G.inv(x) for x in range(G.order)]
    out = [[[0] * k for _ in range(k)] for _ in range(k)]
    for t, cls in enumerate(classes):
        z = cls[0]
        for x, x_inv in enumerate(inverse_of):
            out[class_of[x]][class_of[G.mul(x_inv, z)]][t] += 1
    G._subgroup_cache["structure"] = out
    return out


class CentralElement:
    """An element of the center of F_q G in the class-sum basis."""

    __slots__ = ("group", "field", "coeffs")

    def __init__(self, group: FiniteGroup, field: Fq, coeffs) -> None:
        self.group = group
        self.field = field
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != len(group.conjugacy_classes()):
            raise ValueError("one coefficient per conjugacy class required")

    @staticmethod
    def one(group: FiniteGroup, field: Fq) -> "CentralElement":
        k = len(group.conjugacy_classes())
        coeffs = [0] * k
        coeffs[group.class_index(group.identity)] = 1
        return CentralElement(group, field, coeffs)

    @staticmethod
    def zero(group: FiniteGroup, field: Fq) -> "CentralElement":
        k = len(group.conjugacy_classes())
        return CentralElement(group, field, [0] * k)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, CentralElement)
                and self.group.uid == other.group.uid
                and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.group.uid, id(self.field), self.coeffs))

    def __add__(self, other):
        F = self.field
        return CentralElement(self.group, F,
                              [F.add(a, b) for a, b in
                               zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        F = self.field
        return CentralElement(self.group, F,
                              [F.sub(a, b) for a, b in
                               zip(self.coeffs, other.coeffs)])

    def scale(self, c: int) -> "CentralElement":
        F = self.field
        row = F.mul_table[c]
        return CentralElement(self.group, F, [row[a] for a in self.coeffs])

    def __mul__(self, other):
        F = self.field
        sc = _structure_constants(self.group)
        k = len(self.coeffs)
        out = [0] * k
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                ab = F.mul(a, b)
                row = sc[i][j]
                for t in range(k):
                    if row[t]:
                        out[t] = F.add(out[t],
                                       F.mul(ab, F.from_int(row[t])))
        return CentralElement(self.group, F, out)

    def power(self, e: int) -> "CentralElement":
        out = CentralElement.one(self.group, self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_idempotent(self) -> bool:
        return self * self == self

    def to_vector(self) -> list[int]:
        """Expand to a coefficient vector over the group elements."""
        out = [0] * self.group.order
        for idx, cls in enumerate(self.group.conjugacy_classes()):
            c = self.coeffs[idx]
            if c:
                for g in cls:
                    out[g] = c
        return out

    def __repr__(self):
        return f"CentralElement({self.group.name}, {list(self.coeffs)})"


def group_algebra_mul(F: Fq, G: FiniteGroup, a, b):
    """Convolution product of two coefficient vectors over G."""
    out = [0] * G.order
    for x in range(G.order):
        cx = a[x]
        if not cx:
            continue
        row = G.row(x)
        mrow = F.mul_table[cx]
        for y in range(G.order):
            cy = b[y]
            if cy:
                z = row[y]
                out[z] = F.add(out[z], mrow[cy])
    return out


def _min_poly_in_center(F: Fq, unit: CentralElement, x: CentralElement):
    """Minimal polynomial of x in the corner algebra with the given unit."""
    k = len(x.coeffs)
    powers = [unit]
    rows = [list(unit.coeffs)]
    while True:
        nxt = powers[-1] * x
        # Solve rows^T c = nxt over F.
        cols = [[rows[i][j] for i in range(len(rows))] for j in range(k)]
        sol = mat_solve(F, cols, list(nxt.coeffs))
        if sol is not None:
            # x^d = sum sol_i x^i, so minpoly = t^d - sum sol_i t^i.
            coeffs = [F.neg(c) for c in sol] + [1]
            return poly_trim(coeffs)
        powers.append(nxt)
        rows.append(list(nxt.coeffs))
        if len(powers) > k + 1:
            raise AssertionError("minimal polynomial search ran away")


def _eval_poly_in_center(F: Fq, poly, x: CentralElement,
                         unit: CentralElement) -> CentralElement:
    out = CentralElement.zero(x.group, F)
    for c in reversed(poly_trim(poly)):
        out = out * x
        if c:
            out = out + unit.scale(c)
    return out


def block_idempotents(G: FiniteGroup, p: int, field: Fq
                      ) -> list[CentralElement]:
    """The primitive central idempotents of F_q G, in a stable order.

    The list is sorted by class-sum coefficient tuple; idempotency,
    orthogonality and summing to 1 are asserted before it is first
    returned.  It is kept on G per field, since central elements over
    different field objects never compare equal, and each call returns
    a new list.
    """
    F = field
    if F.p != p:
        raise ValueError("field characteristic must equal p")
    key = ("blocks", p, F)
    cached = G._subgroup_cache.get(key)
    if cached is not None:
        return list(cached)
    classes = G.conjugacy_classes()
    k = len(classes)
    basis = []
    for i in range(k):
        coeffs = [0] * k
        coeffs[i] = 1
        basis.append(CentralElement(G, F, coeffs))
    # Stable image of the q-power map: the maximal separable subalgebra.
    frob_rows = [list(b.power(F.q).coeffs) for b in basis]
    for _ in range(k.bit_length()):
        frob_rows = [
            [_dot(F, row, [fr[j] for fr in frob_rows]) for j in range(k)]
            for row in frob_rows]
    sep_rows, _ = mat_rref(F, frob_rows)
    sep_basis = [CentralElement(G, F, row) for row in sep_rows
                 if any(row)]

    blocks = [CentralElement.one(G, F)]
    changed = True
    while changed:
        changed = False
        refined = []
        for e in blocks:
            split = _try_split(F, G, e, sep_basis)
            if split is None:
                refined.append(e)
            else:
                refined.extend(split)
                changed = True
        blocks = refined
    blocks.sort(key=lambda b: b.coeffs)
    _assert_block_axioms(F, G, blocks)
    G._subgroup_cache[key] = tuple(blocks)
    return blocks


def _dot(F: Fq, row, col):
    out = 0
    for a, b in zip(row, col):
        if a and b:
            out = F.add(out, F.mul(a, b))
    return out


def _try_split(F: Fq, G: FiniteGroup, e: CentralElement, sep_basis):
    for s in sep_basis:
        x = s * e
        mp = _min_poly_in_center(F, e, x)
        factors = poly_factor(F, mp, seed=0)
        irr = [f for f, _ in factors]
        if len(irr) < 2:
            continue
        parts = []
        for fi in irr:
            hi = poly_exact_div(F, mp, fi)
            g, _, v = poly_xgcd(F, fi, hi)
            if len(g) != 1:
                raise AssertionError("minimal polynomial was not squarefree")
            # CRT idempotent: (v * hi)(x) is 1 mod fi and 0 mod the rest.
            parts.append(_eval_poly_in_center(
                F, poly_mul(F, v, hi), x, e))
        total = CentralElement.zero(G, F)
        for part in parts:
            total = total + part
        if total != e:
            raise AssertionError("CRT idempotents do not sum to the unit")
        return parts
    return None


def _assert_block_axioms(F: Fq, G: FiniteGroup, blocks) -> None:
    total = CentralElement.zero(G, F)
    for i, b in enumerate(blocks):
        if not b.is_idempotent():
            raise AssertionError("block candidate is not idempotent")
        for j in range(i):
            if not (b * blocks[j]).is_zero():
                raise AssertionError("block candidates are not orthogonal")
        total = total + b
    if total != CentralElement.one(G, F):
        raise AssertionError("block candidates do not sum to 1")


# -- Brauer homomorphism and defect groups ---------------------------

def brauer_hom(vec, D: Subgroup, field: Fq):
    """Truncate a D-fixed element of F_q G to F_q C_G(D).

    Input is a coefficient vector over G; output is a vector over
    C_G(D).as_group().  Raises if the element is not D-conjugation
    fixed; it is enough to test the generators of D.
    """
    G = D.parent
    for d in D.generators:
        for g in range(G.order):
            if vec[G.conj(d, g)] != vec[g]:
                raise ValueError("element is not fixed under the subgroup")
    C = centralizer(G, D)
    Cg = C.as_group()
    return [vec[C.from_local(i)] for i in range(Cg.order)]


def brauer_image(b: CentralElement, D: Subgroup) -> CentralElement:
    """The Brauer image br_D(b) of a central element b of F_q G, as a
    central element of F_q C_G(D).

    br_D keeps the coefficients of b on C_G(D).  Since b is central its
    coefficient on g depends only on the G-class of g, and each class of
    C_G(D) lies in one G-class, so each local class takes b's
    coefficient on the G-class that contains it (Navarro, *Characters
    and Blocks of Finite Groups*, 1998, ch. 4).
    """
    G = b.group
    if D.parent.uid != G.uid:
        raise ValueError("D must be a subgroup of the group of b")
    Cg = centralizer(G, D).as_group()
    to_parent = Cg.local_to_parent
    return CentralElement(Cg, b.field, [
        b.coeffs[G.class_index(to_parent[cls[0]])]
        for cls in Cg.conjugacy_classes()])


def defect_group(G: FiniteGroup, p: int, b: CentralElement, field: Fq,
                 largest_rep: bool = False) -> Subgroup:
    """A defect group of the block b: a maximal p-subgroup with
    nonvanishing Brauer image, returned as a canonical class
    representative.

    br_P(b) is nonzero exactly when a class on which b has a nonzero
    coefficient meets C_G(P), so each p-subgroup class is tested on the
    class-sum coefficients of b and the elements of its centralizer,
    which is kept on G.
    """
    coeffs, class_of = b.coeffs, G.class_index
    surviving = [P for P in p_subgroups_up_to_conjugacy(G, p)
                 if any(coeffs[class_of(g)]
                        for g in centralizer(G, P).elements)]
    top = max(P.order for P in surviving)
    tops = [P for P in surviving if P.order == top]
    if len(tops) != 1:
        raise AssertionError("defect groups must form a single class")
    return tops[0].canonical_conjugate(largest=largest_rep)


def maximal_brauer_pair(G: FiniteGroup, p: int, b: CentralElement,
                        field: Fq, D: Subgroup | None = None,
                        reverse_blocks: bool = False,
                        largest_rep: bool = False
                        ) -> tuple[Subgroup, CentralElement]:
    """A maximal Brauer pair (D, e): a defect group with a block e of
    F_q C_G(D) not killed by the Brauer image of b.

    br_D(b) e is a product of central elements of F_q C_G(D), taken
    with the class structure constants of C_G(D); it must be 0 or e.
    """
    if D is None:
        D = defect_group(G, p, b, field, largest_rep=largest_rep)
    br = brauer_image(b, D)
    cand = block_idempotents(br.group, p, field)
    if reverse_blocks:
        cand = list(reversed(cand))
    for e in cand:
        prod = br * e
        if not prod.is_zero():
            if prod != e:
                raise AssertionError(
                    "Brauer image times a block must be 0 or the block")
            return D, e
    raise AssertionError("no local block survives the Brauer image")


def coset_module_rank(F: Fq, G: FiniteGroup, vec, P: Subgroup) -> int:
    """Rank of left multiplication by vec on the permutation module F_q[G/P].

    The basis is the left cosets gP; vec is a coefficient vector over G.
    """
    reps, idx = P.coset_index_map()
    support = [(x, c) for x, c in enumerate(vec) if c]
    rows = []
    for r in reps:
        row = [0] * len(reps)
        for x, c in support:
            j = idx[G.mul(x, r)]
            row[j] = F.add(row[j], c)
        rows.append(row)
    return mat_rank(F, rows)


def push_central(e: CentralElement, pi: GroupHom) -> CentralElement:
    """The image of a central element under a surjection pi, class by class.

    pi maps each class K onto the class pi(K), every element of pi(K)
    having |K|/|pi(K)| preimages in K, so K's coefficient reaches pi(K)
    with that weight.
    """
    F, Q = e.field, pi.target
    q_classes = Q.conjugacy_classes()
    out = [0] * len(q_classes)
    for K, c in zip(e.group.conjugacy_classes(), e.coeffs):
        if c:
            t = Q.class_index(pi(K[0]))
            w = F.from_int(len(K) // len(q_classes[t]))
            out[t] = F.add(out[t], F.mul(c, w))
    return CentralElement(Q, F, out)


def defect_zero_simple_dim(G: FiniteGroup, D: Subgroup, e: CentralElement,
                           field: Fq) -> int:
    """Dimension of the simple module of the image block over C_G(D)/Z(D).

    Z(D) is D meet C_G(D).  The block e of F_q C_G(D) is pushed along
    the central quotient Q by Z(D) in the class-sum basis (when Z(D) is
    trivial, Q is C_G(D) itself and no quotient is built); the image
    block algebra has square dimension d*d and the simple has dimension
    d.  The block ideal is a summand of F_q Q, so it is projective and
    hence free over a Sylow p-subgroup P of Q; its rank there is the
    dimension of its image in F_q Q (x)_{F_q P} F_q = F_q[Q/P].  So
    d*d = |P| * rank(e on F_q[Q/P]), a rank on |Q:P| cosets instead of
    on the |Q| elements of the regular module.
    """
    C = centralizer(G, D)
    Cg = C.as_group()
    if e.group.uid != Cg.uid:
        raise ValueError("e must be a block of the centralizer algebra")
    z_local = [Cg.parent_to_local[z] for z in D.elements if z in C]
    if len(z_local) == 1:
        Q, qe = Cg, e
    else:
        Q, pi = quotient(Cg, Subgroup(Cg, z_local, check=False))
        qe = push_central(e, pi)
    if qe * qe != qe:
        raise AssertionError("image of the block is not idempotent")
    F = field
    P = sylow_subgroup(Q, F.p)
    dim = P.order * coset_module_rank(F, Q, qe.to_vector(), P)
    root = int(round(dim ** 0.5))
    if root * root != dim:
        raise ValueError(
            f"block algebra dimension {dim} is not a perfect square; "
            f"the field does not split it")
    return root


def assign_characters_to_blocks(table: CharacterTable,
                                blocks: list[CentralElement],
                                field: Fq) -> list[list[int]]:
    """Partition the irreducible characters among the blocks.

    Character chi lies in block b exactly when its reduced central
    character sends b to 1.  Raises if any character matches zero or
    several blocks.
    """
    G = table.group
    red = ReductionMap(field)
    classes = G.conjugacy_classes()
    partition: list[list[int]] = [[] for _ in blocks]
    for ci, chi in enumerate(table.irreducibles):
        deg = chi.degree().as_int()
        omega_bar = []
        for idx, cls in enumerate(classes):
            val = chi.values[idx] * Fraction(len(cls), deg)
            omega_bar.append(red(val))
        hits = []
        for bi, b in enumerate(blocks):
            total = 0
            for c, w in zip(b.coeffs, omega_bar):
                if c and w:
                    total = field.add(total, field.mul(c, w))
            if total == 1:
                hits.append(bi)
            elif total != 0:
                raise AssertionError(
                    "central character of a block must be 0 or 1")
        if len(hits) != 1:
            raise ValueError(
                f"character {table.names[ci]} matched {len(hits)} blocks")
        partition[hits[0]].append(ci)
    return partition


# -- Brauer construction on bisets -----------------------------------

def fixed_cosets(X, P: Subgroup) -> list[int]:
    """Points of the coset biset of X fixed by every element of P."""
    from .gsets import biset_coset
    U = biset_coset(X)
    return U.action.fixed_points(P.elements)


def brauer_construction(terms, P: Subgroup):
    """Fixed points of each term of a virtual biset at a p-subgroup P.

    For each (vertex subgroup X, coefficient c) the fixed cosets of P
    on the coset biset of X are returned together with the action of
    the normalizer of P on them and the coefficient.
    """
    from .groups import normalizer
    from .gsets import GAction, biset_coset
    out = []
    for X, coeff in terms:
        amb = X.ambient
        if P.parent.uid != amb.uid:
            raise ValueError("P must live in the ambient product group")
        U = biset_coset(X)
        fixed = U.action.fixed_points(P.elements)
        pos = {x: i for i, x in enumerate(fixed)}
        N = normalizer(amb, P)
        Ng = N.as_group()
        rows = []
        for i in range(Ng.order):
            row = U.action.rows[N.from_local(i)]
            rows.append(tuple(pos[row[x]] for x in fixed))
        out.append({"fixed": fixed, "action": GAction(Ng, rows, check=False),
                    "coefficient": coeff})
    return out
