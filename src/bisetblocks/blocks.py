"""Block theory of group algebras over small finite fields.

Everything happens in F_q G for q = p^m with m large enough that F_q is
a splitting field (the multiplicative order of p modulo the p'-part of
the exponent).  Block idempotents are found inside the center, where
the q-power map Phi is F_q-linear: its fixed points B are the span of
the block idempotents over any F_q, split or not, as the center of a
block is local.  B is one kernel of Phi - 1.  Multiplication by an
element s of B is diagonal on B in the basis of block idempotents, so
splitting B into the common eigenspaces of x -> s x, for s in a basis
of B (gf.eigenspaces), leaves one line through each e_B.
The Brauer homomorphism, defect groups, maximal Brauer pairs and the
dimension of the defect-zero simple over the central quotient are built
on top.  A defect group is a Sylow p-subgroup of the centralizer of one
class in the support of the block (Green's min-max theorem; Navarro,
1998, ch. 4), so no p-subgroup is listed.  All of it stays in the
class-sum basis: br_D maps Z(F_q G) into Z(F_q C_G(D)) class by class,
products of central elements use the class structure constants, and a
central element is pushed along a quotient map class by class.
Centralizers, Sylow subgroups and block idempotents are kept on their
group as element or coefficient tuples, and the whole group is its own
local group: a block with C_G(D) = G reuses G's classes and blocks.
The dimension is a rank on the permutation module of the cosets of a
Sylow p-subgroup: a block ideal is projective, so it is free over any
p-subgroup P, and its dimension is |P| times the rank of the block on
F_q[G/P].  As the block e is central, e(tP) = t(eP), so its matrix
there is the one column eP, summed from the classes, with its cosets
moved by each coset representative t.  The tests check the class-sum
code against references on element vectors; brauer_hom and
group_algebra_mul are two of them, kept here because the benchmark
tracer wraps them by name, and the others live in tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import CharacterTable
from .cyclotomic import Cyclotomic
from .gf import Fq, eigenspaces, mat_kernel, mat_rank, mat_rref
from .groups import (FiniteGroup, GroupHom, Subgroup, centralizer,
                     class_structure_constants, int_p_part, int_p_prime_part,
                     normalizer, quotient, sylow_subgroup)
from .gsets import GAction, biset_coset


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
    the integer numerators reduce mod p and the common denominator, which
    must be prime to p, is inverted once.  Requires n' to divide q - 1.
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
        if v.den % p == 0:
            raise NotPIntegral(f"denominator {v.den} not prime to {p}")
        out = 0
        zk = 1
        for c in v.num:
            if c:
                out = F.add(out, F.mul(F.from_int(c), zk))
            zk = F.mul(zk, root_img)
        if v.den == 1:
            return out
        return F.mul(out, F.inv(F.from_int(v.den)))


# -- center of the group algebra -------------------------------------

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
        return CentralElement(self.group, F,
                              [F.mul(c, a) for a in self.coeffs])

    def __mul__(self, other):
        F = self.field
        sc = class_structure_constants(self.group)
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
        """self to the e-th power by squaring; no square past the top bit
        of e and no product with one."""
        if not e:
            return CentralElement.one(self.group, self.field)
        out, base = None, self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

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
        for y in range(G.order):
            cy = b[y]
            if cy:
                z = row[y]
                out[z] = F.add(out[z], F.mul(cx, cy))
    return out


def block_idempotents(G: FiniteGroup, p: int, field: Fq
                      ) -> list[CentralElement]:
    """The primitive central idempotents of F_q G, in a stable order.

    One pass over a basis of B = ker(Phi - 1) splits B into lines, one
    through each block idempotent.  The list is sorted by class-sum
    coefficient tuple; idempotency, orthogonality and summing to 1 are
    asserted before it is first returned.  Only the coefficient tuples
    are kept on G, plain data with no reference back to it, per field
    object, and each call makes new central elements around them.
    """
    F = field
    if F.p != p:
        raise ValueError("field characteristic must equal p")
    return [CentralElement(G, F, coeffs) for coeffs in
            G.kept(("blocks", p, F), lambda: _split_centre(G, F))]


def _split_centre(G: FiniteGroup, F: Fq) -> tuple[tuple[int, ...], ...]:
    k = len(G.conjugacy_classes())
    units = [CentralElement(G, F, [int(i == j) for j in range(k)])
             for i in range(k)]
    moved = [(K.power(F.q) - K).coeffs for K in units]
    fixed = mat_kernel(F, list(zip(*moved)), k)
    # B is commutative and spanned by the block idempotents, so the
    # common eigenspaces in B of the maps x -> s x, s in a basis of B,
    # are the lines through the e_B; the reduced row x = c e_B of a line
    # has x x = c x, and c is read at its pivot.
    spaces = [mat_rref(F, fixed)]
    for s in fixed:
        s = CentralElement(G, F, s)
        times_s = list(zip(*((s * K).coeffs for K in units)))
        spaces = [part for space in spaces
                  for part in eigenspaces(F, times_s, *space)]
    if any(len(rows) != 1 for rows, _ in spaces):
        raise AssertionError("the fixed subalgebra did not split into lines")
    blocks = []
    for (x,), (pivot,) in spaces:
        x = CentralElement(G, F, x)
        blocks.append(x.scale(F.inv((x * x).coeffs[pivot])))
    blocks.sort(key=lambda b: b.coeffs)
    _assert_block_axioms(F, G, blocks)
    return tuple(b.coeffs for b in blocks)


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
    return [vec[g] for g in centralizer(G, D).elements]


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
    C = centralizer(G, D)
    Cg = C.as_group()
    return CentralElement(Cg, b.field, [
        b.coeffs[G.class_index(C.from_local(cls[0]))]
        for cls in Cg.conjugacy_classes()])


def defect_group(G: FiniteGroup, p: int, b: CentralElement,
                 largest_rep: bool = False) -> Subgroup:
    """A defect group D of b by Green's min-max theorem (Navarro, 1998,
    ch. 4), returned as the smallest or largest canonical conjugate.

    D is a Sylow p-subgroup of C_G(x) for a class x^G in the support of
    b with the largest |C_G(x)|_p, over any F_q, split or not.  b is a
    trace from D (Higman's criterion), so each class in its support has
    a defect group in a conjugate of D; and br_D(b) != 0, so some class
    in its support meets C_G(D).  That br_D(b) != 0 is checked.
    """
    coeffs, class_of = b.coeffs, G.class_index
    x = min((cls for cls, c in zip(G.conjugacy_classes(), coeffs) if c),
            key=lambda cls: int_p_part(len(cls), p))[0]
    C = centralizer(G, x)
    P = sylow_subgroup(C.as_group(), p)
    D = Subgroup(G, map(C.from_local, P.elements)
                 ).canonical_conjugate(largest=largest_rep)
    if not any(coeffs[class_of(g)] for g in centralizer(G, D).elements):
        raise AssertionError("br_D(b) vanishes at the defect group")
    return D


def maximal_brauer_pair(G: FiniteGroup, p: int, b: CentralElement,
                        field: Fq, D: Subgroup | None = None,
                        reverse_blocks: bool = False
                        ) -> tuple[Subgroup, CentralElement]:
    """A maximal Brauer pair (D, e): a defect group with a block e of
    F_q C_G(D) not killed by br_D(b), which is not 0 (Navarro, ch. 4).

    br_D(b) e is a product of central elements of F_q C_G(D), taken
    with the class structure constants of C_G(D); it must be 0 or e.
    """
    if D is None:
        D = defect_group(G, p, b)
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


def action_rank(F: Fq, row, coeffs: dict, points) -> int:
    """Rank of sum c z on the span of points, z acting through row(z).

    coeffs maps group elements z to their coefficients c.  The matrix is
    built one z at a time, so only one row(z) is held.  Raises
    ValueError when some z takes one of the points outside them.
    """
    pos = {x: i for i, x in enumerate(points)}
    add = F.add
    M = [[0] * len(pos) for _ in pos]   # one row per point v: its image
    try:
        for z, c in coeffs.items():
            r = row(z)
            for image, v in zip(M, pos):
                i = pos[r[v]]
                image[i] = add(image[i], c)
    except KeyError:
        raise ValueError("an element takes a point outside the span"
                         ) from None
    return mat_rank(F, M)


def coset_module_rank(F: Fq, G: FiniteGroup, e: CentralElement,
                      P: Subgroup) -> int:
    """Rank of left multiplication by e on the permutation module F_q[G/P].

    The basis is the left cosets tP; e is central in F_q G.  So
    e(tP) = t(eP): the column w = eP is summed once, at most |G| additions,
    and the image of each coset tP is w with its cosets moved by t, which
    takes no field operation.
    """
    reps, idx = P.coset_index_map()
    add = F.add
    w = [0] * len(reps)
    for cls, c in zip(G.conjugacy_classes(), e.coeffs):
        if c:
            for z in cls:
                i = idx[z]
                w[i] = add(w[i], c)
    M = []
    for t in reps:
        image = [0] * len(reps)
        for tr, c in zip(G.left_products(t, reps), w):
            image[idx[tr]] = c
        M.append(image)
    return mat_rank(F, M)


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
    z_local = [C.to_local(z) for z in D.elements if z in C]
    if len(z_local) == 1:
        Q, qe = Cg, e
    else:
        Q, pi = quotient(Cg, Subgroup(Cg, z_local))
        qe = push_central(e, pi)
    if qe * qe != qe:
        raise AssertionError("image of the block is not idempotent")
    F = field
    P = sylow_subgroup(Q, F.p)
    dim = P.order * coset_module_rank(F, Q, qe, P)
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
    U = biset_coset(X)
    return U.action.fixed_points(P.elements)


def brauer_construction(terms, P: Subgroup):
    """Fixed points of each term of a virtual biset at a p-subgroup P.

    For each (vertex subgroup X, coefficient c) the fixed cosets of P
    on the coset biset of X are returned together with the action of
    the normalizer of P on them and the coefficient.
    """
    out = []
    for X, coeff in terms:
        amb = X.ambient
        if P.parent.uid != amb.uid:
            raise ValueError("P must live in the ambient product group")
        U = biset_coset(X)
        fixed = U.action.fixed_points(P.elements)
        pos = {x: i for i, x in enumerate(fixed)}
        N = normalizer(amb, P)
        rows = []
        for g in N.elements:
            row = U.action.rows[g]
            rows.append(tuple(pos[row[x]] for x in fixed))
        out.append({"fixed": fixed, "action": GAction(N.as_group(), rows),
                    "coefficient": coeff})
    return out
