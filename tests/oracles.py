"""References and helpers that only the tests use.

The package has no caller for anything here.  Most entries are oracles
written from the definition, element by element, so that they share no
algorithm with the code they check; the others build inputs for tests.
"""

import cmath

from bisetblocks.blocks import assign_characters_to_blocks, brauer_hom
from bisetblocks.characters import ClassFunction
from bisetblocks.groups import (Subgroup, centralizer, isomorphisms,
                                normalizer, p_subgroups_up_to_conjugacy,
                                product_group, quotient)
from bisetblocks.gsets import GAction, biset_coset
from bisetblocks.subdirect import ProductSubgroup


# -- groups ----------------------------------------------------------

def double_coset_of(G, A, g, B) -> frozenset:
    """The double coset A g B, by multiplying out every pair."""
    out = set()
    for a in A.elements:
        ag = G.mul(a, g)
        for b in B.elements:
            out.add(G.mul(ag, b))
    return frozenset(out)


def is_p_group(S, p: int) -> bool:
    n = S.order
    while n % p == 0:
        n //= p
    return n == 1


def conjugate_subgroup(S, x: int) -> Subgroup:
    """x S x^-1, element by element."""
    G = S.parent
    return Subgroup(G, [G.conj(x, h) for h in S.elements], check=False)


def product_subgroup(ambient, pairs, check: bool = True) -> ProductSubgroup:
    """The subgroup of ambient = G x H given by explicit (left, right) pairs."""
    return ProductSubgroup(ambient,
                           [ambient.encode(a, b) for a, b in pairs],
                           check=check)


def rectangle(ambient, A, B) -> ProductSubgroup:
    """The full rectangle A x B inside G x H."""
    return ProductSubgroup(
        ambient,
        [ambient.encode(a, b) for a in A.elements for b in B.elements],
        check=False)


# -- fields ----------------------------------------------------------

def poly_eval(F, f, x):
    """f(x) by Horner's rule; coefficients are listed from degree 0."""
    out = 0
    for c in reversed(f):
        out = F.add(F.mul(out, x), c)
    return out


# -- cyclotomic numbers ----------------------------------------------

def complex_value(v, t: int = 1) -> complex:
    """A cyclotomic number in C: its power-basis coordinates summed
    against the powers of zeta_n^t, zeta_n = exp(2 pi i / n), in floating
    point.  With t prime to n this is the value of v.galois(t)."""
    return sum(float(c) * cmath.exp(2j * cmath.pi * k * t / v.n)
               for k, c in enumerate(v.coeffs))


def close(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-9 * (1 + abs(a) + abs(b))


def inflate(chi, pi):
    """Inflation along a surjection pi from the source to chi's group."""
    G = pi.source
    return ClassFunction(G, [chi.at(pi(cls[0]))
                             for cls in G.conjugacy_classes()])


# -- G-sets and bisets -----------------------------------------------

def regular_action(G) -> GAction:
    return GAction(G, G.row, size=G.order, check=False)


def total_size(dec) -> int:
    """Number of points of a G-set with this transitive decomposition."""
    return sum(m * (dec.group.order // len(el)) for el, m in dec.items)


def restriction_biset(S):
    """Restriction to a subgroup: the (S, G)-biset on G."""
    G = S.parent
    Hg = S.as_group()
    amb = product_group(Hg, G)
    X = ProductSubgroup(
        amb, [amb.encode(i, S.from_local(i)) for i in range(Hg.order)],
        check=False)
    return biset_coset(X)


def inflation_biset(G, N):
    """Inflation along G -> G/N as a (G, G/N)-biset."""
    Q, pi = quotient(G, N)
    amb = product_group(G, Q)
    X = ProductSubgroup(amb, [amb.encode(g, pi(g)) for g in range(G.order)],
                        check=False)
    return biset_coset(X)


# -- blocks ----------------------------------------------------------

def principal_block_index(table, blocks, field) -> int:
    """Index of the block containing the trivial character."""
    part = assign_characters_to_blocks(table, blocks, field)
    for bi, chars in enumerate(part):
        if 0 in chars:
            return bi
    raise AssertionError("trivial character matched no block")


def defect_group_by_enumeration(G, p, b, largest_rep=False) -> Subgroup:
    """A defect group of b from its definition: the largest classes of
    p-subgroups P with br_P(b) != 0, which must form one class.  br_P(b)
    is nonzero when a class on which b is nonzero meets C_G(P)."""
    coeffs, class_of = b.coeffs, G.class_index
    surviving = [P for P in p_subgroups_up_to_conjugacy(G, p)
                 if any(coeffs[class_of(g)]
                        for g in centralizer(G, P).elements)]
    top = max(P.order for P in surviving)
    tops = [P for P in surviving if P.order == top]
    if len(tops) != 1:
        raise AssertionError("defect groups must form a single class")
    return tops[0].canonical_conjugate(largest=largest_rep)


def pair_stabilizer(pipe) -> Subgroup:
    """The elements n of N_H(E) with n f n^-1 = f, for the local block f
    of the H side, tested on every element of C_H(E)."""
    H = pipe.H
    side = pipe.side_H
    C = side.C
    f_vec = side.e.to_vector()
    keep = [n for n in normalizer(H, side.D).elements
            if all(f_vec[C.to_local(H.conj(n, x))] == f_vec[i]
                   for i, x in enumerate(C.elements))]
    return Subgroup(H, keep, check=False)


def correspondent_iso_index(pipe):
    """Index of the first isomorphism C_G(D) -> H that carries br_D(b)
    onto the H-block, both expanded to vectors over the group elements
    and moved one element at a time; None if there is none."""
    H = pipe.H
    Cg = pipe.side_G.C.as_group()
    br = brauer_hom(pipe.side_G.block.to_vector(), pipe.side_G.D, pipe.field)
    target = pipe.side_H.block.to_vector()
    for k, iota in enumerate(isomorphisms(Cg, H)):
        moved = [0] * H.order
        for i in range(Cg.order):
            moved[iota(i)] = br[i]
        if moved == target:
            return k
    return None
