"""References and helpers that only the tests use.

The package has no caller for anything here.  Most entries are oracles
written from the definition, element by element, so that they share no
algorithm with the code they check; the others build inputs for tests.
"""

import cmath
from fractions import Fraction
from math import lcm

from bisetblocks.blocks import assign_characters_to_blocks, brauer_hom
from bisetblocks.characters import ClassFunction
from bisetblocks.cyclotomic import Cyclotomic
from bisetblocks.gf import mat_rank
from bisetblocks.groups import (Subgroup, centralizer, extend_subgroup,
                                int_p_part, isomorphisms, normalizer, orbit,
                                p_subgroups_up_to_conjugacy, product_group,
                                quotient, subgroup_generated)
from bisetblocks.gsets import BisetView, GAction, biset_coset, rebase_action
from bisetblocks.subdirect import (ProductSubgroup, middle_kernel,
                                   middle_witnesses, star)


# -- groups ----------------------------------------------------------

def permutations(G) -> list:
    """The permutation of each element of a permutation group, by id."""
    return [G.permutation(g) for g in range(G.order)]


def dense_table(G) -> list:
    """The Cayley table of a permutation group, composed point by point:
    row a, column b is the id of k -> a[b[k]]."""
    perms = permutations(G)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple([a[k] for k in b])] for b in perms] for a in perms]


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


def sylow_by_normalizers(G, p: int) -> Subgroup:
    """A Sylow p-subgroup grown from the trivial one: each step builds
    the whole normalizer N(P) and extends P by the first g of N(P) in id
    order with g outside P and g^p in P."""
    P = Subgroup(G, [G.identity])
    while P.order < int_p_part(G.order, p):
        g = next(g for g in normalizer(G, P).elements
                 if g not in P and G.power(g, p) in P)
        P = subgroup_generated(G, P.elements + (g,))
    return P


def conjugate_subgroup(S, x: int) -> Subgroup:
    """x S x^-1, element by element."""
    G = S.parent
    return Subgroup(G, [G.conj(x, h) for h in S.elements])


def hom_kernel(h) -> Subgroup:
    """The elements that the homomorphism h sends to the identity."""
    e = h.target.identity
    return Subgroup(h.source,
                    [g for g in range(h.source.order) if h.images[g] == e])


def product_subgroup(ambient, pairs) -> ProductSubgroup:
    """The subgroup of ambient = G x H given by explicit (left, right) pairs."""
    return ProductSubgroup(ambient, [ambient.encode(a, b) for a, b in pairs])


def rectangle(ambient, A, B) -> ProductSubgroup:
    """The full rectangle A x B inside G x H."""
    return ProductSubgroup(
        ambient,
        [ambient.encode(a, b) for a in A.elements for b in B.elements])


# -- checks of what a constructor trusts ------------------------------

def check_subgroup(S) -> None:
    """Raise ValueError unless S holds the identity and is closed under
    inverses and products, tested on every pair."""
    if S.parent.identity not in S.element_set:
        raise ValueError("subgroup is missing the identity")
    mul = S.parent.mul
    for a in S.elements:
        if S.parent.inv(a) not in S.element_set:
            raise ValueError("subgroup is not closed under inverses")
        for b in S.elements:
            if mul(a, b) not in S.element_set:
                raise ValueError("subgroup is not closed under products")


def check_hom(h) -> None:
    """Exact: images[a*s] == images[a]*images[s] for every a and each
    generator s gives images[a*b] == images[a]*images[b] for every
    b = s1...sk, by induction on k."""
    if h.images[h.source.identity] != h.target.identity:
        raise ValueError("homomorphism must preserve the identity")
    src, tgt, im = h.source, h.target, h.images
    for s in src.generators:
        for a in range(src.order):
            if im[src.mul(a, s)] != tgt.mul(im[a], im[s]):
                raise ValueError("map is not multiplicative")


def check_action(A) -> None:
    """Exact: rows[s*b] == rows[s] o rows[b] for each generator s and
    every b gives rows[a*b] == rows[a] o rows[b] for all a, by
    induction on the length of a as a word in the generators."""
    G, rows = A.group, A.rows
    points = tuple(range(A.size))
    if rows[G.identity] != points:
        raise ValueError("identity must act trivially")
    for b in range(G.order):
        if tuple(sorted(rows[b])) != points:
            raise ValueError("each element must act by a permutation")
    for s in G.generators:
        rs, ts = rows[s], G.row(s)
        for b in range(G.order):
            if rows[ts[b]] != tuple(rs[x] for x in rows[b]):
                raise ValueError("action is not compatible with products")


def product_subgroup_parts(X) -> tuple:
    """(p1, p2, k1, k2) of X, decoded together in one pass over X."""
    G, H = X.ambient.left, X.ambient.right
    lefts, rights, k1, k2 = set(), set(), [], []
    for x in X.elements:
        a, b = X.ambient.decode(x)
        lefts.add(a)
        rights.add(b)
        if b == H.identity:
            k1.append(a)
        if a == G.identity:
            k2.append(b)
    return (Subgroup(G, lefts), Subgroup(H, rights), Subgroup(G, k1),
            Subgroup(H, k2))


def star_by_pairs(X, Y) -> set:
    """The pairs (g, k) of X * Y, testing every pair of X and Y."""
    return set(pullback_by_pairs(X, Y).values())


def pullback_by_pairs(X, Y) -> dict:
    """The pullback X x_H Y, testing every pair of X and Y: each pair
    (x, y) of ambient elements with a common middle, mapped to the pair
    (g, k) that nu sends it to."""
    out = {}
    for x in X.elements:
        g, h = X.ambient.decode(x)
        for y in Y.elements:
            h2, k = Y.ambient.decode(y)
            if h == h2:
                out[x, y] = (g, k)
    return out


def check_kernels_normal(X) -> None:
    """Raise AssertionError unless k1(X) is normal in p1(X) and k2(X)
    in p2(X), tested on every pair."""
    G, H = X.ambient.left, X.ambient.right
    for g in X.p1.elements:
        for n in X.k1.elements:
            if G.conj(g, n) not in X.k1.element_set:
                raise AssertionError("k1 must be normal in p1")
    for h in X.p2.elements:
        for n in X.k2.elements:
            if H.conj(h, n) not in X.k2.element_set:
                raise AssertionError("k2 must be normal in p2")


# -- fields ----------------------------------------------------------

def poly_eval(F, f, x):
    """f(x) by Horner's rule; coefficients are listed from degree 0."""
    out = 0
    for c in reversed(f):
        out = F.add(F.mul(out, x), c)
    return out


# -- cyclotomic numbers ----------------------------------------------

def zeta(n: int, k: int = 1):
    """The root of unity zeta_n^k."""
    return Cyclotomic.from_exponents(n, [0] * (k % n) + [1])


def cyclotomic(n: int, coords):
    """The element of conductor n with the given rational coordinates
    over the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1), kept over
    conductor n even when it is rational."""
    coords = [Fraction(c) for c in coords]
    den = lcm(1, *(c.denominator for c in coords))
    return (Cyclotomic.from_exponents(n, [int(c * den) for c in coords])
            * Fraction(1, den)).lift(n)


def conjugate(v):
    """Complex conjugation, zeta_n |-> zeta_n^-1."""
    return v.galois(v.n - 1) if v.n > 1 else v


def complex_value(v, t: int = 1) -> complex:
    """A cyclotomic number in C: its power-basis coordinates summed
    against the powers of zeta_n^t, zeta_n = exp(2 pi i / n), in floating
    point.  With t prime to n this is the value of v.galois(t)."""
    return sum(float(c) * cmath.exp(2j * cmath.pi * k * t / v.n)
               for k, c in enumerate(v.coeffs))


def power_by_long_division(phi, k: int) -> tuple[int, ...]:
    """The coordinates of z^k over 1, z, ..., z^(d-1) for z a root of
    the monic int polynomial phi of degree d (little-endian): the
    remainder of x^k on long division by phi, one leading term at a
    time."""
    d = len(phi) - 1
    terms = [(i, c) for i, c in enumerate(phi[:d]) if c]
    rem = [0] * max(k + 1, d)
    rem[k] = 1
    for top in range(k, d - 1, -1):
        lead = rem[top]
        if lead:
            rem[top] = 0
            for i, c in terms:
                rem[top - d + i] -= lead * c
    return tuple(rem[:d])


def close(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-9 * (1 + abs(a) + abs(b))


def value_at(chi, g: int):
    """The value of the class function chi at the element g."""
    return chi.values[chi.group.class_index(g)]


def inflate(chi, pi):
    """Inflation along a surjection pi from the source to chi's group."""
    G = pi.source
    return ClassFunction(G, [value_at(chi, pi(cls[0]))
                             for cls in G.conjugacy_classes()])



# -- class functions, exactly ----------------------------------------
#
# Element sums straight from the definitions, in Cyclotomic arithmetic
# on the values read off each class function, one value per class of
# the group the result lives on.

def _by_element(chi) -> list:
    return [value_at(chi, g) for g in range(chi.group.order)]


def induce_by_elements(chi, S) -> list:
    """Ind chi(g) = |S|^-1 sum over x in G with x^-1 g x in S."""
    G = S.parent
    local = _by_element(chi)
    out = []
    for cls in G.conjugacy_classes():
        total = Cyclotomic.from_rational(0)
        for x in range(G.order):
            y = G.conj(G.inv(x), cls[0])
            if y in S.element_set:
                total = total + local[S.to_local(y)]
        out.append(total * Fraction(1, S.order))
    return out


def inner_product_by_elements(a, b):
    """|G|^-1 sum over g of a(g) conj(b(g))."""
    total = Cyclotomic.from_rational(0)
    for x, y in zip(_by_element(a), _by_element(b)):
        total = total + x * conjugate(y)
    return total * Fraction(1, a.group.order)


def contract_over_middle_by_elements(mu1, mu2, amb1, amb2, out_group):
    """At (g,k): |H|^-1 sum over h of mu1(g,h) mu2(h,k)."""
    H = amb1.right
    m1, m2 = _by_element(mu1), _by_element(mu2)
    out = []
    for cls in out_group.conjugacy_classes():
        g, k = out_group.decode(cls[0])
        total = Cyclotomic.from_rational(0)
        for h in range(H.order):
            total = total + m1[amb1.encode(g, h)] * m2[amb2.encode(h, k)]
        out.append(total * Fraction(1, H.order))
    return out


def contract_extended_by_elements(X, Y, chi_m, chi_n, S):
    """At (g,k) in S = X * Y: the sum over h with (g,h) in X and (h,k) in
    Y, divided by the number of h with (1,h) in X and (h,1) in Y."""
    H = X.ambient.right
    G, K = X.ambient.left, Y.ambient.right
    vm, vn = _by_element(chi_m), _by_element(chi_n)
    kernel = sum(1 for h in range(H.order)
                 if X.ambient.encode(G.identity, h) in X.element_set
                 and Y.ambient.encode(h, K.identity) in Y.element_set)
    out = []
    for cls in S.as_group().conjugacy_classes():
        g, k = S.parent.decode(S.from_local(cls[0]))
        total = Cyclotomic.from_rational(0)
        for h in range(H.order):
            x, y = X.ambient.encode(g, h), Y.ambient.encode(h, k)
            if x in X.element_set and y in Y.element_set:
                total = total + vm[X.to_local(x)] * vn[Y.to_local(y)]
        out.append(total * Fraction(1, kernel))
    return out

# -- G-sets and bisets -----------------------------------------------

def union_find_labels(size, rows) -> tuple:
    """(label, reps): the orbits of the permutations rows on 0..size-1,
    merged pair by pair (x, row[x]) in a union-find forest whose root is
    always the least point of its set; orbits are numbered by their
    least points, which are the reps, in increasing order."""
    parent = list(range(size))

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x
    for row in rows:
        for x in range(size):
            a, b = root(x), root(row[x])
            if a != b:
                parent[max(a, b)] = min(a, b)
    roots = [root(x) for x in range(size)]
    reps = sorted(set(roots))
    number = {r: i for i, r in enumerate(reps)}
    return [number[r] for r in roots], reps


def regular_action(G) -> GAction:
    return GAction(G, G.row, size=G.order)


def stabilizer_by_all_schreier_generators(A, x) -> Subgroup:
    """The stabilizer of x closed from every Schreier generator u_{s.y}^-1
    s u_y of the orbit tree, with no stop at the order |G|/|orbit|."""
    G = A.group
    gens = [(s, A.rows[s]) for s in G.generators]
    points, tree = orbit(x, gens, lambda y, gen: gen[1][y])
    u = {x: G.identity}
    for y in points[1:]:
        z, k = tree[y]
        u[y] = G.mul(gens[k][0], u[z])
    elems, members, found = [G.identity], {G.identity}, []
    for y in points:
        for s, row in gens:
            w = G.mul(G.inv(u[row[y]]), G.mul(s, u[y]))
            if w not in members:
                found.append(w)
                elems = extend_subgroup(G, elems, members, found)
    return Subgroup(G, elems)


def tensor_by_pairs(U, V) -> BisetView:
    """The tensor product over the middle group as orbits of all nu*nv
    pairs (u, v) under h.(u, v) = (u.h^-1, h.v), one label per pair."""
    H = U.ambient.right
    nu, nv = U.size, V.size
    Urows, Vrows = U.action.rows, V.action.rows
    Uenc, Venc = U.ambient.encode, V.ambient.encode
    glue = []
    for h in H.generators:
        if h == H.identity:
            continue
        # h.(u, v) = (u.h^-1, h.v): both via the (1,h) / (h,1) actions;
        # the generators of H have the orbits of H.
        ur = Urows[Uenc(U.left.identity, h)]
        vr = Vrows[Venc(h, V.right.identity)]
        glue.append([x * nv + y for x in ur for y in vr])
    label, reps = union_find_labels(nu * nv, glue)
    amb = product_group(U.left, V.right)

    def row(x: int) -> tuple[int, ...]:
        g, k = amb.decode(x)
        gr = Urows[Uenc(g, H.identity)]
        kr = Vrows[Venc(H.identity, k)]
        return tuple([label[gr[r // nv] * nv + kr[r % nv]] for r in reps])
    return BisetView(amb, GAction(amb, row, size=len(reps)))


def induced_action_eager(G, S, U) -> GAction:
    """Induction of an S.as_group()-set to G with every row built at
    once, one product at a time."""
    Sg = S.as_group()
    if U.group is not Sg:
        U = rebase_action(U, Sg)
    reps, idx = S.coset_index_map()
    n = U.size
    rows = []
    for g in range(G.order):
        row = []
        for t in reps:
            gt = G.mul(g, t)
            tj = idx[gt]
            sr = U.rows[S.to_local(G.mul(G.inv(reps[tj]), gt))]
            row.extend(tj * n + sr[u] for u in range(n))
        rows.append(tuple(row))
    return GAction(G, rows)


def extended_tensor_eager(X, Y, U, V) -> GAction:
    """The extended tensor of an X-set U and a Y-set V with every row
    built at once: the orbits of all pairs (u, v) under the joint kernel,
    and each row computed through the first middle witness and checked
    against the second."""
    witnesses = middle_witnesses(X, Y)
    H = X.ambient.right
    nu, nv = U.size, V.size
    glue = []
    for t in middle_kernel(X, Y, witnesses).elements:
        if t == H.identity:
            continue
        ur = U.rows[X.to_local(X.ambient.encode(X.ambient.left.identity, t))]
        vr = V.rows[Y.to_local(Y.ambient.encode(t, Y.ambient.right.identity))]
        glue.append([x * nv + y for x in ur for y in vr])
    label, reps = union_find_labels(nu * nv, glue)

    def row_via(g, k, h):
        ur = U.rows[X.to_local(X.ambient.encode(g, h))]
        vr = V.rows[Y.to_local(Y.ambient.encode(h, k))]
        return tuple(label[ur[r // nv] * nv + vr[r % nv]] for r in reps)

    S = star(X, Y, witnesses)
    rows = []
    for g, k in S.pairs():
        hs = witnesses[g, k]
        row = row_via(g, k, hs[0])
        if len(hs) > 1 and row != row_via(g, k, hs[1]):
            raise AssertionError("middle witness changed the action")
        rows.append(row)
    return GAction(S.as_group(), rows)


def induction_biset_by_cosets(S) -> BisetView:
    """Induction from S as the coset biset of the graph of the inclusion
    inside G x S, built through the coset map of the whole product."""
    amb = product_group(S.parent, S.as_group())
    return biset_coset(ProductSubgroup(
        amb, map(amb.encode, S.elements, range(S.order))))


def defres_biset_by_cosets(data) -> BisetView:
    """Deflation-restriction along the pullback map as the coset biset of
    the graph of nu, built through the coset map of the whole product."""
    amb = product_group(data.star_subgroup.as_group(), data.pullback.ambient)
    return biset_coset(ProductSubgroup(
        amb, map(amb.encode, data.nu, data.pullback.elements)))


def total_size(dec) -> int:
    """Number of points of a G-set with this transitive decomposition."""
    return sum(m * (dec.group.order // len(el)) for el, m in dec.items)


def subgroup_classes_by_cyclic_joins(G) -> list:
    """One (elements, generators) per conjugacy class of subgroups of G.

    Every subgroup is a join of cyclic ones, so the cyclic subgroups are
    joined with one more element until no new subgroup appears; each
    join is closed by right multiplication from the identity.  Two
    subgroups are conjugate when some element of G carries one onto the
    other, tried element by element.
    """
    def closure(gens) -> frozenset:
        elems, new = {G.identity}, [G.identity]
        for x in new:
            for s in gens:
                y = G.mul(x, s)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        return frozenset(elems)

    found: dict = {}
    for g in range(G.order):
        found.setdefault(closure([g]), (g,))
    level = list(found)
    while level:
        nxt = []
        for S in level:
            for g in range(G.order):
                if g not in S:
                    J = closure(found[S] + (g,))
                    if J not in found:
                        found[J] = found[S] + (g,)
                        nxt.append(J)
        level = nxt
    classes, seen = [], set()
    for S in sorted(found, key=lambda S: (len(S), sorted(S))):
        if S not in seen:
            seen.update(frozenset(G.mul(G.mul(x, s), G.inv(x)) for s in S)
                        for x in range(G.order))
            classes.append((S, found[S]))
    return classes


def marks_mismatches(A, items, classes) -> list:
    """The subgroups S of classes, as subgroup_classes_by_cyclic_joins
    gives them for A's group, at which the mark |X^S| of the action A,
    counted from rows, differs from sum m |(G/T)^S| over the transitive
    classes (T, m) of items (Burnside: the marks decide a G-set up to
    isomorphism; Pfeiffer, Exp. Math. 6, 1997).

    |(G/T)^S| counts the cosets gT with g^-1 S g inside T.
    """
    G = A.group
    out = []
    for S, gens in classes:
        rows = [A.rows[s] for s in gens]
        fixed = sum(all(r[x] == x for r in rows) for x in range(A.size))
        expected = 0
        for T, m in items:
            inside = frozenset(T).__contains__
            into = sum(all(inside(G.mul(G.mul(G.inv(g), s), g)) for s in gens)
                       for g in range(G.order))
            expected += m * into // len(T)
        if fixed != expected:
            out.append(sorted(S))
    return out


def restriction_biset(S):
    """Restriction to a subgroup: the (S, G)-biset on G."""
    G = S.parent
    Hg = S.as_group()
    amb = product_group(Hg, G)
    X = ProductSubgroup(
        amb, [amb.encode(i, S.from_local(i)) for i in range(Hg.order)])
    return biset_coset(X)


def inflation_biset(G, N):
    """Inflation along G -> G/N as a (G, G/N)-biset."""
    Q, pi = quotient(G, N)
    amb = product_group(G, Q)
    X = ProductSubgroup(amb, [amb.encode(g, pi(g)) for g in range(G.order)])
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


def coset_module_rank_by_elements(F, G, vec, P) -> int:
    """Rank of sum c z on F_q[G/P] for the coefficient vector vec over
    G: every element z of the support moves every coset, one product at
    a time, and each coset is named by its smallest element."""
    name = [min(G.mul(g, h) for h in P.elements) for g in range(G.order)]
    cosets = sorted(set(name))
    pos = {t: i for i, t in enumerate(cosets)}
    M = [[0] * len(cosets) for _ in cosets]
    for z, c in enumerate(vec):
        if c:
            for image, t in zip(M, cosets):
                i = pos[name[G.mul(z, t)]]
                image[i] = F.add(image[i], c)
    return mat_rank(F, M)


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
    return Subgroup(H, keep)


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
