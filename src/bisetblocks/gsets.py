"""Finite group actions, bisets, and their tensor calculus.

A GAction maps each group element id to the permutation it induces on
0..size-1, given in full or as a row function whose rows are computed
on first lookup and kept, as the constructors of coset actions,
unions, products, tensor products, extended tensor products and
induced actions give them.  A (G, H)-biset is an action of
product_group(G, H), (g,h) acting as u |-> g.u.h^-1; that group's left
and right are its two sides.  Isomorphism of actions compares
transitive decompositions: the multiset of point-stabilizer classes,
each keyed by its smallest conjugate element tuple.  A coset action
G/S decomposes as the class of S and a union as its summands do, so
neither reads a row for it, and a coset action builds its coset map
when a row is first read.  Any other action reads only its
generators' rows, in one kept groups.sweep_orbits, which records each
point's orbit and a Schreier tree.  A stabilizer of a fixed point or of
a point of a regular orbit is read off the orbit's length; any other is
closed from the Schreier generators u_{s.y}^-1 s u_y until it has the
order the orbit gives it, with u_y, taking the orbit's least point to
y, formed from the tree for that orbit only.

The elementary bisets of induction and of deflation-restriction along
the pullback map are (G x H)/L for L the graph {(phi(z), z)} of a
homomorphism phi from Q <= H to G.  They are built on G x H/Q, the
pairs (x, tQ), as Bouc defines them on group elements (Biset Functors
for Finite Groups, LNM 1990, 2010, ch. 2): only the coset map of Q in
H is built, never that of L in G x H, and they decompose as the class
of L.  Every other coset biset is a coset action of its ambient.

Both tensor products are one quotient, U x V modulo a subgroup M of
the middle group H acting by t.(u, v) = (u.t^-1, t.v) (Bouc, ch. 2),
computed by one kernel, _balanced, one M-orbit of V at a time with no
pair formed: M is H for the tensor product over H, and the joint kernel
k2(X) & k1(Y) for the extended tensor product over X * Y.  For both,
TENSOR_POINT_CAP bounds the points of U times the M-orbits of V.
Transitive bisets also tensor by double cosets.  The extended tensor
product, its description as deflation-restriction along the pullback
map nu, and the double-coset formula for tensoring induced actions each
join their pair of subgroups over the middle group once, through
subdirect.middle_witnesses, and read the star, the joint kernel and the
pullback off that join; the two double-coset formulas share one
pullback of (X, Y).  An extended tensor product computes a row through
its first middle witness, and checks it through a second, when the row
is first read, so a decomposition computes only its generators' rows.
"""

from __future__ import annotations

from collections import Counter

from .groups import (FiniteGroup, ProductGroup, RowCache, Subgroup,
                     cached_attribute, double_cosets, full_subgroup,
                     product_group, span, sweep_orbits, transversal,
                     trivial_subgroup)
from .namedgroups import trivial_group
from .subdirect import (ProductSubgroup, PullbackData, middle_kernel,
                        middle_witnesses, pullback, star)

TENSOR_POINT_CAP = 10 ** 6


class GAction:
    """A left action of a finite group on points 0..size-1.

    rows[g] is the permutation of element g.  rows is given as one
    permutation per element, or as a function from an element id to its
    permutation tuple together with size; each row is then computed on
    its first lookup and kept.  The rows are trusted to form an action,
    as every constructor in the package trusts its caller.  classes,
    when given, returns the decomposition's classes with multiplicities
    as the constructor knows them, so no row is read for it.
    """

    def __init__(self, group: FiniteGroup, rows,
                 size: int | None = None, classes=None) -> None:
        self.group = group
        if callable(rows):
            if size is None:
                raise ValueError("a row function needs the number of points")
            self.rows = RowCache(rows)
            self.size = size
        else:
            self.rows = tuple(tuple(r) for r in rows)
            if len(self.rows) != group.order:
                raise ValueError("need one permutation per group element")
            self.size = len(self.rows[0]) if self.rows else 0
        self._classes = classes
        self._decomposition = None

    @cached_attribute
    def _sweep(self) -> tuple[list, list[int], list[list[int]], list]:
        """(rows, orbit_of, orbits, tree): the rows of the generators,
        and sweep_orbits over them."""
        rows = [self.rows[s] for s in self.group.generators]
        return (rows,) + sweep_orbits(self.size, rows)

    def stabilizer(self, x: int) -> Subgroup:
        """The stabilizer of x, closed from Schreier generators.

        A fixed point has all of G, and a point of a regular orbit the
        trivial group, by the orbit-stabilizer theorem.  Otherwise u_y,
        taking the orbit's least point x0 to y, is formed along the
        sweep's tree for this orbit alone; every u_{s.y}^-1 s u_y for a
        generator s fixes x0, and together they generate its stabilizer
        (Schreier's lemma).  Only those outside the span so far extend
        it, each at least doubling it, and none is formed once the span
        has order |G|/|orbit|, the whole stabilizer.  The stabilizer of
        x = u_x.x0 is its conjugate by u_x.
        """
        G = self.group
        rows, orbit_of, orbits, tree = self._sweep
        points = orbits[orbit_of[x]]
        if len(points) == 1:
            return full_subgroup(G)
        if len(points) == G.order:
            return trivial_subgroup(G)
        u = transversal(G, G.generators, points, tree, {})
        mul, inv = G.mul, G.inv
        schreier = (mul(inv(u[row[y]]), mul(s, u[y]))
                    for y in points for s, row in zip(G.generators, rows))
        elems = span(G, schreier, G.order // len(points))[1]
        if x != points[0]:
            elems = G.conjugates(u[x], elems)
        return Subgroup(G, elems)

    def fixed_points(self, elements) -> list[int]:
        """Points fixed by every listed group element."""
        return [x for x in range(self.size)
                if all(self.rows[g][x] == x for g in elements)]

    def decompose(self) -> "TransitiveDecomposition":
        if self._decomposition is None:
            items = (self._classes or self._classes_by_orbit)().items()
            self._decomposition = TransitiveDecomposition(self.group, items)
        return self._decomposition

    def _classes_by_orbit(self) -> Counter:
        """One canonical stabilizer class per orbit."""
        items: Counter = Counter()
        total = 0
        for points in self._sweep[2]:
            stab = self.stabilizer(points[0]).canonical_conjugate()
            items[stab.elements] += 1
            total += self.group.order // stab.order
        if total != self.size:
            raise AssertionError("orbit sizes fail the counting identity")
        return items


class TransitiveDecomposition:
    """Multiset of canonical stabilizer classes of a G-set, kept sorted."""

    def __init__(self, group: FiniteGroup, items) -> None:
        self.group = group
        self.items = tuple(sorted(items))

    def __eq__(self, other):
        return (isinstance(other, TransitiveDecomposition)
                and self.group.uid == other.group.uid
                and self.items == other.items)

    def __repr__(self):
        parts = ", ".join(f"{len(el)}^{m}" for el, m in self.items)
        return f"TransitiveDecomposition[{parts}]"


def iso_check(A: GAction, B: GAction) -> bool:
    """Decide isomorphism of two actions of the same group object."""
    if A.group.uid != B.group.uid:
        raise ValueError("actions live over different group objects")
    return A.decompose() == B.decompose()


# -- basic constructors ----------------------------------------------

def trivial_action(G: FiniteGroup, size: int = 1) -> GAction:
    return GAction(G, [tuple(range(size))] * G.order)


def coset_action(G: FiniteGroup, S: Subgroup) -> GAction:
    """Left translation on the cosets gS, numbered by minimal member.
    Its stabilizers are the conjugates of S, so it decomposes as the
    class of S, and its coset map is built when a row is first read."""
    reps = idx = None

    def row(g: int) -> tuple[int, ...]:
        nonlocal reps, idx
        if reps is None:
            reps, idx = S.coset_index_map()
        return tuple([idx[x] for x in G.left_products(g, reps)])
    return GAction(G, row, size=S.index,
                   classes=lambda: {S.canonical_conjugate().elements: 1})


def disjoint_union(*actions: GAction) -> GAction:
    if not actions:
        raise ValueError("need at least one action")
    G = actions[0].group
    if any(a.group.uid != G.uid for a in actions):
        raise ValueError("all summands must share the acting group")

    def row(g: int) -> tuple[int, ...]:
        out: list[int] = []
        offset = 0
        for a in actions:
            out.extend(offset + v for v in a.rows[g])
            offset += a.size
        return tuple(out)
    return GAction(G, row, size=sum(a.size for a in actions),
                   classes=lambda: sum((Counter(dict(a.decompose().items))
                                        for a in actions), Counter()))


def external_product(A: GAction, B: GAction) -> GAction:
    """The product action of G1 x G2 on pairs of points."""
    amb = product_group(A.group, B.group)
    na, nb = A.size, B.size

    def row(x: int) -> tuple[int, ...]:
        a, b = amb.decode(x)
        rb = B.rows[b]
        return tuple([u * nb + v for u in A.rows[a] for v in rb])
    return GAction(amb, row, size=na * nb)


def rebase_action(A: GAction, group: FiniteGroup) -> GAction:
    """Move an action to a group with the same element ids, as G to G x 1
    or a subgroup's local group to one built from another parent.  The
    orders, the identities and the rows of group.generators must agree:
    every element is a product of generators, so theirs fix every row
    (Light's test)."""
    if group is A.group:
        return A
    old = A.group
    if group.order != old.order or group.identity != old.identity or any(
            group.row(s) != old.row(s) for s in group.generators):
        raise ValueError("groups are not element-wise identical")
    return GAction(group, A.rows.__getitem__, size=A.size)


# -- bisets ----------------------------------------------------------

def biset_coset(X: ProductSubgroup) -> GAction:
    """The transitive biset of cosets of X inside its ambient product."""
    return coset_action(X.ambient, X)


# -- elementary bisets -----------------------------------------------

def _graph_biset(amb: ProductGroup, Q: Subgroup, phi) -> GAction:
    """The biset (G x H)/L of the graph L = {(phi(z), z) : z in Q} of a
    homomorphism phi from Q <= H to G, phi[i] being the image of the
    i-th element of Q.

    As k1(L) = 1, its points are the pairs (x, tQ) for x in G and t the
    least member of its coset of Q in H, the point (x, t) being the
    coset (x, t)L and numbered j * |G| + x for t the j-th such member.
    (g,1) sends (x, t) to (g.x, t); (1,h) sends it to (x.phi(b)^-1, t')
    where h.t = t'.b with b in Q; a mixed row composes the two.  Only
    the coset map of Q in H is built, and the biset decomposes as the
    class of L without reading a row.
    """
    G, H = amb.left, amb.right
    n, eG, eH = G.order, G.identity, H.identity
    L = ProductSubgroup(amb, map(amb.encode, phi, Q.elements))
    image = dict(zip(Q.elements, phi))
    reps, idx = Q.coset_index_map()
    inv_reps = [H.inv(t) for t in reps]

    def left_row(g: int) -> tuple[int, ...]:
        gr = G.row(g)
        return tuple([j + y for j in range(0, len(reps) * n, n) for y in gr])

    def right_row(h: int) -> tuple[int, ...]:
        out: list[int] = []
        for ht in H.left_products(h, reps):
            k = idx[ht]
            b = H.mul(inv_reps[k], ht)
            j = k * n
            out.extend([j + y for y in G.right_products(
                range(n), G.inv(image[b]))])
        return tuple(out)

    def row(x: int) -> tuple[int, ...]:
        g, h = amb.decode(x)
        if g == eG:
            return right_row(h)
        gr = left_row(g)
        return gr if h == eH else tuple([gr[p] for p in right_row(h)])
    return GAction(amb, row, size=len(reps) * n,
                   classes=lambda: {L.canonical_conjugate().elements: 1})


def induction_biset(S: Subgroup) -> GAction:
    """Induction from a subgroup: the (G, H)-biset on G with H = S, the
    cosets of the graph of the inclusion of H into G."""
    Sg = S.as_group()
    return _graph_biset(product_group(S.parent, Sg), full_subgroup(Sg),
                        S.elements)


# -- tensor products -------------------------------------------------

def _balanced(H: FiniteGroup, gens, order: int, nu: int, nv: int,
              urow, vrow):
    """U x V modulo a subgroup M of H acting by t.(u, v) = (u.t^-1, t.v).

    M is generated by gens and has the given order; urow(t) is the row
    of u |-> u.t^-1 on U and vrow(t) that of v |-> t.v on V.  The
    quotient is the union, over representatives v0 of the M-orbits of V,
    of U/Stab_M(v0), the pair (u, v) being the class of (u.t_v, v0) with
    t_v.v0 = v.  One sweep of V records each orbit and a Schreier tree,
    which gives every t_v.  A free orbit contributes the points of U as
    they are; any other the orbits on U, a second sweep, of its Schreier
    elements t_{s.y}^-1 s t_y.  Points are numbered orbit by orbit of V.
    More than TENSOR_POINT_CAP points of U times orbits of V raise
    ValueError right after the sweep of V.  Returns (size, classes):
    classes(ur, vr) is the row of an element acting by ur on U and vr on
    V that permutes the classes, sending that of (u, v) to that of
    (ur[u], vr[v]).
    """
    e, mul, inv = H.identity, H.mul, H.inv
    # orbit_of[v] numbers the M-orbit of v and trans[v] is t_v
    rows = [vrow(s) for s in gens]
    orbit_of, orbits, tree = sweep_orbits(nv, rows)
    if nu * len(orbits) > TENSOR_POINT_CAP:
        raise ValueError(f"tensor product exceeds {TENSOR_POINT_CAP} points")
    trans = [e] * nv
    # per orbit of V: its labels on U (None when the orbit is free) and
    # one point of U per label
    parts, ureps = [], []
    size = 0
    for points in orbits:
        if len(points) > 1:
            transversal(H, gens, points, tree, trans)
        if len(points) == order:
            label, urep = None, range(nu)
        else:
            schreier = {mul(inv(trans[r[y]]), mul(s, trans[y]))
                        for y in points for s, r in zip(gens, rows)}
            schreier.discard(e)
            # the rows of s^-1 have the orbits of the rows of s
            label, uorbits, _ = sweep_orbits(nu, [urow(s) for s in schreier])
            urep = [upoints[0] for upoints in uorbits]
        parts.append((size, label))
        ureps.append(urep)
        size += len(urep)
    # u.t is read off the row of t^-1, kept per t
    right_by = {e: tuple(range(nu))}

    def classes(ur, vr) -> tuple[int, ...]:
        out: list[int] = []
        for points, urep in zip(orbits, ureps):
            v = vr[points[0]]
            t = trans[v]
            tr = right_by.get(t)
            if tr is None:
                tr = right_by[t] = urow(inv(t))
            off, label = parts[orbit_of[v]]
            if label is None:
                out.extend([off + tr[w] for w in ur])
            else:
                out.extend([off + label[tr[ur[u]]] for u in urep])
        return tuple(out)
    return size, classes


def tensor_direct(U: GAction, V: GAction) -> GAction:
    """The tensor product of a (G, H)- and an (H, K)-biset over H:
    _balanced with M = H, read through (1, h) on U and (h, 1) on V.
    (g,k) acts through (g, 1) on U and (1, k) on V, which commute with H."""
    GH, HK = U.group, V.group
    if GH.right is not HK.left:
        raise ValueError("tensor requires matching middle group")
    H = GH.right
    Urows, Vrows = U.rows, V.rows
    Uenc, Venc = GH.encode, HK.encode
    eG, e, eK = GH.left.identity, H.identity, HK.right.identity
    size, classes = _balanced(H, H.generators, H.order, U.size, V.size,
                              lambda t: Urows[Uenc(eG, t)],
                              lambda t: Vrows[Venc(t, eK)])
    amb = product_group(GH.left, HK.right)

    def row(x: int) -> tuple[int, ...]:
        g, k = amb.decode(x)
        return classes(Urows[Uenc(g, e)], Vrows[Venc(e, k)])
    return GAction(amb, row, size=size)


def tensor_mackey(X: ProductSubgroup, Y: ProductSubgroup
                  ) -> TransitiveDecomposition:
    """Decomposition of (cosets of X) tensor (cosets of Y) by double cosets.

    One summand per double coset p2(X) h p1(Y) of the middle group, with
    stabilizer X * (h,1)-conjugate of Y.
    """
    if X.ambient.right is not Y.ambient.left:
        raise ValueError("matching middle group required")
    H = X.ambient.right
    amb_out = product_group(X.ambient.left, Y.ambient.right)
    items: Counter = Counter()
    for h in double_cosets(H, X.p2, Y.p1):
        pid = Y.ambient.encode(h, Y.ambient.right.identity)
        Z = star(X, Y.conjugated_by_pair(pid))
        items[Z.canonical_conjugate().elements] += 1
    return TransitiveDecomposition(amb_out, items.items())


def extended_tensor(X: ProductSubgroup, Y: ProductSubgroup,
                    U: GAction, V: GAction, *, witnesses=None) -> GAction:
    """Tensor an X-set and a Y-set into an (X * Y)-set.

    Points are orbits of pairs under the joint kernel M = k2(X) & k1(Y),
    from _balanced.  (g,k) acts through any middle witness h with (g,h)
    in X and (h,k) in Y, which normalizes M.  A row is computed through
    the first witness when it is first read, and recomputed through a
    second where one exists and compared.  witnesses, when given, is
    middle_witnesses(X, Y).
    """
    if U.group is not X.as_group() or V.group is not Y.as_group():
        raise ValueError("U and V must be actions of the local groups")
    if witnesses is None:
        witnesses = middle_witnesses(X, Y)
    XH, HK = X.ambient, Y.ambient
    e, eG, eK = XH.right.identity, XH.left.identity, HK.right.identity
    ker = middle_kernel(X, Y, witnesses)
    # t.(u, v) = (u.t^-1, t.v) through (1,t) in X and (t,1) in Y
    size, classes = _balanced(
        XH.right, [t for t in ker.elements if t != e], ker.order,
        U.size, V.size, lambda t: U.rows[X.to_local(XH.encode(eG, t))],
        lambda t: V.rows[Y.to_local(HK.encode(t, eK))])
    S = star(X, Y, witnesses)
    pairs = S.pairs()

    def row_via(g: int, k: int, h: int) -> tuple[int, ...]:
        return classes(U.rows[X.to_local(XH.encode(g, h))],
                       V.rows[Y.to_local(HK.encode(h, k))])

    def row(i: int) -> tuple[int, ...]:
        g, k = pairs[i]
        hs = witnesses[(g, k)]
        out = row_via(g, k, hs[0])
        if len(hs) > 1 and out != row_via(g, k, hs[1]):
            raise AssertionError("middle witness changed the action")
        return out
    return GAction(S.as_group(), row, size=size)


def defres_biset(data: PullbackData) -> GAction:
    """Deflation-restriction along the pullback map, as a biset.

    The (X*Y, X x Y)-biset of cosets of the graph {(nu(z), z)} of the
    natural surjection nu from the pullback X x_H Y onto X * Y.
    """
    return _graph_biset(product_group(data.star_subgroup.as_group(),
                                      data.pullback.ambient),
                        data.pullback, data.nu)


def defres_description(X: ProductSubgroup, Y: ProductSubgroup,
                       U: GAction, V: GAction) -> dict:
    """Both sides of the extended tensor as the deflation-restriction of
    the plain product: the X x Y-set U x V, moved to (X x Y) x 1, is
    tensored with the defres biset, and the result moved back to X * Y."""
    data = pullback(X, Y)
    lhs = extended_tensor(X, Y, U, V, witnesses=data.witnesses)
    UV = external_product(U, V)
    UV1 = rebase_action(UV, product_group(UV.group, trivial_group()))
    rhs = rebase_action(tensor_direct(defres_biset(data), UV1),
                        lhs.group)
    return {"lhs": lhs, "rhs": rhs}


# -- induction of one-sided actions ----------------------------------

def induced_action(G: FiniteGroup, S: Subgroup, U: GAction) -> GAction:
    """Induce an S.as_group()-set to G along the inclusion.

    Points are (coset representative, point of U); g moves (t, u) to
    (t', s.u) where g t = t' s with t' the chosen representative.  The
    rows are computed when read.
    """
    if S.parent is not G:
        raise ValueError("S must be a subgroup of G")
    U = rebase_action(U, S.as_group())
    reps, idx = S.coset_index_map()
    inv_reps = [G.inv(t) for t in reps]
    n = U.size

    def row(g: int) -> tuple[int, ...]:
        out: list[int] = []
        for gt in G.left_products(g, reps):
            tj = idx[gt]
            sr = U.rows[S.to_local(G.mul(inv_reps[tj], gt))]
            out.extend([tj * n + u for u in sr])
        return tuple(out)
    return GAction(G, row, size=len(reps) * n)


def conjugated_action(X: ProductSubgroup, x: int, U: GAction
                      ) -> tuple[ProductSubgroup, GAction]:
    """Transport an X-set along conjugation by an ambient element x.

    Returns the conjugate subgroup xXx^-1 with the transported action,
    where a in xXx^-1 acts as x^-1 a x did.
    """
    G = X.ambient
    Xc = X.conjugated_by_pair(x)
    xinv = G.inv(x)
    rows = [U.rows[X.to_local(e)] for e in G.conjugates(xinv, Xc.elements)]
    return Xc, GAction(Xc.as_group(), rows)


def sub_in_local(outer: ProductSubgroup, inner: ProductSubgroup) -> Subgroup:
    """inner viewed as a subgroup of outer.as_group()."""
    if not inner.element_set <= outer.element_set:
        raise ValueError("inner must be contained in outer")
    return Subgroup(outer.as_group(), map(outer.to_local, inner.elements))


def _pullback_double_cosets(X: ProductSubgroup, Y: ProductSubgroup,
                            Xp: ProductSubgroup, Yp: ProductSubgroup):
    """What both double-coset formulas start from.

    Returns the pullback of X and Y, the rectangle Xp x Yp inside its
    ambient X x Y, and one representative (x, y), as ambient elements,
    of each double coset of the pullback and the rectangle there.
    """
    if not (Xp.element_set <= X.element_set
            and Yp.element_set <= Y.element_set):
        raise ValueError("Xp, Yp must be subgroups of X, Y")
    data = pullback(X, Y)
    PG = data.pullback.ambient
    rect = Subgroup(PG, [PG.encode(X.to_local(e), Y.to_local(f))
                         for e in Xp.elements for f in Yp.elements])
    reps = [(X.from_local(lx), Y.from_local(ly)) for lx, ly in
            map(PG.decode, double_cosets(PG, data.pullback, rect))]
    return data, rect, reps


def extended_induction_formula(X: ProductSubgroup, Y: ProductSubgroup,
                               Xp: ProductSubgroup, Yp: ProductSubgroup,
                               U: GAction, V: GAction) -> dict:
    """Compare both sides of the double-coset formula for tensoring
    induced actions.

    The left side is the extended tensor of the inductions of U and V to
    X and Y.  The right side runs over double cosets of the pullback
    X x_H Y and Xp x Yp inside X x Y; each representative (x, y)
    contributes the induction, from the star of the conjugated
    subgroups, of the extended tensor of the conjugated actions.
    """
    data, _, reps = _pullback_double_cosets(X, Y, Xp, Yp)
    IndU = induced_action(X.as_group(), sub_in_local(X, Xp), U)
    IndV = induced_action(Y.as_group(), sub_in_local(Y, Yp), V)
    lhs = extended_tensor(X, Y, IndU, IndV, witnesses=data.witnesses)

    S = data.star_subgroup
    Sg = S.as_group()
    terms = []
    for x, y in reps:
        Xc, Uc = conjugated_action(Xp, x, U)
        Yc, Vc = conjugated_action(Yp, y, V)
        wc = middle_witnesses(Xc, Yc)
        T = extended_tensor(Xc, Yc, Uc, Vc, witnesses=wc)
        terms.append(induced_action(Sg, sub_in_local(S, star(Xc, Yc, wc)),
                                    T))
    rhs = disjoint_union(*terms) if terms else trivial_action(Sg, 0)
    return {"lhs": lhs, "rhs": rhs, "double_coset_count": len(terms)}


def tensor_induced_bisets_formula(X: ProductSubgroup, Y: ProductSubgroup,
                                  Xp: ProductSubgroup, Yp: ProductSubgroup
                                  ) -> dict:
    """Biset form of the same double-coset formula.

    Left side: deflation-restriction along the pullback map composed
    with induction from Xp x Yp.  Right side, per double coset (x, y):
    induction from the star of the conjugates, composed with their
    deflation-restriction and with conjugation back by (x, y).  Each
    right-hand composite is transitive, so it is built directly as the
    coset biset of its stabilizer {(nu(w), (x,y)^-1 w (x,y))}, w over
    the pullback of the conjugated subgroups, read off their witnesses.
    """
    data, rect, reps = _pullback_double_cosets(X, Y, Xp, Yp)
    lhs = tensor_direct(defres_biset(data), induction_biset(rect))

    S = data.star_subgroup
    amb_out = product_group(S.as_group(), rect.as_group())
    GH, HK, GK = X.ambient, Y.ambient, S.ambient
    PG = data.pullback.ambient
    parts = []
    for x, y in reps:
        xinv, yinv = GH.inv(x), HK.inv(y)
        elems = []
        for (g, k), hs in middle_witnesses(Xp.conjugated_by_pair(x),
                                           Yp.conjugated_by_pair(y)).items():
            left_loc = S.to_local(GK.encode(g, k))
            for h in hs:
                e0 = GH.conj(xinv, GH.encode(g, h))
                f0 = HK.conj(yinv, HK.encode(h, k))
                right_loc = rect.to_local(
                    PG.encode(X.to_local(e0), Y.to_local(f0)))
                elems.append(amb_out.encode(left_loc, right_loc))
        parts.append(biset_coset(ProductSubgroup(amb_out, elems)))
    return {"lhs": lhs, "rhs": disjoint_union(*parts),
            "double_coset_count": len(parts)}


def dual_biset(U: GAction) -> GAction:
    """The (H, G)-biset on the points of a (G, H)-biset U: h acts on the
    left as h^-1 did on the right and g on the right as g^-1 did on the
    left, so (h,g) acts as (g,h) did; the swap is a homomorphism."""
    GH = U.group
    amb = product_group(GH.right, GH.left)
    rows, encode = U.rows, GH.encode

    def row(x: int) -> tuple[int, ...]:
        h, g = amb.decode(x)
        return rows[encode(g, h)]
    return GAction(amb, row, size=U.size)
