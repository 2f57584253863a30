"""Finite group actions, bisets, and their tensor calculus.

A GAction maps each group element id to the permutation it induces on
0..size-1.  Its rows are given either in full or as a row function,
whose rows are computed on first lookup and kept; the constructors of
coset actions, unions, products, tensor products and induced actions
give row functions.  Orbits read only the rows of the group's
generators, and a stabilizer is closed from the Schreier generators of
its groups.orbit tree until it has the order the orbit gives it, so an
action over a large group materialises few rows.  A biset for (G, H) is
an action of the direct product G x H, with (g,h) acting as u |-> g.u.h^-1.
Isomorphism of actions is decided by comparing transitive
decompositions: the multiset of point-stabilizer conjugacy classes,
each keyed by its smallest conjugate element tuple.

The tensor product over the middle group is computed two ways: directly
on orbits of pairs, and by the double-coset decomposition for transitive
bisets.  The extended tensor product over a subgroup X * Y of a product,
its description as deflation-restriction along the pullback map, and the
double-coset formula for tensoring induced actions are all provided.
"""

from __future__ import annotations

from collections import Counter

from .groups import (FiniteGroup, ProductGroup, RowCache, Subgroup,
                     double_cosets, orbit, product_group, span)
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
    as every constructor in the package trusts its caller.
    """

    def __init__(self, group: FiniteGroup, rows,
                 size: int | None = None) -> None:
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
        self._decomposition = None

    def _generator_rows(self) -> list[tuple[int, ...]]:
        return [self.rows[s] for s in self.group.generators]

    def orbits(self) -> list[list[int]]:
        """Orbits as sorted lists, ordered by smallest point.

        An orbit of the generators is an orbit of the group, so only
        their rows are read.
        """
        label, reps = _orbit_labels(self.size, self._generator_rows())
        out: list[list[int]] = [[] for _ in reps]
        for x, k in enumerate(label):
            out[k].append(x)
        return out

    def stabilizer(self, x: int) -> Subgroup:
        """The stabilizer of x, closed from Schreier generators.

        With u_y taking x to y, read off the Schreier tree of the orbit,
        every u_{s.y}^-1 s u_y for a generator s fixes x, and together
        they generate the stabilizer (Schreier's lemma).  Only those
        outside the span so far extend it, each at least doubling it,
        and none is formed once the span has order |G|/|orbit|, which
        by the orbit-stabilizer theorem is the whole stabilizer.
        """
        G = self.group
        mul, inv = G.mul, G.inv
        gens = tuple(zip(G.generators, self._generator_rows()))
        points, tree = orbit(x, gens, lambda y, gen: gen[1][y])
        u = {x: G.identity}
        for y in points[1:]:
            z, k = tree[y]
            u[y] = mul(gens[k][0], u[z])
        schreier = (mul(inv(u[row[y]]), mul(s, u[y]))
                    for y in points for s, row in gens)
        return Subgroup(G, span(G, schreier, G.order // len(points))[1])

    def fixed_points(self, elements) -> list[int]:
        """Points fixed by every listed group element."""
        out = []
        for x in range(self.size):
            if all(self.rows[g][x] == x for g in elements):
                out.append(x)
        return out

    def decompose(self) -> "TransitiveDecomposition":
        if self._decomposition is None:
            items: Counter = Counter()
            total = 0
            for orb in self.orbits():
                stab = self.stabilizer(orb[0]).canonical_conjugate()
                items[stab.elements] += 1
                total += self.group.order // stab.order
            if total != self.size:
                raise AssertionError("orbit sizes fail the counting identity")
            self._decomposition = TransitiveDecomposition(
                self.group, tuple(sorted(items.items())))
        return self._decomposition


class TransitiveDecomposition:
    """Multiset of canonical stabilizer classes of a G-set."""

    def __init__(self, group: FiniteGroup, items) -> None:
        self.group = group
        self.items = tuple(items)

    def __eq__(self, other):
        return (isinstance(other, TransitiveDecomposition)
                and self.group.uid == other.group.uid
                and self.items == other.items)

    def __hash__(self):
        return hash((self.group.uid, self.items))

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
    """Left translation on the cosets gS; point order is by minimal member."""
    reps, idx = S.coset_index_map()
    left = G.left_products
    return GAction(G, lambda g: tuple([idx[x] for x in left(g, reps)]),
                   size=len(reps))


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
    return GAction(G, row, size=sum(a.size for a in actions))


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
    """Move an action to an equal-table copy of its group.

    Used when the same abstract subgroup arises from two parents; the
    element orderings agree, so the row data carries over verbatim.
    """
    if group is A.group:
        return A
    if group.order != A.group.order or any(
            group.row(g) != A.group.row(g) for g in range(group.order)):
        raise ValueError("groups are not element-wise identical")
    return GAction(group, A.rows.__getitem__, size=A.size)


# -- bisets ----------------------------------------------------------

class BisetView:
    """An action of a product group G x H, read as a (G, H)-biset."""

    def __init__(self, ambient: ProductGroup, action: GAction) -> None:
        if action.group.uid != ambient.uid:
            raise ValueError("action must be over the ambient product group")
        self.ambient = ambient
        self.action = action

    @property
    def left(self) -> FiniteGroup:
        return self.ambient.left

    @property
    def right(self) -> FiniteGroup:
        return self.ambient.right

    @property
    def size(self) -> int:
        return self.action.size

    def decompose(self) -> TransitiveDecomposition:
        return self.action.decompose()

    def opposite(self) -> "BisetView":
        """The same points as an (H, G)-biset.

        The left H-action is the old right division u.h^-1 and the right
        G-action the old left division; on pairs this is just the swap
        (h,g) |-> (g,h), which is already a homomorphism.
        """
        amb = product_group(self.right, self.left)
        rows, encode = self.action.rows, self.ambient.encode

        def row(x: int) -> tuple[int, ...]:
            h, g = amb.decode(x)
            return rows[encode(g, h)]
        return BisetView(amb, GAction(amb, row, size=self.size))


def biset_coset(X: ProductSubgroup) -> BisetView:
    """The transitive biset of cosets of X inside its ambient product."""
    return BisetView(X.ambient, coset_action(X.ambient, X))


def biset_from_left_action(A: GAction) -> BisetView:
    """View a plain G-set as a (G, 1)-biset over the shared trivial group."""
    one = trivial_group()
    amb = product_group(A.group, one)
    # (g, 1) has the id of g, so the rows carry over
    return BisetView(amb, GAction(amb, A.rows.__getitem__, size=A.size))


def left_action_of_biset(U: BisetView) -> GAction:
    """Forget a trivial right side."""
    if U.right.order != 1:
        raise ValueError("right group must be trivial")
    return GAction(U.left, U.action.rows.__getitem__, size=U.size)


# -- elementary bisets -----------------------------------------------

def induction_biset(S: Subgroup) -> BisetView:
    """Induction from a subgroup: the (G, H)-biset on G with H = S."""
    G = S.parent
    amb = product_group(G, S.as_group())
    X = ProductSubgroup(
        amb, [amb.encode(g, i) for i, g in enumerate(S.elements)])
    return biset_coset(X)


# -- tensor products -------------------------------------------------

def _orbit_labels(size: int, rows) -> tuple[list[int], list[int]]:
    """Label points by orbit under the given permutations.

    Returns (label per point, representative point per orbit); sweeping
    points in increasing order makes each representative the orbit
    minimum.  Not groups.orbit: one list-indexed label sweep over all
    points is about 9% faster on the laws-induction benchmark.
    """
    label = [-1] * size
    reps = []
    for x in range(size):
        if label[x] >= 0:
            continue
        k = len(reps)
        reps.append(x)
        stack = [x]
        label[x] = k
        while stack:
            y = stack.pop()
            for row in rows:
                z = row[y]
                if label[z] < 0:
                    label[z] = k
                    stack.append(z)
    return label, reps


def tensor_direct(U: BisetView, V: BisetView) -> BisetView:
    """The tensor product over the middle group, on orbits of pairs.

    Pairs (u, v) are glued along (u.h, v) ~ (u, h.v); the result is a
    (G, K)-biset with (g,k) acting on the class of (u, v) through its
    representatives.  More than TENSOR_POINT_CAP pairs raise ValueError.
    """
    if U.ambient.right is not V.ambient.left:
        raise ValueError("tensor requires matching middle group")
    H = U.ambient.right
    nu, nv = U.size, V.size
    if nu * nv > TENSOR_POINT_CAP:
        raise ValueError(f"tensor product exceeds {TENSOR_POINT_CAP} points")
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
    label, reps = _orbit_labels(nu * nv, glue)
    amb = product_group(U.left, V.right)

    def row(x: int) -> tuple[int, ...]:
        g, k = amb.decode(x)
        gr = Urows[Uenc(g, H.identity)]
        kr = Vrows[Venc(H.identity, k)]
        return tuple([label[gr[r // nv] * nv + kr[r % nv]] for r in reps])
    return BisetView(amb, GAction(amb, row, size=len(reps)))


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
        Yh = Y.conjugated_by_pair(pid)
        Z = star(X, Yh)
        key = Subgroup(amb_out, Z.elements).canonical_conjugate().elements
        items[key] += 1
    return TransitiveDecomposition(amb_out, tuple(sorted(items.items())))


def extended_tensor(X: ProductSubgroup, Y: ProductSubgroup,
                    U: GAction, V: GAction) -> GAction:
    """Tensor an X-set and a Y-set into an (X * Y)-set.

    Points are orbits of pairs under the joint kernel k2(X) & k1(Y);
    (g,k) acts through any middle witness h with (g,h) in X and (h,k) in
    Y.  Each row is recomputed through a second witness where one exists
    and compared.
    """
    Xg, Yg = X.as_group(), Y.as_group()
    if U.group is not Xg or V.group is not Yg:
        raise ValueError("U and V must be actions of the local groups")
    H = X.ambient.right
    ker = middle_kernel(X, Y)
    nu, nv = U.size, V.size
    if nu * nv > TENSOR_POINT_CAP:
        raise ValueError("extended tensor product too large")
    glue = []
    for t in ker.elements:
        if t == H.identity:
            continue
        # t.(u, v) = (u.t^-1, t.v) through (1,t) in X and (t,1) in Y.
        ur = U.rows[X.to_local(X.ambient.encode(X.ambient.left.identity, t))]
        vr = V.rows[Y.to_local(Y.ambient.encode(t, Y.ambient.right.identity))]
        glue.append([x * nv + y for x in ur for y in vr])
    label, reps = _orbit_labels(nu * nv, glue)
    S = star(X, Y)
    witnesses = middle_witnesses(X, Y)

    def row_via(g: int, k: int, h: int):
        ur = U.rows[X.to_local(X.ambient.encode(g, h))]
        vr = V.rows[Y.to_local(Y.ambient.encode(h, k))]
        return tuple([label[ur[r // nv] * nv + vr[r % nv]] for r in reps])

    rows = []
    for s in S.elements:
        g, k = S.ambient.decode(s)
        hs = witnesses[(g, k)]
        row = row_via(g, k, hs[0])
        if len(hs) > 1 and row != row_via(g, k, hs[1]):
            raise AssertionError("middle witness changed the action")
        rows.append(row)
    return GAction(S.as_group(), rows)


def defres_biset(X: ProductSubgroup, Y: ProductSubgroup) -> BisetView:
    """Deflation-restriction along the pullback map, as a biset.

    The (X*Y, X x Y)-biset of cosets of the graph {(nu(z), z)} of the
    natural surjection nu from the pullback X x_H Y onto X * Y.
    """
    data: PullbackData = pullback(X, Y)
    amb = product_group(data.star_subgroup.as_group(),
                        data.pullback.ambient)
    elems = [amb.encode(data.nu(i), z)
             for i, z in enumerate(data.pullback.elements)]
    Xsub = ProductSubgroup(amb, elems)
    return biset_coset(Xsub)


def defres_description(X: ProductSubgroup, Y: ProductSubgroup,
                       U: GAction, V: GAction) -> dict:
    """Compare the extended tensor with the deflation-restriction of the
    plain product."""
    lhs = extended_tensor(X, Y, U, V)
    W = defres_biset(X, Y)
    UV = external_product(U, V)
    rhs = left_action_of_biset(
        tensor_direct(W, biset_from_left_action(UV)))
    return {"lhs": lhs, "rhs": rhs, "isomorphic": iso_check(lhs, rhs)}


# -- induction of one-sided actions ----------------------------------

def induced_action(G: FiniteGroup, S: Subgroup, U: GAction) -> GAction:
    """Induce an S.as_group()-set to G along the inclusion.

    Points are (coset representative, point of U); g moves (t, u) to
    (t', s.u) where g t = t' s with t' the chosen representative.  The
    rows are computed when read.
    """
    if S.parent is not G:
        raise ValueError("S must be a subgroup of G")
    Sg = S.as_group()
    if U.group is not Sg:
        U = rebase_action(U, Sg)
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
    rows = [U.rows[X.to_local(G.conj(xinv, e))] for e in Xc.elements]
    return Xc, GAction(Xc.as_group(), rows)


def sub_in_local(outer: ProductSubgroup, inner: ProductSubgroup) -> Subgroup:
    """inner viewed as a subgroup of outer.as_group()."""
    if not inner.element_set <= outer.element_set:
        raise ValueError("inner must be contained in outer")
    return Subgroup(outer.as_group(), map(outer.to_local, inner.elements))


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
    if not (Xp.element_set <= X.element_set
            and Yp.element_set <= Y.element_set):
        raise ValueError("Xp, Yp must be subgroups of X, Y")
    Xg, Yg = X.as_group(), Y.as_group()
    IndU = induced_action(Xg, sub_in_local(X, Xp), U)
    IndV = induced_action(Yg, sub_in_local(Y, Yp), V)
    lhs = extended_tensor(X, Y, IndU, IndV)

    data = pullback(X, Y)
    PG = data.pullback.ambient
    A = Subgroup(PG, data.pullback.elements)
    B = Subgroup(PG,
                 [PG.encode(X.to_local(e), Y.to_local(f))
                  for e in Xp.elements for f in Yp.elements])
    S = data.star_subgroup
    Sg = S.as_group()
    terms = []
    for rep in double_cosets(PG, A, B):
        lx, ly = PG.decode(rep)
        x_pid = X.from_local(lx)
        y_pid = Y.from_local(ly)
        Xc, Uc = conjugated_action(Xp, x_pid, U)
        Yc, Vc = conjugated_action(Yp, y_pid, V)
        T = extended_tensor(Xc, Yc, Uc, Vc)
        sub = sub_in_local(S, star(Xc, Yc))
        terms.append(induced_action(Sg, sub, T))
    rhs = disjoint_union(*terms) if terms else trivial_action(Sg, 0)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "double_coset_count": len(terms),
        "isomorphic": iso_check(lhs, rhs),
    }


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
    the pullback of the conjugated subgroups.
    """
    if not (Xp.element_set <= X.element_set
            and Yp.element_set <= Y.element_set):
        raise ValueError("Xp, Yp must be subgroups of X, Y")
    data = pullback(X, Y)
    PG = data.pullback.ambient
    rect = Subgroup(PG, [PG.encode(X.to_local(e), Y.to_local(f))
                          for e in Xp.elements for f in Yp.elements])
    lhs = tensor_direct(defres_biset(X, Y), induction_biset(rect))

    S = data.star_subgroup
    amb_out = product_group(S.as_group(), rect.as_group())
    A = Subgroup(PG, data.pullback.elements)
    GH, HK, GK = X.ambient, Y.ambient, S.ambient
    parts = []
    for rep in double_cosets(PG, A, rect):
        lx, ly = PG.decode(rep)
        x_pid = X.from_local(lx)
        y_pid = Y.from_local(ly)
        Xc = Xp.conjugated_by_pair(x_pid)
        Yc = Yp.conjugated_by_pair(y_pid)
        xinv = GH.inv(x_pid)
        yinv = HK.inv(y_pid)
        elems = []
        for e in Xc.elements:
            g, h = GH.decode(e)
            for f in Yc.elements:
                h2, k = HK.decode(f)
                if h2 != h:
                    continue
                left_loc = S.to_local(GK.encode(g, k))
                e0 = GH.conj(xinv, e)
                f0 = HK.conj(yinv, f)
                right_loc = rect.to_local(
                    PG.encode(X.to_local(e0), Y.to_local(f0)))
                elems.append(amb_out.encode(left_loc, right_loc))
        parts.append(biset_coset(
            ProductSubgroup(amb_out, elems)).action)
    rhs = disjoint_union(*parts)
    return {
        "lhs": lhs.action,
        "rhs": rhs,
        "double_coset_count": len(parts),
        "isomorphic": iso_check(lhs.action, rhs),
    }


def dual_biset(U: BisetView) -> BisetView:
    return U.opposite()
