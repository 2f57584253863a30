"""Subgroups of direct products and the calculus that composes them.

A subgroup X of G x H carries its two projections p1(X), p2(X) and the
two kernels k1(X) = {g : (g,1) in X} and k2(X) = {h : (1,h) in X}.  The
star product X * Y of X <= G x H and Y <= H x K is the set of pairs
(g,k) joined by a common middle element, and the pullback X x_H Y is the
subgroup of X x Y of pairs agreeing in the middle; the natural map from
the pullback onto X * Y has kernel isomorphic to k2(X) & k1(Y).
"""

from __future__ import annotations

from .groups import GroupHom, ProductGroup, Subgroup, product_group


class ProductSubgroup(Subgroup):
    """A subgroup of an ambient direct product, with projections and kernels."""

    def __init__(self, ambient: ProductGroup, elements) -> None:
        super().__init__(ambient, elements)
        self.ambient = ambient
        G, H = ambient.left, ambient.right
        lefts, rights = set(), set()
        k1, k2 = [], []
        for x in self.elements:
            a, b = ambient.decode(x)
            lefts.add(a)
            rights.add(b)
            if b == H.identity:
                k1.append(a)
            if a == G.identity:
                k2.append(b)
        self.p1 = Subgroup(G, lefts)
        self.p2 = Subgroup(H, rights)
        self.k1 = Subgroup(G, k1)
        self.k2 = Subgroup(H, k2)

    def pairs(self):
        dec = self.ambient.decode
        return [dec(x) for x in self.elements]

    def conjugated_by_pair(self, x: int) -> "ProductSubgroup":
        G = self.parent
        return ProductSubgroup(self.ambient,
                               [G.conj(x, e) for e in self.elements])

    def opposite(self) -> "ProductSubgroup":
        """The same relation viewed inside H x G, pairs swapped."""
        amb = product_group(self.ambient.right, self.ambient.left)
        return ProductSubgroup(
            amb, [amb.encode(b, a) for a, b in self.pairs()])

    def __repr__(self):
        return (f"ProductSubgroup(order={self.order} of "
                f"{self.ambient.name})")


def full_product_subgroup(ambient: ProductGroup) -> ProductSubgroup:
    return ProductSubgroup(ambient, range(ambient.order))


def star(X: ProductSubgroup, Y: ProductSubgroup) -> ProductSubgroup:
    """The composite relation {(g,k) : some h has (g,h) in X, (h,k) in Y}."""
    if X.ambient.right is not Y.ambient.left:
        raise ValueError("star requires matching middle group")
    amb = product_group(X.ambient.left, Y.ambient.right)
    by_middle: dict[int, list[int]] = {}
    for h, k in Y.pairs():
        by_middle.setdefault(h, []).append(k)
    out = set()
    for g, h in X.pairs():
        for k in by_middle.get(h, ()):
            out.add(amb.encode(g, k))
    return ProductSubgroup(amb, out)


def middle_witnesses(X: ProductSubgroup, Y: ProductSubgroup
                     ) -> dict[tuple[int, int], list[int]]:
    """For each (g,k) in X * Y, the sorted list of middle elements h."""
    if X.ambient.right is not Y.ambient.left:
        raise ValueError("matching middle group required")
    by_middle: dict[int, list[int]] = {}
    for h, k in Y.pairs():
        by_middle.setdefault(h, []).append(k)
    out: dict[tuple[int, int], list[int]] = {}
    for g, h in X.pairs():
        for k in by_middle.get(h, ()):
            out.setdefault((g, k), []).append(h)
    for hs in out.values():
        hs.sort()
    return out


def middle_kernel(X: ProductSubgroup, Y: ProductSubgroup) -> Subgroup:
    """k2(X) & k1(Y), a subgroup of the shared middle group."""
    if X.ambient.right is not Y.ambient.left:
        raise ValueError("matching middle group required")
    H = X.ambient.right
    return Subgroup(H, X.k2.element_set & Y.k1.element_set)


class PullbackData:
    """The pullback X x_H Y with its map onto X * Y and that map's kernel."""

    def __init__(self, pullback: ProductSubgroup, nu: GroupHom,
                 kernel: Subgroup, star_subgroup: ProductSubgroup) -> None:
        self.pullback = pullback
        self.nu = nu
        self.kernel = kernel
        self.star_subgroup = star_subgroup


def pullback(X: ProductSubgroup, Y: ProductSubgroup) -> PullbackData:
    """The fibered product over the middle group, as a subgroup of X x Y."""
    if X.ambient.right is not Y.ambient.left:
        raise ValueError("matching middle group required")
    amb = product_group(X.as_group(), Y.as_group())
    y_by_middle: dict[int, list[int]] = {}
    for y_pid in Y.elements:
        h, _ = Y.ambient.decode(y_pid)
        y_by_middle.setdefault(h, []).append(y_pid)
    elems = []
    for x_pid in X.elements:
        _, h = X.ambient.decode(x_pid)
        lx = X.to_local(x_pid)
        for y_pid in y_by_middle.get(h, ()):
            elems.append(amb.encode(lx, Y.to_local(y_pid)))
    P = ProductSubgroup(amb, elems)
    S = star(X, Y)
    images = []
    for z in P.elements:
        lx, ly = amb.decode(z)
        g, _ = X.ambient.decode(X.from_local(lx))
        _, k = Y.ambient.decode(Y.from_local(ly))
        images.append(S.to_local(S.ambient.encode(g, k)))
    nu = GroupHom(P.as_group(), S.as_group(), images)
    return PullbackData(P, nu, nu.kernel(), S)


def twisted_diagonal(P: Subgroup, phi, Q: Subgroup) -> ProductSubgroup:
    """The graph {(phi(y), y) : y in Q} inside G x H, phi an isomorphism Q -> P.

    phi may be a GroupHom between the local groups of Q and P or a dict
    mapping parent ids of Q to parent ids of P.
    """
    G = P.parent
    H = Q.parent
    amb = product_group(G, H)
    if isinstance(phi, GroupHom):
        Qg, Pg = Q.as_group(), P.as_group()
        if phi.source is not Qg or phi.target is not Pg:
            raise ValueError("phi must map the local group of Q to that of P")
        mapping = {Q.from_local(i): P.from_local(phi(i))
                   for i in range(Qg.order)}
    else:
        mapping = dict(phi)
    if sorted(mapping) != list(Q.elements):
        raise ValueError("phi must be defined exactly on Q")
    if sorted(set(mapping.values())) != list(P.elements):
        raise ValueError("phi must be a bijection onto P")
    for a in Q.elements:
        for b in Q.elements:
            if mapping[H.mul(a, b)] != G.mul(mapping[a], mapping[b]):
                raise ValueError("phi is not multiplicative")
    return ProductSubgroup(
        amb, [amb.encode(mapping[y], y) for y in Q.elements])


def diagonal(S: Subgroup) -> ProductSubgroup:
    """The plain diagonal {(s, s)} of a subgroup inside G x G."""
    ident = {s: s for s in S.elements}
    return twisted_diagonal(S, ident, S)


def is_twisted_diagonal(X: ProductSubgroup) -> bool:
    """True when X is the graph of an isomorphism p2(X) -> p1(X)."""
    return (X.k1.order == 1 and X.k2.order == 1
            and X.order == X.p1.order and X.order == X.p2.order)
