"""Subgroups of direct products and the calculus that composes them.

A subgroup X of G x H carries its two projections p1(X), p2(X) and the
two kernels k1(X) = {g : (g,1) in X} and k2(X) = {h : (1,h) in X}, each
computed on first read from its pairs, which are decoded once.

X <= G x H and Y <= H x K are joined over the middle group H in one
place, middle_witnesses: for each (g,k) it lists the h with (g,h) in X
and (h,k) in Y.  The rest is read off that join.  The star product
X * Y is the set of its keys, the joint kernel k2(X) & k1(Y) is the
witness list of (1,1), and the pullback X x_H Y is the subgroup of
X x Y of the pairs ((g,h), (h,k)), whose natural map nu onto X * Y
sends such a pair to (g,k) and has kernel isomorphic to the joint
kernel.  nu is kept as the tuple of local ids in X * Y of the
pullback's elements, so no local group of the pullback is built.  A
caller that needs several of them joins once and passes the witnesses
on; a pullback keeps the join it was read from.
"""

from __future__ import annotations

from typing import NamedTuple

from .groups import (GroupHom, ProductGroup, Subgroup, cached_attribute,
                     product_group)


class ProductSubgroup(Subgroup):
    """A subgroup of an ambient direct product, with projections and kernels."""

    def __init__(self, ambient: ProductGroup, elements) -> None:
        super().__init__(ambient, elements)
        self.ambient = ambient

    @cached_attribute
    def p1(self) -> Subgroup:
        return Subgroup(self.ambient.left, [a for a, _ in self.pairs()])

    @cached_attribute
    def p2(self) -> Subgroup:
        return Subgroup(self.ambient.right, [b for _, b in self.pairs()])

    @cached_attribute
    def k1(self) -> Subgroup:
        e = self.ambient.right.identity
        return Subgroup(self.ambient.left,
                        [a for a, b in self.pairs() if b == e])

    @cached_attribute
    def k2(self) -> Subgroup:
        e = self.ambient.left.identity
        return Subgroup(self.ambient.right,
                        [b for a, b in self.pairs() if a == e])

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (left, right) pair of each element, in element order."""
        return self._pairs

    @cached_attribute
    def _pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(self.ambient.decode, self.elements))

    def conjugated_by_pair(self, x: int) -> "ProductSubgroup":
        G = self.parent
        return ProductSubgroup(self.ambient, G.conjugates(x, self.elements))

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


def middle_witnesses(X: ProductSubgroup, Y: ProductSubgroup
                     ) -> dict[tuple[int, int], list[int]]:
    """The join of X and Y over their middle group.

    For each (g,k) in X * Y, the middle elements h with (g,h) in X and
    (h,k) in Y, in increasing order since X's pairs are sorted by (g,h).
    """
    if X.ambient.right is not Y.ambient.left:
        raise ValueError("matching middle group required")
    by_middle: dict[int, list[int]] = {}
    for h, k in Y.pairs():
        by_middle.setdefault(h, []).append(k)
    out: dict[tuple[int, int], list[int]] = {}
    for g, h in X.pairs():
        for k in by_middle.get(h, ()):
            out.setdefault((g, k), []).append(h)
    return out


def star(X: ProductSubgroup, Y: ProductSubgroup,
         witnesses=None) -> ProductSubgroup:
    """The composite relation {(g,k) : some h has (g,h) in X, (h,k) in Y}.

    witnesses, when given, is middle_witnesses(X, Y).
    """
    if witnesses is None:
        witnesses = middle_witnesses(X, Y)
    amb = product_group(X.ambient.left, Y.ambient.right)
    return ProductSubgroup(amb, [amb.encode(g, k) for g, k in witnesses])


def middle_kernel(X: ProductSubgroup, Y: ProductSubgroup,
                  witnesses: dict) -> Subgroup:
    """k2(X) & k1(Y), a subgroup of the shared middle group: the middle
    witnesses of (1,1), witnesses being middle_witnesses(X, Y)."""
    return Subgroup(X.ambient.right, witnesses[
        X.ambient.left.identity, Y.ambient.right.identity])


class PullbackData(NamedTuple):
    """The pullback X x_H Y, its natural map nu onto X * Y, X * Y, and
    the join of X and Y they were read from.  nu[i] is the local id in
    X * Y of the pullback's i-th element."""

    pullback: ProductSubgroup
    nu: tuple[int, ...]
    star_subgroup: ProductSubgroup
    witnesses: dict


def pullback(X: ProductSubgroup, Y: ProductSubgroup) -> PullbackData:
    """The fibered product over the middle group, as a subgroup of X x Y.

    Each witness h of (g,k) gives the element ((g,h), (h,k)), which nu
    sends to (g,k).
    """
    witnesses = middle_witnesses(X, Y)
    S = star(X, Y, witnesses)
    amb = product_group(X.as_group(), Y.as_group())
    x_loc, y_loc, s_loc = X.to_local, Y.to_local, S.to_local
    x_enc, y_enc, s_enc = X.ambient.encode, Y.ambient.encode, S.ambient.encode
    image: dict[int, int] = {}
    for (g, k), hs in witnesses.items():
        s = s_loc(s_enc(g, k))
        for h in hs:
            image[amb.encode(x_loc(x_enc(g, h)), y_loc(y_enc(h, k)))] = s
    P = ProductSubgroup(amb, image)
    return PullbackData(P, tuple(map(image.get, P.elements)), S, witnesses)


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
    # phi(ab) = phi(a)phi(b) for b a generator gives it for every b,
    # by induction on the length of b as a word in the generators
    for a in Q.elements:
        for b in Q.generators:
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
