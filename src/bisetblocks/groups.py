"""Finite groups with integer element ids.

A group of order n has elements 0..n-1 with 0 the identity whenever the
group is built by generator closure.  A group built from a table stores
it densely; a direct product stores only its two factors and multiplies
componentwise.  Other modules multiply through mul/inv/conj/row and so
never depend on which.  Groups are immutable once built; derived data
(conjugacy classes, element orders, subgroup caches) is computed lazily
and memoized.  Canonical representatives are always the smallest
available integer id, which keeps every enumeration in the package
deterministic.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from math import lcm

DEFAULT_CLOSURE_CAP = 10080
_EXHAUSTIVE_LIMIT = 64


class SizeLimitError(ValueError):
    """Raised when a construction would exceed the configured order cap."""


class FiniteGroup:
    """A finite group; this class stores its full multiplication table."""

    _uid_counter = itertools.count()

    def __init__(self, table, identity: int = 0, name: str = "",
                 element_names=None, _skip_check: bool = False) -> None:
        self.table = tuple(tuple(row) for row in table)
        self._start(len(self.table), identity, name, element_names)
        if not _skip_check:
            self._check_axioms()

    def _start(self, order: int, identity: int, name: str,
               element_names) -> None:
        """Set the state every group carries, however it multiplies."""
        self.order = order
        self.identity = identity
        self.name = name or f"G{order}"
        self.element_names = tuple(element_names) if element_names else None
        self.uid = next(FiniteGroup._uid_counter)
        self._classes = None
        self._class_of = None
        self._orders = None
        self._center = None
        self._subgroup_cache: dict = {}

    # -- construction-time validation --------------------------------

    def _check_axioms(self) -> None:
        n = self.order
        e = self.identity
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValueError("multiplication table is not square over 0..n-1")
        for g in range(n):
            if self.table[e][g] != g or self.table[g][e] != g:
                raise ValueError("identity element does not act as identity")
        for g in range(n):
            if e not in self.table[g]:
                raise ValueError(f"element {g} has no inverse")
        if n <= _EXHAUSTIVE_LIMIT:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(n)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                       for _ in range(2000))
        t = self.table
        for a, b, c in triples:
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise ValueError("multiplication table is not associative")

    # -- basic operations --------------------------------------------

    @property
    def _rows(self):
        """Indexed like a Cayley table: _rows[a][b] is mul(a, b)."""
        return self.table

    @cached_property
    def _inv(self) -> tuple[int, ...]:
        e = self.identity
        return tuple(row.index(e) for row in self.table)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set: the permutation generators of a group closed
        from permutations, else a minimal generating sequence."""
        ids = getattr(self, "generator_ids", None)
        return ids if ids is not None else minimal_generating_sequence(self)

    def row(self, a: int) -> tuple[int, ...]:
        """The products a*b for b = 0..order-1."""
        return self.table[a]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv(g), -k
        out = self.identity
        while k:
            if k & 1:
                out = self.mul(out, g)
            g = self.mul(g, g)
            k >>= 1
        return out

    def conj(self, x: int, g: int) -> int:
        """The conjugate x g x^-1."""
        t = self.table
        return t[t[x][g]][self._inv[x]]

    def commutes(self, a: int, b: int) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    def element_order(self, g: int) -> int:
        if self._orders is None:
            orders = []
            for x in range(self.order):
                k, y = 1, x
                while y != self.identity:
                    y = self.table[y][x]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[g]

    def exponent(self) -> int:
        return lcm(*(self.element_order(g) for g in range(self.order)))

    def is_abelian(self) -> bool:
        return all(self.commutes(a, b)
                   for a in range(self.order) for b in range(a))

    def is_p_prime_element(self, g: int, p: int) -> bool:
        """True when the order of g is prime to p."""
        return self.element_order(g) % p != 0

    # -- conjugacy classes -------------------------------------------

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted tuples, ordered by smallest member; identity first."""
        if self._classes is None:
            self._classes = self._find_classes()
            class_of = [0] * self.order
            for i, cls in enumerate(self._classes):
                for y in cls:
                    class_of[y] = i
            self._class_of = tuple(class_of)
        return self._classes

    def _find_classes(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.order
        classes = []
        for g in range(self.order):
            if seen[g]:
                continue
            cls = sorted({self.conj(x, g) for x in range(self.order)})
            for y in cls:
                seen[y] = True
            classes.append(tuple(cls))
        return tuple(classes)

    def class_index(self, g: int) -> int:
        self.conjugacy_classes()
        return self._class_of[g]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup:
    """A subgroup stored as a sorted tuple of parent element ids."""

    def __init__(self, parent: FiniteGroup, elements, check: bool = True) -> None:
        self.parent = parent
        self.elements = tuple(sorted(set(elements)))
        self.element_set = frozenset(self.elements)
        if check:
            self._check()

    def _check(self) -> None:
        if self.parent.identity not in self.element_set:
            raise ValueError("subgroup is missing the identity")
        mul = self.parent.mul
        for a in self.elements:
            if self.parent.inv(a) not in self.element_set:
                raise ValueError("subgroup is not closed under inverses")
            for b in self.elements:
                if mul(a, b) not in self.element_set:
                    raise ValueError("subgroup is not closed under products")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, g: int) -> bool:
        return g in self.element_set

    def __eq__(self, other):
        return (isinstance(other, Subgroup)
                and self.parent.uid == other.parent.uid
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.parent.uid, self.elements))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"

    def is_normal(self) -> bool:
        G = self.parent
        return all(G.conj(x, h) in self.element_set
                   for x in range(G.order) for h in self.elements)

    def conjugated_by(self, x: int) -> "Subgroup":
        G = self.parent
        return Subgroup(G, [G.conj(x, h) for h in self.elements], check=False)

    def canonical_conjugate(self, largest: bool = False) -> "Subgroup":
        """The conjugate with extremal element tuple; smallest by default."""
        key = ("canon", self.elements, largest)
        cached = self.parent._subgroup_cache.get(key)
        if cached is None:
            pick = max if largest else min
            best = pick(
                (tuple(sorted(self.parent.conj(x, h) for h in self.elements))
                 for x in range(self.parent.order)))
            cached = Subgroup(self.parent, best, check=False)
            self.parent._subgroup_cache[key] = cached
        return cached

    def as_group(self) -> FiniteGroup:
        """This subgroup as a group in its own right.

        Element i of the result is self.elements[i]; the result carries
        local_to_parent / parent_to_local translation maps.  Cached per
        (parent, elements) so repeated calls share one object.
        """
        key = ("asgroup", self.elements)
        cached = self.parent._subgroup_cache.get(key)
        if cached is None:
            loc = {g: i for i, g in enumerate(self.elements)}
            table = [[loc[row[b]] for b in self.elements]
                     for row in map(self.parent.row, self.elements)]
            names = None
            if self.parent.element_names:
                names = [self.parent.element_names[g] for g in self.elements]
            cached = FiniteGroup(
                table, identity=loc[self.parent.identity],
                name=f"{self.parent.name}|{self.order}",
                element_names=names, _skip_check=True)
            cached.local_to_parent = self.elements
            cached.parent_to_local = loc
            cached.parent_group = self.parent
            self.parent._subgroup_cache[key] = cached
        return cached

    def to_local(self, g: int) -> int:
        return self.as_group().parent_to_local[g]

    def from_local(self, i: int) -> int:
        return self.elements[i]

    def left_transversal(self) -> tuple[int, ...]:
        """Minimal representatives of the left cosets gH, in id order."""
        G = self.parent
        seen = [False] * G.order
        reps = []
        for g in range(G.order):
            if not seen[g]:
                reps.append(g)
                for h in self.elements:
                    seen[G.mul(g, h)] = True
        return tuple(reps)

    def coset_index_map(self):
        """Array mapping each parent element g to the index of its coset gH."""
        G = self.parent
        mul = G.mul
        idx = [-1] * G.order
        reps = []
        for g in range(G.order):
            if idx[g] < 0:
                k = len(reps)
                reps.append(g)
                for h in self.elements:
                    idx[mul(g, h)] = k
        return reps, idx


class GroupHom:
    """A homomorphism given by its full image table."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images,
                 check: bool = True) -> None:
        self.source = source
        self.target = target
        self.images = tuple(images)
        if len(self.images) != source.order:
            raise ValueError("image table must cover every source element")
        if check:
            self._check()

    def _check(self) -> None:
        if self.images[self.source.identity] != self.target.identity:
            raise ValueError("homomorphism must preserve the identity")
        n = self.source.order
        if n <= _EXHAUSTIVE_LIMIT:
            pairs = itertools.product(range(n), repeat=2)
        else:
            rng = random.Random(n + 1)
            pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(4000))
        for a, b in pairs:
            if (self.images[self.source.mul(a, b)]
                    != self.target.mul(self.images[a], self.images[b])):
                raise ValueError("map is not multiplicative")

    def __call__(self, g: int) -> int:
        return self.images[g]

    def kernel(self) -> Subgroup:
        e = self.target.identity
        return Subgroup(self.source,
                        [g for g in range(self.source.order)
                         if self.images[g] == e], check=False)

    def image(self) -> Subgroup:
        return Subgroup(self.target, set(self.images), check=False)

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    def is_isomorphism(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def inverse(self) -> "GroupHom":
        if not self.is_isomorphism():
            raise ValueError("only isomorphisms can be inverted")
        back = [0] * self.target.order
        for g, im in enumerate(self.images):
            back[im] = g
        return GroupHom(self.target, self.source, back, check=False)


# -- permutation input -----------------------------------------------

def parse_cycles(text: str, degree: int = 0) -> tuple[int, ...]:
    """Parse one-line cycle notation like "(1 2 3)(4 5)" into a 0-based tuple.

    Points are 1-based in the text.  "()" is the identity.  The degree is
    the largest point mentioned unless a larger one is supplied.
    """
    text = text.strip()
    if text in ("", "()", "e", "id"):
        return tuple(range(degree))
    cycles = []
    depth = 0
    cur: list[int] = []
    token = ""
    for ch in text + " ":
        if token and not ch.isdigit():
            if not depth:
                raise ValueError(f"point {token} outside a cycle in {text!r}")
            cur.append(int(token))
            token = ""
        if ch == "(":
            if depth:
                raise ValueError(f"nested parenthesis in {text!r}")
            depth, cur = 1, []
        elif ch == ")":
            if not depth:
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            if cur:
                cycles.append(cur)
            depth = 0
        elif ch.isdigit():
            token += ch
        elif ch not in " ,\t":
            raise ValueError(f"unexpected character {ch!r} in cycle notation")
    if depth:
        raise ValueError(f"unbalanced parenthesis in {text!r}")
    deg = max([degree] + [p for c in cycles for p in c])
    perm = list(range(deg))
    for cyc in cycles:
        if min(cyc) < 1:
            raise ValueError("cycle points are 1-based")
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"repeated point in cycle {cyc}")
        for i, p in enumerate(cyc):
            perm[p - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(perm)


def cycles_of(perm: tuple[int, ...]) -> str:
    """Inverse of parse_cycles, producing canonical 1-based cycle text."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        out.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(out) or "()"


def group_from_permutations(generators, degree: int = 0,
                            name: str = "", cap: int = DEFAULT_CLOSURE_CAP
                            ) -> FiniteGroup:
    """Close a list of permutations (tuples or cycle strings) into a group."""
    perms = []
    for g in generators:
        perms.append(parse_cycles(g, degree) if isinstance(g, str) else tuple(g))
    deg = max([degree] + [len(p) for p in perms])
    perms = [p + tuple(range(len(p), deg)) for p in perms]
    ident = tuple(range(deg))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in perms:
                prod = tuple(a[g[i]] for i in range(deg))
                if prod not in index:
                    if len(elems) >= cap:
                        raise SizeLimitError(
                            f"closure exceeded the order cap {cap}")
                    index[prod] = len(elems)
                    elems.append(prod)
                    nxt.append(prod)
        frontier = nxt
    n = len(elems)
    table = [[0] * n for _ in range(n)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[i][j] = index[tuple(a[b[k]] for k in range(deg))]
    G = FiniteGroup(table, identity=0, name=name or f"perm{n}",
                    element_names=[cycles_of(p) for p in elems])
    G.permutations = tuple(elems)
    G.generator_ids = tuple(index[p] for p in perms)
    return G


def element_by_name(G: FiniteGroup, spec) -> int:
    """Resolve an element spec: an integer id or a cycle-notation string."""
    if isinstance(spec, int):
        if not 0 <= spec < G.order:
            raise ValueError(f"element id {spec} out of range for {G.name}")
        return spec
    if isinstance(spec, str):
        if getattr(G, "permutations", None) is None:
            raise ValueError("group has no permutation realization")
        perm = parse_cycles(spec, len(G.permutations[0]))
        try:
            return G.permutations.index(perm)
        except ValueError:
            raise ValueError(f"{spec!r} is not an element of {G.name}") from None
    raise TypeError(f"bad element spec {spec!r}")


# -- derived constructions -------------------------------------------

def subgroup_generated(G: FiniteGroup, gens) -> Subgroup:
    gens = list(gens)
    elems = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = G.mul(a, g)
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return Subgroup(G, elems, check=False)


def extend_subgroup(G: FiniteGroup, elems: list[int], members: set[int],
                    gens: list[int]) -> list[int]:
    """Extend elems = <gens[:-1]> to <gens>, one right coset at a time.

    A coset K r s of K = elems is added whenever a coset representative
    r times a generator s falls outside the span, so the cost is |<gens>|
    products plus one per representative and generator (Dimino's
    algorithm).  members grows in place to the element set of the result.
    """
    mul = G.mul
    out = list(elems)
    reps = [G.identity]
    for r in reps:
        for s in gens:
            rs = mul(r, s)
            if rs not in members:
                reps.append(rs)
                coset = [mul(k, rs) for k in elems]
                members.update(coset)
                out.extend(coset)
    return out


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, range(G.order), check=False)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [G.identity], check=False)


def centralizer(G: FiniteGroup, part) -> Subgroup:
    """Centralizer of an element, an iterable of elements, or a Subgroup."""
    if isinstance(part, int):
        part = [part]
    elif isinstance(part, Subgroup):
        part = part.elements
    part = list(part)
    return Subgroup(G, [x for x in range(G.order)
                        if all(G.conj(x, s) == s for s in part)], check=False)


def normalizer(G: FiniteGroup, S: Subgroup) -> Subgroup:
    out = []
    for x in range(G.order):
        if all(G.conj(x, h) in S.element_set for h in S.elements):
            out.append(x)
    return Subgroup(G, out, check=False)


def center(G: FiniteGroup) -> Subgroup:
    if G._center is None:
        G._center = centralizer(G, range(G.order))
    return G._center


class ProductGroup(FiniteGroup):
    """The direct product G x H; the pair (a, b) has id a * |H| + b.

    Products multiply componentwise by indexing the factors' rows, so no
    table of the product is built.  Its classes are the products of the
    factor classes.
    """

    def __init__(self, left: FiniteGroup, right: FiniteGroup) -> None:
        nl, nr = left.order, right.order
        if nl * nr > DEFAULT_CLOSURE_CAP:
            raise SizeLimitError("direct product exceeds the order cap")
        names = None
        if left.element_names and right.element_names:
            names = [f"({x},{y})" for x in left.element_names
                     for y in right.element_names]
        self._start(nl * nr, left.identity * nr + right.identity,
                    f"{left.name}x{right.name}", names)
        self.left = left
        self.right = right
        self._nr = nr
        self._lt, self._rt = left._rows, right._rows
        self._linv, self._rinv = left._inv, right._inv

    def encode(self, a: int, b: int) -> int:
        return a * self._nr + b

    def decode(self, x: int) -> tuple[int, int]:
        return divmod(x, self._nr)

    @cached_property
    def _rows(self):
        # Only read when this product is a factor of another product.
        return RowCache(self.row)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """(s,1) for the left generators s, then (1,t) for the right ones."""
        nr = self._nr
        e1, e2 = self.left.identity, self.right.identity
        return (tuple(s * nr + e2 for s in self.left.generators)
                + tuple(e1 * nr + t for t in self.right.generators))

    @cached_property
    def _inv(self) -> tuple[int, ...]:
        nr = self._nr
        return tuple(a * nr + b for a in self._linv for b in self._rinv)

    def row(self, a: int) -> tuple[int, ...]:
        nr = self._nr
        ra = self._rt[a % nr]
        return tuple(c * nr + d for c in self._lt[a // nr] for d in ra)

    def mul(self, a: int, b: int) -> int:
        nr = self._nr
        return self._lt[a // nr][b // nr] * nr + self._rt[a % nr][b % nr]

    def conj(self, x: int, g: int) -> int:
        nr = self._nr
        lt, rt = self._lt, self._rt
        x1, x2 = x // nr, x % nr
        return (lt[lt[x1][g // nr]][self._linv[x1]] * nr
                + rt[rt[x2][g % nr]][self._rinv[x2]])

    def element_order(self, g: int) -> int:
        nr = self._nr
        return lcm(self.left.element_order(g // nr),
                   self.right.element_order(g % nr))

    def _find_classes(self) -> tuple[tuple[int, ...], ...]:
        # Factor classes are sorted by smallest member, so their products
        # read in factor order are too.
        nr = self._nr
        return tuple(tuple(a * nr + b for a in A for b in B)
                     for A in self.left.conjugacy_classes()
                     for B in self.right.conjugacy_classes())


class RowCache(dict):
    """Rows of a group or of an action by element id, each computed on
    first lookup and kept."""

    def __init__(self, row) -> None:
        super().__init__()
        self._row = row

    def __missing__(self, a: int) -> tuple[int, ...]:
        out = self[a] = self._row(a)
        return out


_PRODUCT_CACHE: dict[tuple[int, int], ProductGroup] = {}
_QUOTIENT_CACHE: dict = {}


def product_group(G: FiniteGroup, H: FiniteGroup) -> ProductGroup:
    """Cached direct product; repeated calls return the same object."""
    key = (G.uid, H.uid)
    if key not in _PRODUCT_CACHE:
        _PRODUCT_CACHE[key] = ProductGroup(G, H)
    return _PRODUCT_CACHE[key]


def clear_derived_caches() -> None:
    """Drop the global product and quotient caches.

    Long randomized runs mint throwaway local groups whose products
    would otherwise be cached forever.  Clearing is safe between fully
    independent work items; never clear between building an object and
    combining it with a later one, since identity of ambient products
    would no longer be shared.
    """
    _PRODUCT_CACHE.clear()
    _QUOTIENT_CACHE.clear()


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """The quotient G/N with its projection; N must be normal.  Cached."""
    key = (G.uid, N.elements)
    if key in _QUOTIENT_CACHE:
        return _QUOTIENT_CACHE[key]
    if not N.is_normal():
        raise ValueError("quotient requires a normal subgroup")
    reps, idx = N.coset_index_map()
    table = [[idx[row[b]] for b in reps] for row in map(G.row, reps)]
    names = None
    if G.element_names:
        names = [f"{G.element_names[r]}N" for r in reps]
    Q = FiniteGroup(table, identity=idx[G.identity],
                    name=f"{G.name}/{N.order}", element_names=names,
                    _skip_check=True)
    Q.coset_reps = tuple(reps)
    pi = GroupHom(G, Q, idx, check=False)
    _QUOTIENT_CACHE[key] = (Q, pi)
    return Q, pi


def double_cosets(G: FiniteGroup, A: Subgroup, B: Subgroup) -> tuple[int, ...]:
    """Minimal representatives of the double cosets AgB, in id order."""
    seen = [False] * G.order
    reps = []
    for g in range(G.order):
        if seen[g]:
            continue
        reps.append(g)
        for a in A.elements:
            ag = G.mul(a, g)
            for b in B.elements:
                seen[G.mul(ag, b)] = True
    return tuple(reps)


def double_coset_of(G: FiniteGroup, A: Subgroup, g: int, B: Subgroup
                    ) -> frozenset[int]:
    out = set()
    for a in A.elements:
        ag = G.mul(a, g)
        for b in B.elements:
            out.add(G.mul(ag, b))
    return frozenset(out)


# -- p-subgroups ------------------------------------------------------

def p_subgroups_up_to_conjugacy(G: FiniteGroup, p: int,
                                max_order: int | None = None
                                ) -> tuple[Subgroup, ...]:
    """Representatives of conjugacy classes of p-subgroups, smallest first.

    Built bottom-up by cyclic extension: a class representative P is
    extended by elements g of its normalizer with g^p in P.  Classes are
    keyed by the smallest conjugate element tuple.
    """
    _check_prime(p)
    triv = trivial_subgroup(G)
    found = {triv.elements: triv}
    level = [triv]
    while level:
        nxt = []
        for P in level:
            if max_order is not None and P.order * p > max_order:
                continue
            N = normalizer(G, P)
            for g in N.elements:
                if g in P.element_set:
                    continue
                if G.power(g, p) not in P.element_set:
                    continue
                key = _cyclic_extension(G, P, g, p) \
                    .canonical_conjugate().elements
                if key not in found:
                    rep = Subgroup(G, key, check=False)
                    found[key] = rep
                    nxt.append(rep)
        level = nxt
    return tuple(sorted(found.values(), key=lambda S: (S.order, S.elements)))


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown one cyclic extension at a time.

    Below Sylow order p divides |N(P):P|, so the normalizer has an
    element g outside P with g^p in P; the first such g in id order
    extends P to a p-group of order p|P|.  No conjugacy classes are
    listed, so the cost is a normalizer per step.
    """
    _check_prime(p)
    full = int_p_part(G.order, p)
    P = trivial_subgroup(G)
    while P.order < full:
        N = normalizer(G, P)
        g = next((g for g in N.elements if g not in P.element_set
                  and G.power(g, p) in P.element_set), None)
        if g is None:
            break
        P = _cyclic_extension(G, P, g, p)
    if P.order != full:
        raise AssertionError(
            f"p-subgroup of order {P.order} stopped below |G|_p = {full}")
    return P


def _cyclic_extension(G: FiniteGroup, P: Subgroup, g: int,
                      p: int) -> Subgroup:
    """The subgroup P, gP, ..., g^(p-1)P for g normalizing P, g^p in P."""
    ext = set(P.elements)
    gk = g
    for _ in range(p - 1):
        row = G.row(gk)
        ext.update(row[h] for h in P.elements)
        gk = G.mul(gk, g)
    return Subgroup(G, ext, check=False)


def _check_prime(p: int) -> None:
    if p < 2 or any(p % k == 0 for k in range(2, p)):
        raise ValueError("p must be prime")


def is_p_group(S: Subgroup, p: int) -> bool:
    n = S.order
    while n % p == 0:
        n //= p
    return n == 1


# -- isomorphism search ----------------------------------------------

def minimal_generating_sequence(G: FiniteGroup) -> tuple[int, ...]:
    """Each element in id order that is not yet in the span of those before."""
    gens: list[int] = []
    elems, members = [G.identity], {G.identity}
    for g in range(G.order):
        if len(elems) == G.order:
            break
        if g not in members:
            gens.append(g)
            elems = extend_subgroup(G, elems, members, gens)
    return tuple(gens)


def _extend_hom(G: FiniteGroup, H: FiniteGroup, gens, imgs):
    """Extend generator images to a full hom table, or None if inconsistent."""
    images = {G.identity: H.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g, ig in zip(gens, imgs):
                b = G.mul(a, g)
                ib = H.mul(images[a], ig)
                if b in images:
                    if images[b] != ib:
                        return None
                else:
                    images[b] = ib
                    nxt.append(b)
        frontier = nxt
    if len(images) != G.order:
        return None
    return tuple(images[g] for g in range(G.order))


def isomorphisms(G: FiniteGroup, H: FiniteGroup) -> list[GroupHom]:
    """All isomorphisms G -> H, in lexicographic generator-image order."""
    if G.order != H.order:
        return []
    gens = minimal_generating_sequence(G)
    orders = [G.element_order(g) for g in gens]
    pools = [[h for h in range(H.order) if H.element_order(h) == o]
             for o in orders]
    out = []
    for imgs in itertools.product(*pools):
        table = _extend_hom(G, H, gens, imgs)
        if table is not None and len(set(table)) == G.order:
            out.append(GroupHom(G, H, table, check=False))
    return out


def int_p_part(n: int, p: int) -> int:
    n = abs(n)
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def int_p_prime_part(n: int, p: int) -> int:
    return abs(n) // int_p_part(n, p)
