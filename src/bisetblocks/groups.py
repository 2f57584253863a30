"""Finite groups with integer element ids.

A group of order n has elements 0..n-1 with 0 the identity whenever the
group is built by generator closure.  A group given as a table stores
it densely; a direct product stores only its two factors and multiplies
componentwise; a permutation group stores only its permutations and a
dict from permutation to id, and multiplies by composing two
permutations in one C-level call.  Other modules multiply through
mul/inv/conj/row and so never depend on which; hot loops take their
products in bulk through left_products and right_products, with no
method call per product, so no loop reads every row of a permutation
group, which computes a row only when it is read.  Its conjugacy
classes are orbits under conjugation by its generators, and a
centralizer is read off the products x*s and s*x of the fixed s.  One
routine, orbit, closes a point under generators, in breadth-first order
with a Schreier tree.  Input
is checked once, where it enters: constructors trust their caller, and
a multiplication table given from outside is checked by check_axioms,
exactly on generators (Light's associativity test), and the generators
of a permutation group are checked to be permutations.  Conjugates,
centralizers and normalizers of subgroups are computed from generators
rather than from every element.  A Sylow subgroup grows by the first
element in id order that extends it, tested as it is scanned, so no
normalizer is built for it.
Groups are immutable once built.  Data derived from a group (conjugacy
classes, element orders, canonical conjugates, centralizers of
subgroups, local groups, p-subgroup classes, Sylow subgroups, quotients,
element names) is computed on first read and kept on that group, so it
lives as long as the group does; a local group is kept weakly, as it
keeps its parent alive.  A Subgroup translates between parent and local
ids (a local group holds the map only so that another Subgroup with the
same elements finds it), and the whole group is its own local group.  A product G x H is kept weakly on G, so
product_group returns one object for as long as anything holds it, and
lets it go once nothing does.  Canonical representatives are always the
smallest available integer id, which keeps every enumeration in the
package deterministic.
"""

from __future__ import annotations

import itertools
import weakref
from functools import cached_property
from math import isqrt, lcm
from operator import itemgetter

DEFAULT_CLOSURE_CAP = 10080


class SizeLimitError(ValueError):
    """Raised when a construction would exceed the configured order cap."""


class FiniteGroup:
    """A finite group; this class stores its full multiplication table."""

    _uid_counter = itertools.count()

    def __init__(self, table, identity: int = 0, name: str = "",
                 names=None) -> None:
        self.table = tuple(tuple(row) for row in table)
        self._start(len(self.table), identity, name, names)

    def _start(self, order: int, identity: int, name: str, names) -> None:
        """Set the state every group carries, however it multiplies."""
        self.order = order
        self.identity = identity
        self.name = name or f"G{order}"
        self._names = names
        self.uid = next(FiniteGroup._uid_counter)
        self._classes = None
        self._class_of = None
        self._orders = None
        self._center = None
        # Data derived from this group lives here and dies with it:
        # canonical conjugates, centralizers of subgroups, local groups,
        # p-subgroup classes, Sylow subgroups, quotients, class structure
        # constants, block idempotents per field, the character table.
        self._subgroup_cache: dict = {}

    @cached_property
    def element_names(self) -> tuple[str, ...] | None:
        """The name of each element, or None: built on first read by the
        function of no arguments given to the constructor as names."""
        return tuple(self._names()) if self._names else None

    @property
    def has_names(self) -> bool:
        """Whether the elements are named, without building the names."""
        return self._names is not None

    def element_name(self, g: int) -> str:
        """The name of element g; has_names must hold."""
        return self.element_names[g]

    def _names_of(self, ids):
        """A function of no arguments that lists the names of ids, or
        None if the elements have no names.  It holds this group's names
        function, not the group, so a group built with it does not keep
        this one alive."""
        names = self._names
        if names is None:
            return None

        def picked():
            every = tuple(names())
            return [every[g] for g in ids]
        return picked

    @cached_property
    def _products(self) -> weakref.WeakValueDictionary:
        """Products self x H by H.uid, each kept while something holds it."""
        return weakref.WeakValueDictionary()

    def _restriction(self, elems, loc: dict) -> "FiniteGroup":
        """The subgroup on the sorted ids elems as a group, element i
        being elems[i]; loc maps elems back to i."""
        table = [[loc[x] for x in self.left_products(a, elems)]
                 for a in elems]
        return FiniteGroup(table, identity=loc[self.identity],
                           name=f"{self.name}|{len(elems)}",
                           names=self._names_of(elems))

    # -- validation of a table from outside --------------------------

    def check_axioms(self) -> None:
        """Raise ValueError unless the table is a group with identity
        self.identity; exact, at |generators| * n row compositions."""
        n = self.order
        e = self.identity
        for row in self.table:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise ValueError("multiplication table is not square over 0..n-1")
        for g in range(n):
            if self.table[e][g] != g or self.table[g][e] != g:
                raise ValueError("identity element does not act as identity")
        for g in range(n):
            if e not in self.table[g]:
                raise ValueError(f"element {g} has no inverse")
        if n == 1:
            return
        # Light's test: the t with (a*t)*b == a*(t*b) for all a, b are
        # closed under products, so testing generators whose products
        # reach every element is exact.  In a group they do.
        t = self.table
        gens = list(dict.fromkeys(self.generators))
        reached, _ = orbit(e, gens, self.mul)
        if len(reached) != n:
            missed = min(set(range(n)).difference(reached))
            raise ValueError(f"multiplication table is not a group: products "
                             f"of its generators miss element {missed}")
        for s in gens:
            compose = itemgetter(*t[s])
            for a in range(n):
                if t[t[a][s]] != compose(t[a]):
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
        """A generating set: a minimal generating sequence, unless the
        builder set one, as group_from_permutations sets the ids of its
        permutation generators."""
        return minimal_generating_sequence(self)

    def row(self, a: int) -> tuple[int, ...]:
        """The products a*b for b = 0..order-1."""
        return self.table[a]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def left_products(self, a: int, elems) -> list[int]:
        """[a*b for b in elems], read off one row."""
        row = self.table[a]
        return [row[b] for b in elems]

    def right_products(self, elems, b: int) -> list[int]:
        """[a*b for a in elems]."""
        t = self.table
        return [t[a][b] for a in elems]

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

    def conjugates(self, x: int, elems) -> list[int]:
        """[x g x^-1 for g in elems], in two bulk products."""
        return self.right_products(self.left_products(x, elems),
                                   self._inv[x])

    def commutes(self, a: int, b: int) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    def element_order(self, g: int) -> int:
        if self._orders is None:
            orders = []
            for x in range(self.order):
                k, y = 1, x
                while y != self.identity:
                    y = self.mul(y, x)
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
        # The class of g is its orbit under conjugation by generators,
        # layer by layer: |class| * |generators| conjugations, in bulk.
        seen: set[int] = set()
        classes = []
        for g in range(self.order):
            if g not in seen:
                cls, new = {g}, [g]
                while new:
                    new = {z for s in self.generators
                           for z in self.conjugates(s, new)} - cls
                    cls |= new
                seen |= cls
                classes.append(tuple(sorted(cls)))
        return tuple(classes)

    def class_index(self, g: int) -> int:
        self.conjugacy_classes()
        return self._class_of[g]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup:
    """A subgroup stored as a sorted tuple of parent element ids."""

    def __init__(self, parent: FiniteGroup, elements) -> None:
        self.parent = parent
        self.elements = tuple(sorted(set(elements)))
        self.element_set = frozenset(self.elements)

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

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Each element in id order not yet in the span of those before."""
        return tuple(span(self.parent, self.elements, self.order)[0])

    def is_normal(self) -> bool:
        G, within = self.parent, self.element_set.issuperset
        return all(within(G.conjugates(x, self.generators))
                   for x in G.generators)

    def canonical_conjugate(self, largest: bool = False) -> "Subgroup":
        """The conjugate with extremal element tuple; smallest by default.

        The conjugates are the orbit of the element tuple under the
        parent's generators only, which is the whole orbit, at a cost of
        |G:N(S)| * |generators| * |S|.
        """
        key = ("canon", self.elements, largest)
        cached = self.parent._subgroup_cache.get(key)
        if cached is None:
            conj = self.parent.conjugates
            conjugates, _ = orbit(
                self.elements, self.parent.generators,
                lambda elems, x: tuple(sorted(conj(x, elems))))
            best = max(conjugates) if largest else min(conjugates)
            cached = Subgroup(self.parent, best)
            self.parent._subgroup_cache[key] = cached
        return cached

    def as_group(self) -> FiniteGroup:
        """This subgroup as a group in its own right, element i being
        self.elements[i]: a permutation group on the same points when
        the parent is one, else a group with its own table.  The
        embedding stays here: from_local and to_local translate.  The
        whole group is its own local group.  A local group keeps its
        parent alive, with the map to local ids, and the parent keeps it
        weakly per element tuple: one object for as long as anything
        holds it, and no reference cycle.
        """
        return self._local[0]

    @cached_property
    def _local(self) -> tuple[FiniteGroup, dict]:
        G, elems = self.parent, self.elements
        if self.order == G.order:
            return G, {g: g for g in elems}
        key = ("asgroup", elems)
        ref = G._subgroup_cache.get(key)
        local = ref and ref()
        if local is None:
            loc = {g: i for i, g in enumerate(elems)}
            local = G._restriction(elems, loc)
            local._embedding = (G, loc)
            G._subgroup_cache[key] = weakref.ref(local)
        return local, local._embedding[1]

    @cached_property
    def to_local(self):
        """to_local(g) is the id in as_group() of the parent element g."""
        return self._local[1].__getitem__

    def from_local(self, i: int) -> int:
        return self.elements[i]

    def coset_index_map(self):
        """Array mapping each parent element g to the index of its coset gH."""
        G = self.parent
        idx = [-1] * G.order
        reps = []
        for g in range(G.order):
            if idx[g] < 0:
                k = len(reps)
                reps.append(g)
                for x in G.left_products(g, self.elements):
                    idx[x] = k
        return reps, idx


class GroupHom:
    """A homomorphism given by its full image table.

    The table is trusted, as every constructor trusts its caller; a map
    given from outside is checked where it enters, as scenario terms
    are by extending their generator images edge by edge (_extend_hom).
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup,
                 images) -> None:
        self.source = source
        self.target = target
        self.images = tuple(images)
        if len(self.images) != source.order:
            raise ValueError("image table must cover every source element")

    def __call__(self, g: int) -> int:
        return self.images[g]

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
        return GroupHom(self.target, self.source, back)


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
    """Inverse of parse_cycles; each cycle is the orbit of its least point."""
    seen: set[int] = set()
    out = []
    for start in range(len(perm)):
        if start not in seen and perm[start] != start:
            cyc, _ = orbit(start, (perm,), lambda x, p: p[x])
            seen.update(cyc)
            out.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(out) or "()"


def group_from_permutations(generators, degree: int = 0,
                            name: str = "", cap: int = DEFAULT_CLOSURE_CAP
                            ) -> "PermutationGroup":
    """Close a list of permutations (tuples or cycle strings) into a group.

    Element i*j is the permutation k -> i[j[k]].  The elements are the
    orbit of the identity in breadth-first order under right
    multiplication by the generators.  Each generator is checked to be
    a permutation, so the closure is a group.
    """
    generators = list(generators)
    perms = [parse_cycles(g, degree) if isinstance(g, str) else tuple(g)
             for g in generators]
    deg = max([degree] + [len(p) for p in perms])
    perms = [p + tuple(range(len(p), deg)) for p in perms]
    for g, p in zip(generators, perms):
        if sorted(p) != list(range(deg)):
            raise ValueError(f"generator {g!r} is not a permutation "
                             f"of {deg} points")
    key, lookup, _ = codec = _codec(deg)
    elems, _ = orbit(key(range(deg)), [key(p) for p in perms],
                     lambda a, s: s.translate(lookup(a)), limit=cap)
    G = PermutationGroup(codec, elems, [lookup(a) for a in elems],
                         name or f"perm{len(elems)}")
    G.generators = tuple(G._index[key(p)] for p in perms)
    return G


def _codec(degree: int):
    """(key, lookup, decode) for permutations of degree points.

    key encodes a sequence of points as a permutation's hashable form;
    p.translate(lookup(a)) is the form of a*p, k -> a[p[k]], in one
    C-level call; decode gives back the tuple of points.  Up to 256
    points a permutation is bytes and lookup pads it to bytes.translate's
    256-byte table; above that it is a str of code points, and lookup
    is a tuple, which str.translate indexes by code point.
    """
    if degree <= 256:
        tail = bytes(range(degree, 256))
        return bytes, lambda a: a + tail, tuple

    def points(a):
        return tuple(map(ord, a))
    return (lambda p: "".join(map(chr, p))), points, points


class PermutationGroup(FiniteGroup):
    """A group of permutations, element i being perms[i]; no table.

    The group keeps its permutations, a dict from permutation to id, and
    a lookup form of each permutation (see _codec), so a product is one
    translate and one dict look-up.  Element 0 is the identity.  A row is
    computed when read; only a product of which the group is a factor
    reads, and keeps, them all.
    """

    def __init__(self, codec, perms, lookups, name: str) -> None:
        decode = codec[2]
        self._start(len(perms), 0, name,
                    lambda: map(cycles_of, map(decode, perms)))
        self._codec = codec
        self._perms = perms
        self._lookups = lookups
        self._index = {p: i for i, p in enumerate(perms)}
        self.degree = len(decode(perms[0]))

    def permutation(self, g: int) -> tuple[int, ...]:
        """Element g as the tuple of images of the points 0..degree-1."""
        return self._codec[2](self._perms[g])

    def element_of(self, perm) -> int | None:
        """The id of a permutation given as a tuple, or None if it is
        not an element."""
        if len(perm) != self.degree:
            return None
        return self._index.get(self._codec[0](perm))

    def element_name(self, g: int) -> str:
        return cycles_of(self.permutation(g))

    def _names_of(self, ids):
        perms, decode = self._perms, self._codec[2]
        return lambda: [cycles_of(decode(perms[g])) for g in ids]

    def _restriction(self, elems, loc: dict) -> "PermutationGroup":
        # Sorted ids start at the identity 0, as a local group must.
        return PermutationGroup(self._codec, [self._perms[g] for g in elems],
                                [self._lookups[g] for g in elems],
                                f"{self.name}|{len(elems)}")

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        # Read only by the products this group is a factor of, once per
        # product element, so all rows at once: a tuple indexes faster
        # than a RowCache, whose look-ups cost small-ambients about 3%.
        return tuple(map(self.row, range(self.order)))

    @cached_property
    def _inv(self) -> tuple[int, ...]:
        # the points sorted by their images are the inverse permutation
        key, _, decode = self._codec
        index, points = self._index, range(self.degree)
        return tuple(index[key(sorted(points, key=decode(p).__getitem__))]
                     for p in self._perms)

    def row(self, a: int) -> tuple[int, ...]:
        return tuple(self.left_products(a, range(self.order)))

    def mul(self, a: int, b: int) -> int:
        return self._index[self._perms[b].translate(self._lookups[a])]

    def left_products(self, a: int, elems) -> list[int]:
        index, perms, la = self._index, self._perms, self._lookups[a]
        return [index[perms[b].translate(la)] for b in elems]

    def right_products(self, elems, b: int) -> list[int]:
        index, lookups, pb = self._index, self._lookups, self._perms[b]
        return [index[pb.translate(lookups[a])] for a in elems]

    def conj(self, x: int, g: int) -> int:
        lookups = self._lookups
        return self._index[self._perms[self._inv[x]].translate(
            lookups[g]).translate(lookups[x])]


def element_by_name(G: FiniteGroup, spec) -> int:
    """Resolve an element spec: an integer id or a cycle-notation string."""
    if isinstance(spec, int):
        if not 0 <= spec < G.order:
            raise ValueError(f"element id {spec} out of range for {G.name}")
        return spec
    if isinstance(spec, str):
        if not isinstance(G, PermutationGroup):
            raise ValueError("group has no permutation realization")
        g = G.element_of(parse_cycles(spec, G.degree))
        if g is None:
            raise ValueError(f"{spec!r} is not an element of {G.name}")
        return g
    raise TypeError(f"bad element spec {spec!r}")


# -- derived constructions -------------------------------------------

def orbit(start, gens, act, limit: int | None = None):
    """The points act(x, s) reaches from start, with a Schreier tree.

    Returns (points, tree): points in breadth-first order, start first,
    and tree[y] = (x, k) for the point x and generator index k with
    act(x, gens[k]) == y that first reached y; tree[start] is None.
    Raises SizeLimitError past limit points.
    """
    points = [start]
    tree = {start: None}
    for x in points:
        for k, s in enumerate(gens):
            y = act(x, s)
            if y not in tree:
                if limit is not None and len(points) >= limit:
                    raise SizeLimitError(f"orbit exceeded {limit} points")
                tree[y] = (x, k)
                points.append(y)
    return points, tree


def subgroup_generated(G: FiniteGroup, gens) -> Subgroup:
    """The subgroup generated by gens, closed one coset at a time."""
    return Subgroup(G, span(G, gens)[1])


def span(G: FiniteGroup, candidates, order: int | None = None
         ) -> tuple[list[int], list[int]]:
    """(kept, elements): each candidate outside the span of those kept
    before extends it by extend_subgroup, until the span has the given
    order; no candidate is drawn after that, so they may come lazily."""
    kept: list[int] = []
    elems, members = [G.identity], {G.identity}
    for g in candidates:
        if len(elems) == order:
            break
        if g not in members:
            kept.append(g)
            elems = extend_subgroup(G, elems, members, kept)
    return kept, elems


def extend_subgroup(G: FiniteGroup, elems: list[int], members: set[int],
                    gens: list[int]) -> list[int]:
    """Extend elems = <gens[:-1]> to <gens>, one right coset at a time.

    A coset K r s of K = elems is added whenever a coset representative
    r times a generator s falls outside the span, so the cost is |<gens>|
    products plus one per representative and generator (Dimino's
    algorithm).  members grows in place to the element set of the result.
    Not an orbit: it adds whole cosets, so it never redoes the products
    of elems that a closure under all of gens would.
    """
    out = list(elems)
    reps = [G.identity]
    for r in reps:
        for rs in G.left_products(r, gens):
            if rs not in members:
                reps.append(rs)
                coset = G.right_products(elems, rs)
                members.update(coset)
                out.extend(coset)
    return out


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, range(G.order))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [G.identity])


def centralizer(G: FiniteGroup, part) -> Subgroup:
    """Centralizer of an element, an iterable of elements, or a Subgroup.

    Of a Subgroup only its generators are tested, and the result is kept
    on G keyed by the subgroup's elements, so it lives as long as G.
    """
    if isinstance(part, Subgroup):
        key = ("centralizer", part.elements)
        cached = G._subgroup_cache.get(key)
        if cached is None:
            cached = G._subgroup_cache[key] = centralizer(G, part.generators)
        return cached
    if isinstance(part, int):
        part = [part]
    found = range(G.order)
    for s in part:
        found = [x for x, xs, sx in zip(found, G.right_products(found, s),
                                         G.left_products(s, found))
                 if xs == sx]
    return Subgroup(G, found)


def normalizer(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """The x with x S x^-1 = S; since conjugation is injective, x S x^-1
    contains S as soon as it holds the generators of S."""
    gens, within = S.generators, S.element_set.issuperset
    return Subgroup(G, [x for x in range(G.order)
                        if within(G.conjugates(x, gens))])


def center(G: FiniteGroup) -> Subgroup:
    if G._center is None:
        G._center = centralizer(G, G.generators)
    return G._center


def class_structure_constants(G: FiniteGroup):
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
        for x, y in enumerate(G.right_products(inverse_of, cls[0])):
            out[class_of[x]][class_of[y]][t] += 1
    G._subgroup_cache["structure"] = out
    return out


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
        self._start(nl * nr, left.identity * nr + right.identity,
                    f"{left.name}x{right.name}",
                    (lambda: [f"({x},{y})" for x in left.element_names
                              for y in right.element_names])
                    if left.has_names and right.has_names else None)
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
        return tuple([c * nr + d for c in self._lt[a // nr] for d in ra])

    def mul(self, a: int, b: int) -> int:
        nr = self._nr
        return self._lt[a // nr][b // nr] * nr + self._rt[a % nr][b % nr]

    def left_products(self, a: int, elems) -> list[int]:
        nr = self._nr
        la, ra = self._lt[a // nr], self._rt[a % nr]
        return [la[b // nr] * nr + ra[b % nr] for b in elems]

    def right_products(self, elems, b: int) -> list[int]:
        nr = self._nr
        lt, rt = self._lt, self._rt
        b1, b2 = b // nr, b % nr
        return [lt[a // nr][b1] * nr + rt[a % nr][b2] for a in elems]

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


def product_group(G: FiniteGroup, H: FiniteGroup) -> ProductGroup:
    """The direct product G x H, owned by G.

    G keeps its products weakly, keyed by the uid of the right factor:
    repeated calls return the same object for as long as anything holds
    it, and a product goes with its factors once nothing does.
    """
    P = G._products.get(H.uid)
    if P is None:
        P = G._products[H.uid] = ProductGroup(G, H)
    return P


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """The quotient G/N with its projection; N must be normal.  Kept on G."""
    key = ("quotient", N.elements)
    cached = G._subgroup_cache.get(key)
    if cached is not None:
        Q, images = cached
        return Q, GroupHom(G, Q, images)
    if not N.is_normal():
        raise ValueError("quotient requires a normal subgroup")
    reps, idx = N.coset_index_map()
    table = [[idx[x] for x in G.left_products(r, reps)] for r in reps]
    rep_names = G._names_of(reps)
    Q = FiniteGroup(table, identity=idx[G.identity],
                    name=f"{G.name}/{N.order}",
                    names=(lambda: [f"{x}N" for x in rep_names()])
                    if rep_names else None)
    # The projection refers to G, so G keeps only its image table.
    images = tuple(idx)
    G._subgroup_cache[key] = (Q, images)
    return Q, GroupHom(G, Q, images)


def double_cosets(G: FiniteGroup, A: Subgroup, B: Subgroup) -> tuple[int, ...]:
    """Minimal representatives of the double cosets AgB, in id order,
    each marking its |A||B| products in |A| bulk calls: an orbit under
    generators of A and B takes fewer, but finding them costs as much."""
    seen = [False] * G.order
    reps = []
    for g in range(G.order):
        if seen[g]:
            continue
        reps.append(g)
        for ag in G.right_products(A.elements, g):
            for x in G.left_products(ag, B.elements):
                seen[x] = True
    return tuple(reps)


# -- p-subgroups ------------------------------------------------------

def p_subgroups_up_to_conjugacy(G: FiniteGroup, p: int
                                ) -> tuple[Subgroup, ...]:
    """Representatives of conjugacy classes of p-subgroups, smallest first.

    Built bottom-up by cyclic extension: a class representative P is
    extended by elements g of its normalizer with g^p in P.  Classes are
    keyed by the smallest conjugate element tuple.  Memoized on G per p.
    """
    _check_prime(p)
    key = ("psubgroups", p)
    cached = G._subgroup_cache.get(key)
    if cached is not None:
        return cached
    triv = trivial_subgroup(G)
    found = {triv.elements: triv}
    level = [triv]
    while level:
        nxt = []
        for P in level:
            N = normalizer(G, P)
            for g in N.elements:
                if g in P.element_set:
                    continue
                if G.power(g, p) not in P.element_set:
                    continue
                canon = _cyclic_extension(G, P, g, p) \
                    .canonical_conjugate().elements
                if canon not in found:
                    rep = Subgroup(G, canon)
                    found[canon] = rep
                    nxt.append(rep)
        level = nxt
    out = tuple(sorted(found.values(), key=lambda S: (S.order, S.elements)))
    G._subgroup_cache[key] = out
    return out


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown one cyclic extension at a time.

    Below Sylow order p divides |N(P):P|, so the normalizer has an
    element g outside P with g^p in P; the first such g in id order
    extends P to a p-group of order p|P|.  The scan stops at that g:
    membership and the p-th power are tested first, and g normalizes P
    when it conjugates the generators of P into P, so no normalizer is
    built and no conjugacy classes are listed.  Kept on G per p.
    """
    _check_prime(p)
    key = ("sylow", p)
    cached = G._subgroup_cache.get(key)
    if cached is not None:
        return cached
    full = int_p_part(G.order, p)
    P = trivial_subgroup(G)
    while P.order < full:
        members, gens = P.element_set, P.generators
        g = next((g for g in range(G.order) if g not in members
                  and G.power(g, p) in members
                  and members.issuperset(G.conjugates(g, gens))), None)
        if g is None:
            break
        P = _cyclic_extension(G, P, g, p)
    if P.order != full:
        raise AssertionError(
            f"p-subgroup of order {P.order} stopped below |G|_p = {full}")
    G._subgroup_cache[key] = P
    return P


def _cyclic_extension(G: FiniteGroup, P: Subgroup, g: int,
                      p: int) -> Subgroup:
    """The subgroup P, gP, ..., g^(p-1)P for g normalizing P, g^p in P."""
    ext = set(P.elements)
    gk = g
    for _ in range(p - 1):
        ext.update(G.left_products(gk, P.elements))
        gk = G.mul(gk, g)
    return Subgroup(G, ext)


def _check_prime(p: int) -> None:
    if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


# -- isomorphism search ----------------------------------------------

def minimal_generating_sequence(G: FiniteGroup) -> tuple[int, ...]:
    """Each element in id order that is not yet in the span of those before."""
    return tuple(span(G, range(G.order), G.order)[0])


def _extend_hom(G: FiniteGroup, gens, imgs, mul, one):
    """Extend generator images to the table of a hom into a target with
    product mul and identity one, or None if the images are inconsistent
    or gens does not generate G.  Over the orbit of the identity in
    breadth-first order, each edge a -> a*s sets the image of a*s or must
    agree with it; target values are compared, never hashed."""
    images = {G.identity: one}
    reached = [G.identity]
    for a in reached:
        ia = images[a]
        for b, t in zip(G.left_products(a, gens), imgs):
            ib = mul(ia, t)
            if b not in images:
                images[b] = ib
                reached.append(b)
            elif images[b] != ib:
                return None
    if len(reached) != G.order:
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
        table = _extend_hom(G, gens, imgs, H.mul, H.identity)
        if table is not None and len(set(table)) == G.order:
            out.append(GroupHom(G, H, table))
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
