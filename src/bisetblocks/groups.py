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
classes are the orbits of one bulk row of conjugates per generator, and
a centralizer is read off the products x*s and s*x of the fixed s.
Every orbit of int points is one sweep_orbits, which records a Schreier
tree; transversal forms from it, only where they are read, elements
taking an orbit's least point to its points.  Double cosets AgB are
the orbits of A's generators on one coset map of B.  orbit closes
points that are not ints, and in check_axioms the identity of a table
not yet known to be a group.  Input is checked once, where it enters:
constructors trust their caller, a multiplication table given
from outside is checked by check_axioms, exactly on generators (Light's
associativity test), and the generators of a permutation group are
checked to be permutations.  Conjugates, centralizers and normalizers
of subgroups are computed from generators rather than from every
element.  A Sylow subgroup grows by the first element in id order that
extends it, tested as it is scanned, so no normalizer is built for it.
Only a permutation group names its elements, in cycle notation
(element_name); an element of any other group is named by its id.
Groups are immutable once built.  What a group keeps about itself,
computed on first read, is plain data that holds no reference back to
it: classes, element orders, and through FiniteGroup.kept the element
tuples of canonical conjugates, centralizers, the centre, p-subgroup
classes and Sylow subgroups, quotients and block coefficients, each
wrapped anew on read.  So a group and all it keeps die by reference
count, in no cycle; the one exception is the character table, which
refers to its group and is kept only on groups that live for the
process.  A local group holds its parent, which holds it weakly, as G
holds its products G x H: each is one object while anything holds it.
The whole group is its own local group.  An attribute computed on
first read is a cached_attribute, which stores it in the instance
without the lock that functools.cached_property takes in Python 3.11.
Canonical representatives are always the smallest available integer
id, which keeps every enumeration in the package deterministic.
"""

from __future__ import annotations

import itertools
import weakref
from math import isqrt, lcm
from operator import itemgetter

DEFAULT_CLOSURE_CAP = 10080


class cached_attribute:
    """A method of no arguments read as an attribute, computed on first
    read and stored in the instance __dict__, which shadows this
    descriptor from then on.  Unlike functools.cached_property in
    Python 3.11, the first read takes no lock."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class SizeLimitError(ValueError):
    """Raised when a construction would exceed the configured order cap."""


class FiniteGroup:
    """A finite group; this class stores its full multiplication table."""

    _uid_counter = itertools.count()
    bundled = False             # set on the groups named_group returns

    def __init__(self, table, identity: int = 0, name: str = "") -> None:
        self.table = tuple(tuple(row) for row in table)
        self._start(len(self.table), identity, name)

    def _start(self, order: int, identity: int, name: str) -> None:
        """Set the state every group carries, however it multiplies."""
        self.order = order
        self.identity = identity
        self.name = name or f"G{order}"
        self.uid = next(FiniteGroup._uid_counter)
        self._classes = None
        self._class_of = None
        self._kept: dict = {}   # what kept() keeps; local groups weakly

    def kept(self, key, compute):
        """The value kept on this group under key, compute() on the first
        ask: plain data that holds no reference back to the group, save
        the character table of a group that lives for the process."""
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = compute()
        return value

    @cached_attribute
    def _products(self) -> weakref.WeakValueDictionary:
        """Products self x H by H.uid, each kept while something holds it."""
        return weakref.WeakValueDictionary()

    def _restriction(self, elems, loc: dict) -> "FiniteGroup":
        """The subgroup on the sorted ids elems as a group, element i
        being elems[i]; loc maps elems back to i."""
        table = [[loc[x] for x in self.left_products(a, elems)]
                 for a in elems]
        return FiniteGroup(table, identity=loc[self.identity],
                           name=f"{self.name}|{len(elems)}")

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

    @cached_attribute
    def _inv(self) -> tuple[int, ...]:
        e = self.identity
        return tuple(row.index(e) for row in self.table)

    @cached_attribute
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
        return self.kept("orders", lambda: tuple(
            map(self._order_by_powers, range(self.order))))[g]

    def _order_by_powers(self, g: int) -> int:
        k, y = 1, g
        while y != self.identity:
            y = self.mul(y, g)
            k += 1
        return k

    def exponent(self) -> int:
        """The lcm of the element orders.  Order is a class function, so
        one representative per class is enough, each order found from its
        own powers without the table of every element's order."""
        return lcm(*(self._order_by_powers(cls[0])
                     for cls in self.conjugacy_classes()))

    def is_abelian(self) -> bool:
        """Exact on generators: the centralizer of each generator is a
        subgroup, so it is G when it holds all of them."""
        gens = self.generators
        return all(self.commutes(a, b)
                   for i, a in enumerate(gens) for b in gens[:i])

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
        # The classes are the orbits of conjugation by the generators:
        # one bulk row of conjugates per generator, then one sweep.
        rows = [self.conjugates(s, range(self.order))
                for s in self.generators]
        return tuple(tuple(sorted(points))
                     for points in sweep_orbits(self.order, rows)[1])

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

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    @cached_attribute
    def element_set(self) -> frozenset:
        """The elements as a set, built on first read: most subgroups
        are never tested for membership."""
        return frozenset(self.elements)

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

    @cached_attribute
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
        G = self.parent

        def extremal():
            conj = G.conjugates
            conjugates, _ = orbit(self.elements, G.generators,
                                  lambda S, x: tuple(sorted(conj(x, S))))
            return max(conjugates) if largest else min(conjugates)
        return _kept_subgroup(G, ("canon", self.elements, largest), extremal)

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

    @cached_attribute
    def _local(self) -> tuple[FiniteGroup, dict | range]:
        G, elems = self.parent, self.elements
        if self.order == G.order:
            return G, range(G.order)
        key = ("asgroup", elems)
        ref = G._kept.get(key)
        local = ref and ref()
        if local is None:
            loc = {g: i for i, g in enumerate(elems)}
            local = G._restriction(elems, loc)
            local._embedding = (G, loc)
            G._kept[key] = weakref.ref(local)
        return local, local._embedding[1]

    @cached_attribute
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


def _kept_subgroup(G: FiniteGroup, key, compute) -> Subgroup:
    """Subgroup(G, G.kept(key, compute)), not sorting kept elements again."""
    S = object.__new__(Subgroup)
    S.parent, S.elements = G, G.kept(key, compute)
    return S


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
    return "".join("(" + " ".join(str(p + 1) for p in cyc) + ")"
                   for cyc in sweep_orbits(len(perm), [perm])[1]
                   if len(cyc) > 1) or "()"


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
        self._start(len(perms), 0, name)
        self._codec = codec
        self._perms = perms
        self._lookups = lookups
        self._index = {p: i for i, p in enumerate(perms)}
        self.degree = len(codec[2](perms[0]))

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
        """Element g in cycle notation."""
        return cycles_of(self.permutation(g))

    def _restriction(self, elems, loc: dict) -> "PermutationGroup":
        # Sorted ids start at the identity 0, as a local group must.
        return PermutationGroup(self._codec, [self._perms[g] for g in elems],
                                [self._lookups[g] for g in elems],
                                f"{self.name}|{len(elems)}")

    @cached_attribute
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        # Read only by the products this group is a factor of, once per
        # product element, so all rows at once: a tuple indexes faster
        # than a RowCache, whose look-ups cost small-ambients about 3%.
        return tuple(map(self.row, range(self.order)))

    @cached_attribute
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


def sweep_orbits(size: int, rows) -> tuple[list[int], list[list[int]], list]:
    """(orbit_of, orbits, tree) of the permutations rows on 0..size-1.

    One sweep, orbit by orbit from the least point not yet reached and
    in breadth-first order: orbits lists each orbit with its least point
    first, orbit_of[y] numbers the orbit of y, and tree[y] = (x, k) for
    the step rows[k][x] == y that first reached y, as in orbit.
    """
    orbit_of, tree = [-1] * size, [None] * size
    orbits: list[list[int]] = []
    indexed = list(enumerate(rows))
    for x in range(size):
        if orbit_of[x] >= 0:
            continue
        j = len(orbits)
        orbit_of[x] = j
        points = [x]
        for y in points:
            for k, row in indexed:
                z = row[y]
                if orbit_of[z] < 0:
                    orbit_of[z] = j
                    tree[z] = (y, k)
                    points.append(z)
        orbits.append(points)
    return orbit_of, orbits, tree


def transversal(G: FiniteGroup, gens, points, tree, u):
    """u, with u[y] set for each y of one orbit listed by sweep_orbits as
    points, swept under the rows of gens, to an element taking the
    orbit's first point to y: u_y = gens[k].u_x along tree[y] = (x, k)."""
    mul = G.mul
    u[points[0]] = G.identity
    for y in points[1:]:
        x, k = tree[y]
        u[y] = mul(gens[k], u[x])
    return u


def subgroup_generated(G: FiniteGroup, gens,
                       max_order: int | None = None) -> Subgroup | None:
    """The subgroup generated by gens, closed one coset at a time; None,
    closed no further, once it has more than max_order elements."""
    elems = span(G, gens, limit=max_order)[1]
    if max_order is not None and len(elems) > max_order:
        return None
    return Subgroup(G, elems)


def span(G: FiniteGroup, candidates, order: int | None = None,
         limit: int | None = None) -> tuple[list[int], list[int]]:
    """(kept, elements): each candidate outside the span of those kept
    before extends it by extend_subgroup, until the span has the given
    order; no candidate is drawn after that, so they may come lazily.
    The closure stops as soon as it has more than limit elements, which
    are then only part of the span."""
    kept: list[int] = []
    elems, members = [G.identity], {G.identity}
    for g in candidates:
        if len(elems) == order or limit is not None and len(elems) > limit:
            break
        if g not in members:
            kept.append(g)
            elems = extend_subgroup(G, elems, members, kept, limit)
    return kept, elems


def extend_subgroup(G: FiniteGroup, elems: list[int], members: set[int],
                    gens: list[int], limit: int | None = None) -> list[int]:
    """Extend elems = <gens[:-1]> to <gens>, one right coset at a time.

    A coset K r s of K = elems is added whenever a coset representative
    r times a generator s falls outside the span, so the cost is |<gens>|
    products plus one per representative and generator (Dimino's
    algorithm).  members grows in place to the element set of the result.
    Not an orbit: it adds whole cosets, so it never redoes the products
    of elems that a closure under all of gens would.  With a limit, the
    extension stops at the first coset that takes it past limit elements.
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
                if limit is not None and len(out) > limit:
                    return out
    return out


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, range(G.order))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [G.identity])


def centralizer(G: FiniteGroup, part) -> Subgroup:
    """Centralizer of an element, an iterable of elements, or a Subgroup.

    Of a Subgroup only its generators are tested, and its elements are
    kept on G keyed by the subgroup's elements.
    """
    if isinstance(part, Subgroup):
        return _kept_subgroup(G, ("centralizer", part.elements), lambda:
                              centralizer(G, part.generators).elements)
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
    return _kept_subgroup(G, "center",
                          lambda: centralizer(G, G.generators).elements)


def class_structure_constants(G: FiniteGroup):
    """Integer constants a[i][j][k] with K_i K_j = sum_k a[i][j][k] K_k.

    a[i][j][k] counts the pairs x in K_i, y in K_j with x y = z_k for the
    representative z_k of K_k; each x has exactly one partner y = x^-1 z_k,
    so the count takes |G| products per target class.  Kept on G.
    """
    def count():
        classes = G.conjugacy_classes()
        k = len(classes)
        class_of = [G.class_index(g) for g in range(G.order)]
        inverse_of = [G.inv(x) for x in range(G.order)]
        out = [[[0] * k for _ in range(k)] for _ in range(k)]
        for t, cls in enumerate(classes):
            for x, y in enumerate(G.right_products(inverse_of, cls[0])):
                out[class_of[x]][class_of[y]][t] += 1
        return out
    return G.kept("structure", count)


class ProductGroup(FiniteGroup):
    """The direct product G x H; the pair (a, b) has id a * |H| + b.

    Products multiply componentwise by indexing the factors' rows, so no
    table of the product is built; the dense table of a local group is
    read off the same rows.  Its classes are the products of the factor
    classes.
    """

    def __init__(self, left: FiniteGroup, right: FiniteGroup) -> None:
        nl, nr = left.order, right.order
        if nl * nr > DEFAULT_CLOSURE_CAP:
            raise SizeLimitError("direct product exceeds the order cap")
        self._start(nl * nr, left.identity * nr + right.identity,
                    f"{left.name}x{right.name}")
        self.left = left
        self.right = right
        self._nr = nr
        self._lt, self._rt = left._rows, right._rows
        self._linv, self._rinv = left._inv, right._inv

    def encode(self, a: int, b: int) -> int:
        return a * self._nr + b

    def decode(self, x: int) -> tuple[int, int]:
        return divmod(x, self._nr)

    @cached_attribute
    def _rows(self):
        # Only read when this product is a factor of another product.
        # The rows are read off the factor rows, not through self.row,
        # so the cache holds no reference back to this product.
        nr, lt, rt = self._nr, self._lt, self._rt
        return RowCache(lambda a: tuple([c * nr + d for c in lt[a // nr]
                                         for d in rt[a % nr]]))

    @cached_attribute
    def generators(self) -> tuple[int, ...]:
        """(s,1) for the left generators s, then (1,t) for the right ones."""
        nr = self._nr
        e1, e2 = self.left.identity, self.right.identity
        return (tuple(s * nr + e2 for s in self.left.generators)
                + tuple(e1 * nr + t for t in self.right.generators))

    @cached_attribute
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

    def _restriction(self, elems, loc: dict) -> FiniteGroup:
        # Each entry is read off the two factor rows, (a,b)(c,d) = (ac,bd).
        nr, lt, rt = self._nr, self._lt, self._rt
        pairs = [divmod(x, nr) for x in elems]
        table = [tuple([loc[la[c] * nr + ra[d]] for c, d in pairs])
                 for la, ra in [(lt[a], rt[b]) for a, b in pairs]]
        return FiniteGroup(table, identity=loc[self.identity],
                           name=f"{self.name}|{len(elems)}")

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
    it, and a product goes with its factors once nothing does.  A
    product of two bundled groups (from named_group, which live as long
    as the process) lives as long too, so it is built once.
    """
    P = G._products.get(H.uid)
    if P is None:
        P = G._products[H.uid] = ProductGroup(G, H)
        if G.bundled and H.bundled:
            _BUNDLED_PRODUCTS.append(P)
    return P


_BUNDLED_PRODUCTS: list = []


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """The quotient G/N with its projection; N must be normal.  Q and the
    image table are kept on G, as the projection refers to G."""
    def build():
        if not N.is_normal():
            raise ValueError("quotient requires a normal subgroup")
        reps, idx = N.coset_index_map()
        table = [[idx[x] for x in G.left_products(r, reps)] for r in reps]
        Q = FiniteGroup(table, identity=idx[G.identity],
                        name=f"{G.name}/{N.order}")
        return Q, tuple(idx)
    Q, images = G.kept(("quotient", N.elements), build)
    return Q, GroupHom(G, Q, images)


def double_cosets(G: FiniteGroup, A: Subgroup, B: Subgroup) -> tuple[int, ...]:
    """Minimal representatives of the double cosets AgB, in id order:
    the orbits of A's generators on the cosets gB, which are numbered
    by their minimal members, so each orbit's least coset holds the
    least member of its double coset."""
    reps, idx = B.coset_index_map()
    rows = [[idx[x] for x in G.left_products(a, reps)]
            for a in A.generators]
    return tuple(reps[points[0]]
                 for points in sweep_orbits(len(reps), rows)[1])


# -- p-subgroups ------------------------------------------------------

def p_subgroups_up_to_conjugacy(G: FiniteGroup, p: int
                                ) -> tuple[Subgroup, ...]:
    """Representatives of conjugacy classes of p-subgroups, smallest first.

    Built bottom-up by cyclic extension: a class representative P is
    extended by elements g of its normalizer with g^p in P.  Classes are
    keyed by the smallest conjugate element tuple.  The element tuples
    are kept on G per p.
    """
    _check_prime(p)
    return tuple(Subgroup(G, elems) for elems in
                 G.kept(("psubgroups", p), lambda: _p_subgroup_classes(G, p)))


def _p_subgroup_classes(G: FiniteGroup, p: int) -> tuple[tuple[int, ...], ...]:
    triv = trivial_subgroup(G)
    found = {triv.elements}
    level = [triv]
    while level:
        nxt = []
        for P in level:
            N = normalizer(G, P)
            for g in N.elements:
                if g in P.element_set or G.power(g, p) not in P.element_set:
                    continue
                ext = extend_subgroup(G, list(P.elements), set(P.elements),
                                      [*P.generators, g])
                canon = Subgroup(G, ext).canonical_conjugate().elements
                if canon not in found:
                    found.add(canon)
                    nxt.append(Subgroup(G, canon))
        level = nxt
    return tuple(sorted(found, key=lambda elems: (len(elems), elems)))


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown one cyclic extension at a time.

    Below Sylow order p divides |N(P):P|, so the normalizer has an
    element g outside P with g^p in P; the first such g in id order
    extends P by one Dimino step (extend_subgroup) to a p-group of
    order p|P|, the cosets P, gP, ..., g^(p-1)P.  The scan stops at that g:
    membership and the p-th power are tested first, and g normalizes P
    when it conjugates the generators of P into P, so no normalizer is
    built and no conjugacy classes are listed.  Its elements are kept
    on G per p.
    """
    _check_prime(p)
    return _kept_subgroup(G, ("sylow", p), lambda: _sylow_elements(G, p))


def _sylow_elements(G: FiniteGroup, p: int) -> tuple[int, ...]:
    full = int_p_part(G.order, p)
    P = trivial_subgroup(G)
    while P.order < full:
        members, gens = P.element_set, P.generators
        g = next((g for g in range(G.order) if g not in members
                  and G.power(g, p) in members
                  and members.issuperset(G.conjugates(g, gens))), None)
        if g is None:
            break
        P = Subgroup(G, extend_subgroup(G, list(P.elements), set(members),
                                        [*gens, g]))
    if P.order != full:
        raise AssertionError(
            f"p-subgroup of order {P.order} stopped below |G|_p = {full}")
    return P.elements


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
