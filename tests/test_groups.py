"""Finite groups and direct products: construction, subgroups, quotients."""

import gc
import hashlib
import random
import tracemalloc
import weakref
from math import lcm
from pathlib import Path

import pytest

from bisetblocks import groups
from bisetblocks.groups import (FiniteGroup, GroupHom, ProductGroup,
                                RowCache, SizeLimitError, Subgroup,
                                _extend_hom, cached_attribute, center,
                                centralizer, cycles_of, double_cosets,
                                element_by_name,
                                group_from_permutations,
                                int_p_part, int_p_prime_part, isomorphisms,
                                minimal_generating_sequence, normalizer,
                                orbit, p_subgroups_up_to_conjugacy,
                                parse_cycles,
                                product_group, quotient, subgroup_generated,
                                sweep_orbits, sylow_subgroup, transversal,
                                trivial_subgroup)
from bisetblocks.gsets import coset_action
from bisetblocks.namedgroups import BUNDLED_NAMES, named_group, trivial_group
from bisetblocks.subdirect import full_product_subgroup
from bisetblocks.suites import random_action

from oracles import (check_action, check_hom, check_subgroup,
                     conjugate_subgroup, dense_table, double_coset_of,
                     hom_kernel, is_p_group, permutations,
                     sylow_by_normalizers, union_find_labels)

EXPECTED_ORDERS = {"S3": 6, "S4": 24, "A4": 12, "D8": 8, "Q8": 8,
                   "C2xC2": 4}


def el(G, spec):
    return element_by_name(G, spec)


def test_named_group_orders_and_abelianness():
    for n in range(1, 13):
        G = named_group(f"C{n}")
        assert G.order == n and G.is_abelian()
    for name, order in EXPECTED_ORDERS.items():
        G = named_group(name)
        assert G.order == order
    assert not named_group("S3").is_abelian()
    assert not named_group("Q8").is_abelian()
    assert named_group("C2xC2").is_abelian()


def test_named_group_is_cached():
    assert named_group("S4") is named_group("S4")


def test_cayley_axioms_spot_check():
    G = named_group("S4")
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (rng.randrange(G.order) for _ in range(3))
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
    for a in range(G.order):
        assert G.mul(a, G.identity) == a
        assert G.mul(G.inv(a), a) == G.identity


def test_parse_cycles_round_trip():
    p = parse_cycles("(1 2 3)(4 5)", degree=5)
    assert p == (1, 2, 0, 4, 3)
    assert cycles_of(p) == "(1 2 3)(4 5)"
    assert parse_cycles("()", degree=3) == (0, 1, 2)
    assert cycles_of((0, 1, 2)) == "()"


@pytest.mark.parametrize("text", ["(1 2", "1 2", "(1 2)3", "(1 2))",
                                  "3(1 2)"])
def test_parse_cycles_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_cycles(text)


@pytest.mark.parametrize("generator", ["(1 2)(2 3)", (0, 0, 1), (0, 3)])
def test_group_from_permutations_rejects_a_non_permutation(generator):
    with pytest.raises(ValueError, match="is not a permutation"):
        group_from_permutations(["(1 2)", generator])


def test_group_from_permutations_respects_cap():
    with pytest.raises(SizeLimitError):
        group_from_permutations(["(1 2)", "(1 2 3 4 5 6 7)"], cap=100)


def test_element_orders_and_exponent():
    S4 = named_group("S4")
    assert S4.element_order(el(S4, "(1 2 3 4)")) == 4
    assert S4.element_order(el(S4, "(1 2)(3 4)")) == 2
    assert named_group("S3").exponent() == 6
    assert named_group("Q8").exponent() == 4
    assert named_group("C12").exponent() == 12


def _permutation_order(perm):
    k, power = 1, perm
    while power != tuple(range(len(perm))):
        power = tuple(perm[x] for x in power)
        k += 1
    return k


# generators and exponent
LARGER_GROUPS = {"A5": (["(1 2 3)", "(1 2 3 4 5)"], 30),
                 "S5": (["(1 2)", "(1 2 3 4 5)"], 60),
                 "S6": (["(1 2)", "(1 2 3 4 5 6)"], 60)}


@pytest.mark.parametrize("name", BUNDLED_NAMES + tuple(LARGER_GROUPS))
def test_exponent_reads_one_representative_per_class(name):
    # a fresh group each time, so no test before has built its orders
    if name in LARGER_GROUPS:
        gens, expected = LARGER_GROUPS[name]
        G = group_from_permutations(gens, name=name)
    else:
        G = named_group.__wrapped__(name)
        expected = None
    brute = lcm(*map(_permutation_order, permutations(G)))
    assert expected in (None, brute)
    assert G.exponent() == brute
    assert "orders" not in G._kept


def test_conjugacy_class_counts():
    for name, k in [("S3", 3), ("S4", 5), ("A4", 4), ("D8", 5), ("Q8", 5),
                    ("C6", 6)]:
        assert len(named_group(name).conjugacy_classes()) == k


def test_class_index_is_consistent():
    G = named_group("A4")
    for i, cls in enumerate(G.conjugacy_classes()):
        for g in cls:
            assert G.class_index(g) == i


def test_center_orders():
    for name, z in [("S3", 1), ("A4", 1), ("D8", 2), ("Q8", 2), ("C6", 6)]:
        assert center(named_group(name)).order == z


def test_centralizer_and_normalizer():
    S3 = named_group("S3")
    t = el(S3, "(1 2)")
    assert centralizer(S3, [t]).order == 2
    C3 = subgroup_generated(S3, [el(S3, "(1 2 3)")])
    assert normalizer(S3, C3).order == 6  # C3 is normal in S3
    C2 = subgroup_generated(S3, [t])
    assert normalizer(S3, C2).order == 2  # self-normalizing


def test_subgroup_generated_stops_past_max_order():
    S4 = named_group("S4")
    gens = [el(S4, "(1 2 3 4)"), el(S4, "(1 2)")]
    assert subgroup_generated(S4, gens, max_order=24) == \
        subgroup_generated(S4, gens)
    assert subgroup_generated(S4, gens, max_order=23) is None
    assert subgroup_generated(S4, gens[:1], max_order=4).order == 4
    assert subgroup_generated(S4, gens[:1], max_order=3) is None
    # the closure stops at the first coset past the bound
    assert 5 < len(groups.span(S4, gens, limit=5)[1]) < 24


def test_subgroup_membership_and_transversal():
    S4 = named_group("S4")
    S = subgroup_generated(S4, [el(S4, "(1 2 3)"), el(S4, "(1 2)")])
    assert S.order == 6
    reps, _ = S.coset_index_map()
    assert len(reps) == 4
    seen = {S4.mul(r, s) for r in reps for s in S.elements}
    assert len(seen) == 24


def test_subgroup_local_group_round_trip():
    S4 = named_group("S4")
    S = subgroup_generated(S4, [el(S4, "(1 2 3 4)")])
    Sg = S.as_group()
    assert Sg.order == 4
    for i in range(Sg.order):
        assert S.to_local(S.from_local(i)) == i
    # local multiplication mirrors the parent
    for i in range(Sg.order):
        for j in range(Sg.order):
            assert S.from_local(Sg.mul(i, j)) == \
                S4.mul(S.from_local(i), S.from_local(j))


def test_quotient_s4_by_v4_is_s3():
    S4 = named_group("S4")
    V4 = subgroup_generated(S4, [el(S4, "(1 2)(3 4)"), el(S4, "(1 3)(2 4)")])
    assert V4.is_normal()
    Q, pi = quotient(S4, V4)
    assert Q.order == 6 and not Q.is_abelian()
    assert hom_kernel(pi).elements == V4.elements
    assert len(isomorphisms(Q, named_group("S3"))) > 0


def test_quotient_rejects_non_normal():
    S3 = named_group("S3")
    C2 = subgroup_generated(S3, [el(S3, "(1 2)")])
    with pytest.raises(ValueError):
        quotient(S3, C2)


def test_double_cosets_partition_the_group():
    S3 = named_group("S3")
    A = subgroup_generated(S3, [el(S3, "(1 2)")])
    B = subgroup_generated(S3, [el(S3, "(1 3)")])
    reps = double_cosets(S3, A, B)
    assert len(reps) == 2
    covered = set()
    for r in reps:
        cell = double_coset_of(S3, A, r, B)
        assert covered.isdisjoint(cell)
        covered.update(cell)
    assert len(covered) == 6


def _check_double_cosets(G, A, B):
    reps = double_cosets(G, A, B)
    assert list(reps) == sorted(reps)
    covered = set()
    for r in reps:
        cell = double_coset_of(G, A, r, B)
        assert r == min(cell)
        assert covered.isdisjoint(cell)
        covered.update(cell)
    assert len(covered) == G.order


def test_double_cosets_are_the_minima_of_a_partition():
    rng = random.Random(23)
    S4, D8, Q8 = named_group("S4"), named_group("D8"), named_group("Q8")
    for G in (product_group(S4, S4), product_group(D8, Q8)):
        for _ in range(30):
            A, B = (subgroup_generated(G, [rng.randrange(G.order)
                                           for _ in range(rng.randint(1, 2))])
                    for _ in range(2))
            _check_double_cosets(G, A, B)


def test_double_cosets_of_pullbacks_and_rectangles(monkeypatch):
    # the (pullback, rectangle) pairs that 20 induction-formula
    # instances split into double cosets
    from bisetblocks import gsets
    from bisetblocks.suites import run_suite
    seen = []

    def recording(G, A, B, split=double_cosets):
        seen.append((G, A, B))
        return split(G, A, B)
    monkeypatch.setattr(gsets, "double_cosets", recording)
    run_suite("induction-formula", 20260823, count=20)
    assert len(seen) == 20
    for G, A, B in seen:
        _check_double_cosets(G, A, B)


def test_sylow_subgroups():
    S4 = named_group("S4")
    P = sylow_subgroup(S4, 2)
    assert P.order == 8 and is_p_group(P, 2)
    assert sylow_subgroup(S4, 3).order == 3
    assert sylow_subgroup(named_group("C6"), 5).order == 1


def test_sylow_subgroup_is_in_the_top_p_subgroup_class():
    A5 = group_from_permutations(["(1 2 3)", "(1 2 3 4 5)"], name="A5")
    S5 = group_from_permutations(["(1 2)", "(1 2 3 4 5)"], name="S5")
    for G in (named_group("S4"), A5, S5):
        for p in (2, 3, 5):
            if G.order % p:
                continue
            P = sylow_subgroup(G, p)
            check_subgroup(P)
            assert is_p_group(P, p) and P.order == int_p_part(G.order, p)
            reps = p_subgroups_up_to_conjugacy(G, p)
            top = [S for S in reps if S.order == P.order]
            assert top == [P.canonical_conjugate()], (G.name, p)


def test_sylow_subgroup_is_the_normalizer_scan_result():
    # the first hit of the scan is the first suitable element of the
    # normalizer, so each Sylow subgroup is the same element tuple; the
    # centralizers of class representatives are what defect_group uses
    perms = {"A5": ["(1 2 3)", "(1 2 3 4 5)"], "S5": ["(1 2)", "(1 2 3 4 5)"],
             "S6": ["(1 2)", "(1 2 3 4 5 6)"]}
    big = {name: group_from_permutations(gens, name=name)
           for name, gens in perms.items()}
    cases = [named_group(name) for name in BUNDLED_NAMES] + list(big.values())
    for name in ("S5", "S6"):
        G = big[name]
        cases += [centralizer(G, cls[0]).as_group()
                  for cls in G.conjugacy_classes()]
    for G in cases:
        for p in (2, 3, 5, 7, 11):
            if G.order % p == 0:
                assert sylow_subgroup(G, p).elements == \
                    sylow_by_normalizers(G, p).elements, (G.name, p)


def test_p_subgroup_classes():
    S3 = named_group("S3")
    assert sorted(P.order for P in p_subgroups_up_to_conjugacy(S3, 2)) == \
        [1, 2]
    assert sorted(P.order for P in p_subgroups_up_to_conjugacy(S3, 3)) == \
        [1, 3]
    A4 = named_group("A4")
    assert sorted(P.order for P in p_subgroups_up_to_conjugacy(A4, 2)) == \
        [1, 2, 4]
    # representatives are pairwise non-conjugate p-groups
    reps = p_subgroups_up_to_conjugacy(named_group("S4"), 2)
    canon = [P.canonical_conjugate().elements for P in reps]
    assert len(set(canon)) == len(reps)
    assert all(is_p_group(P, 2) for P in reps)
    assert max(P.order for P in reps) == 8


def test_canonical_conjugate_is_conjugation_invariant():
    S3 = named_group("S3")
    S = subgroup_generated(S3, [el(S3, "(1 2)")])
    base = S.canonical_conjugate().elements
    for g in range(S3.order):
        assert conjugate_subgroup(S, g).canonical_conjugate().elements == base


def test_minimal_generating_sequences():
    for name, k in [("C6", 1), ("Q8", 2), ("C2xC2", 2), ("S4", 2)]:
        G = named_group(name)
        gens = minimal_generating_sequence(G)
        assert len(gens) == k
        assert subgroup_generated(G, gens).order == G.order


def test_group_hom_validation():
    S3 = named_group("S3")
    C2 = named_group("C2")
    sign = [0 if S3.element_order(g) in (1, 3) else 1 for g in range(6)]
    h = GroupHom(S3, C2, sign)
    check_hom(h)
    assert len(set(h.images)) == C2.order < S3.order  # onto, not one-to-one
    assert hom_kernel(h).order == 3
    with pytest.raises(ValueError, match="preserve the identity"):
        check_hom(GroupHom(S3, C2, [1] * 6))
    with pytest.raises(ValueError, match="cover every source element"):
        GroupHom(S3, C2, sign[:5])


def test_isomorphism_counts():
    V = named_group("C2xC2")
    assert len(isomorphisms(V, V)) == 6  # |GL(2, 2)|
    S3 = named_group("S3")
    assert len(isomorphisms(S3, S3)) == 6
    assert len(isomorphisms(named_group("C6"), named_group("C6"))) == 2
    assert isomorphisms(named_group("C4"), V) == []


def test_int_p_parts():
    assert int_p_part(72, 2) == 8
    assert int_p_prime_part(72, 2) == 9
    assert int_p_part(72, 3) == 9
    assert int_p_part(5, 2) == 1
    assert int_p_prime_part(5, 5) == 1


def test_p_prime_elements():
    C6 = named_group("C6")
    for g in range(6):
        expected = C6.element_order(g) % 3 != 0
        assert C6.is_p_prime_element(g, 3) == expected


def test_element_by_name_specs():
    S3 = named_group("S3")
    g = el(S3, "(1 2 3)")
    assert S3.element_order(g) == 3
    assert el(S3, S3.element_name(g)) == g
    with pytest.raises(ValueError):
        el(S3, "(1 7)")


def test_trivial_subgroup_and_conjugation():
    G = named_group("D8")
    T = trivial_subgroup(G)
    assert T.order == 1 and T.is_normal()
    S = subgroup_generated(G, [el(G, "(1 3)")])
    for g in range(G.order):
        Sc = conjugate_subgroup(S, g)
        assert Sc.order == S.order
        assert all(G.conj(g, s) in Sc.element_set for s in S.elements)


def check_product_against_factors(P):
    """Compare a product with brute force over pairs of factor elements."""
    G, H = P.left, P.right
    pairs = [(a, b) for a in range(G.order) for b in range(H.order)]
    assert P.order == len(pairs)
    assert P.identity == P.encode(G.identity, H.identity)
    for x, (a, b) in enumerate(pairs):
        assert P.encode(a, b) == x and P.decode(x) == (a, b)
        assert P.inv(x) == P.encode(G.inv(a), H.inv(b))
        assert P.element_order(x) == lcm(G.element_order(a),
                                         H.element_order(b))
        assert P.row(x) == tuple(P.encode(G.mul(a, c), H.mul(b, d))
                                 for c, d in pairs)
        for y, (c, d) in enumerate(pairs):
            assert P.mul(x, y) == P.encode(G.mul(a, c), H.mul(b, d))
            assert P.conj(x, y) == P.encode(G.conj(a, c), H.conj(b, d))
    classes = sorted({tuple(sorted({P.encode(G.conj(a, c), H.conj(b, d))
                                    for a, b in pairs}))
                      for c, d in pairs})
    assert list(P.conjugacy_classes()) == classes
    assert P.conjugacy_classes()[0] == (P.identity,)
    for i, cls in enumerate(classes):
        assert all(P.class_index(x) == i for x in cls)


@pytest.mark.parametrize("left, right", [("C6", "S3"), ("Q8", "D8")])
def test_product_matches_factors(left, right):
    check_product_against_factors(
        ProductGroup(named_group(left), named_group(right)))


def test_product_of_a_product_matches_factors():
    inner = ProductGroup(named_group("S3"), named_group("C2"))
    check_product_against_factors(inner)
    check_product_against_factors(ProductGroup(named_group("S3"), inner))


def test_bulk_products_equal_the_mul_loop():
    S4 = named_group("S4")
    inner = ProductGroup(named_group("S3"), named_group("C2"))
    nested = ProductGroup(inner, named_group("C3"))
    cases = ([named_group(name) for name in BUNDLED_NAMES]
             + [ProductGroup(S4, S4), nested])
    rng = random.Random(3)
    for G in cases:
        every = range(G.order)
        some = [rng.randrange(G.order) for _ in range(9)]
        for a in every:
            for elems in (every, some):
                assert G.left_products(a, elems) == [G.mul(a, b)
                                                     for b in elems]
                assert G.right_products(elems, a) == [G.mul(b, a)
                                                      for b in elems]
    # the nested product reads its left factor's rows through a RowCache
    assert isinstance(nested._lt, RowCache)
    assert sorted(nested._lt) == list(range(inner.order))


def test_product_builds_no_table():
    S4 = named_group("S4")
    S4.inv(0)
    tracemalloc.start()
    try:
        ProductGroup(S4, S4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_s7_is_built_without_a_table():
    # a dense table of S7 took about 200 MB
    tracemalloc.start()
    try:
        S7 = group_from_permutations(["(1 2)", "(1 2 3 4 5 6 7)"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert S7.order == 5040 and peak < 20 << 20
    assert "_rows" not in vars(S7)


def test_generators_generate_every_group():
    S3, S4, A4 = named_group("S3"), named_group("S4"), named_group("A4")
    V = subgroup_generated(A4, [el(A4, "(1 2)(3 4)"), el(A4, "(1 3)(2 4)")])
    D = subgroup_generated(S4, [el(S4, "(1 2 3 4)"), el(S4, "(1 3)")])
    groups = [named_group(n) for n in BUNDLED_NAMES] + [
        trivial_group(), product_group(S4, S4),
        product_group(S3, product_group(S3, named_group("C2"))),
        D.as_group(), quotient(A4, V)[0]]
    for G in groups:
        assert subgroup_generated(G, G.generators).order == G.order, G.name
    assert trivial_group().generators == ()


def test_product_generators_are_the_factor_generators():
    S3, Q8 = named_group("S3"), named_group("Q8")
    amb = product_group(S3, Q8)
    assert amb.generators == (
        tuple(amb.encode(s, Q8.identity) for s in S3.generators)
        + tuple(amb.encode(S3.identity, t) for t in Q8.generators))
    # a local group takes a minimal sequence
    D = subgroup_generated(S3, [el(S3, "(1 2 3)")]).as_group()
    assert D.generators == minimal_generating_sequence(D)


def test_minimal_generating_sequence_is_the_greedy_one():
    # reference: add each element outside the span, reclosing from scratch
    def greedy(G):
        gens, span = [], {G.identity}
        for g in range(G.order):
            if g not in span:
                gens.append(g)
                span = set(subgroup_generated(G, gens).elements)
                if len(span) == G.order:
                    break
        return tuple(gens)
    A4 = named_group("A4")
    V = subgroup_generated(A4, [el(A4, "(1 2)(3 4)"), el(A4, "(1 3)(2 4)")])
    for G in [named_group(n) for n in BUNDLED_NAMES] + [
            product_group(named_group("D8"), named_group("C3")),
            quotient(A4, V)[0]]:
        assert minimal_generating_sequence(G) == greedy(G), G.name


# -- tables, checks and conjugates on generators -------------------------

LARGE_GENERATORS = {"A5": ["(1 2 3)", "(1 2 3 4 5)"],
                    "S5": ["(1 2)", "(1 2 3 4 5)"],
                    "S6": ["(1 2)", "(1 2 3 4 5 6)"]}


def large_group(name):
    return group_from_permutations(LARGE_GENERATORS[name], name=name)


# S3 on 300 points, as 100 copies of its natural action: above 256
# points a permutation is composed as a str, not as bytes
WIDE_S3 = ["".join(f"({3 * i + 1} {3 * i + 2})" for i in range(100)),
           "".join(f"({3 * i + 1} {3 * i + 2} {3 * i + 3})"
                   for i in range(100))]


@pytest.mark.parametrize("name", list(BUNDLED_NAMES) + ["A5", "S5", "S6",
                                                        "wide S3"])
def test_permutation_table_is_the_pairwise_composition(name):
    # every operation of a permutation group against the table composed
    # point by point; all pairs up to order 120, sampled ones for S6
    if name == "wide S3":
        G = group_from_permutations(WIDE_S3)
    else:
        G = named_group(name) if name in BUNDLED_NAMES else large_group(name)
    perms = permutations(G)
    index = {p: i for i, p in enumerate(perms)}
    deg = len(perms[0])
    assert perms[G.identity] == tuple(range(deg))
    table = dense_table(G)
    for i, a in enumerate(perms):
        assert G.element_name(i) == cycles_of(a)
        assert G.row(i) == tuple(table[i])
    if name in LARGE_GENERATORS:
        assert G.generators == tuple(
            index[parse_cycles(g, deg)] for g in LARGE_GENERATORS[name])
    n, e = G.order, G.identity
    inv = [row.index(e) for row in table]
    rng = random.Random(name)
    pairs = ([(a, b) for a in range(n) for b in range(n)] if n <= 120
             else [(rng.randrange(n), rng.randrange(n)) for _ in range(5000)])
    for a, b in pairs:
        assert G.mul(a, b) == table[a][b]
        assert G.conj(a, b) == table[table[a][b]][inv[a]]
    some = [rng.randrange(n) for _ in range(20)]
    for a in range(n):
        assert G.inv(a) == inv[a]
        assert G.left_products(a, some) == [table[a][b] for b in some]
        assert G.right_products(some, a) == [table[b][a] for b in some]
        k, y = 1, a
        while y != e:
            k, y = k + 1, table[y][a]
        assert G.element_order(a) == k
    classes, seen = [], set()
    for g in range(n):
        if g not in seen:
            cls = sorted({table[table[x][g]][inv[x]] for x in range(n)})
            seen.update(cls)
            classes.append(tuple(cls))
    assert G.conjugacy_classes() == tuple(classes)
    for part in ([some[0]], some[:2], list(G.generators)):
        assert centralizer(G, part).elements == tuple(
            x for x in range(n) if all(table[x][s] == table[s][x]
                                       for s in part))


def test_axiom_check_is_exact_on_a_swapped_row():
    # the check passes on the table of every permutation group here
    for G in [named_group(n) for n in BUNDLED_NAMES] + [
            large_group(n) for n in LARGE_GENERATORS]:
        FiniteGroup(dense_table(G)).check_axioms()
    S5 = large_group("S5")
    table = dense_table(S5)
    # Swapping two entries of row 1 keeps every row a permutation and the
    # identity row and column intact; 2000 random triples seeded by the
    # order, as an associativity check once sampled, miss it.
    table[1][3], table[1][4] = table[1][4], table[1][3]
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(table).check_axioms()
    FiniteGroup(dense_table(S5)).check_axioms()
    FiniteGroup([[0]]).check_axioms()


def test_axiom_check_rejects_small_non_groups():
    # identity row and column intact and a 0 in every row, but not
    # associative; in the first, products of the generator 1 never reach 0
    for table in ([[0, 1, 2], [1, 2, 0], [2, 2, 0]],
                  [[0, 1, 2, 3], [1, 1, 0, 2], [2, 0, 0, 0], [3, 0, 3, 0]]):
        with pytest.raises(ValueError, match="not a"):
            FiniteGroup(table).check_axioms()


def test_axiom_check_tests_every_generator():
    # a*b is twisted to a*(c b c^-1) for a outside H = <(1 2)>, with c =
    # (3 4) commuting with (1 2): translations by (1 2) stay associative,
    # translations by the second generator do not.
    S5 = large_group("S5")
    s, c = el(S5, "(1 2)"), el(S5, "(3 4)")
    H = (S5.identity, s)
    twisted = [S5.row(a) if a in H else
               [S5.mul(a, S5.conj(c, b)) for b in range(S5.order)]
               for a in range(S5.order)]
    assert minimal_generating_sequence(FiniteGroup(twisted))[0] == s
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(twisted).check_axioms()


def test_group_hom_check_is_exact_on_generators():
    S5, C2 = large_group("S5"), named_group("C2")
    sign = [sum(p[i] > p[j] for j in range(5) for i in range(j)) % 2
            for p in permutations(S5)]
    check_hom(GroupHom(S5, C2, sign))
    for g in (7, 119):
        bad = list(sign)
        bad[g] = 1 - bad[g]
        with pytest.raises(ValueError, match="not multiplicative"):
            check_hom(GroupHom(S5, C2, bad))
    # flipping a whole coset {a, a s} keeps images[a s] = images[a] images[s]
    # for the first generator s, so only a later generator can see it
    s = S5.generators[0]
    bad = list(sign)
    for g in (7, S5.mul(7, s)):
        bad[g] = 1 - bad[g]
    with pytest.raises(ValueError, match="not multiplicative"):
        check_hom(GroupHom(S5, C2, bad))
    amb = product_group(S5, C2)
    proj = [amb.decode(x)[1] for x in range(amb.order)]
    check_hom(GroupHom(amb, C2, proj))
    proj[5] = 1 - proj[5]
    with pytest.raises(ValueError):
        check_hom(GroupHom(amb, C2, proj))


def subgroup_classes(G):
    """One subgroup of each conjugacy class; every subgroup of a bundled
    group is generated by two elements."""
    reps = {}
    for a in range(G.order):
        for b in range(a, G.order):
            S = subgroup_generated(G, [a, b])
            reps.setdefault(S.canonical_conjugate().elements, S)
    return list(reps.values())


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_the_checks_hold_on_what_the_package_builds(name):
    # constructors trust their caller, so the checks they once ran are
    # run here on the subgroups, actions and homs the package derives
    G = named_group(name)
    for S in subgroup_classes(G):
        for T in (S, centralizer(G, S), normalizer(G, S)):
            check_subgroup(T)
        check_action(coset_action(G, S))
        if S.is_normal():
            check_hom(quotient(G, S)[1])
    for p in (2, 3, 5, 7, 11):
        if G.order % p == 0:
            check_subgroup(sylow_subgroup(G, p))
    autos = isomorphisms(G, G)
    assert autos
    for h in autos:
        check_hom(h)
        assert sorted(h.images) == list(range(G.order))
        back = [0] * G.order
        for g, im in enumerate(h.images):
            back[im] = g
        check_hom(GroupHom(G, G, back))


def brute_canonical(S, largest=False):
    G = S.parent
    pick = max if largest else min
    return pick(tuple(sorted(G.conj(x, h) for h in S.elements))
                for x in range(G.order))


def sample_subgroups(G, seed, count):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        gens = [rng.randrange(G.order) for _ in range(1 + k % 2)]
        out.append(subgroup_generated(G, gens))
    return out


def canonical_cases():
    cases = []
    for G in (named_group("S4"), large_group("A5"), large_group("S5")):
        for p in (2, 3, 5):
            if G.order % p == 0:
                cases.extend(p_subgroups_up_to_conjugacy(G, p))
    S4, D8, Q8 = named_group("S4"), named_group("D8"), named_group("Q8")
    cases.extend(sample_subgroups(product_group(S4, S4), 3, 12))
    cases.extend(sample_subgroups(product_group(D8, Q8), 4, 12))
    local = subgroup_generated(S4, [el(S4, "(1 2 3 4)"),
                                    el(S4, "(1 3)")]).as_group()
    cases.extend(sample_subgroups(local, 5, 6))
    return cases


def test_canonical_conjugate_is_the_extreme_over_all_conjugators():
    for S in canonical_cases():
        assert S.canonical_conjugate().elements == brute_canonical(S), S
        assert (S.canonical_conjugate(largest=True).elements
                == brute_canonical(S, largest=True)), S


def test_p_subgroup_classes_are_computed_once_per_group_and_prime(
        monkeypatch):
    computed = []
    classes = groups._p_subgroup_classes

    def counted(G, p):
        computed.append(p)
        return classes(G, p)
    monkeypatch.setattr(groups, "_p_subgroup_classes", counted)
    S4 = group_from_permutations(["(1 2)", "(1 2 3 4)"], name="S4")
    first = p_subgroups_up_to_conjugacy(S4, 2)
    assert p_subgroups_up_to_conjugacy(S4, 2) == first
    p_subgroups_up_to_conjugacy(S4, 3)
    assert computed == [2, 3]


def test_centralizer_and_normalizer_of_a_subgroup_by_definition():
    for S in canonical_cases():
        G = S.parent
        assert subgroup_generated(G, S.generators) == S
        assert centralizer(G, S).elements == tuple(
            x for x in range(G.order)
            if all(G.mul(x, h) == G.mul(h, x) for h in S.elements))
        assert normalizer(G, S).elements == tuple(
            x for x in range(G.order)
            if {G.conj(x, h) for h in S.elements} == S.element_set)
        assert S.is_normal() == (normalizer(G, S).order == G.order)
    for name in list(BUNDLED_NAMES) + ["A5"]:
        G = named_group(name) if name in BUNDLED_NAMES else large_group(name)
        assert center(G).elements == tuple(
            x for x in range(G.order)
            if all(G.mul(x, y) == G.mul(y, x) for y in range(G.order)))


def test_local_group_of_a_product_subgroup_reads_no_product_row(
        monkeypatch):
    S4 = named_group("S4")
    amb = product_group(S4, S4)
    S = sample_subgroups(amb, 6, 2)[1]
    assert S.order > 1

    def no_row(self, a):
        raise AssertionError("ProductGroup.row was called")
    monkeypatch.setattr(ProductGroup, "row", no_row)
    local = S.as_group()
    for i, a in enumerate(S.elements):
        for j, b in enumerate(S.elements):
            assert S.elements[local.mul(i, j)] == amb.mul(a, b)


# -- ownership and lifetime of derived data --------------------------------

def test_a_product_of_local_groups_is_freed_with_its_last_holder():
    S4 = named_group("S4")
    A = subgroup_generated(S4, [el(S4, "(1 2 3)")]).as_group()
    B = subgroup_generated(S4, [el(S4, "(1 2)(3 4)")]).as_group()
    P = product_group(A, B)
    assert product_group(A, B) is P
    ref = weakref.ref(P)
    del P
    gc.collect()
    assert ref() is None


def test_product_group_is_one_object_while_a_subgroup_holds_it():
    S3, C4 = named_group("S3"), named_group("C4")
    X = full_product_subgroup(product_group(S3, C4))
    gc.collect()
    assert product_group(S3, C4) is X.ambient
    assert product_group(C4, S3) is not X.ambient


def test_a_quotient_does_not_keep_a_throwaway_group_alive():
    G = group_from_permutations(["(1 2)", "(1 2 3)"])
    N = subgroup_generated(G, [el(G, "(1 2 3)")])
    Q, pi = quotient(G, N)
    assert quotient(G, N)[0] is Q and Q.order == 2
    ref = weakref.ref(G)
    del G, N, Q, pi
    gc.collect()
    assert ref() is None


def test_deleting_a_group_frees_its_local_groups_and_quotients():
    # with the cyclic collector off, so that nothing may sit in a
    # reference cycle: a local group holds its parent, which holds it
    # weakly, and a quotient is kept without its projection
    gc.disable()
    try:
        G = group_from_permutations(["(1 2)", "(1 2 3 4)"], name="S4")
        P = product_group(G, group_from_permutations(["(1 2)"], name="C2"))
        V = subgroup_generated(G, [el(G, "(1 2)(3 4)"), el(G, "(1 3)(2 4)")])
        D = subgroup_generated(G, [el(G, "(1 2 3 4)"), el(G, "(1 3)")])
        X = subgroup_generated(P, [P.encode(el(G, "(1 2 3)"), 1)])
        N = Subgroup(P, [P.encode(v, 0) for v in V.elements])
        made = [D.as_group(), X.as_group(), quotient(G, V)[0],
                quotient(P, N)[0]]
        assert [M.order for M in made] == [8, 6, 6, 12]
        refs = [weakref.ref(x) for x in [G, P] + made]
        del G, P, V, D, X, N, made
        assert [r() for r in refs] == [None] * 6
    finally:
        gc.enable()


def test_a_local_group_is_one_object_and_keeps_its_parent_alive():
    S3, C4 = named_group("S3"), named_group("C4")
    X = subgroup_generated(product_group(S3, C4),
                           [product_group(S3, C4).encode(1, 1)])
    L, elems = X.as_group(), X.elements
    assert Subgroup(X.parent, elems).as_group() is L
    del X
    gc.collect()
    assert Subgroup(product_group(S3, C4), elems).as_group() is L


def _run_child(script: str, *args: str) -> str:
    """The standard output of script run by a fresh interpreter."""
    import os
    import subprocess
    import sys
    src = str(Path(groups.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


_COUNT_CONSTRUCTIONS = """
import gc
from bisetblocks import groups
from bisetblocks.acceptance import DEFAULT_SEED
from bisetblocks.suites import run_suite
built = {"groups": 0, "products": 0}
start, init = groups.FiniteGroup._start, groups.ProductGroup.__init__
def counted_start(self, *args):
    built["groups"] += 1
    start(self, *args)
def counted_init(self, left, right):
    built["products"] += 1
    init(self, left, right)
groups.FiniteGroup._start = counted_start
groups.ProductGroup.__init__ = counted_init
%s
for name, count in [("mackey", None), ("induction-formula", 40),
                    ("induced-bisets", 40), ("defres", 40)]:
    assert run_suite(name, DEFAULT_SEED, count)["ok"], name
    print(built["groups"], built["products"])
"""


def test_construction_counts_do_not_follow_the_collector():
    # four suites in a fresh interpreter, with the cyclic collector off,
    # at its default thresholds and running every 50 allocations: no
    # group the package builds waits for the collector, so each setting
    # builds the same groups and products, counted after each suite
    counts = [_run_child(_COUNT_CONSTRUCTIONS % setup).split()
              for setup in ("gc.disable()", "", "gc.set_threshold(50)")]
    assert int(counts[0][-1]) > 0 and counts == [counts[0]] * 3, counts


_LEAVE_NO_CYCLE = """
import gc, json, sys
from pathlib import Path
from bisetblocks.acceptance import DEFAULT_SEED
from bisetblocks.blocks import (assign_characters_to_blocks,
                                block_idempotents, defect_group,
                                defect_zero_simple_dim, maximal_brauer_pair,
                                splitting_params)
from bisetblocks.broue import run_scenario
from bisetblocks.characters import character_table
from bisetblocks.gf import fq_field
from bisetblocks.namedgroups import named_group
from bisetblocks.scenario import (BUNDLED_SCENARIOS, Scenario,
                                  bundled_scenario, group_from_spec)
from bisetblocks.suites import ALL_SUITES, run_suite
gc.disable()
gc.collect()
for name in ALL_SUITES:
    assert run_suite(name, DEFAULT_SEED)["ok"], name
for S in [bundled_scenario(name) for name in BUNDLED_SCENARIOS] + [
        Scenario(json.loads(Path(path).read_text())) for path in sys.argv[1:]]:
    assert run_scenario(S)["verdict"]["holds"], S.name
A5 = group_from_spec({"name": "A5", "generators": ["(1 2 3)", "(1 2 3 4 5)"]})
for G, primes in ((named_group("S4"), (2, 3)), (A5, (2, 3, 5))):
    for p in primes:
        F = fq_field(p, splitting_params(G, p)[0])
        blocks = block_idempotents(G, p, F)
        for b in blocks:
            D = defect_group(G, p, b)
            _, e = maximal_brauer_pair(G, p, b, F, D=D)
            defect_zero_simple_dim(G, D, e, F)
        assign_characters_to_blocks(character_table(G), blocks, F)
print(gc.collect())
"""


def test_nothing_the_package_builds_sits_in_a_reference_cycle():
    # every law suite at the acceptance seed, the bundled and benchmark
    # Broue scenarios and the block layer on S4 and A5, with the cyclic
    # collector off: what they leave behind dies by reference count, so
    # the collector then finds nothing.  The library is called directly,
    # as the CLI's JSON encoder leaves cycles of its own.
    scenarios = sorted(Path(__file__).resolve().parent.parent.joinpath(
        "perfbench", "scenarios").glob("*.json"))
    assert len(scenarios) == 5
    assert _run_child(_LEAVE_NO_CYCLE, *map(str, scenarios)).split() == ["0"]

# -- the orbit routine -------------------------------------------------

def orbit_cases(seed):
    """(start, gens, act) on S4 by right multiplication, on S3 x C4 by
    conjugation, and on the cosets of a subgroup of S4 of order 3."""
    rng = random.Random(seed)
    S4 = named_group("S4")
    P = product_group(named_group("S3"), named_group("C4"))
    A = coset_action(S4, subgroup_generated(S4, [el(S4, "(1 2 3)")]))
    for _ in range(6):
        yield (rng.randrange(S4.order), rng.sample(range(1, 24), 2), S4.mul)
        yield (rng.randrange(P.order), rng.sample(range(1, 24), 2),
               lambda y, x: P.conj(x, y))
        yield (rng.randrange(A.size), rng.sample(range(1, 24), 2),
               lambda y, g: A.rows[g][y])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_orbit_lists_each_point_once_with_a_schreier_tree(seed):
    for start, gens, act in orbit_cases(seed):
        points, tree = orbit(start, gens, act)
        assert len(set(points)) == len(points) and set(tree) == set(points)
        assert points[0] == start and tree[start] is None
        position = {y: i for i, y in enumerate(points)}
        for y in points[1:]:
            x, k = tree[y]
            assert act(x, gens[k]) == y and position[x] < position[y]
        # closed under every generator, so it is the whole orbit
        assert all(act(y, s) in position for y in points for s in gens)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_orbit_limit_admits_exactly_limit_points(seed):
    for start, gens, act in orbit_cases(seed):
        points, _ = orbit(start, gens, act)
        if len(points) == 1:
            continue
        assert orbit(start, gens, act, limit=len(points))[0] == points
        with pytest.raises(SizeLimitError):
            orbit(start, gens, act, limit=len(points) - 1)


def sweep_cases(seed):
    """(size, rows): up to three random permutations of up to 12 points,
    each moving a random subset of them, so that most have several
    orbits."""
    rng = random.Random(seed)
    for _ in range(20):
        size = rng.randint(1, 12)
        rows = []
        for _ in range(rng.randint(0, 3)):
            perm = list(range(size))
            moved = rng.sample(range(size), rng.randint(0, size))
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                perm[x] = y
            rows.append(tuple(perm))
        yield size, rows


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_orbits_labels_as_union_find_with_a_schreier_tree(seed):
    for size, rows in sweep_cases(seed):
        orbit_of, orbits, tree = sweep_orbits(size, rows)
        assert orbit_of == union_find_labels(size, rows)[0]
        assert sorted(y for points in orbits for y in points) == list(
            range(size))
        for j, points in enumerate(orbits):
            assert points[0] == min(points) and tree[points[0]] is None
            assert all(orbit_of[y] == j for y in points)
            position = {y: i for i, y in enumerate(points)}
            for y in points[1:]:
                x, k = tree[y]
                assert rows[k][x] == y and position[x] < position[y]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_transversal_takes_the_least_point_of_an_orbit_to_each_point(seed):
    rng = random.Random(seed)
    for G in (named_group("S4"),
              product_group(named_group("S3"), named_group("C4"))):
        for _ in range(4):
            A = random_action(rng, G)
            gens = G.generators
            _, orbits, tree = sweep_orbits(
                A.size, [A.rows[s] for s in gens])
            u = {}
            for points in orbits:
                transversal(G, gens, points, tree, u)
                assert all(A.rows[u[y]][points[0]] == y for y in points)
            assert sorted(u) == list(range(A.size))


def perm_power_is_identity(perm, n):
    out = tuple(range(len(perm)))
    for _ in range(n):
        out = tuple(perm[i] for i in out)
    return out == tuple(range(len(perm)))


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_extend_hom_from_a_cyclic_group_counts_elements_of_order_dividing_n(
        name):
    G = named_group(name)
    for n in range(1, 13):
        Cn = named_group(f"C{n}")
        c = el(Cn, "(" + " ".join(str(i + 1) for i in range(n)) + ")")
        extended = [t for t in range(G.order) if _extend_hom(
            Cn, [c], [t], G.mul, G.identity) is not None]
        assert extended == [t for t, perm in enumerate(permutations(G))
                            if perm_power_is_identity(perm, n)], n
    if G.order > 1:
        # images of a set that does not generate G define no table
        assert _extend_hom(G, [G.identity], [G.identity], G.mul,
                           G.identity) is None


def _names(G) -> tuple:
    return tuple(map(G.element_name, range(G.order)))


def test_closure_order_of_s4_and_a4_is_pinned():
    S4, A4 = named_group("S4"), named_group("A4")
    assert _names(S4) == (
        "()", "(1 2)", "(1 2 3 4)", "(2 3 4)", "(1 3 4)", "(1 3)(2 4)",
        "(1 3 4 2)", "(1 3 2 4)", "(1 2 4 3)", "(1 4 2 3)", "(1 4 3 2)",
        "(2 4 3)", "(1 4)(2 3)", "(1 4 3)", "(1 4 2)", "(1 3 2)", "(1 4)",
        "(1 3)", "(2 4)", "(2 3)", "(3 4)", "(1 2 4)", "(1 2 3)",
        "(1 2)(3 4)")
    assert S4.generators == (1, 2)
    assert _names(A4) == (
        "()", "(1 2 3)", "(1 2)(3 4)", "(1 3 2)", "(1 3 4)", "(2 4 3)",
        "(2 3 4)", "(1 2 4)", "(1 4 3)", "(1 4 2)", "(1 3)(2 4)",
        "(1 4)(2 3)")
    assert A4.generators == (1, 2)
    # and S6's, taken when every name was built eagerly
    S6 = group_from_permutations(["(1 2)", "(1 2 3 4 5 6)"], name="S6")
    names = _names(S6)
    assert names[:6] == ("()", "(1 2)", "(1 2 3 4 5 6)", "(2 3 4 5 6)",
                         "(1 3 4 5 6)", "(1 3 5)(2 4 6)")
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == (
        "08e10d7d6bc01b9c05802677b58f209d62e8b28802a751aee7b7a96f0cb643c1")


def test_cached_attribute_is_computed_once_per_instance():
    calls = []

    class Box:
        def __init__(self, value):
            self.value = value

        @cached_attribute
        def doubled(self):
            """Twice the value, in a fresh list."""
            calls.append(self.value)
            return [2 * self.value]
    a, b = Box(1), Box(2)
    assert a.doubled is a.doubled and a.doubled == [2]
    assert b.doubled == [4] and calls == [1, 2]
    # stored on the instance, which shadows the descriptor from then on
    assert vars(a)["doubled"] is a.doubled
    assert isinstance(Box.doubled, cached_attribute)
    assert Box.doubled.__doc__ == "Twice the value, in a fresh list."


def test_membership_set_is_built_on_first_test():
    S4 = named_group("S4")
    S = subgroup_generated(S4, [1])
    assert "element_set" not in vars(S)
    assert all(g in S for g in S.elements)
    assert S.element_set == frozenset(S.elements)
    assert sum(g in S for g in range(S4.order)) == S.order
