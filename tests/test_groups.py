"""Finite groups and direct products: construction, subgroups, quotients."""

import random
import tracemalloc
from math import lcm

import pytest

from bisetblocks.groups import (GroupHom, ProductGroup, SizeLimitError,
                                Subgroup, center,
                                centralizer, cycles_of, double_coset_of,
                                double_cosets, element_by_name,
                                group_from_permutations, int_p_part,
                                int_p_prime_part, is_p_group, isomorphisms,
                                minimal_generating_sequence, normalizer,
                                p_subgroups_up_to_conjugacy, parse_cycles,
                                product_group, quotient, subgroup_generated,
                                sylow_subgroup, trivial_subgroup)
from bisetblocks.namedgroups import BUNDLED_NAMES, named_group, trivial_group

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


def test_subgroup_membership_and_transversal():
    S4 = named_group("S4")
    S = subgroup_generated(S4, [el(S4, "(1 2 3)"), el(S4, "(1 2)")])
    assert S.order == 6
    reps = S.left_transversal()
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
    assert pi.kernel().elements == V4.elements
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
            Subgroup(G, P.elements)  # closed under products and inverses
            assert is_p_group(P, p) and P.order == int_p_part(G.order, p)
            reps = p_subgroups_up_to_conjugacy(G, p)
            top = [S for S in reps if S.order == P.order]
            assert top == [P.canonical_conjugate()], (G.name, p)


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
        assert S.conjugated_by(g).canonical_conjugate().elements == base


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
    assert h.is_surjective() and not h.is_injective()
    assert h.kernel().order == 3
    bad = [1] * 6
    with pytest.raises((AssertionError, ValueError)):
        GroupHom(S3, C2, bad)


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
    assert el(S3, S3.element_names[g]) == g
    with pytest.raises(ValueError):
        el(S3, "(1 7)")


def test_trivial_subgroup_and_conjugation():
    G = named_group("D8")
    T = trivial_subgroup(G)
    assert T.order == 1 and T.is_normal()
    S = subgroup_generated(G, [el(G, "(1 3)")])
    for g in range(G.order):
        Sc = S.conjugated_by(g)
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
        tuple(amb.encode(s, Q8.identity) for s in S3.generator_ids)
        + tuple(amb.encode(S3.identity, t) for t in Q8.generator_ids))
    # a local group has no permutations and takes a minimal sequence
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
