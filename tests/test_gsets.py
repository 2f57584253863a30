"""G-sets and bisets: orbits, tensor products, elementary pieces."""

import random
from collections import Counter

import pytest

from bisetblocks import gsets
from bisetblocks.groups import (Subgroup, element_by_name, full_subgroup,
                                product_group, subgroup_generated)
from bisetblocks.gsets import (GAction, TransitiveDecomposition, biset_coset,
                               biset_from_left_action, coset_action,
                               defres_biset, defres_description,
                               disjoint_union, dual_biset,
                               extended_induction_formula, extended_tensor,
                               external_product,
                               induced_action, induction_biset, iso_check,
                               left_action_of_biset, tensor_direct,
                               tensor_mackey, tensor_induced_bisets_formula,
                               trivial_action)
from bisetblocks.namedgroups import named_group
from bisetblocks.subdirect import ProductSubgroup, diagonal
from bisetblocks.suites import (defres_suite, induction_formula_suite,
                                mackey_suite)

from oracles import (check_action, induced_action_eager, inflation_biset,
                     rectangle, regular_action, restriction_biset,
                     stabilizer_by_all_schreier_generators, total_size)


def el(G, spec):
    return element_by_name(G, spec)


def test_gaction_validates_rows():
    C2 = named_group("C2")
    with pytest.raises(ValueError, match="identity must act trivially"):
        check_action(GAction(C2, [(1, 0), (1, 0)]))
    with pytest.raises(ValueError, match="need one permutation"):
        GAction(C2, [(0, 1)])
    A = GAction(C2, [(0, 1), (1, 0)])
    check_action(A)
    assert A.size == 2


def test_orbit_stabilizer():
    S4 = named_group("S4")
    rng = random.Random(2)
    for _ in range(10):
        gens = [rng.randrange(24) for _ in range(2)]
        S = subgroup_generated(S4, gens)
        A = coset_action(S4, S)
        orb = A.orbits()
        assert len(orb) == 1 and len(orb[0]) == S.index
        assert A.stabilizer(0).order * len(orb[0]) == S4.order


def test_regular_action_decomposition():
    S3 = named_group("S3")
    dec = regular_action(S3).decompose()
    assert len(dec.items) == 1
    (key, mult), = dec.items
    assert mult == 1 and len(key) == 1  # trivial stabilizer
    assert total_size(dec) == 6


def test_decompose_matches_disjoint_union():
    S3 = named_group("S3")
    C2 = subgroup_generated(S3, [el(S3, "(1 2)")])
    C3 = subgroup_generated(S3, [el(S3, "(1 2 3)")])
    A = coset_action(S3, C2)
    B = coset_action(S3, C3)
    both = disjoint_union(A, B, A)
    dec = both.decompose()
    assert total_size(dec) == 3 + 2 + 3
    counts = dict(dec.items)
    key2 = C2.canonical_conjugate().elements
    key3 = C3.canonical_conjugate().elements
    assert counts[key2] == 2 and counts[key3] == 1


def test_iso_check_positive_and_negative():
    S3 = named_group("S3")
    C2a = subgroup_generated(S3, [el(S3, "(1 2)")])
    C2b = subgroup_generated(S3, [el(S3, "(1 3)")])
    assert iso_check(coset_action(S3, C2a), coset_action(S3, C2b))
    assert not iso_check(coset_action(S3, C2a),
                         coset_action(S3, full_subgroup(S3)))
    assert not iso_check(coset_action(S3, C2a), trivial_action(S3, 3))


def test_fixed_points_match_stabilizer_counts():
    A4 = named_group("A4")
    V = subgroup_generated(A4, [el(A4, "(1 2)(3 4)"), el(A4, "(1 3)(2 4)")])
    A = coset_action(A4, V)
    for g in range(A4.order):
        fixed = A.fixed_points([g])
        direct = sum(1 for x in range(A.size) if A.rows[g][x] == x)
        assert len(fixed) == direct


def test_elementary_biset_sizes():
    S3 = named_group("S3")
    C2 = subgroup_generated(S3, [el(S3, "(1 2)")])
    C3 = subgroup_generated(S3, [el(S3, "(1 2 3)")])
    assert restriction_biset(C2).size == 6
    assert induction_biset(C2).size == 6
    assert inflation_biset(S3, C3).size == 2  # underlying set is G/N
    U = restriction_biset(C2)
    assert U.left.order == 2 and U.right.order == 6
    V = induction_biset(C2)
    assert V.left.order == 6 and V.right.order == 2


def test_mackey_res_ind_double_cosets():
    # Res to <(1 2)> after Ind from <(1 3)> splits along the two double
    # cosets, sizes 2 + 4.
    S3 = named_group("S3")
    A = subgroup_generated(S3, [el(S3, "(1 2)")])
    B = subgroup_generated(S3, [el(S3, "(1 3)")])
    T = tensor_direct(restriction_biset(A), induction_biset(B))
    dec = T.decompose()
    assert T.size == 6
    assert len(dec.items) == 2
    assert sorted(T.action.orbits(), key=len) != []
    assert sorted(len(o) for o in T.action.orbits()) == [2, 4]


def test_tensor_mackey_agrees_with_direct_tensor():
    rng = random.Random(9)
    names = ("C2", "C3", "C4", "S3", "C6")
    for _ in range(25):
        G, H, K = (named_group(rng.choice(names)) for _ in range(3))
        ambL, ambR = product_group(G, H), product_group(H, K)

        def pick(amb):
            gens = [rng.randrange(amb.order)
                    for _ in range(rng.randint(1, 2))]
            S = subgroup_generated(amb, gens)
            return ProductSubgroup(amb, S.elements)

        X, Y = pick(ambL), pick(ambR)
        lhs = tensor_mackey(X, Y)
        rhs = tensor_direct(biset_coset(X), biset_coset(Y)).decompose()
        assert lhs == rhs


def test_tensor_unit_laws():
    S3 = named_group("S3")
    C6 = named_group("C6")
    amb = product_group(S3, C6)
    S = subgroup_generated(amb, [amb.encode(el(S3, "(1 2)"), 3)])
    U = biset_coset(ProductSubgroup(amb, S.elements))
    ident_right = biset_coset(diagonal(full_subgroup(C6)))
    ident_left = biset_coset(diagonal(full_subgroup(S3)))
    assert tensor_direct(U, ident_right).decompose() == U.decompose()
    assert tensor_direct(ident_left, U).decompose() == U.decompose()


def test_dual_biset_is_an_involution():
    S3 = named_group("S3")
    C4 = named_group("C4")
    amb = product_group(S3, C4)
    X = rectangle(amb, subgroup_generated(S3, [el(S3, "(1 2)")]),
                  full_subgroup(C4))
    U = biset_coset(X)
    D = dual_biset(U)
    assert D.left.order == 4 and D.right.order == 6
    assert dual_biset(D).decompose() == U.decompose()


def test_extended_tensor_against_defres():
    S3 = named_group("S3")
    amb = product_group(S3, S3)
    C3 = subgroup_generated(S3, [el(S3, "(1 2 3)")])
    X = diagonal(full_subgroup(S3))
    Y = rectangle(amb, C3, full_subgroup(S3))
    U = regular_action(X.as_group())
    V = coset_action(Y.as_group(), full_subgroup(Y.as_group()))
    assert defres_description(X, Y, U, V)["isomorphic"]
    W = extended_tensor(X, Y, U, V)
    # the result is a star(X, Y)-set glued over the joint kernel
    assert W.group.order == star_order(X, Y)


def star_order(X, Y):
    from bisetblocks.subdirect import star
    return star(X, Y).order


def test_defres_biset_shape():
    S3 = named_group("S3")
    X = diagonal(full_subgroup(S3))
    Y = diagonal(subgroup_generated(S3, [el(S3, "(1 2 3)")]))
    W = defres_biset(X, Y)
    assert W.left.order == 3  # star of the two diagonals is delta(C3)
    assert W.right.order == X.order * Y.order
    assert total_size(W.decompose()) == W.size


def test_induced_action_size_and_validity():
    S4 = named_group("S4")
    S = subgroup_generated(S4, [el(S4, "(1 2 3)")])
    U = regular_action(S.as_group())
    I = induced_action(S4, S, U)
    assert I.size == S.index * U.size
    assert total_size(I.decompose()) == I.size


def test_induced_rows_read_lazily_equal_the_eager_ones(monkeypatch):
    lazy, checked = gsets.induced_action, []

    def both(G, S, U):
        A = lazy(G, S, U)
        E = induced_action_eager(G, S, U)
        assert A.size == E.size
        assert tuple(A.rows[g] for g in range(G.order)) == E.rows
        checked.append(G.order)
        return A
    monkeypatch.setattr(gsets, "induced_action", both)
    assert induction_formula_suite(seed=20260823, count=100)["ok"]
    assert len(checked) > 200


def test_early_exit_stabilizer_is_the_full_schreier_closure(monkeypatch):
    early, checked = GAction.stabilizer, []

    def both(self, x):
        S = early(self, x)
        assert S == stabilizer_by_all_schreier_generators(self, x)
        checked.append(S.order)
        return S
    monkeypatch.setattr(GAction, "stabilizer", both)
    assert mackey_suite(seed=20260823, count=200)["ok"]
    assert defres_suite(seed=20260825, count=100)["ok"]
    assert len(checked) > 500


def test_extended_induction_formula_instance():
    S3 = named_group("S3")
    amb = product_group(S3, S3)
    C3 = subgroup_generated(S3, [el(S3, "(1 2 3)")])
    X = rectangle(amb, full_subgroup(S3), full_subgroup(S3))
    Y = rectangle(amb, full_subgroup(S3), full_subgroup(S3))
    Xp = diagonal(C3)
    Yp = diagonal(C3)
    U = coset_action(Xp.as_group(), full_subgroup(Xp.as_group()))
    V = coset_action(Yp.as_group(), full_subgroup(Yp.as_group()))
    out = extended_induction_formula(X, Y, Xp, Yp, U, V)
    assert out["isomorphic"]
    assert out["double_coset_count"] >= 1


def test_tensor_induced_bisets_formula_instance():
    C4 = named_group("C4")
    amb = product_group(C4, C4)
    C2 = subgroup_generated(C4, [2])
    X = rectangle(amb, full_subgroup(C4), C2)
    Y = rectangle(amb, C2, full_subgroup(C4))
    Xp = rectangle(amb, C2, C2)
    Yp = rectangle(amb, C2, C2)
    out = tensor_induced_bisets_formula(X, Y, Xp, Yp)
    assert out["isomorphic"]
    assert out["double_coset_count"] >= 1


def test_transitive_decomposition_equality():
    S3 = named_group("S3")
    A = coset_action(S3, subgroup_generated(S3, [el(S3, "(1 2)")]))
    d1 = A.decompose()
    d2 = coset_action(S3, subgroup_generated(S3,
                                             [el(S3, "(2 3)")])).decompose()
    assert d1 == d2 and hash(d1) == hash(d2)
    d3 = regular_action(S3).decompose()
    assert d1 != d3


def test_biset_from_left_action_round_trip():
    S3 = named_group("S3")
    A = coset_action(S3, subgroup_generated(S3, [el(S3, "(1 2)")]))
    U = biset_from_left_action(A)
    assert U.right.order == 1
    B = left_action_of_biset(U)
    assert iso_check(A, B)


def test_external_product_sizes():
    S3 = named_group("S3")
    C2 = named_group("C2")
    A = regular_action(S3)
    B = regular_action(C2)
    P = external_product(A, B)
    assert P.size == 12
    assert P.group.order == 12
    assert len(P.orbits()) == 1


def test_gaction_check_is_exact_on_a_large_product():
    # rho(a, b) = sigma(a) (x) tau(b) on 3 * 4 points, with tau the natural
    # action of S4 and sigma sending every a != 1 to the same transposition:
    # not an action, although the elements (1, b) all act compatibly
    S4 = named_group("S4")
    amb = product_group(S4, S4)

    def rows(sigma):
        out = []
        for x in range(amb.order):
            a, b = amb.decode(x)
            sa, tb = sigma(a), S4.permutations[b]
            out.append(tuple(sa[u] * 4 + tb[v]
                             for u in range(3) for v in range(4)))
        return out
    with pytest.raises(ValueError, match="compatible with products"):
        check_action(GAction(amb, rows(lambda a: (0, 1, 2)
                                       if a == S4.identity else (1, 0, 2))))
    A = GAction(amb, rows(lambda a: (0, 1, 2)))
    check_action(A)
    assert A.size == 12


def test_gaction_row_function_needs_a_size():
    S3 = named_group("S3")
    with pytest.raises(ValueError):
        GAction(S3, S3.row)
    A = GAction(S3, S3.row, size=6)
    assert A.rows[4] == S3.row(4) and total_size(A.decompose()) == 6


# -- oracles that scan every group element ----------------------------

def brute_orbits(A):
    seen, out = set(), []
    for x in range(A.size):
        if x not in seen:
            orb = sorted({A.rows[g][x] for g in range(A.group.order)})
            seen.update(orb)
            out.append(orb)
    return out


def brute_stabilizer(A, x):
    return tuple(g for g in range(A.group.order) if A.rows[g][x] == x)


def brute_decomposition(A):
    G = A.group
    items = Counter(
        Subgroup(G, brute_stabilizer(A, orb[0])).canonical_conjugate().elements
        for orb in brute_orbits(A))
    return TransitiveDecomposition(G, tuple(sorted(items.items())))


def _random_actions(rng):
    S4, D8, Q8 = named_group("S4"), named_group("D8"), named_group("Q8")
    SS, DQ = product_group(S4, S4), product_group(D8, Q8)

    def sub(G, max_index):
        while True:
            S = subgroup_generated(G, [rng.randrange(G.order)
                                       for _ in range(rng.randint(1, 2))])
            if S.index <= max_index:
                return S

    def coset(G, max_index=48):
        return coset_action(G, sub(G, max_index))

    def biset(amb, max_index=24):
        S = sub(amb, max_index)
        return biset_coset(ProductSubgroup(amb, S.elements))

    for G in (S4, DQ, SS):
        yield coset(G)
        yield disjoint_union(coset(G), coset(G, 8))
    yield external_product(coset(S4), coset(D8))
    yield external_product(coset(D8), coset(Q8))
    yield biset(SS).opposite().action
    yield biset(DQ).opposite().action
    yield tensor_direct(biset(SS), biset(SS)).action
    yield tensor_direct(biset(product_group(D8, S4)),
                        biset(product_group(S4, Q8))).action


def test_orbits_stabilizers_decompose_match_a_full_scan():
    rng = random.Random(17)
    for _ in range(3):
        for A in _random_actions(rng):
            assert A.orbits() == brute_orbits(A)
            for orb in A.orbits():
                for x in orb[:2]:
                    assert A.stabilizer(x).elements == brute_stabilizer(A, x)
            assert A.decompose() == brute_decomposition(A)


def test_coset_biset_decompose_reads_only_generator_rows():
    S4 = named_group("S4")
    amb = product_group(S4, S4)
    for X in (diagonal(full_subgroup(S4)),
              rectangle(amb, subgroup_generated(S4, [el(S4, "(1 2 3)")]),
                        full_subgroup(S4))):
        U = biset_coset(X)
        assert total_size(U.decompose()) == U.size == amb.order // X.order
        assert len(U.action.rows) <= len(amb.generators)
        T = tensor_direct(U, U)
        T.decompose()
        assert len(T.action.rows) <= len(amb.generators)
