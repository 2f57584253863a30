"""G-sets and bisets: orbits, tensor products, elementary pieces."""

import random
import tracemalloc
from collections import Counter

import pytest

from bisetblocks import groups, gsets, subdirect, suites
from bisetblocks.groups import (Subgroup, element_by_name, full_subgroup,
                                product_group, subgroup_generated,
                                trivial_subgroup)
from bisetblocks.gsets import (BisetView, GAction, TransitiveDecomposition,
                               biset_coset, biset_from_left_action,
                               coset_action,
                               defres_biset, defres_description,
                               disjoint_union, dual_biset,
                               extended_induction_formula, extended_tensor,
                               external_product,
                               induced_action, induction_biset, iso_check,
                               left_action_of_biset, tensor_direct,
                               tensor_mackey, tensor_induced_bisets_formula,
                               trivial_action)
from bisetblocks.namedgroups import named_group
from bisetblocks.subdirect import ProductSubgroup, diagonal, pullback
from bisetblocks.suites import (MACKEY_GROUPS, SMALL_GROUPS, random_action,
                                random_product_subgroup, random_sub_in,
                                run_suite)

from oracles import (check_action, defres_biset_by_cosets,
                     extended_tensor_eager, induced_action_eager,
                     induction_biset_by_cosets, inflation_biset,
                     marks_mismatches, rectangle, regular_action,
                     restriction_biset, stabilizer_by_all_schreier_generators,
                     subgroup_classes_by_cyclic_joins, tensor_by_pairs,
                     total_size)


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
        orb = brute_orbits(A)
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
    assert sorted(len(o) for o in brute_orbits(T.action)) == [2, 4]


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


def _tensor_cases(rng):
    """Pairs (U, V) of bisets over a shared middle group H."""
    def coset(amb):
        return biset_coset(random_product_subgroup(rng, amb, max_index=24))

    def union(*bisets):
        return BisetView(bisets[0].ambient,
                         disjoint_union(*(B.action for B in bisets)))

    for _ in range(16):
        G, H, K = (named_group(rng.choice(MACKEY_GROUPS)) for _ in range(3))
        left, right = product_group(G, H), product_group(H, K)
        U, V = coset(left), coset(right)
        yield U, V
        # V with several H-orbits, U with several H-orbits
        yield U, union(V, coset(right), V)
        yield union(U, coset(left)), V
        # H acts freely on cosets of 1 x K, trivially on those of H x K
        free = biset_coset(rectangle(right, trivial_subgroup(H),
                                     full_subgroup(K)))
        fixed = biset_coset(rectangle(right, full_subgroup(H),
                                      trivial_subgroup(K)))
        yield U, free
        yield U, fixed
        yield U, union(fixed, coset(right), free)
    # a trivial middle group
    for name in ("S3", "A4"):
        G = named_group(name)
        A = coset_action(G, subgroup_generated(G, [rng.randrange(G.order)]))
        yield biset_from_left_action(A), biset_from_left_action(A).opposite()


def test_tensor_direct_matches_the_pair_sweep():
    for U, V in _tensor_cases(random.Random(23)):
        T, want = tensor_direct(U, V), tensor_by_pairs(U, V)
        assert T.ambient is want.ambient
        assert T.size == want.size
        check_action(T.action)
        assert T.decompose() == want.decompose()


def test_tensor_of_regular_s4_bisets_forms_no_pairs():
    S4 = named_group("S4")
    amb = product_group(S4, S4)
    X = ProductSubgroup(amb, [amb.identity])
    U = biset_coset(X)
    assert U.size * U.size == 331_776
    tracemalloc.start()
    try:
        T = tensor_direct(U, U)
        T.decompose()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    assert T.decompose() == tensor_mackey(X, X)


def test_tensor_cap_bounds_points_times_orbits(monkeypatch):
    S3, C2 = named_group("S3"), named_group("C2")
    U = biset_coset(diagonal(full_subgroup(S3)))
    amb = product_group(S3, C2)
    # three H-orbits on V: two free ones and a fixed point
    V = BisetView(amb, disjoint_union(*(
        coset_action(amb, rectangle(amb, S, full_subgroup(C2)))
        for S in (trivial_subgroup(S3), trivial_subgroup(S3),
                  full_subgroup(S3)))))
    bound = U.size * 3
    assert U.size * V.size > bound
    monkeypatch.setattr(gsets, "TENSOR_POINT_CAP", bound)
    assert tensor_direct(U, V).size == 6 + 6 + 1
    monkeypatch.setattr(gsets, "TENSOR_POINT_CAP", bound - 1)

    # the one sweep of V comes first; a sweep of U must not
    sizes = []

    def sweep_of_v_only(size, rows):
        sizes.append(size)
        if len(sizes) > 1:
            raise AssertionError("labels built before the refusal")
        return groups.sweep_orbits(size, rows)
    monkeypatch.setattr(gsets, "sweep_orbits", sweep_of_v_only)
    with pytest.raises(ValueError, match=f"exceeds {bound - 1} points"):
        tensor_direct(U, V)
    assert sizes == [V.size]


def test_a_sweep_that_drops_its_last_row_fails_against_the_pair_oracle(
        monkeypatch):
    # tensor_by_pairs labels its pairs by union-find, which shares no
    # code with sweep_orbits, so a fault in the sweep cannot cancel.
    # The fixed point of V has all of S3 as its stabilizer, whose two
    # Schreier elements give two rows on U.
    S3, C2 = named_group("S3"), named_group("C2")
    U = biset_coset(diagonal(subgroup_generated(S3, [el(S3, "(1 2 3)")])))
    amb = product_group(S3, C2)
    V = BisetView(amb, disjoint_union(*(
        coset_action(amb, rectangle(amb, S, full_subgroup(C2)))
        for S in (full_subgroup(S3), trivial_subgroup(S3)))))
    assert len(S3.generators) == 2
    want = tensor_by_pairs(U, V).decompose()
    assert tensor_direct(U, V).decompose() == want
    with monkeypatch.context() as m:
        m.setattr(gsets, "sweep_orbits",
                  lambda size, rows: groups.sweep_orbits(size, rows[:-1]))
        T = tensor_direct(U, V)
    assert T.decompose() != want


def test_extended_tensor_cap_names_the_cap(monkeypatch):
    S3 = named_group("S3")
    X = Y = diagonal(full_subgroup(S3))
    U = V = regular_action(X.as_group())
    monkeypatch.setattr(gsets, "TENSOR_POINT_CAP", 36)
    assert extended_tensor(X, Y, U, V).size == 36
    # the joint kernel is trivial: 6 points of U times 6 orbits of V
    monkeypatch.setattr(gsets, "TENSOR_POINT_CAP", 35)
    with pytest.raises(ValueError, match="tensor product exceeds 35 points"):
        extended_tensor(X, Y, U, V)


def test_extended_tensor_of_regular_s4_actions_forms_no_pairs():
    # over the full S4 x S4 on both sides the joint kernel is S4, which
    # acts freely on the 576 points of V
    S4 = named_group("S4")
    amb = product_group(S4, S4)
    X = ProductSubgroup(amb, range(amb.order))
    U = regular_action(X.as_group())
    assert U.size * U.size == 331_776
    tracemalloc.start()
    try:
        W = extended_tensor(X, X, U, U)
        W.decompose()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    T = biset_coset(ProductSubgroup(amb, [amb.identity]))
    assert W.group is amb and W.size == 576 * 24
    assert W.decompose() == tensor_direct(T, T).decompose()


def test_a_sweep_that_drops_its_last_row_fails_the_extended_tensor(
        monkeypatch):
    # X = 1 x C2 and Y = C2 x 1 have the joint kernel C2, whose one
    # element other than 1 is the one row of the sweep of V, and a
    # trivial star, so no row is read and no witness is compared.  The
    # fixed point of V has the whole kernel as its stabilizer, and its
    # one Schreier element gives the one row on U.  extended_tensor_eager
    # labels its pairs by union-find, which shares no code with
    # sweep_orbits, so a fault in the sweep cannot cancel.
    C1, C2 = named_group("C1"), named_group("C2")
    X = ProductSubgroup(product_group(C1, C2), range(2))
    Y = ProductSubgroup(product_group(C2, C1), range(2))
    U = regular_action(X.as_group())
    V = disjoint_union(trivial_action(Y.as_group()),
                       regular_action(Y.as_group()))
    want = extended_tensor_eager(X, Y, U, V).decompose()
    assert extended_tensor(X, Y, U, V).decompose() == want
    with monkeypatch.context() as m:
        m.setattr(gsets, "sweep_orbits",
                  lambda size, rows: groups.sweep_orbits(size, rows[:-1]))
        W = extended_tensor(X, Y, U, V)
    assert W.decompose() != want
    # over a star that is not trivial, the second middle witness of a
    # generator differs from the first by a kernel element, so the same
    # fault is caught as a row is read
    S3 = named_group("S3")
    amb = product_group(S3, S3)
    X = rectangle(amb, full_subgroup(S3),
                  subgroup_generated(S3, [el(S3, "(1 2)")]))
    Y = ProductSubgroup(amb, range(amb.order))
    U = regular_action(X.as_group())
    V = disjoint_union(trivial_action(Y.as_group()),
                       regular_action(Y.as_group()))
    assert extended_tensor(X, Y, U, V).decompose() == \
        extended_tensor_eager(X, Y, U, V).decompose()
    with monkeypatch.context() as m:
        m.setattr(gsets, "sweep_orbits",
                  lambda size, rows: groups.sweep_orbits(size, rows[:-1]))
        W = extended_tensor(X, Y, U, V)
    with pytest.raises(AssertionError, match="middle witness changed"):
        W.decompose()


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
    W = defres_biset(pullback(X, Y))
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
    assert run_suite("induction-formula", 20260823)["ok"]
    assert len(checked) > 200


def test_early_exit_stabilizer_is_the_full_schreier_closure(monkeypatch):
    early, checked = GAction.stabilizer, []

    def both(self, x):
        S = early(self, x)
        assert S == stabilizer_by_all_schreier_generators(self, x)
        checked.append(S.order)
        return S
    monkeypatch.setattr(GAction, "stabilizer", both)
    assert run_suite("mackey", 20260823)["ok"]
    assert run_suite("defres", 20260825)["ok"]
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


@pytest.mark.parametrize("name, suite", [
    ("tensor_induced_bisets_formula", "induced-bisets"),
    ("extended_induction_formula", "induction-formula")],
    # the ids keep the names the suites had as functions of their own
    ids=["tensor_induced_bisets_formula-induced_bisets_suite",
         "extended_induction_formula-induction_formula_suite"])
def test_double_coset_formulas_join_each_pair_once(monkeypatch, name, suite):
    # one pullback, of (X, Y) itself, and one join per double coset
    calls = []

    def recording(module, fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, args[:2]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, fn.__name__, wrapper)
    recording(gsets, gsets.pullback)
    recording(gsets, gsets.middle_witnesses)
    recording(subdirect, subdirect.middle_witnesses)
    formula, instances = getattr(suites, name), []

    def checked(X, Y, *rest):
        calls.clear()
        res = formula(X, Y, *rest)
        assert [a for fn, a in calls if fn == "pullback"] == [(X, Y)]
        joins = [a for fn, a in calls if fn == "middle_witnesses"]
        assert joins[0] == (X, Y)
        assert len(joins) == 1 + res["double_coset_count"]
        instances.append(res)
        return res
    monkeypatch.setattr(suites, name, checked)
    assert run_suite(suite, 20260824, count=20)["ok"]
    assert len(instances) == 20


def test_transitive_decomposition_equality():
    S3 = named_group("S3")
    A = coset_action(S3, subgroup_generated(S3, [el(S3, "(1 2)")]))
    d1 = A.decompose()
    d2 = coset_action(S3, subgroup_generated(S3,
                                             [el(S3, "(2 3)")])).decompose()
    assert d1 == d2
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
    assert len(brute_orbits(P)) == 1


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
            sa, tb = sigma(a), S4.permutation(b)
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
            orbits = brute_orbits(A)
            assert sorted(map(sorted, A._sweep[2])) == orbits
            for orb in orbits:
                for x in orb[:2]:
                    assert A.stabilizer(x).elements == brute_stabilizer(A, x)
            assert A.decompose() == brute_decomposition(A)


def _traded(items, src, dst):
    """items with one summand of class src given class dst instead."""
    moved = Counter(dict(items))
    moved[src] -= 1
    moved[dst] += 1
    return [(T, m) for T, m in moved.items() if m]


def test_suite_decompositions_agree_with_the_marks(monkeypatch):
    # every action of a group of order at most 24 that the mackey,
    # coherence and defres suites decompose at seed 1, checked against
    # marks counted from its rows at each class of subgroups
    by_group, decompose = {}, GAction.decompose

    def kept(self):
        if self.group.order <= 24:
            by_group.setdefault(self.group.uid, (self.group, {}))[1][
                id(self)] = self
        return decompose(self)
    monkeypatch.setattr(GAction, "decompose", kept)
    for name in ("mackey", "coherence", "defres"):
        assert run_suite(name, 1)["ok"]
    monkeypatch.undo()
    checked, mutants = 0, Counter()
    for G, actions in by_group.values():
        classes = subgroup_classes_by_cyclic_joins(G)
        one, whole = (G.identity,), tuple(range(G.order))
        for A in actions.values():
            items = A.decompose().items
            assert marks_mismatches(A, items, classes) == []
            checked += 1
            if G.order == 1:
                continue
            # a regular orbit given the whole group, a fixed point given
            # the trivial group: the marks must see each
            for src, dst, kind in ((one, whole, "regular"),
                                   (whole, one, "fixed")):
                if src in dict(items):
                    assert marks_mismatches(A, _traded(items, src, dst),
                                            classes)
                    mutants[kind] += 1
    assert checked > 400
    assert mutants["regular"] > 10 and mutants["fixed"] > 10


def test_coset_actions_decompose_without_reading_a_row():
    # G/S has point stabilizer S, so its decomposition is the class of
    # S; the coset map waits for the first row read
    rng = random.Random(29)
    S4, D8, Q8 = named_group("S4"), named_group("D8"), named_group("Q8")
    for G in (S4, product_group(D8, Q8), product_group(S4, S4)):
        for _ in range(4):
            S = subgroup_generated(G, [rng.randrange(G.order)
                                       for _ in range(rng.randint(1, 2))])
            actions = [coset_action(G, S)]
            if G is not S4:
                actions.append(
                    biset_coset(ProductSubgroup(G, S.elements)).action)
            for A in actions:
                dec = A.decompose()
                assert len(A.rows) == 0
                assert dec.items == ((S.canonical_conjugate().elements, 1),)
                assert dec == brute_decomposition(A)


def test_a_union_decomposes_as_the_sum_of_its_parts():
    rng = random.Random(31)
    S4, D8 = named_group("S4"), named_group("D8")
    SS, SD = product_group(S4, S4), product_group(S4, D8)

    def sub(G, max_index):
        while True:
            S = subgroup_generated(G, [rng.randrange(G.order)
                                       for _ in range(rng.randint(1, 2))])
            if S.index <= max_index:
                return S

    def biset(amb):
        return biset_coset(ProductSubgroup(amb, sub(amb, 24).elements))
    for _ in range(3):
        T = tensor_direct(biset(SS), biset(SD)).action
        C = coset_action(SD, sub(SD, 24))
        union = disjoint_union(C, T, C)
        dec = union.decompose()
        assert len(C.rows) == 0
        assert dec == brute_decomposition(union)
        assert total_size(dec) == union.size


def test_coset_biset_decompose_reads_only_generator_rows():
    S4 = named_group("S4")
    amb = product_group(S4, S4)
    for X in (diagonal(full_subgroup(S4)),
              rectangle(amb, subgroup_generated(S4, [el(S4, "(1 2 3)")]),
                        full_subgroup(S4))):
        U = biset_coset(X)
        assert total_size(U.decompose()) == U.size == amb.order // X.order
        assert len(U.action.rows) == 0
        T = tensor_direct(U, U)
        T.decompose()
        assert len(T.action.rows) <= len(amb.generators)


# -- graph bisets and extended-tensor rows against their references ---

def _same_graph_biset(W, ref, rng):
    """W against the coset biset ref of the same graph subgroup: the
    same decomposition, read off no row, rows that form an action with
    that decomposition, and a tensor with a random right biset over the
    same middle group that is isomorphic."""
    assert W.ambient is ref.ambient and W.size == ref.size
    assert W.decompose() == ref.decompose()
    assert len(W.action.rows) == 0
    check_action(W.action)
    assert brute_decomposition(W.action) == ref.decompose()
    amb = product_group(W.right, named_group("C2"))
    V = biset_coset(random_product_subgroup(rng, amb, max_index=12))
    assert iso_check(tensor_direct(W, V).action, tensor_direct(ref, V).action)


def test_induction_bisets_equal_the_coset_bisets_of_their_graphs():
    rng = random.Random(26)
    S4, D8, Q8 = named_group("S4"), named_group("D8"), named_group("Q8")
    for G in (S4, product_group(D8, Q8)):
        # the whole group first, so that a non-abelian S is among them
        subgroups = [full_subgroup(G)] + [
            subgroup_generated(G, [rng.randrange(G.order)
                                   for _ in range(rng.randint(1, 2))])
            for _ in range(6)]
        for S in subgroups:
            _same_graph_biset(induction_biset(S),
                              induction_biset_by_cosets(S), rng)


@pytest.mark.parametrize("suite, seed", [("induced-bisets", 20260824),
                                         ("defres", 20260825)],
                         ids=["induced_bisets_suite-20260824",
                              "defres_suite-20260825"])
def test_suite_graph_bisets_equal_the_coset_bisets(monkeypatch, suite, seed):
    # the rectangles and pullbacks the double-coset formula and the
    # defres description draw, twenty instances of each suite
    rng, seen = random.Random(seed), []

    def against(built, reference):
        def both(arg):
            W = built(arg)
            _same_graph_biset(W, reference(arg), rng)
            seen.append(W.size)
            return W
        return both
    monkeypatch.setattr(gsets, "induction_biset", against(
        gsets.induction_biset, induction_biset_by_cosets))
    monkeypatch.setattr(gsets, "defres_biset", against(
        gsets.defres_biset, defres_biset_by_cosets))
    assert run_suite(suite, seed, count=20)["ok"]
    assert len(seen) == (40 if suite == "induced-bisets" else 20)


def _draw_closing_every_span(rng, amb, max_index, max_order):
    """random_product_subgroup's draw with each span closed in full, or
    None where it falls back."""
    for _ in range(64):
        gens = [rng.randrange(amb.order) for _ in range(rng.randint(1, 3))]
        S = subgroup_generated(amb, gens)
        if amb.order // S.order <= max_index and S.order <= max_order:
            return S
    return None


def _sub_closing_every_span(rng, X, max_order):
    """random_sub_in's draw with each span closed in full, or None."""
    for _ in range(32):
        gens = [rng.choice(X.elements) for _ in range(rng.randint(1, 2))]
        S = subgroup_generated(X.parent, gens)
        if S.order <= max_order:
            return S
    return None


@pytest.mark.parametrize("max_order", (8, 16, 32))
def test_draws_that_stop_past_max_order_draw_what_full_spans_draw(max_order):
    # a span past max_order is rejected either way, so stopping its
    # closure changes neither the subgroup drawn nor the generator's state
    amb = product_group(named_group("S4"), named_group("D8"))
    for seed in range(30):
        rng, ref = random.Random(seed), random.Random(seed)
        X = random_product_subgroup(rng, amb, max_index=24,
                                    max_order=max_order)
        S = _draw_closing_every_span(ref, amb, 24, max_order)
        assert X.elements == (S.elements if S else (amb.identity,))
        Xp = random_sub_in(rng, X, max_order=max_order // 4)
        Sp = _sub_closing_every_span(ref, X, max_order // 4)
        assert Xp.elements == (Sp.elements if Sp else (amb.identity,))
        assert rng.getstate() == ref.getstate()


def _extended_instances(rng, count):
    """count random (X, Y, U, V) as the defres suite draws them."""
    for _ in range(count):
        G, H, K = (named_group(rng.choice(SMALL_GROUPS)) for _ in range(3))
        X = random_product_subgroup(rng, product_group(G, H),
                                    max_index=24, max_order=16)
        Y = random_product_subgroup(rng, product_group(H, K), max_index=24,
                                    max_order=max(2, 128 // X.order))
        yield (X, Y, random_action(rng, X.as_group(), max_points=6),
               random_action(rng, Y.as_group(), max_points=6))


def test_extended_tensor_rows_are_read_lazily_and_act_as_the_eager_ones():
    # the points are numbered orbit by orbit of V, not as the pair
    # oracle numbers its pairs, so the two agree up to isomorphism: a
    # decomposition is a complete invariant of a finite G-set
    for X, Y, U, V in _extended_instances(random.Random(27), 60):
        W, E = extended_tensor(X, Y, U, V), extended_tensor_eager(X, Y, U, V)
        assert W.group is E.group and W.size == E.size
        # a decomposition computes only the generators' rows
        assert W.decompose() == E.decompose()
        assert set(W.rows) <= set(W.group.generators)
        check_action(W)


def test_a_changed_row_through_the_second_witness_raises_when_read():
    # over C2 every (g, k) of the full products has both middle
    # elements as witnesses; U moves its points only under (1, 1), which
    # the row of (1, 0) reads through the witness 1 and not through 0
    C2 = named_group("C2")
    amb = product_group(C2, C2)
    X = Y = ProductSubgroup(amb, range(amb.order))
    bad = amb.encode(1, 1)
    U = GAction(amb, lambda a: (1, 0) if a == bad else (0, 1), size=2)
    W = extended_tensor(X, Y, U, trivial_action(amb))
    assert W.rows[amb.encode(0, 0)] == (0, 1)
    with pytest.raises(AssertionError,
                       match="middle witness changed the action"):
        W.rows[amb.encode(1, 0)]
