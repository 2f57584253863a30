"""Subgroups of direct products: projections, star composition, pullbacks."""

import random

import pytest

from bisetblocks import gsets, subdirect
from bisetblocks.groups import (GroupHom, element_by_name, full_subgroup,
                                product_group, subgroup_generated)
from bisetblocks.namedgroups import named_group
from bisetblocks.subdirect import (ProductSubgroup, diagonal,
                                   full_product_subgroup, is_twisted_diagonal,
                                   middle_kernel, middle_witnesses, pullback,
                                   star, twisted_diagonal)
from bisetblocks.suites import run_suite

from oracles import (check_kernels_normal, check_subgroup, hom_kernel,
                     product_subgroup, product_subgroup_parts,
                     pullback_by_pairs, rectangle, star_by_pairs)


def el(G, spec):
    return element_by_name(G, spec)


def c2_in(G, spec):
    return subgroup_generated(G, [el(G, spec)])


def test_rectangle_projections_and_kernels():
    S3 = named_group("S3")
    C4 = named_group("C4")
    amb = product_group(S3, C4)
    A = c2_in(S3, "(1 2)")
    B = subgroup_generated(C4, [el(C4, "(1 3)(2 4)")])
    X = rectangle(amb, A, B)
    assert X.order == A.order * B.order
    assert X.p1.elements == A.elements and X.p2.elements == B.elements
    assert X.k1.elements == A.elements and X.k2.elements == B.elements
    assert not is_twisted_diagonal(X)


def test_diagonal_is_a_twisted_diagonal():
    S3 = named_group("S3")
    D = diagonal(full_subgroup(S3))
    assert D.order == 6
    assert D.p1.order == 6 and D.k1.order == 1 and D.k2.order == 1
    assert is_twisted_diagonal(D)
    assert sorted(D.pairs()) == [(g, g) for g in range(6)]


def test_twisted_diagonal_from_isomorphism():
    C6 = named_group("C6")
    S = full_subgroup(C6)
    # dict form maps parent ids of Q to parent ids of P
    X = twisted_diagonal(S, {g: C6.inv(g) for g in range(6)}, S)
    assert X.order == 6
    assert sorted(X.pairs()) == sorted((C6.inv(y), y) for y in range(6))
    assert is_twisted_diagonal(X)
    # GroupHom form lives on the local groups
    Sg = S.as_group()
    phi = GroupHom(Sg, Sg, [Sg.inv(i) for i in range(6)])
    Y = twisted_diagonal(S, phi, S)
    assert sorted(Y.pairs()) == sorted(X.pairs())


def test_twisted_diagonal_rejects_non_homs():
    C4 = named_group("C4")
    S = full_subgroup(C4)
    squares = {g: C4.mul(g, g) for g in range(4)}
    with pytest.raises(ValueError):
        twisted_diagonal(S, squares, S)  # not a bijection onto P


def test_twisted_diagonal_checks_every_generator():
    # swapping (2 3) and (1 3 2) respects right multiplication by (1 2),
    # the first generator of S3, but not by (1 2 3), the second
    S3 = named_group("S3")
    S = full_subgroup(S3)
    assert S.generators == (el(S3, "(1 2)"), el(S3, "(1 2 3)"))
    phi = {g: g for g in S.elements}
    a, b = el(S3, "(2 3)"), el(S3, "(1 3 2)")
    phi[a], phi[b] = b, a
    with pytest.raises(ValueError, match="not multiplicative"):
        twisted_diagonal(S, phi, S)


def test_star_of_diagonals_is_diagonal_of_intersection():
    S3 = named_group("S3")
    A = subgroup_generated(S3, [el(S3, "(1 2 3)")])
    B = c2_in(S3, "(1 2)")
    X = star(diagonal(A), diagonal(B))
    assert sorted(X.pairs()) == [(S3.identity, S3.identity)]
    Y = star(diagonal(A), diagonal(A))
    assert sorted(Y.pairs()) == sorted((a, a) for a in A.elements)


def test_star_composes_graphs_of_isomorphisms():
    C4 = named_group("C4")
    S = full_subgroup(C4)
    graph = twisted_diagonal(S, {g: C4.inv(g) for g in range(4)}, S)
    # inversion composed with itself is the identity
    X = star(graph, graph)
    assert sorted(X.pairs()) == [(g, g) for g in range(4)]


def test_star_requires_matching_middle():
    S3 = named_group("S3")
    C4 = named_group("C4")
    X = diagonal(full_subgroup(S3))
    Y = diagonal(full_subgroup(C4))
    with pytest.raises(ValueError):
        star(X, Y)


def _random_product_subgroup(rng, amb):
    n = amb.order
    gens = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
    S = subgroup_generated(amb, gens)
    return ProductSubgroup(amb, S.elements)


def test_projections_and_kernels_read_lazily_equal_the_eager_decode():
    rng = random.Random(13)
    names = ("C2", "C4", "S3", "D8", "Q8", "A4")
    for _ in range(40):
        G, H = (named_group(rng.choice(names)) for _ in range(2))
        X = _random_product_subgroup(rng, product_group(G, H))
        assert "p1" not in vars(X)
        assert (X.p1, X.p2, X.k1, X.k2) == product_subgroup_parts(X)


def test_star_is_associative_on_random_triples():
    rng = random.Random(11)
    names = ("C2", "C3", "C4", "S3", "C6")
    for _ in range(30):
        G, H, K, L = (named_group(rng.choice(names)) for _ in range(4))
        X = _random_product_subgroup(rng, product_group(G, H))
        Y = _random_product_subgroup(rng, product_group(H, K))
        Z = _random_product_subgroup(rng, product_group(K, L))
        left = star(star(X, Y), Z)
        right = star(X, star(Y, Z))
        assert left.elements == right.elements


def test_middle_witnesses_describe_star():
    rng = random.Random(7)
    for _ in range(20):
        G = named_group(rng.choice(("S3", "C4", "C6")))
        H = named_group(rng.choice(("S3", "C4", "C6")))
        K = named_group(rng.choice(("S3", "C4", "C6")))
        X = _random_product_subgroup(rng, product_group(G, H))
        Y = _random_product_subgroup(rng, product_group(H, K))
        wits = middle_witnesses(X, Y)
        S = star(X, Y)
        assert set(wits) == set(S.pairs())
        xset = set(X.pairs())
        yset = set(Y.pairs())
        total = 0
        for (g, k), hs in wits.items():
            assert hs == sorted(hs)
            for h in hs:
                assert (g, h) in xset and (h, k) in yset
            total += len(hs)
        assert total == sum(1 for g, h in X.pairs() for h2, k in Y.pairs()
                            if h == h2)


def test_middle_kernel_is_the_kernel_intersection():
    S3 = named_group("S3")
    amb = product_group(S3, S3)
    X = full_product_subgroup(amb)
    Y = diagonal(full_subgroup(S3))
    # k2(X) is everything, k1(Y) is trivial: the intersection is trivial
    assert middle_kernel(X, Y, middle_witnesses(X, Y)).order == 1
    C3 = subgroup_generated(S3, [el(S3, "(1 2 3)")])
    C2 = c2_in(S3, "(1 2)")
    X2 = rectangle(amb, C2, C3)
    Y2 = rectangle(amb, C3, C2)
    mk = middle_kernel(X2, Y2, middle_witnesses(X2, Y2))
    assert mk.elements == C3.elements
    assert all(m in X2.k2.element_set for m in mk.elements)
    assert all(m in Y2.k1.element_set for m in mk.elements)


def test_pullback_data_consistency():
    S3 = named_group("S3")
    C6 = named_group("C6")
    ambXY = product_group(S3, C6)
    ambYZ = product_group(C6, S3)
    rng = random.Random(3)
    for _ in range(10):
        X = _random_product_subgroup(rng, ambXY)
        Y = _random_product_subgroup(rng, ambYZ)
        data = pullback(X, Y)
        P = data.pullback
        # nu is a tuple of local ids: no local group of P is built
        assert ("asgroup", P.elements) not in P.ambient._subgroup_cache
        nu = GroupHom(P.as_group(), data.star_subgroup.as_group(), data.nu)
        S = star(X, Y)
        assert data.star_subgroup.elements == S.elements
        assert nu.source.order == P.order
        assert len(set(nu.images)) == nu.target.order
        # the kernel of nu is isomorphic to the joint kernel
        kernel = hom_kernel(nu)
        assert kernel.order * S.order == data.pullback.order
        assert kernel.order == middle_kernel(X, Y, data.witnesses).order


def test_opposite_is_an_involution():
    S3 = named_group("S3")
    C4 = named_group("C4")
    amb = product_group(S3, C4)
    X = rectangle(amb, c2_in(S3, "(1 2)"), full_subgroup(C4))
    assert sorted(X.opposite().pairs()) == sorted(
        (b, a) for a, b in X.pairs())
    assert X.opposite().opposite().elements == X.elements


def test_conjugated_by_pair_moves_projections():
    S3 = named_group("S3")
    amb = product_group(S3, S3)
    X = diagonal(c2_in(S3, "(1 2)"))
    g = amb.encode(el(S3, "(1 2 3)"), S3.identity)
    Xc = X.conjugated_by_pair(g)
    assert Xc.order == X.order
    a = el(S3, "(1 2 3)")
    assert Xc.p1.elements == tuple(sorted(
        S3.conj(a, x) for x in X.p1.elements))
    assert Xc.p2.elements == X.p2.elements


def test_kernel_normality_is_checked():
    S3 = named_group("S3")
    amb = product_group(S3, S3)
    # The diagonal plus ((1 2), e) has p1 = S3 and k1 = <(1 2)>, which is
    # not normal; its closure widens k1 to S3, which is.
    elems = set(diagonal(full_subgroup(S3)).elements)
    elems.add(amb.encode(el(S3, "(1 2)"), S3.identity))
    X = ProductSubgroup(amb, elems)
    assert X.p1.order == 6 and X.k1.order == 2
    with pytest.raises(AssertionError, match="k1 must be normal"):
        check_kernels_normal(X)
    closed = ProductSubgroup(amb, subgroup_generated(amb, list(elems)).elements)
    assert closed.k1.order == 6
    check_kernels_normal(closed)


def test_product_subgroup_from_pairs():
    C3 = named_group("C3")
    amb = product_group(C3, C3)
    X = product_subgroup(amb, [(g, g) for g in range(3)])
    assert X.order == 3 and is_twisted_diagonal(X)
    check_subgroup(X)
    with pytest.raises(ValueError, match="not closed"):
        check_subgroup(product_subgroup(amb, [(0, 0), (1, 0)]))


def _joined_pairs(monkeypatch, run) -> list:
    """Every (X, Y) that run() joins over the middle group."""
    joined = []

    def recording(X, Y, join=subdirect.middle_witnesses):
        joined.append((X, Y))
        return join(X, Y)
    monkeypatch.setattr(subdirect, "middle_witnesses", recording)
    monkeypatch.setattr(gsets, "middle_witnesses", recording)
    run()
    monkeypatch.undo()
    return joined


# the ids keep the names the suites had as functions of their own
@pytest.mark.parametrize("suite, seed", [("induction-formula", 20260823),
                                         ("induced-bisets", 20260824)],
                         ids=["induction_formula_suite-20260823",
                              "induced_bisets_suite-20260824"])
def test_join_matches_the_pairwise_definitions(monkeypatch, suite, seed):
    # every (X, Y) and every conjugated (Xc, Yc) of the suite at its
    # acceptance seed
    joined = _joined_pairs(monkeypatch,
                           lambda: run_suite(suite, seed))
    assert len(joined) > 100
    for X, Y in joined:
        S = star(X, Y)
        assert set(S.pairs()) == star_by_pairs(X, Y)
        data = pullback(X, Y)
        assert data.star_subgroup.elements == S.elements
        PG, P = data.pullback.ambient, data.pullback
        nu_by_pair = {}
        for i, z in enumerate(P.elements):
            lx, ly = PG.decode(z)
            nu_by_pair[X.from_local(lx), Y.from_local(ly)] = \
                S.pairs()[data.nu[i]]
        by_pairs = pullback_by_pairs(X, Y)
        assert nu_by_pair == by_pairs
        one = (X.ambient.left.identity, Y.ambient.right.identity)
        assert set(middle_kernel(X, Y, data.witnesses).elements) == {
            X.ambient.decode(x)[1] for (x, _), gk in by_pairs.items()
            if gk == one}
