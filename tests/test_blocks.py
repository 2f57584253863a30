"""Block idempotents, Brauer homomorphism, defect groups, Brauer pairs."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import bisetblocks.blocks as blocks_module
from bisetblocks import groups
from bisetblocks.blocks import (CentralElement, NotPIntegral, ReductionMap,
                                action_rank, assign_characters_to_blocks,
                                block_idempotents, brauer_construction,
                                brauer_hom, coset_module_rank, defect_group,
                                defect_zero_simple_dim, fixed_cosets,
                                group_algebra_mul, maximal_brauer_pair,
                                multiplicative_order, splitting_field_degree,
                                splitting_params)
from bisetblocks.characters import character_table
from bisetblocks.cli import main
from bisetblocks.cyclotomic import Cyclotomic
from bisetblocks.gf import FIELD_SIZE_CAP, Fq, fq_field, mat_rank
from bisetblocks.groups import (centralizer, class_structure_constants,
                                element_by_name, full_subgroup,
                                int_p_prime_part, normalizer,
                                p_subgroups_up_to_conjugacy,
                                subgroup_generated, sylow_subgroup)
from bisetblocks.gsets import biset_coset, coset_action
from bisetblocks.namedgroups import BUNDLED_NAMES, named_group
from bisetblocks.scenario import bundled_table, group_from_spec
from bisetblocks.subdirect import diagonal

from oracles import (coset_module_rank_by_elements,
                     defect_group_by_enumeration, principal_block_index,
                     total_size, zeta)

# (group, p) -> (splitting degree, block count, partition by names,
#                defect orders in block order, principal index)
BLOCK_DATA = {
    ("S3", 2): (2, 2, [("chi2",), ("chi0", "chi1")], [1, 2], 1),
    ("S3", 3): (1, 1, [("chi0", "chi1", "chi2")], [3], 0),
    ("S4", 2): (2, 1, [("chi0", "chi1", "chi2", "chi3", "chi4")], [8], 0),
    ("S4", 3): (2, 3, [("chi3",), ("chi4",), ("chi0", "chi1", "chi2")],
                [1, 1, 3], 2),
    ("A4", 2): (2, 1, [("chi0", "chi1", "chi2", "chi3")], [4], 0),
    ("A4", 3): (1, 2, [("chi3",), ("chi0", "chi1", "chi2")], [1, 3], 1),
    ("C6", 2): (2, 3, [("chi0", "chi1"), ("chi3", "chi4"), ("chi2", "chi5")],
                [2, 2, 2], 0),
    ("C6", 3): (1, 2, [("chi1", "chi3", "chi5"), ("chi0", "chi2", "chi4")],
                [3, 3], 1),
    ("D8", 2): (1, 1, [("chi0", "chi1", "chi2", "chi3", "chi4")], [8], 0),
    ("Q8", 2): (1, 1, [("chi0", "chi1", "chi2", "chi3", "chi4")], [8], 0),
}

A5_SPEC = {"name": "A5", "generators": ["(1 2 3)", "(1 2 3 4 5)"]}
S5_SPEC = {"name": "S5", "generators": ["(1 2)", "(1 2 3 4 5)"]}


def field_for(G, p):
    m, _ = splitting_params(G, p)
    return fq_field(p, m)


def test_multiplicative_order():
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(3, 2) == 1
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 1) == 1


def test_splitting_params():
    for (name, p), (m, *_rest) in BLOCK_DATA.items():
        G = named_group(name)
        got_m, got_q = splitting_params(G, p)
        assert got_m == m and got_q == p ** m
    assert splitting_field_degree(
        [named_group("S3"), named_group("C6")], 2) == 2


def test_reduction_map_values():
    F3 = fq_field(3, 1)
    red = ReductionMap(F3)
    assert red(Cyclotomic.from_rational(2)) == 2
    assert red(Cyclotomic.from_rational(Fraction(1, 2))) == 2  # 2^-1 = 2
    assert red(zeta(2)) == 2                        # -1
    assert red(zeta(3)) == 1   # p-part of the conductor drops
    assert red(zeta(6)) == 2   # zeta_6 = -zeta_3^2 -> -1
    F4 = fq_field(2, 2)
    red4 = ReductionMap(F4)
    w = red4(zeta(3))
    assert w not in (0, 1)
    assert F4.power(w, 3) == 1


def test_reduction_map_rejects_p_in_denominator():
    red = ReductionMap(fq_field(3, 1))
    with pytest.raises(NotPIntegral):
        red(Cyclotomic.from_rational(Fraction(1, 3)))


def test_reduction_map_needs_enough_roots():
    red = ReductionMap(fq_field(3, 1))  # q - 1 = 2, no 5th roots
    with pytest.raises(ValueError):
        red(zeta(5))


def test_block_counts_partitions_and_defects():
    for (name, p), (_, count, partition, defects, principal) in \
            BLOCK_DATA.items():
        G = named_group(name)
        F = field_for(G, p)
        blocks = block_idempotents(G, p, F)
        assert len(blocks) == count, (name, p)
        table = bundled_table(name)
        part = assign_characters_to_blocks(table, blocks, F)
        got = [tuple(table.names[i] for i in pa) for pa in part]
        assert got == partition, (name, p)
        assert [defect_group(G, p, b).order for b in blocks] == defects
        assert principal_block_index(table, blocks, F) == principal


def test_blocks_sum_to_one_and_are_orthogonal():
    for name, p in [("S3", 2), ("C6", 3), ("S4", 3)]:
        G = named_group(name)
        F = field_for(G, p)
        blocks = block_idempotents(G, p, F)
        total = CentralElement.zero(G, F)
        for b in blocks:
            assert b.is_idempotent()
            total = total + b
        assert total == CentralElement.one(G, F)
        for i, b in enumerate(blocks):
            for c in blocks[i + 1:]:
                assert b * c == CentralElement.zero(G, F)


def test_character_partition_covers_exactly_once():
    for name, p in [("S4", 2), ("S4", 3), ("A4", 3)]:
        G = named_group(name)
        F = field_for(G, p)
        blocks = block_idempotents(G, p, F)
        part = assign_characters_to_blocks(bundled_table(name), blocks, F)
        seen = [i for pa in part for i in pa]
        assert sorted(seen) == list(range(len(bundled_table(name).names)))


def test_principal_defect_group_is_sylow():
    for name, p in [("S3", 2), ("S3", 3), ("A4", 2), ("S4", 3), ("C6", 2)]:
        G = named_group(name)
        F = field_for(G, p)
        blocks = block_idempotents(G, p, F)
        table = bundled_table(name)
        b0 = blocks[principal_block_index(table, blocks, F)]
        D = defect_group(G, p, b0)
        P = sylow_subgroup(G, p)
        assert D.elements == P.canonical_conjugate().elements


def test_brauer_hom_is_multiplicative_on_the_center():
    # br_D is an algebra map on D-fixed elements; class sums are G-fixed
    for name, p in [("S3", 2), ("A4", 3), ("S4", 3)]:
        G = named_group(name)
        F = field_for(G, p)
        D = sylow_subgroup(G, p).canonical_conjugate()
        from bisetblocks.groups import centralizer
        Cg = centralizer(G, D).as_group()
        classes = G.conjugacy_classes()
        k = len(classes)

        def class_vec(idx):
            vec = [0] * G.order
            for g in classes[idx]:
                vec[g] = 1
            return vec
        for i in range(k):
            for j in range(k):
                vi, vj = class_vec(i), class_vec(j)
                prod = group_algebra_mul(F, G, vi, vj)
                lhs = brauer_hom(prod, D, F)
                rhs = group_algebra_mul(F, Cg, brauer_hom(vi, D, F),
                                        brauer_hom(vj, D, F))
                assert lhs == rhs


def test_brauer_hom_rejects_unfixed_elements():
    G = named_group("S3")
    F = field_for(G, 2)
    D = sylow_subgroup(G, 2)
    vec = [0] * G.order
    vec[element_by_name(G, "(1 2 3)")] = 1  # a single element, not D-fixed
    with pytest.raises(ValueError):
        brauer_hom(vec, D, F)


def test_maximal_brauer_pairs():
    for name, p in [("S3", 2), ("C6", 3), ("A4", 3)]:
        G = named_group(name)
        F = field_for(G, p)
        blocks = block_idempotents(G, p, F)
        for b in blocks:
            D, e = maximal_brauer_pair(G, p, b, F)
            assert D.elements == defect_group(G, p, b).elements
            assert e.is_idempotent()
            from bisetblocks.groups import centralizer
            Cg = centralizer(G, D).as_group()
            br = brauer_hom(b.to_vector(), D, F)
            prod = group_algebra_mul(F, Cg, br, e.to_vector())
            assert prod == e.to_vector()


def test_defect_zero_dimensions():
    G = named_group("S3")
    F = field_for(G, 2)
    blocks = block_idempotents(G, 2, F)
    table = bundled_table("S3")
    part = assign_characters_to_blocks(table, blocks, F)
    for bi, b in enumerate(blocks):
        D, e = maximal_brauer_pair(G, 2, b, F)
        if D.order == 1:
            # defect zero: the simple dimension is the character degree
            (ci,) = part[bi]
            assert defect_zero_simple_dim(G, D, e, F) == \
                table.degrees()[ci] == 2
    S4 = named_group("S4")
    F4 = field_for(S4, 3)
    blocks4 = block_idempotents(S4, 3, F4)
    dims = []
    for b in blocks4:
        D, e = maximal_brauer_pair(S4, 3, b, F4)
        if D.order == 1:
            dims.append(defect_zero_simple_dim(S4, D, e, F4))
    assert dims == [3, 3]


def regular_rank(F, G, vec):
    """Reference: rank of vec on the regular module, one row per element."""
    rows = []
    for u in range(G.order):
        unit = [0] * G.order
        unit[u] = 1
        rows.append(group_algebra_mul(F, G, vec, unit))
    return mat_rank(F, rows)


def test_block_ideal_is_free_over_every_p_subgroup():
    # A block ideal of F_q G is a summand of F_q G, so it is projective
    # and free over each p-subgroup P: its dimension is |P| times the
    # rank of the block on F_q[G/P].
    A5 = group_from_spec(A5_SPEC)
    cases = [(named_group("S4"), 2), (named_group("S4"), 3),
             (named_group("A4"), 2), (named_group("A4"), 3),
             (A5, 2), (A5, 3), (A5, 5)]
    for G, p in cases:
        F = field_for(G, p)
        Ps = p_subgroups_up_to_conjugacy(G, p)
        dims = []
        for b in block_idempotents(G, p, F):
            vec = b.to_vector()
            dim = regular_rank(F, G, vec)
            dims.append(dim)
            for P in Ps:
                rank = coset_module_rank(F, G, b, P)
                assert rank == coset_module_rank_by_elements(F, G, vec, P)
                assert P.order * rank == dim, (G.name, p, P.order)
        assert sum(dims) == G.order


def test_s6_blocks_at_odd_primes():
    # Nakayama: at p=3 the 3-cores (4,2) and (2,2,1,1) of degree 9 are
    # defect zero and the empty core has weight 2 (defect |S6|_3 = 9);
    # at p=5 the six partitions without a 5-hook (degrees 5, 5, 5, 5,
    # 10, 10) are defect zero and the core (1) has weight 1.
    S6 = group_from_spec({"name": "S6",
                          "generators": ["(1 2)", "(1 2 3 4 5 6)"]})
    expected = {3: ([1, 1, 9], [9, 9]),
                5: ([1, 1, 1, 1, 1, 1, 5], [5, 5, 5, 5, 10, 10])}
    for p, (defects, dims) in expected.items():
        F = field_for(S6, p)
        orders, zero_dims = [], []
        for b in block_idempotents(S6, p, F):
            D, e = maximal_brauer_pair(S6, p, b, F)
            orders.append(D.order)
            if D.order == 1:
                zero_dims.append(defect_zero_simple_dim(S6, D, e, F))
        assert sorted(orders) == defects
        assert sorted(zero_dims) == dims


S6_SPEC = {"name": "S6", "generators": ["(1 2)", "(1 2 3 4 5 6)"]}


def test_blocks_of_s6_read_few_rows_and_names_of_s6(tmp_path, monkeypatch):
    # loops take the products of fixed elements in bulk, so the blocks
    # of S6 compute next to none of its 720 rows (none today), and the
    # defect generators are named one by one, not all 720 elements
    named = []
    cycles_of = groups.cycles_of
    monkeypatch.setattr(groups, "cycles_of",
                        lambda perm: named.append(perm) or cycles_of(perm))
    spec = {"name": "S6 rows", "generators": S6_SPEC["generators"]}
    path = tmp_path / "s6.json"
    path.write_text(json.dumps(spec))
    assert main(["blocks", str(path), "--prime", "2",
                 "--out", str(tmp_path / "report.json")]) == 0
    S6 = group_from_spec(spec)
    assert S6.order == 720 and len(vars(S6).get("_rows", ())) <= 24
    assert len(named) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert [b["defect_generators"] for b in report["blocks"]] == [
        [], ["(1 2)", "(1 4)(2 5)(3 6)", "(1 4)(2 5)"]]


@pytest.mark.parametrize("name", ["A5", "S5", "S6"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_defect_zero_blocks_are_the_characters_of_full_defect(name, p):
    # A block of defect zero holds exactly one character chi, the one
    # with |G|_p dividing chi(1), and its simple module has dimension
    # chi(1); the degrees come from the computed character table.
    G = group_from_spec({"A5": A5_SPEC, "S5": S5_SPEC, "S6": S6_SPEC}[name])
    G_p = G.order // int_p_prime_part(G.order, p)
    degrees = [d for d in character_table(G).degrees() if d % G_p == 0]
    F = field_for(G, p)
    dims = []
    for b in block_idempotents(G, p, F):
        D, e = maximal_brauer_pair(G, p, b, F)
        if D.order == 1:
            dims.append(defect_zero_simple_dim(G, D, e, F))
    assert sorted(dims) == degrees


def test_defect_zero_dim_rejects_a_field_that_does_not_split():
    # A5 splits at p=3 only over F_81.  Over F_3 its two characters of
    # degree 3 are Galois conjugate and share one block of dimension
    # 9 + 9 = 18, which is 3 times the rank 6 on the 20 cosets of C3.
    A5 = group_from_spec(A5_SPEC)
    F3 = fq_field(3, 1)
    errors = []
    for b in block_idempotents(A5, 3, F3):
        D, e = maximal_brauer_pair(A5, 3, b, F3)
        if D.order == 1:
            with pytest.raises(ValueError, match="not a perfect square"
                               ) as info:
                defect_zero_simple_dim(A5, D, e, F3)
            errors.append(str(info.value))
    assert len(errors) == 1 and "dimension 18" in errors[0]


def test_central_element_algebra():
    G = named_group("C6")
    F = fq_field(3, 1)
    one = CentralElement.one(G, F)
    zero = CentralElement.zero(G, F)
    assert one.is_idempotent() and zero.is_idempotent()
    assert one * one == one and one + zero == one
    assert one - one == zero
    assert one.scale(2) + one == zero  # 2 + 1 = 0 mod 3
    assert one.power(5) == one
    vec = one.to_vector()
    assert vec[G.identity] == 1 and sum(vec) == 1


def test_brauer_construction_counts_fixed_cosets():
    S3 = named_group("S3")
    C3 = subgroup_generated(S3, [element_by_name(S3, "(1 2 3)")])
    X = diagonal(full_subgroup(S3))
    amb = X.ambient
    P = diagonal(C3)  # a p-subgroup of the ambient product
    Psub = subgroup_generated(amb, list(P.elements))
    got = fixed_cosets(X, Psub)
    # independent brute-force count over coset representatives
    U = biset_coset(X)
    brute = [x for x in range(U.size)
             if all(U.rows[t][x] == x for t in Psub.elements)]
    assert got == brute
    # cosets of the diagonal form S3 under (a, b) . x = a x b^-1; the
    # delta(C3)-fixed points are the centralizer of C3, which is C3
    assert len(got) == 3

    out = brauer_construction([(X, -2)], Psub)
    assert len(out) == 1
    rec = out[0]
    assert rec["coefficient"] == -2
    assert rec["fixed"] == got
    assert rec["action"].size == len(got)
    # the normalizer action must close on the fixed set
    dec = rec["action"].decompose()
    assert total_size(dec) == len(got)


@pytest.mark.parametrize("name", list(BUNDLED_NAMES) + ["A5", "S5"])
def test_structure_constants_count_every_pair(name):
    G = (group_from_spec(A5_SPEC if name == "A5" else S5_SPEC)
         if name in ("A5", "S5") else named_group(name))
    classes = G.conjugacy_classes()
    reps = [cls[0] for cls in classes]
    sc = class_structure_constants(G)
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            assert sc[i][j] == [sum(1 for x in ci for y in cj
                                    if G.mul(x, y) == z) for z in reps]


def test_brauer_hom_fixed_check_by_definition():
    S4 = named_group("S4")
    F = field_for(S4, 2)
    rng = random.Random(11)
    for D in p_subgroups_up_to_conjugacy(S4, 2):
        C = centralizer(S4, D)
        # a sum of D-conjugation orbits is fixed by definition
        vec = [0] * S4.order
        for g in range(S4.order):
            if not vec[g] and rng.randrange(2):
                for d in D.elements:
                    vec[S4.conj(d, g)] = 1
        assert brauer_hom(vec, D, F) == [vec[g] for g in C.elements]
        moved = [g for g in range(S4.order)
                 if any(S4.conj(d, g) != g for d in D.elements)]
        assert bool(moved) == (C.order < S4.order)
        for g in moved[:3]:
            bad = list(vec)
            bad[g] = 1 - bad[g]
            with pytest.raises(ValueError, match="not fixed"):
                brauer_hom(bad, D, F)


# -- the fixed subalgebra B = {x : x^q = x} of the center --------------

SMALL_SPECS = {"A5": A5_SPEC, "S5": S5_SPEC, "S6": S6_SPEC}


def small_group(name):
    return (group_from_spec(SMALL_SPECS[name]) if name in SMALL_SPECS
            else named_group(name))


def primes_of(n):
    return [p for p in (2, 3, 5, 7, 11) if n % p == 0]


def frobenius_fixed_dimension(G, F):
    """dim ker(Phi - 1), Phi(K) = K^q on the class sums."""
    k = len(G.conjugacy_classes())
    rows = []
    for i in range(k):
        K = CentralElement(G, F, [int(i == j) for j in range(k)])
        rows.append(list((K.power(F.q) - K).coeffs))
    return k - mat_rank(F, rows)


@pytest.mark.parametrize("name", ["S3", "S4", "S5", "S6", "A5"])
def test_frobenius_fixed_points_count_the_blocks(name):
    G = small_group(name)
    for p in primes_of(G.order):
        F = field_for(G, p)
        assert frobenius_fixed_dimension(G, F) == \
            len(block_idempotents(G, p, F)), (name, p)


def test_frobenius_fixed_points_count_the_blocks_of_a_non_split_field():
    # over F_3 the two Galois conjugate degree-3 characters of A5 share
    # a block, which F_81 splits in two
    A5 = group_from_spec(A5_SPEC)
    for F, count in [(fq_field(3, 1), 2), (field_for(A5, 3), 3)]:
        assert len(block_idempotents(A5, 3, F)) == count
        assert frobenius_fixed_dimension(A5, F) == count


@pytest.mark.parametrize("name, p", [("S6", 2), ("A5", 2), ("A5", 3),
                                     ("A5", 5), ("C12", 2), ("S4", 3)])
def test_one_pass_splits_over_any_basis_of_the_fixed_subalgebra(
        monkeypatch, name, p):
    # the partial sums e_1, e_1 + e_2, ..., 1 form a basis of B in which
    # each e_1 + ... + e_i below 1 is the only element separating e_i
    # from e_(i+1); both orders must give back every block
    G = small_group(name)
    F = field_for(G, p)
    want = block_idempotents(G, p, F)
    sums = [want[0]]
    for b in want[1:]:
        sums.append(sums[-1] + b)
    for basis in (sums, sums[::-1]):
        # a new field object is a new cache key
        F2 = Fq(p, F.m)
        monkeypatch.setattr(blocks_module, "mat_kernel", lambda *args: [
            list(s.coeffs) for s in basis])
        got = block_idempotents(G, p, F2)
        assert [b.coeffs for b in got] == [b.coeffs for b in want]


@pytest.mark.parametrize("name, p", [("S6", 2), ("A5", 2), ("A5", 3),
                                     ("A5", 5)])
def test_each_basis_element_meets_each_piece_once(monkeypatch, name, p):
    # one eigenspace split per basis element of B and piece found so far
    calls = []
    real = blocks_module.eigenspaces

    def counted(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(blocks_module, "eigenspaces", counted)
    G = small_group(name)
    F = Fq(p, field_for(G, p).m)      # a new cache key
    count = len(block_idempotents(G, p, F))
    dim_B = frobenius_fixed_dimension(G, F)
    assert count > 1 and 0 < len(calls) <= dim_B * count


@pytest.mark.parametrize("name", ["C2", "C3"])
def test_an_element_outside_the_fixed_subalgebra_fails_the_split(
        monkeypatch, name):
    # handed the whole centre of F_2 G for B, the split meets a generator
    # g: over F_2 multiplication by g has minimal polynomial (t + 1)^2 in
    # C2, and t^3 - 1 = (t + 1)(t^2 + t + 1) in C3; neither splits into
    # distinct linear factors, as that of an element of B would
    G = named_group(name)
    k = len(G.conjugacy_classes())
    monkeypatch.setattr(blocks_module, "mat_kernel", lambda *args: [
        [int(i == j) for j in range(k)] for i in range(k)])
    with pytest.raises(ValueError, match="distinct linear factors"):
        block_idempotents(G, 2, Fq(2, 1))


def test_action_rank_on_a_span_of_points():
    # S3 on the three cosets of <(1 2)>: the sum of the elements has
    # rank 1, and (1 2) fixes exactly one coset, which (1 3) moves
    S3 = named_group("S3")
    F = fq_field(3, 1)
    t = element_by_name(S3, "(1 2)")
    U = coset_action(S3, subgroup_generated(S3, [t]))
    row = U.rows.__getitem__
    everything = {g: 1 for g in range(S3.order)}
    assert action_rank(F, row, everything, range(U.size)) == 1
    assert action_rank(F, row, {S3.identity: 2}, range(U.size)) == 3
    (fixed,) = U.fixed_points([t])
    assert action_rank(F, row, {t: 1}, [fixed]) == 1
    with pytest.raises(ValueError, match="outside the span"):
        action_rank(F, row, {element_by_name(S3, "(1 3)"): 1}, [fixed])


def test_splitting_degree_of_every_p_local_centralizer_divides_the_group():
    # exp C_G(P) divides exp G, so a scenario needs the degrees of its two
    # groups only
    for name in list(BUNDLED_NAMES) + ["A5", "S5", "S6"]:
        G = small_group(name)
        for p in primes_of(G.order):
            m = splitting_params(G, p)[0]
            for P in p_subgroups_up_to_conjugacy(G, p):
                C = centralizer(G, P).as_group()
                assert m % splitting_params(C, p)[0] == 0, (name, p, P.order)


# -- defect groups by Green's min-max theorem -------------------------

def defect_groups_agree_with_enumeration(G):
    for p in primes_of(G.order):
        F = field_for(G, p)
        for b in block_idempotents(G, p, F):
            for largest in (False, True):
                got = defect_group(G, p, b, largest_rep=largest)
                want = defect_group_by_enumeration(G, p, b, largest)
                assert got.elements == want.elements, (G.name, p, largest)


@pytest.mark.parametrize("name", list(BUNDLED_NAMES) + ["A5", "S5", "S6"])
def test_defect_group_agrees_with_the_enumeration_of_p_subgroups(name):
    defect_groups_agree_with_enumeration(small_group(name))


def test_a_class_of_smallest_centralizer_p_part_fails_the_oracle(
        monkeypatch):
    # the mutant takes the support class with the smallest |C_G(x)|_p.
    # The principal 2-block of S3 is 1 + (the sum of the 3-cycles), whose
    # support has centralizer 2-parts 2 and 1: the mutant takes the
    # 3-cycles and returns the trivial group instead of C2
    S3 = named_group("S3")
    F = field_for(S3, 2)
    b0 = block_idempotents(S3, 2, F)[1]
    assert defect_group(S3, 2, b0).order == 2
    real = blocks_module.int_p_part
    monkeypatch.setattr(blocks_module, "int_p_part",
                        lambda n, p: -real(n, p))
    assert defect_group(S3, 2, b0).order == 1
    assert defect_group_by_enumeration(S3, 2, b0).order == 2
    with pytest.raises(AssertionError):
        defect_groups_agree_with_enumeration(S3)


def _run_blocks_counted(monkeypatch, tmp_path, generators, p):
    """Run the blocks command on a group built afresh from a spec file.

    Returns the orders of the groups whose centre was split into blocks,
    sorted, and the number of Sylow subgroups computed per group order.
    """
    splits, sylows = [], []
    check = blocks_module._assert_block_axioms
    sylow = groups._sylow_elements

    def counted_check(F, G, found):
        splits.append(G.order)
        return check(F, G, found)

    def counted_sylow(G, q):
        sylows.append(G.order)
        return sylow(G, q)
    monkeypatch.setattr(blocks_module, "_assert_block_axioms", counted_check)
    monkeypatch.setattr(groups, "_sylow_elements", counted_sylow)
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"name": "counted", "generators": generators}))
    out = tmp_path / "report.json"
    assert main(["blocks", str(spec), "--prime", str(p),
                 "--out", str(out)]) == 0
    return sorted(splits), Counter(sylows)


def test_the_whole_group_splits_its_centre_once(monkeypatch, tmp_path):
    # The defect-zero blocks have C_G(1) = G as their local group, which
    # is G itself: its centre is split once, and its Sylow subgroup is
    # computed once for defect_group and defect_zero_simple_dim together.
    splits, _ = _run_blocks_counted(monkeypatch, tmp_path,
                                    ["(1 2)", "(1 2 3 4)"], 3)
    assert splits == [3, 24]                 # G and C_G(C3), not G twice
    splits, built = _run_blocks_counted(monkeypatch, tmp_path,
                                        ["(1 2)", "(1 2 3 4 5 6)"], 2)
    assert splits.count(720) == 1 and len(splits) == 2
    assert built[720] == 1


# -- Dade's cyclic defect theorem ---------------------------------------

PSL27_SPEC = {"name": "PSL(2,7)",
              "generators": ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)",
                             "(1 2)(3 6)"]}
CYCLIC_DEFECT_SPECS = {"A5": A5_SPEC, "S5": S5_SPEC, "S6": S6_SPEC,
                       "PSL(2,7)": PSL27_SPEC}
# blocks whose defect group is cyclic and not trivial, over every prime
# whose splitting field fits under the cap: C_n has n/|D| blocks with
# D its Sylow p-subgroup at each p dividing n; the symmetric groups have
# one per p-core of weight 1 (Nakayama's rule), and A5 and PSL(2,7) one
# at each prime whose Sylow subgroup is cyclic
NONTRIVIAL_CYCLIC_BLOCKS = {
    "C1": 0, "C2": 1, "C3": 1, "C4": 1, "C5": 1, "C6": 5, "C7": 1, "C8": 1,
    "C9": 1, "C10": 7, "C11": 1, "C12": 7, "S3": 2, "S4": 1, "A4": 1,
    "D8": 0, "Q8": 0, "C2xC2": 0, "A5": 2, "S5": 4, "S6": 1, "PSL(2,7)": 2}


def inertial_index(G, D, e):
    """|N_G(D, e) : C_G(D)|: the elements of N_G(D) whose conjugation
    fixes the class coefficients of the block e of C_G(D)."""
    C = centralizer(G, D)
    Cg = e.group
    assert Cg is C.as_group()
    coeff = [e.coeffs[Cg.class_index(c)] for c in range(Cg.order)]
    stable = [n for n in normalizer(G, D).elements
              if all(coeff[C.to_local(G.conj(n, C.from_local(c)))] == a
                     for c, a in enumerate(coeff))]
    assert len(stable) % C.order == 0
    return len(stable) // C.order


@pytest.mark.parametrize("name", list(NONTRIVIAL_CYCLIC_BLOCKS))
def test_blocks_of_cyclic_defect_have_dade_many_characters(name):
    # Dade (Ann. Math. 84, 1966): a block with cyclic defect group D of
    # order p^a and inertial index e holds e + (p^a - 1)/e characters.
    # e is read off the maximal Brauer pair (D, e_D) and counted here
    # from conjugation alone; the characters come from the character
    # table and the central characters, which share no code with it.
    G = (group_from_spec(CYCLIC_DEFECT_SPECS[name])
         if name in CYCLIC_DEFECT_SPECS else named_group(name))
    table = character_table(G)
    found = []
    for p in (2, 3, 5, 7, 11):
        if G.order % p or splitting_params(G, p)[1] > FIELD_SIZE_CAP:
            continue
        F = field_for(G, p)
        blocks = block_idempotents(G, p, F)
        partition = assign_characters_to_blocks(table, blocks, F)
        for b, chars in zip(blocks, partition):
            D, e_D = maximal_brauer_pair(G, p, b, F)
            if not any(G.element_order(d) == D.order for d in D.elements):
                continue
            e = inertial_index(G, D, e_D)
            assert (D.order - 1) % e == 0, (p, D.order, e)
            assert len(chars) == e + (D.order - 1) // e, (p, D.order, e)
            if D.order > 1:
                found.append((p, D.order, e, len(chars)))
    assert len(found) == NONTRIVIAL_CYCLIC_BLOCKS[name], found
    examples = {"A5": (5, 5, 2, 4), "S5": (5, 5, 4, 5),
                "PSL(2,7)": (7, 7, 3, 5)}
    if name in examples:
        assert examples[name] in found, found
