"""Class functions, character tables, and contraction formulas."""

import cmath
import json
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from bisetblocks.characters import (ClassFunction, character_table,
                                    contract_extended, contract_middle,
                                    contract_over_middle,
                                    conjugate_character_by, external_character,
                                    induce, ingest_character_table,
                                    inner_product, perm_character, restrict,
                                    value_to_doc,
                                    verify_tensor_character_formula)
from bisetblocks.cyclotomic import Cyclotomic
from bisetblocks.groups import (element_by_name, full_subgroup, product_group,
                                quotient, subgroup_generated)
from bisetblocks.gsets import coset_action
from bisetblocks.namedgroups import BUNDLED_NAMES, named_group
from bisetblocks.scenario import bundled_table, group_from_spec
from bisetblocks.subdirect import diagonal, star

from oracles import (contract_extended_by_elements,
                     contract_over_middle_by_elements, induce_by_elements,
                     inflate, inner_product_by_elements, rectangle,
                     regular_action, value_at, zeta)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "tables"

EXPECTED_DEGREES = {
    "S3": [1, 1, 2],
    "S4": [1, 1, 2, 3, 3],
    "A4": [1, 1, 1, 3],
    "D8": [1, 1, 1, 1, 2],
    "Q8": [1, 1, 1, 1, 2],
    "C6": [1, 1, 1, 1, 1, 1],
}


def el(G, spec):
    return element_by_name(G, spec)


def test_all_bundled_tables_load_and_validate():
    # CharacterTable validates sizes, degrees, and orthogonality on build
    for name in BUNDLED_NAMES:
        t = bundled_table(name)
        assert t.group is named_group(name)
        assert sum(d * d for d in t.degrees()) == t.group.order


@pytest.mark.parametrize("name", ["S3", "S4", "A4", "D8", "Q8"])
def test_computed_table_is_the_hand_built_fixture(name):
    # The fixtures were built by hand, from inflations along quotients
    # and permutation characters, sharing no code with Dixon-Schneider.
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    fixture = ingest_character_table(doc, group=named_group(name))
    computed = bundled_table(name)
    assert computed is character_table(named_group(name))
    assert computed.names == fixture.names
    assert [c.values for c in computed.irreducibles] == \
        [c.values for c in fixture.irreducibles]


def test_the_table_of_s7_keeps_its_values_and_order():
    # SHA-256 of every value in document form, row by row in table order;
    # the Murnaghan-Nakayama test checks the values, this pins the order
    import hashlib
    G = group_from_spec({"name": "S7",
                         "generators": ["(1 2)", "(1 2 3 4 5 6 7)"]})
    values = [[value_to_doc(v) for v in chi.values]
              for chi in character_table(G).irreducibles]
    assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == \
        "bffeffc273d902a0a530d2cbcb4b0b845b9461331be3d67a124b4d24f59169a2"


def test_expected_degree_sequences():
    for name, degs in EXPECTED_DEGREES.items():
        assert bundled_table(name).degrees() == degs


def test_dual_index_is_an_involution():
    for name in ("S4", "C3", "C6", "Q8"):
        t = bundled_table(name)
        for i in range(len(t.irreducibles)):
            assert t.dual_index(t.dual_index(i)) == i
    # S4 has a rational table: every character is self-dual
    t4 = bundled_table("S4")
    assert all(t4.dual_index(i) == i for i in range(5))
    # the two nontrivial characters of C3 are swapped
    t3 = bundled_table("C3")
    assert t3.dual_index(1) == 2


def test_regular_character_decomposition():
    for name in ("S3", "A4", "D8"):
        t = bundled_table(name)
        reg = perm_character(regular_action(t.group))
        assert t.decompose(reg) == t.degrees()


def test_natural_permutation_character_of_s3():
    S3 = named_group("S3")
    t = bundled_table("S3")
    C2 = subgroup_generated(S3, [el(S3, "(1 2)")])
    chi = perm_character(coset_action(S3, C2))
    assert [v.as_int() for v in chi.values] == [3, 1, 0]
    assert t.decompose(chi) == [1, 0, 1]  # trivial plus the 2-dimensional


def test_inner_product_orthogonality():
    t = bundled_table("S3")
    for i, a in enumerate(t.irreducibles):
        for j, b in enumerate(t.irreducibles):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_frobenius_reciprocity():
    S4 = named_group("S4")
    t = bundled_table("S4")
    C4 = subgroup_generated(S4, [el(S4, "(1 2 3 4)")])
    local = character_table(C4.as_group())
    for psi in local.irreducibles:
        up = induce(psi, C4)
        for chi in t.irreducibles:
            down = restrict(chi, C4)
            assert inner_product(up, chi) == inner_product(psi, down)


def test_induced_trivial_is_the_coset_character():
    S4 = named_group("S4")
    C4 = subgroup_generated(S4, [el(S4, "(1 2 3 4)")])
    triv = character_table(C4.as_group()).irreducibles[0]
    assert induce(triv, C4) == perm_character(coset_action(S4, C4))


def test_inflation_along_quotient():
    S4 = named_group("S4")
    V4 = subgroup_generated(S4, [el(S4, "(1 2)(3 4)"), el(S4, "(1 3)(2 4)")])
    Q, pi = quotient(S4, V4)
    reg_q = perm_character(regular_action(Q))
    inf = inflate(reg_q, pi)
    assert inf.degree() == 6
    # inflated character is constant on V4-cosets
    for g in range(S4.order):
        for n in V4.elements:
            assert value_at(inf, g) == value_at(inf, S4.mul(g, n))


def test_external_character_values():
    chi = bundled_table("S3").irreducibles[2]
    psi = bundled_table("C2").irreducibles[1]
    mu = external_character(chi, psi)
    amb = product_group(named_group("S3"), named_group("C2"))
    assert mu.group is amb
    assert mu.degree() == 2
    g = el(named_group("S3"), "(1 2 3)")
    assert value_at(mu, amb.encode(g, 1)) == \
        value_at(chi, g) * value_at(psi, 1)


def test_contract_middle_recovers_multiplicities():
    # mu = chi x dual(psi) contracted against psi gives <psi, psi> chi
    S3 = named_group("S3")
    C3 = named_group("C3")
    tH = bundled_table("C3")
    chi = bundled_table("S3").irreducibles[2]
    psi = tH.irreducibles[1]
    mu = external_character(chi, psi.conjugate())
    amb = product_group(S3, C3)
    out = contract_middle(mu, psi, amb)
    assert out == chi
    other = tH.irreducibles[2]
    assert contract_middle(mu, other, amb) == ClassFunction(S3, [0] * 3)


def test_contract_over_middle_composes():
    # (chi x psi*) then (psi x theta*) composes to chi x theta*
    S3 = named_group("S3")
    C3 = named_group("C3")
    C2 = named_group("C2")
    chi = bundled_table("S3").irreducibles[1]
    psi = bundled_table("C3").irreducibles[1]
    theta = bundled_table("C2").irreducibles[1]
    amb1 = product_group(S3, C3)
    amb2 = product_group(C3, C2)
    mu1 = external_character(chi, psi.conjugate())
    mu2 = external_character(psi, theta.conjugate())
    out = contract_over_middle(mu1, mu2, amb1, amb2)
    assert out == external_character(chi, theta.conjugate())


def test_conjugate_character_stays_irreducible():
    S3 = named_group("S3")
    amb = product_group(S3, S3)
    X = diagonal(subgroup_generated(S3, [el(S3, "(1 2 3)")]))
    chi = character_table(X.as_group()).irreducibles[1]
    x = amb.encode(el(S3, "(1 2)"), S3.identity)
    Xc, chic = conjugate_character_by(chi, X, x)
    assert Xc.order == X.order
    assert chic.degree() == 1
    assert inner_product(chic, chic) == 1


def test_tensor_character_formula_instance():
    S3 = named_group("S3")
    amb = product_group(S3, S3)
    C3 = subgroup_generated(S3, [el(S3, "(1 2 3)")])
    X = diagonal(full_subgroup(S3))
    Y = rectangle(amb, C3, full_subgroup(S3))
    chi_m = perm_character(regular_action(X.as_group()))
    chi_n = perm_character(regular_action(Y.as_group()))
    out = verify_tensor_character_formula(X, Y, chi_m, chi_n)
    assert out["lhs"] == out["rhs"]
    assert out["double_coset_count"] == 1  # p2(X) is all of the middle
    # degree bookkeeping: ind(chi_m)(1) ind(chi_n)(1) / |H|
    assert out["lhs"].degree() == 36 * 36 // 6


def test_contract_extended_is_the_tensor_character():
    from bisetblocks.gsets import extended_tensor
    S3 = named_group("S3")
    amb = product_group(S3, S3)
    C3 = subgroup_generated(S3, [el(S3, "(1 2 3)")])
    X = diagonal(full_subgroup(S3))
    Y = rectangle(amb, C3, full_subgroup(S3))
    U = regular_action(X.as_group())
    V = coset_action(Y.as_group(), full_subgroup(Y.as_group()))
    W = extended_tensor(X, Y, U, V)
    assert perm_character(W) == contract_extended(
        X, Y, perm_character(U), perm_character(V))


def test_abelian_character_table_of_c12():
    C12 = named_group("C12")
    t = character_table(C12)
    assert t.degrees() == [1] * 12
    g = 1  # a generator of the cyclic group
    values = {value_at(t.irreducibles[i], g) for i in range(12)}
    assert len(values) == 12  # twelve distinct 12th roots of unity
    for chi in t.irreducibles:
        assert value_at(chi, g) ** 12 == 1


def test_decompose_rejects_non_virtual():
    t = bundled_table("S3")
    v = ClassFunction(t.group, [1, 0, 0])
    with pytest.raises(ValueError):
        t.decompose(v)


def test_ingest_normalizes_column_order():
    text = (FIXTURES / "S3.json").read_text()
    doc = json.loads(text)
    # reverse the listed classes and every character's value row
    flipped = dict(doc)
    flipped["classes"] = list(reversed(doc["classes"]))
    flipped["characters"] = [
        {"name": c["name"], "values": list(reversed(c["values"]))}
        for c in doc["characters"]]
    t0 = ingest_character_table(doc, group=named_group("S3"))
    t1 = ingest_character_table(flipped, group=named_group("S3"))
    assert [c.values for c in t0.irreducibles] == \
        [c.values for c in t1.irreducibles]


def test_ingest_rejects_bad_class_data():
    text = (FIXTURES / "S3.json").read_text()
    doc = json.loads(text)
    bad = dict(doc)
    bad["classes"] = doc["classes"][:-1]
    with pytest.raises(ValueError):
        ingest_character_table(bad, group=named_group("S3"))


def test_value_doc_round_trip():
    # character values are algebraic integers: integer coordinates
    vals = [zeta(3),
            zeta(12) + 1,
            zeta(8) ** 5,
            Cyclotomic.from_rational(-2),
            Cyclotomic.from_rational(0)]
    from bisetblocks.characters import _value_from_doc
    for v in vals:
        doc = value_to_doc(v)
        assert _value_from_doc(doc, named_group("S4")) == v
    assert value_to_doc(Cyclotomic.from_rational(-2)) == -2


def test_class_function_algebra():
    t = bundled_table("S3")
    a, b = t.irreducibles[1], t.irreducibles[2]
    assert (a + b) + b * -1 == a
    assert (2 * a).degree() == 2
    assert (a * -1).degree() == -1
    assert (a * a) == t.irreducibles[0] + 0 * a  # sign squared is trivial
    with pytest.raises(ValueError):
        a + character_table(named_group("C2")).irreducibles[0]


# -- abelian tables against closed forms ------------------------------------

def _complex_value(v):
    """A cyclotomic value in C, with z = exp(2 pi i / conductor)."""
    return sum(float(c) * cmath.exp(2j * cmath.pi * i / v.n)
               for i, c in enumerate(v.coeffs))


def _assert_same_characters(table, oracle):
    """The irreducibles of table, as functions on the group's elements,
    are exactly the oracle's rows (each a list of values by element id)."""
    G = table.group
    got = [[_complex_value(chi.values[G.class_index(g)])
            for g in range(G.order)] for chi in table.irreducibles]
    assert len(got) == len(oracle) == G.order
    assert all(abs(v - 1) < 1e-9 for v in got[0])
    unmatched = list(oracle)
    for row in got:
        hit = [o for o in unmatched
               if all(abs(a - b) < 1e-9 for a, b in zip(row, o))]
        assert len(hit) == 1, f"{G.name}: {row} is not a closed-form character"
        unmatched.remove(hit[0])
    assert table.names == [f"chi{i}" for i in range(G.order)]


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_tables_are_the_characters_of_the_n_cycle(n):
    # C_n is generated by c = (1 2 ... n), and c^k moves point 0 to k:
    # chi_j(c^k) = zeta_n^(jk).
    G = named_group(f"C{n}")
    k_of = [G.permutation(g)[0] for g in range(G.order)]
    oracle = [[cmath.exp(2j * cmath.pi * j * k_of[g] / n)
               for g in range(G.order)] for j in range(n)]
    _assert_same_characters(bundled_table(f"C{n}"), oracle)


def test_klein_four_table_is_the_four_sign_characters():
    # C2xC2 = <(1 2), (3 4)>: a^i b^j has chi_st = (-1)^(si + tj).
    G = named_group("C2xC2")
    ij = [(int(G.permutation(g)[0] != 0), int(G.permutation(g)[2] != 2))
          for g in range(G.order)]
    oracle = [[(-1) ** (s * i + t * j) for i, j in ij]
              for s in (0, 1) for t in (0, 1)]
    _assert_same_characters(bundled_table("C2xC2"), oracle)


def test_every_abelian_bundled_name_is_covered_by_a_closed_form():
    abelian = {n for n in BUNDLED_NAMES if named_group(n).is_abelian()}
    assert abelian == {f"C{n}" for n in range(1, 13)} | {"C2xC2"}


# -- class-level formulas against their element-sum definitions ------------
#
# Each oracle below sums over group elements in complex floating point,
# straight from the definition, and compares with the exact class-level
# result evaluated in C.

def _random_class_function(rng, G):
    """Seeded values on the classes of G: rationals plus roots of unity."""
    vals = []
    for _ in G.conjugacy_classes():
        v = Cyclotomic.from_rational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if rng.random() < 0.6:
            n = rng.choice((3, 4, 5, 8))
            v = v + rng.randint(-2, 2) * zeta(n, rng.randrange(n))
        vals.append(v)
    return ClassFunction(G, vals)


def _values_in_c(chi):
    """chi as a complex value per element id of its group."""
    G = chi.group
    by_class = [_complex_value(v) for v in chi.values]
    return [by_class[G.class_index(g)] for g in range(G.order)]


def _assert_close(got, want):
    assert len(got.values) == len(want)
    for v, w in zip(got.values, want):
        assert abs(_complex_value(v) - w) < 1e-9, (v, w)


def _induce_by_elements(chi, S):
    """Ind chi(g) = |S|^-1 sum over x in G with x^-1 g x in S."""
    G = S.parent
    local = _values_in_c(chi)
    out = []
    for cls in G.conjugacy_classes():
        total = 0
        for x in range(G.order):
            y = G.conj(G.inv(x), cls[0])
            if y in S.element_set:
                total += local[S.to_local(y)]
        out.append(total / S.order)
    return out


def _contract_middle_by_elements(mu, psi, amb):
    H = amb.right
    m, p = _values_in_c(mu), _values_in_c(psi)
    return [sum(m[amb.encode(cls[0], h)] * p[h] for h in range(H.order))
            / H.order for cls in amb.left.conjugacy_classes()]


def _contract_over_middle_by_elements(mu1, mu2, amb1, amb2, out_group):
    H = amb1.right
    m1, m2 = _values_in_c(mu1), _values_in_c(mu2)
    out = []
    for cls in out_group.conjugacy_classes():
        g, k = out_group.decode(cls[0])
        out.append(sum(m1[amb1.encode(g, h)] * m2[amb2.encode(h, k)]
                       for h in range(H.order)) / H.order)
    return out


def _contract_extended_by_elements(X, Y, chi_m, chi_n, S):
    """At (g,k) in S = X * Y: the sum over h with (g,h) in X and (h,k) in
    Y, divided by the number of h with (1,h) in X and (h,1) in Y."""
    H = X.ambient.right
    G, K = X.ambient.left, Y.ambient.right
    vm, vn = _values_in_c(chi_m), _values_in_c(chi_n)
    xl, yl = X.to_local, Y.to_local
    kernel = sum(1 for h in range(H.order)
                 if X.ambient.encode(G.identity, h) in X.element_set
                 and Y.ambient.encode(h, K.identity) in Y.element_set)
    out = []
    for cls in S.as_group().conjugacy_classes():
        g, k = S.parent.decode(S.from_local(cls[0]))
        total = 0
        for h in range(H.order):
            x, y = X.ambient.encode(g, h), Y.ambient.encode(h, k)
            if x in X.element_set and y in Y.element_set:
                total += vm[xl(x)] * vn[yl(y)]
        out.append(total / kernel)
    return out


def _seeded_subgroup(rng, G):
    return subgroup_generated(
        G, [rng.randrange(G.order) for _ in range(rng.randint(1, 2))])


def _seeded_product_subgroup(rng, amb):
    from bisetblocks.subdirect import ProductSubgroup
    return ProductSubgroup(amb, _seeded_subgroup(rng, amb).elements)


# partners of every bundled group, each product at most 576 elements
def _partners(rng):
    return [named_group(rng.choice(BUNDLED_NAMES)) for _ in range(2)]


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_induce_matches_the_element_sum(name):
    import random
    rng = random.Random(f"induce {name}")
    G = named_group(name)
    for _ in range(3):
        S = _seeded_subgroup(rng, G)
        chi = _random_class_function(rng, S.as_group())
        _assert_close(induce(chi, S), _induce_by_elements(chi, S))


@pytest.mark.parametrize("seed", range(6))
def test_induce_matches_the_element_sum_in_products(seed):
    import random
    rng = random.Random(9100 + seed)
    names = ("S4", "A4", "D8", "Q8", "S3", "C6", "C12")
    amb = product_group(named_group(rng.choice(names)),
                        named_group(rng.choice(names)))
    assert amb.order <= 576
    S = _seeded_subgroup(rng, amb)
    chi = _random_class_function(rng, S.as_group())
    _assert_close(induce(chi, S), _induce_by_elements(chi, S))


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_contract_middle_matches_the_element_sum(name):
    import random
    rng = random.Random(f"middle {name}")
    G = named_group(name)
    for H in _partners(rng) + [named_group("S4")]:
        for left, right in ((G, H), (H, G)):
            amb = product_group(left, right)
            mu = _random_class_function(rng, amb)
            psi = _random_class_function(rng, right)
            _assert_close(contract_middle(mu, psi, amb),
                          _contract_middle_by_elements(mu, psi, amb))


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_contract_over_middle_matches_the_element_sum(name):
    # every bundled group as the middle, between seeded outer groups
    import random
    rng = random.Random(f"over {name}")
    H = named_group(name)
    for G, K in (_partners(rng), (named_group("S4"), H)):
        amb1, amb2 = product_group(G, H), product_group(H, K)
        mu1 = _random_class_function(rng, amb1)
        mu2 = _random_class_function(rng, amb2)
        out = contract_over_middle(mu1, mu2, amb1, amb2)
        assert out.group is product_group(G, K)
        _assert_close(out, _contract_over_middle_by_elements(
            mu1, mu2, amb1, amb2, out.group))


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_contract_extended_matches_the_element_sum(name):
    import random
    rng = random.Random(f"extended {name}")
    H = named_group(name)
    for _ in range(3):
        G, K = _partners(rng)
        X = _seeded_product_subgroup(rng, product_group(G, H))
        Y = _seeded_product_subgroup(rng, product_group(H, K))
        chi_m = _random_class_function(rng, X.as_group())
        chi_n = _random_class_function(rng, Y.as_group())
        out = contract_extended(X, Y, chi_m, chi_n)
        S = star(X, Y)
        assert out.group is S.as_group()
        _assert_close(out, _contract_extended_by_elements(
            X, Y, chi_m, chi_n, S))


@pytest.mark.parametrize("seed", range(4))
def test_contract_extended_matches_the_element_sum_with_large_middles(seed):
    import random
    rng = random.Random(9200 + seed)
    names = ("S4", "A4", "D8", "Q8", "S3")
    G, H, K = (named_group(rng.choice(names)) for _ in range(3))
    X = _seeded_product_subgroup(rng, product_group(G, H))
    Y = _seeded_product_subgroup(rng, product_group(H, K))
    chi_m = _random_class_function(rng, X.as_group())
    chi_n = _random_class_function(rng, Y.as_group())
    out = contract_extended(X, Y, chi_m, chi_n)
    S = star(X, Y)
    assert out.group is S.as_group()
    _assert_close(out, _contract_extended_by_elements(X, Y, chi_m, chi_n, S))


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_frobenius_reciprocity_on_every_bundled_table(name):
    import random
    rng = random.Random(f"frobenius {name}")
    t = bundled_table(name)
    for _ in range(3):
        S = _seeded_subgroup(rng, t.group)
        chi = _random_class_function(rng, S.as_group())
        up = induce(chi, S)
        for psi in t.irreducibles:
            assert inner_product(up, psi) == \
                inner_product(chi, restrict(psi, S))


# -- exact kernels on mixed conductors --------------------------------------
#
# Sums of external products of characters of C12, C5 and C8 mix values
# in Q(zeta_3), Q(zeta_4) and Q(zeta_5) on C12 x C5, and in Q(zeta_4),
# Q(zeta_5) and Q(zeta_8) on C5 x C8.
# Each kernel is compared value for value with an exact element sum, and
# no value it gives may need a conductor outside its inputs' fields.

def _conductor(*chis):
    return lcm(*(v.n for chi in chis for v in chi.values))


def _of_conductor(name, n):
    """The first irreducible character of a bundled group whose values
    generate Q(zeta_n)."""
    return next(chi for chi in bundled_table(name).irreducibles
                if _conductor(chi) == n)


def _mixed(rng, left, right, pairs):
    """A seeded rational combination of the products chi x theta of the
    characters of the given conductors, on left x right."""
    out = None
    for a, b in pairs:
        term = external_character(_of_conductor(left, a),
                                  _of_conductor(right, b)) \
            * Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        out = term if out is None else out + term
    return out


def _assert_exact(got, want, *inputs):
    assert list(got.values) == want
    m = _conductor(*inputs)
    assert all(m % v.n == 0 for v in got.values), (m, got)


def _mixed_pair(seed):
    import random
    rng = random.Random(9300 + seed)
    mu1 = _mixed(rng, "C12", "C5", [(3, 5), (4, 1), (12, 5), (1, 1)])
    mu2 = _mixed(rng, "C5", "C8", [(5, 8), (1, 4), (5, 1)])
    assert {3, 4, 5} <= {v.n for v in mu1.values}
    assert {4, 5, 8} <= {v.n for v in mu2.values}
    return rng, mu1, mu2


@pytest.mark.parametrize("seed", range(3))
def test_kernels_are_exact_on_mixed_conductors(seed):
    rng, mu1, mu2 = _mixed_pair(seed)
    amb1, amb2 = mu1.group, mu2.group
    out = contract_over_middle(mu1, mu2, amb1, amb2)
    _assert_exact(out, contract_over_middle_by_elements(
        mu1, mu2, amb1, amb2, out.group), mu1, mu2)
    other = _mixed(rng, "C12", "C5", [(4, 5), (12, 1)])
    for a, b in ((mu1, other), (other, mu1), (mu1, mu1)):
        got = inner_product(a, b)
        assert got == inner_product_by_elements(a, b)
        assert _conductor(a, b) % got.n == 0
    for amb, mu in ((amb1, mu1), (amb2, mu2)):
        S = _seeded_subgroup(rng, amb)
        chi = restrict(mu, S)
        _assert_exact(induce(chi, S), induce_by_elements(chi, S), chi)
    X = _seeded_product_subgroup(rng, amb1)
    Y = _seeded_product_subgroup(rng, amb2)
    chi_m, chi_n = restrict(mu1, X), restrict(mu2, Y)
    _assert_exact(contract_extended(X, Y, chi_m, chi_n),
                  contract_extended_by_elements(X, Y, chi_m, chi_n,
                                                star(X, Y)), chi_m, chi_n)


def test_induction_fuses_mixed_conductor_values_exactly():
    # S3 x C12 has classes of size 2 and 3 that fuse under induction
    import random
    rng = random.Random(9310)
    amb = product_group(named_group("S3"), named_group("C12"))
    mu = external_character(bundled_table("S3").irreducibles[2],
                            _of_conductor("C12", 12)) \
        + external_character(bundled_table("S3").irreducibles[1],
                             _of_conductor("C12", 4)) * Fraction(1, 2)
    for _ in range(3):
        S = _seeded_subgroup(rng, amb)
        chi = restrict(mu, S)
        _assert_exact(induce(chi, S), induce_by_elements(chi, S), chi)


# -- equality ----------------------------------------------------------------

def test_class_functions_are_equal_whatever_the_input_form():
    G = named_group("S3")
    third = zeta(3)
    forms = [ClassFunction(G, [2, 0, -1]),
             ClassFunction(G, [Fraction(4, 2), Fraction(0), Fraction(-3, 3)]),
             ClassFunction(G, [Cyclotomic.from_rational(2).lift(12),
                               Cyclotomic.from_rational(0),
                               third + third * third])]
    assert all(f == forms[0] for f in forms)
    assert ClassFunction(G, [Fraction(1, 2), 0, 0]) == ClassFunction(
        G, [Cyclotomic.from_rational(Fraction(1, 2)).lift(5), 0, 0])
    assert ClassFunction(G, [2, 0, 1]) != forms[0]
    H = named_group("C3")
    assert ClassFunction(H, [2, 0, -1]) != forms[0]
    chi = _of_conductor("C12", 12)
    lifted = ClassFunction(chi.group, [v.lift(24) for v in chi.values])
    assert lifted == chi


@pytest.mark.parametrize("seed", range(2))
def test_a_kernel_result_equals_the_class_function_of_its_values(seed):
    rng, mu1, mu2 = _mixed_pair(seed)
    S = _seeded_subgroup(rng, mu1.group)
    results = [contract_over_middle(mu1, mu2, mu1.group, mu2.group),
               induce(restrict(mu1, S), S), mu1 * mu1.conjugate(), mu2 * -1,
               perm_character(coset_action(mu1.group, S))]
    for f in results:
        for rebuilt in (ClassFunction(f.group, f.values),
                        ClassFunction(f.group,
                                      [v.lift(7 * v.n) for v in f.values])):
            assert rebuilt == f and f == rebuilt
