"""Seeded randomized verification suites for the biset calculus.

Each suite draws reproducible random instances (groups, subgroups of
direct products, actions), evaluates one family of laws, and returns a
report with per-instance failures.  A suite passes only if every
instance does; failures carry enough data to rebuild the instance from
the seed.
"""

from __future__ import annotations

import random
import time

from .characters import (ClassFunction, contract_extended,
                         contract_over_middle, perm_character,
                         verify_tensor_character_formula)
from .groups import (FiniteGroup, ProductGroup, Subgroup, product_group,
                     subgroup_generated)
from .gsets import (BisetView, GAction, TransitiveDecomposition,
                    biset_coset, coset_action, defres_description,
                    disjoint_union, extended_induction_formula,
                    extended_tensor, iso_check, tensor_direct,
                    tensor_induced_bisets_formula, tensor_mackey,
                    trivial_action)
from .namedgroups import named_group
from .subdirect import (ProductSubgroup, diagonal, full_product_subgroup,
                        star)

MACKEY_GROUPS = ("C2", "C3", "C4", "C6", "S3", "D8", "Q8", "A4")
SMALL_GROUPS = ("C2", "C3", "C4", "C6", "S3", "D8", "Q8")


def random_subgroup(rng: random.Random, G: FiniteGroup) -> Subgroup:
    gens = [rng.randrange(G.order) for _ in range(rng.randint(1, 3))]
    return subgroup_generated(G, gens)


def random_product_subgroup(rng: random.Random, amb: ProductGroup,
                            max_index: int = 40,
                            max_order: int | None = None) -> ProductSubgroup:
    """A random subgroup of the product with bounded coset count.

    The optional order bound keeps downstream tensor middles small; both
    bounds only steer the sampling, correctness never depends on them.
    """
    for _ in range(64):
        S = random_subgroup(rng, amb)
        if amb.order // S.order > max_index:
            continue
        if max_order is not None and S.order > max_order:
            continue
        return ProductSubgroup(amb, S.elements)
    if max_order is None or amb.order <= max_order:
        return full_product_subgroup(amb)
    from .groups import trivial_subgroup
    t = trivial_subgroup(amb)
    return ProductSubgroup(amb, t.elements)


def random_sub_in(rng: random.Random, X: ProductSubgroup,
                  max_index: int | None = None,
                  max_order: int | None = None) -> ProductSubgroup:
    for _ in range(32):
        gens = [rng.choice(X.elements) for _ in range(rng.randint(1, 2))]
        S = subgroup_generated(X.parent, gens)
        if max_index is not None and X.order // S.order > max_index:
            continue
        if max_order is not None and S.order > max_order:
            continue
        return ProductSubgroup(X.ambient, S.elements)
    if max_order is not None:
        from .groups import trivial_subgroup
        t = trivial_subgroup(X.parent)
        return ProductSubgroup(X.ambient, t.elements)
    return ProductSubgroup(X.ambient, X.elements)


def random_action(rng: random.Random, G: FiniteGroup,
                  max_points: int = 24) -> GAction:
    parts = []
    for _ in range(rng.randint(1, 2)):
        S = random_subgroup(rng, G)
        if G.order // S.order <= max_points:
            parts.append(coset_action(G, S))
    if not parts:
        parts.append(trivial_action(G, 1))
    out = disjoint_union(*parts)
    return out if out.size <= max_points else parts[0]


def _report(suite: str, seed: int, failures: list, count: int,
            started: float, extra: dict | None = None) -> dict:
    rep = {
        "suite": suite,
        "seed": seed,
        "count": count,
        "passes": count - len(failures),
        "failures": failures,
        "ok": not failures,
        "elapsed": round(time.perf_counter() - started, 3),
    }
    if extra:
        rep.update(extra)
    return rep


def _pick_chain(rng: random.Random, names, length: int):
    return [named_group(rng.choice(names)) for _ in range(length)]


def _holds(res: dict, mutated: bool) -> bool:
    """Whether the two sides of a formula agree.  When mutated, the
    right side gains one fixed point first, so they must not."""
    if not mutated:
        return res["isomorphic"]
    rhs = res["rhs"]
    return iso_check(res["lhs"],
                     disjoint_union(rhs, trivial_action(rhs.group)))


def mackey_suite(seed: int = 0, count: int = 200,
                 groups=MACKEY_GROUPS, mutate: bool = False) -> dict:
    """Double-coset decomposition against the direct tensor product.

    For random X inside G x H and Y inside H x K the decomposition of
    the tensor of the two coset bisets must equal the double-coset
    formula exactly, as multisets of stabilizer classes.

    With mutate=True the first formula result is deliberately
    corrupted; the suite must then report that instance as a failure.
    This exercises the failure path of the harness itself.
    """
    rng = random.Random(seed)
    t0 = time.perf_counter()
    failures = []
    for i in range(count):
        G, H, K = _pick_chain(rng, groups, 3)
        X = random_product_subgroup(rng, product_group(G, H))
        Y = random_product_subgroup(rng, product_group(H, K))
        direct = tensor_direct(biset_coset(X), biset_coset(Y)).decompose()
        formula = tensor_mackey(X, Y)
        if mutate and i == 0:
            corrupted = formula.items + ((tuple(
                range(formula.group.order)), 1),)
            formula = TransitiveDecomposition(formula.group, corrupted)
        if direct != formula:
            failures.append({"index": i,
                             "groups": [G.name, H.name, K.name],
                             "orders": [X.order, Y.order],
                             "mutated": bool(mutate and i == 0)})
    return _report("mackey", seed, failures, count, t0)


def defres_suite(seed: int = 0, count: int = 100,
                 groups=SMALL_GROUPS, mutate: bool = False) -> dict:
    """Extended tensor products against deflation-restriction.

    With mutate=True the first right side gains a fixed point; the suite
    must then report that instance as a failure."""
    rng = random.Random(seed)
    t0 = time.perf_counter()
    failures = []
    for i in range(count):
        G, H, K = _pick_chain(rng, groups, 3)
        # the internal rewrite tensors over X.as_group() x Y.as_group(),
        # so the subgroup orders are capped jointly
        X = random_product_subgroup(rng, product_group(G, H),
                                    max_index=24, max_order=16)
        Y = random_product_subgroup(rng, product_group(H, K),
                                    max_index=24,
                                    max_order=max(2, 128 // X.order))
        U = random_action(rng, X.as_group(), max_points=6)
        V = random_action(rng, Y.as_group(), max_points=6)
        if not _holds(defres_description(X, Y, U, V), mutate and i == 0):
            failures.append({"index": i,
                             "groups": [G.name, H.name, K.name],
                             "orders": [X.order, Y.order],
                             "sizes": [U.size, V.size],
                             "mutated": mutate and i == 0})
    return _report("defres", seed, failures, count, t0)


def induction_formula_suite(seed: int = 0, count: int = 100,
                            groups=SMALL_GROUPS, mutate: bool = False) -> dict:
    """The double-coset formula for tensoring induced actions; mutate as
    in defres_suite."""
    rng = random.Random(seed)
    t0 = time.perf_counter()
    failures = []
    cosets = 0
    for i in range(count):
        G, H, K = _pick_chain(rng, groups, 3)
        X = random_product_subgroup(rng, product_group(G, H),
                                    max_index=24, max_order=32)
        Y = random_product_subgroup(rng, product_group(H, K),
                                    max_index=24, max_order=32)
        Xp = random_sub_in(rng, X, max_index=6)
        Yp = random_sub_in(rng, Y, max_index=6)
        U = random_action(rng, Xp.as_group(), max_points=4)
        V = random_action(rng, Yp.as_group(), max_points=4)
        res = extended_induction_formula(X, Y, Xp, Yp, U, V)
        cosets += res["double_coset_count"]
        if not _holds(res, mutate and i == 0):
            failures.append({"index": i,
                             "groups": [G.name, H.name, K.name],
                             "orders": [X.order, Y.order,
                                        Xp.order, Yp.order],
                             "mutated": mutate and i == 0})
    return _report("induction-formula", seed, failures, count, t0,
                   {"double_cosets_seen": cosets})


def induced_bisets_suite(seed: int = 0, count: int = 100,
                         groups=SMALL_GROUPS, mutate: bool = False) -> dict:
    """Biset-level double-coset decomposition of induced bisets.

    The representatives run over double cosets of the pullback, so a
    pass certifies the representative enumeration as well.  mutate as
    in defres_suite.
    """
    rng = random.Random(seed)
    t0 = time.perf_counter()
    failures = []
    cosets = 0
    for i in range(count):
        G, H, K = _pick_chain(rng, groups, 3)
        # the left side tensors over X.as_group() x Y.as_group(), and
        # the output ambient is star(X,Y) x (Xp x Yp); both stay small
        # only if the subgroup orders are capped jointly
        X = random_product_subgroup(rng, product_group(G, H),
                                    max_index=24, max_order=12)
        Y = random_product_subgroup(rng, product_group(H, K),
                                    max_index=24,
                                    max_order=max(2, 64 // X.order))
        Xp = random_sub_in(rng, X, max_order=4)
        Yp = random_sub_in(rng, Y, max_order=4)
        res = tensor_induced_bisets_formula(X, Y, Xp, Yp)
        cosets += res["double_coset_count"]
        if not _holds(res, mutate and i == 0):
            failures.append({"index": i,
                             "groups": [G.name, H.name, K.name],
                             "orders": [X.order, Y.order,
                                        Xp.order, Yp.order],
                             "mutated": mutate and i == 0})
    return _report("induced-bisets", seed, failures, count, t0,
                   {"double_cosets_seen": cosets})


def coherence_suite(seed: int = 0, count: int = 100,
                    groups=SMALL_GROUPS) -> dict:
    """Unit, distributivity and associativity laws for tensor products.

    Instances rotate through four law shapes; each contributes one
    iso_check verdict.
    """
    rng = random.Random(seed)
    t0 = time.perf_counter()
    failures = []
    for i in range(count):
        law = ("unit", "distrib", "assoc", "ext-assoc")[i % 4]
        ok = _coherence_instance(rng, law, groups)
        if not ok:
            failures.append({"index": i, "law": law})
    return _report("coherence", seed, failures, count, t0)


def _identity_biset(G: FiniteGroup) -> BisetView:
    from .groups import full_subgroup
    return biset_coset(diagonal(full_subgroup(G)))


def _biset_union(a: BisetView, b: BisetView) -> BisetView:
    return BisetView(a.ambient, disjoint_union(a.action, b.action))


def _coherence_instance(rng: random.Random, law: str, groups) -> bool:
    G, H, K, L = _pick_chain(rng, groups, 4)
    X = random_product_subgroup(rng, product_group(G, H), max_index=20)
    Y = random_product_subgroup(rng, product_group(H, K), max_index=20)
    U, V = biset_coset(X), biset_coset(Y)
    if law == "unit":
        lhs = tensor_direct(_identity_biset(G), U)
        rhs = tensor_direct(U, _identity_biset(H))
        return (iso_check(lhs.action, U.action)
                and iso_check(rhs.action, U.action))
    if law == "distrib":
        X2 = random_product_subgroup(rng, product_group(G, H))
        U2 = biset_coset(X2)
        lhs = tensor_direct(_biset_union(U, U2), V)
        rhs = _biset_union(tensor_direct(U, V), tensor_direct(U2, V))
        return iso_check(lhs.action, rhs.action)
    Z = random_product_subgroup(rng, product_group(K, L), max_index=20)
    if law == "assoc":
        W = biset_coset(Z)
        lhs = tensor_direct(tensor_direct(U, V), W)
        rhs = tensor_direct(U, tensor_direct(V, W))
        return iso_check(lhs.action, rhs.action)
    # extended associativity over the star composites
    Ux = random_action(rng, X.as_group(), max_points=8)
    Vy = random_action(rng, Y.as_group(), max_points=8)
    Wz = random_action(rng, Z.as_group(), max_points=8)
    left = extended_tensor(star(X, Y), Z,
                           extended_tensor(X, Y, Ux, Vy), Wz)
    right = extended_tensor(X, star(Y, Z), Ux,
                            extended_tensor(Y, Z, Vy, Wz))
    if left.group.uid != right.group.uid:
        return False
    return iso_check(left, right)


def character_suite(seed: int = 0, count: int = 50,
                    groups=SMALL_GROUPS, mutate: bool = False) -> dict:
    """Character-level double-coset formula with fixed-point cross-checks.

    Per instance: the contraction identity for induced permutation
    characters must hold exactly; the extended-tensor character must
    equal the fixed-point count character of the constructed action;
    and the contraction of coset-biset characters must match the
    character of their direct tensor.

    With mutate=True the trivial character is added to the left side
    of the first double-coset formula; the suite must then report that
    instance as a failure.
    """
    rng = random.Random(seed)
    t0 = time.perf_counter()
    failures = []
    for i in range(count):
        G, H, K = _pick_chain(rng, groups, 3)
        X = random_product_subgroup(rng, product_group(G, H),
                                    max_index=20, max_order=16)
        Y = random_product_subgroup(rng, product_group(H, K),
                                    max_index=20,
                                    max_order=max(2, 128 // X.order))
        U = random_action(rng, X.as_group(), max_points=8)
        V = random_action(rng, Y.as_group(), max_points=8)
        chi_m, chi_n = perm_character(U), perm_character(V)
        bad = []
        res = verify_tensor_character_formula(X, Y, chi_m, chi_n)
        lhs = res["lhs"]
        if mutate and i == 0:
            lhs = lhs + ClassFunction(lhs.group, [1] * len(lhs.values))
        if lhs != res["rhs"]:
            bad.append("double-coset formula")
        ext = extended_tensor(X, Y, U, V)
        if perm_character(ext) != contract_extended(X, Y, chi_m, chi_n):
            bad.append("extended fixed-point consistency")
        BU, BV = biset_coset(X), biset_coset(Y)
        lhs = perm_character(tensor_direct(BU, BV).action)
        rhs = contract_over_middle(perm_character(BU.action),
                                   perm_character(BV.action),
                                   BU.ambient, BV.ambient)
        if lhs != rhs:
            bad.append("tensor character contraction")
        if bad:
            failures.append({"index": i,
                             "groups": [G.name, H.name, K.name],
                             "checks": bad,
                             "mutated": bool(mutate and i == 0)})
    return _report("characters", seed, failures, count, t0)


ALL_SUITES = {
    "mackey": mackey_suite,
    "defres": defres_suite,
    "induction-formula": induction_formula_suite,
    "induced-bisets": induced_bisets_suite,
    "coherence": coherence_suite,
    "characters": character_suite,
}
