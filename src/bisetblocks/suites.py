"""Seeded randomized verification suites for the biset calculus.

The table ALL_SUITES gives each law an instance function (rng, groups,
i), its standard count and its pool of base groups.  An instance
function draws one reproducible instance and returns its failure-record
fields, its checks as (label or None, lhs, rhs), and the double cosets
it saw (None for a law that counts none).  Instance i of suite name at
seed s is drawn from its own generator, random.Random(f"{name}/{s}/{i}"),
so it replays alone and any set of instances can run in any process.
run_suite, the one driver, compares the sides of each check, applies
the mutation and reports; a suite passes only if every instance does.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
import threading
import time

from .characters import (ClassFunction, contract_extended,
                         contract_over_middle, perm_character,
                         verify_tensor_character_formula)
from .groups import (FiniteGroup, ProductGroup, Subgroup, full_subgroup,
                     product_group, subgroup_generated)
from .gsets import (BisetView, GAction, TransitiveDecomposition,
                    biset_coset, coset_action, defres_description,
                    disjoint_union, extended_induction_formula,
                    extended_tensor, iso_check, tensor_direct,
                    tensor_induced_bisets_formula, tensor_mackey,
                    trivial_action)
from .namedgroups import named_group
from .subdirect import (ProductSubgroup, diagonal, full_product_subgroup,
                        middle_witnesses, star)

# the seed of the acceptance criteria, and verify-biset-laws' default
DEFAULT_SEED = 20260823

MACKEY_GROUPS = ("C2", "C3", "C4", "C6", "S3", "D8", "Q8", "A4")
SMALL_GROUPS = ("C2", "C3", "C4", "C6", "S3", "D8", "Q8")


def random_subgroup(rng: random.Random, G: FiniteGroup,
                    max_order: int | None = None) -> Subgroup | None:
    """The span of one to three random elements, or None once the span
    has more than max_order elements."""
    gens = [rng.randrange(G.order) for _ in range(rng.randint(1, 3))]
    return subgroup_generated(G, gens, max_order)


def random_product_subgroup(rng: random.Random, amb: ProductGroup,
                            max_index: int = 40,
                            max_order: int | None = None) -> ProductSubgroup:
    """A random subgroup of the product with bounded coset count.

    The optional order bound keeps downstream tensor middles small; both
    bounds only steer the sampling, correctness never depends on them.
    """
    for _ in range(64):
        # a span past max_order is rejected, so it is not closed further
        S = random_subgroup(rng, amb, max_order)
        if S is None or amb.order // S.order > max_index:
            continue
        return ProductSubgroup(amb, S.elements)
    if max_order is None or amb.order <= max_order:
        return full_product_subgroup(amb)
    return ProductSubgroup(amb, [amb.identity])


def random_sub_in(rng: random.Random, X: ProductSubgroup,
                  max_index: int | None = None,
                  max_order: int | None = None) -> ProductSubgroup:
    for _ in range(32):
        gens = [rng.choice(X.elements) for _ in range(rng.randint(1, 2))]
        S = subgroup_generated(X.parent, gens, max_order)
        if S is None or (max_index is not None
                         and X.order // S.order > max_index):
            continue
        return ProductSubgroup(X.ambient, S.elements)
    if max_order is not None:
        return ProductSubgroup(X.ambient, [X.ambient.identity])
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


def _pick_chain(rng: random.Random, names, length: int):
    return [named_group(rng.choice(names)) for _ in range(length)]


# -- the laws ----------------------------------------------------------

def _mackey(rng: random.Random, groups, i: int):
    """Double-coset decomposition against the direct tensor product: for
    X inside G x H and Y inside H x K the two must be equal multisets of
    stabilizer classes."""
    G, H, K = _pick_chain(rng, groups, 3)
    X = random_product_subgroup(rng, product_group(G, H))
    Y = random_product_subgroup(rng, product_group(H, K))
    direct = tensor_direct(biset_coset(X), biset_coset(Y)).decompose()
    return _one_check((G, H, K), (X, Y), direct, tensor_mackey(X, Y))


def _defres(rng: random.Random, groups, i: int):
    """Extended tensor products against deflation-restriction."""
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
    res = defres_description(X, Y, U, V)
    return _one_check((G, H, K), (X, Y), res["lhs"], res["rhs"],
                      sizes=[U.size, V.size])


def _induction_formula(rng: random.Random, groups, i: int):
    """The double-coset formula for tensoring induced actions."""
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
    return _one_check((G, H, K), (X, Y, Xp, Yp), res["lhs"], res["rhs"],
                      res["double_coset_count"])


def _induced_bisets(rng: random.Random, groups, i: int):
    """Biset-level double-coset decomposition of induced bisets.  The
    representatives run over double cosets of the pullback, so a pass
    certifies the representative enumeration as well."""
    G, H, K = _pick_chain(rng, groups, 3)
    # the left side tensors over X.as_group() x Y.as_group(), and the
    # output ambient is star(X,Y) x (Xp x Yp); both stay small only if
    # the subgroup orders are capped jointly
    X = random_product_subgroup(rng, product_group(G, H),
                                max_index=24, max_order=12)
    Y = random_product_subgroup(rng, product_group(H, K), max_index=24,
                                max_order=max(2, 64 // X.order))
    Xp = random_sub_in(rng, X, max_order=4)
    Yp = random_sub_in(rng, Y, max_order=4)
    res = tensor_induced_bisets_formula(X, Y, Xp, Yp)
    return _one_check((G, H, K), (X, Y, Xp, Yp), res["lhs"], res["rhs"],
                      res["double_coset_count"])


def _one_check(chain, subgroups, lhs, rhs, cosets=None, **fields):
    """One check, recorded by its groups, subgroup orders and fields."""
    return ({"groups": [G.name for G in chain],
             "orders": [S.order for S in subgroups], **fields},
            [(None, lhs, rhs)], cosets)


def _identity_biset(G: FiniteGroup) -> BisetView:
    return biset_coset(diagonal(full_subgroup(G)))


def _biset_union(a: BisetView, b: BisetView) -> BisetView:
    return BisetView(a.ambient, disjoint_union(a.action, b.action))


def _coherence(rng: random.Random, groups, i: int):
    """Unit, distributivity and associativity laws for tensor products,
    one law shape per instance in turn; each check is a pair of sides
    that must be isomorphic."""
    law = ("unit", "distrib", "assoc", "ext-assoc")[i % 4]
    G, H, K, L = _pick_chain(rng, groups, 4)
    X = random_product_subgroup(rng, product_group(G, H), max_index=20)
    Y = random_product_subgroup(rng, product_group(H, K), max_index=20)
    U, V = biset_coset(X), biset_coset(Y)
    if law == "unit":
        sides = [(tensor_direct(_identity_biset(G), U), U),
                 (tensor_direct(U, _identity_biset(H)), U)]
    elif law == "distrib":
        U2 = biset_coset(random_product_subgroup(rng, product_group(G, H)))
        sides = [(tensor_direct(_biset_union(U, U2), V), _biset_union(
            tensor_direct(U, V), tensor_direct(U2, V)))]
    elif law == "assoc":
        W = biset_coset(random_product_subgroup(rng, product_group(K, L),
                                                max_index=20))
        sides = [(tensor_direct(tensor_direct(U, V), W),
                  tensor_direct(U, tensor_direct(V, W)))]
    else:
        # extended associativity over the star composites
        Z = random_product_subgroup(rng, product_group(K, L), max_index=20)
        Ux = random_action(rng, X.as_group(), max_points=8)
        Vy = random_action(rng, Y.as_group(), max_points=8)
        Wz = random_action(rng, Z.as_group(), max_points=8)
        xy, yz = middle_witnesses(X, Y), middle_witnesses(Y, Z)
        left = extended_tensor(star(X, Y, xy), Z, extended_tensor(
            X, Y, Ux, Vy, witnesses=xy), Wz)
        right = extended_tensor(X, star(Y, Z, yz), Ux, extended_tensor(
            Y, Z, Vy, Wz, witnesses=yz))
        return {"law": law}, [(None, left, right)], None
    return {"law": law}, [(None, a.action, b.action) for a, b in sides], None


def _characters(rng: random.Random, groups, i: int):
    """Character-level double-coset formula with fixed-point cross-checks:
    the contraction identity for induced permutation characters, the
    extended-tensor character against the fixed points of the action,
    and the contraction of coset-biset characters against their tensor.
    """
    G, H, K = _pick_chain(rng, groups, 3)
    X = random_product_subgroup(rng, product_group(G, H),
                                max_index=20, max_order=16)
    Y = random_product_subgroup(rng, product_group(H, K),
                                max_index=20,
                                max_order=max(2, 128 // X.order))
    U = random_action(rng, X.as_group(), max_points=8)
    V = random_action(rng, Y.as_group(), max_points=8)
    chi_m, chi_n = perm_character(U), perm_character(V)
    res = verify_tensor_character_formula(X, Y, chi_m, chi_n)
    BU, BV = biset_coset(X), biset_coset(Y)
    return {"groups": [G.name, H.name, K.name]}, [
        ("double-coset formula", res["lhs"], res["rhs"]),
        ("extended fixed-point consistency",
         perm_character(extended_tensor(X, Y, U, V)),
         contract_extended(X, Y, chi_m, chi_n)),
        ("tensor character contraction",
         perm_character(tensor_direct(BU, BV).action),
         contract_over_middle(perm_character(BU.action),
                              perm_character(BV.action),
                              BU.ambient, BV.ambient))], None


# name: (instance function, standard count, pool of base groups)
ALL_SUITES = {
    "mackey": (_mackey, 200, MACKEY_GROUPS),
    "defres": (_defres, 100, SMALL_GROUPS),
    "induction-formula": (_induction_formula, 100, SMALL_GROUPS),
    "induced-bisets": (_induced_bisets, 100, SMALL_GROUPS),
    "coherence": (_coherence, 100, SMALL_GROUPS),
    "characters": (_characters, 50, SMALL_GROUPS),
}


# -- the driver ----------------------------------------------------------

def worker_count() -> int:
    """The CPUs this process may run on, as the workers of a suite run.

    One where the platform cannot fork or name those CPUs, where another
    thread runs (a forked child would hold none of it), and while a
    profiler or tracer is installed, so that it sees every call.
    """
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or sys.getprofile() or sys.gettrace()
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def run_suite(name: str, seed: int, count: int | None = None,
              groups=None, mutate: bool = False, index: int | None = None,
              workers: int = 1) -> dict:
    """Report count seeded instances of the law name, by default its
    standard count drawn from its pool, or instance index alone.  With
    mutate=True the right side of the first check of instance 0 gains
    one fixed point, so that instance must fail: this exercises the
    failure path of the harness.  Up to workers processes share the
    instances; the report does not depend on how many."""
    _, standard, pool = ALL_SUITES[name]
    count = standard if count is None else count
    groups = pool if groups is None else groups
    indices = range(count) if index is None else range(index, index + 1)
    started = time.perf_counter()
    outcomes = _outcomes((name, seed, groups, mutate), indices, workers)
    failures = [failure for failure, _ in outcomes if failure]
    cosets = [seen for _, seen in outcomes if seen is not None]
    rep = {"suite": name, "seed": seed, "count": len(indices),
           "passes": len(indices) - len(failures), "failures": failures,
           "ok": not failures,
           "elapsed": round(time.perf_counter() - started, 3)}
    if index is not None:
        rep["index"] = index
    if cosets:
        rep["double_cosets_seen"] = sum(cosets)
    return rep


def _outcomes(draw: tuple, indices: range, workers: int) -> list:
    """The outcomes of the instances of indices, in index order.

    The indices split into at most workers contiguous ranges (contiguous
    keeps coherence's i % 4 law shapes balanced).  This process runs
    the first; each other runs in a forked child, which sends what it
    finished back through a pipe as marshal data and ends with
    os._exit.  The parent runs again whatever a child did not send: the
    instance a child stopped at because it raised, which then raises
    here as a serial run would, or the whole range of a child that died.
    Every child is reaped, and on an exception here killed first.
    """
    n = max(1, min(workers, len(indices)))
    cuts = [indices.start + len(indices) * k // n for k in range(n + 1)]
    ranges = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    children = []                   # (pid, read end, range), not reaped
    try:
        for part in ranges[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                try:
                    done = []
                    try:
                        for i in part:
                            done.append(_instance(*draw, i))
                    except Exception:
                        pass        # the parent runs it again and raises
                    with open(write, "wb") as pipe:
                        pipe.write(marshal.dumps(done))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb"), part))
        outcomes = [_instance(*draw, i) for i in ranges[0]]
        while children:
            pid, pipe, part = children[0]
            with pipe:
                sent = pipe.read()
            os.waitpid(pid, 0)
            children.pop(0)
            try:
                done = marshal.loads(sent)
            except (EOFError, ValueError):      # the child died
                done = []
            outcomes += done
            outcomes += [_instance(*draw, i) for i in part[len(done):]]
    finally:
        if children:
            import signal   # only here: it would add a millisecond to start-up
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outcomes


def _instance(name: str, seed: int, groups, mutate: bool, i: int):
    """(failure record or None, double cosets seen) of instance i; nothing
    returned holds its groups or actions, so they go before the next."""
    law = ALL_SUITES[name][0]
    fields, checks, cosets = law(random.Random(f"{name}/{seed}/{i}"),
                                 groups, i)
    mutated = mutate and i == 0
    if mutated:
        label, lhs, rhs = checks[0]
        checks[0] = (label, lhs, _plus_fixed_point(rhs))
    failed = [label for label, lhs, rhs in checks if not _agree(lhs, rhs)]
    if not failed:
        return None, cosets
    record = {"index": i, **fields, "mutated": mutated}
    if failed[0] is not None:
        record["checks"] = failed
    return record, cosets


def _agree(lhs, rhs) -> bool:
    """Whether the two sides of a check agree: isomorphic actions of one
    group, or equal decompositions or class functions."""
    if isinstance(lhs, GAction):
        return lhs.group.uid == rhs.group.uid and iso_check(lhs, rhs)
    return lhs == rhs


def _plus_fixed_point(side):
    """side with one more fixed point: a trivial orbit for an action, the
    class of the whole group for a decomposition, and the trivial
    character for a class function."""
    G = side.group
    if isinstance(side, GAction):
        return disjoint_union(side, trivial_action(G))
    if isinstance(side, TransitiveDecomposition):
        return TransitiveDecomposition(
            G, side.items + ((tuple(range(G.order)), 1),))
    return side + ClassFunction(G, [1] * len(side.values))
