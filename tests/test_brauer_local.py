"""The block layer in the class-sum basis against vector oracles.

brauer_image, the local products br_D(b) e, push_central and
defect_zero_simple_dim are checked against the same data computed on
coefficient vectors over the group elements: brauer_hom,
group_algebra_mul, an element-by-element push along the quotient map,
and the rank of the pushed block on the regular module.
"""

import gc
import weakref
from math import isqrt

import pytest

from bisetblocks import groups
from bisetblocks.blocks import (CentralElement, block_idempotents,
                                brauer_hom, brauer_image, defect_group,
                                defect_zero_simple_dim, group_algebra_mul,
                                maximal_brauer_pair, push_central,
                                splitting_params)
from bisetblocks.gf import fq_field, mat_rank
from bisetblocks.groups import (Subgroup, centralizer, full_subgroup,
                                group_from_permutations,
                                p_subgroups_up_to_conjugacy, quotient)
from bisetblocks.namedgroups import BUNDLED_NAMES, named_group
from bisetblocks.scenario import group_from_spec

SPECS = {"A5": ["(1 2 3)", "(1 2 3 4 5)"], "S5": ["(1 2)", "(1 2 3 4 5)"]}


def group(name):
    if name in SPECS:
        return group_from_spec({"name": name, "generators": SPECS[name]})
    return named_group(name)


def primes_of(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % k for k in range(2, p))]


CASES = [(name, p) for name in list(BUNDLED_NAMES) + list(SPECS)
         for p in primes_of(group(name).order)]


def field_for(G, p):
    return fq_field(p, splitting_params(G, p)[0])


def center_of(G, D):
    """Z(D) straight from the definition, as parent ids."""
    return [z for z in D.elements
            if all(G.mul(z, d) == G.mul(d, z) for d in D.elements)]


def vector_push(F, vec, Q, pi):
    out = [0] * Q.order
    for g, c in enumerate(vec):
        if c:
            out[pi(g)] = F.add(out[pi(g)], c)
    return out


def regular_rank(F, G, vec):
    rows = []
    for u in range(G.order):
        unit = [0] * G.order
        unit[u] = 1
        rows.append(group_algebra_mul(F, G, vec, unit))
    return mat_rank(F, rows)


def class_sums(G, F):
    k = len(G.conjugacy_classes())
    return [CentralElement(G, F, [int(i == j) for j in range(k)])
            for i in range(k)]


@pytest.mark.parametrize("name, p", CASES)
def test_brauer_image_and_local_products_match_vectors(name, p):
    G = group(name)
    F = field_for(G, p)
    blocks = block_idempotents(G, p, F)
    for D in p_subgroups_up_to_conjugacy(G, p):
        Cg = centralizer(G, D).as_group()
        local = block_idempotents(Cg, p, F)
        for b in blocks:
            br = brauer_image(b, D)
            assert br.group is Cg
            br_vec = brauer_hom(b.to_vector(), D, F)
            assert br.to_vector() == br_vec, (name, p, D.elements)
            for e in local:
                assert (br * e).to_vector() == group_algebra_mul(
                    F, Cg, br_vec, e.to_vector()), (name, p, D.elements)


@pytest.mark.parametrize("name, p", CASES)
def test_push_along_the_center_of_a_p_subgroup_matches_vectors(name, p):
    # Every class sum is pushed, not only the blocks: on a block the
    # weights |K|/|pi(K)| that are divisible by p can all meet zero
    # coefficients.
    G = group(name)
    F = field_for(G, p)
    for D in p_subgroups_up_to_conjugacy(G, p):
        C = centralizer(G, D)
        Cg = C.as_group()
        Z = Subgroup(Cg, map(C.to_local, center_of(G, D)))
        Q, pi = quotient(Cg, Z)
        for x in block_idempotents(Cg, p, F) + class_sums(Cg, F):
            pushed = push_central(x, pi)
            assert pushed.group is Q
            assert pushed.to_vector() == vector_push(F, x.to_vector(), Q,
                                                     pi), (name, p)


@pytest.mark.parametrize("name, p", CASES)
def test_simple_dim_matches_the_regular_rank_of_the_pushed_block(name, p):
    G = group(name)
    F = field_for(G, p)
    for b in block_idempotents(G, p, F):
        D, e = maximal_brauer_pair(G, p, b, F)
        assert D.elements == defect_group(G, p, b).elements
        C = centralizer(G, D)
        Cg = C.as_group()
        Z = Subgroup(Cg, map(C.to_local, center_of(G, D)))
        Q, pi = quotient(Cg, Z)
        qvec = vector_push(F, e.to_vector(), Q, pi)
        assert group_algebra_mul(F, Q, qvec, qvec) == qvec
        d = isqrt(regular_rank(F, Q, qvec))
        assert defect_zero_simple_dim(G, D, e, F) == d, (name, p)


def test_centralizers_are_kept_on_their_group(monkeypatch):
    # the centralizer of a subgroup is scanned from its generators on the
    # first ask only; a later ask reads the elements kept on the group
    G = group_from_permutations(["(1 2)", "(1 2 3 4)"], name="S4")
    scanned = []
    scan = groups.centralizer

    def counted(G, part):
        if not isinstance(part, Subgroup):
            scanned.append(tuple(part))
        return scan(G, part)
    monkeypatch.setattr(groups, "centralizer", counted)
    classes = p_subgroups_up_to_conjugacy(G, 2)
    for D in classes:
        C = centralizer(G, D)
        assert centralizer(G, D) == C
        assert C.elements == tuple(
            x for x in range(G.order)
            if all(G.conj(x, d) == d for d in D.elements))
    assert scanned == [D.generators for D in classes]


def test_the_whole_group_is_its_own_local_group_and_is_freed():
    G = group_from_permutations(["(1 2)", "(1 2 3 4)"], name="S4")
    S = full_subgroup(G)
    L = S.as_group()
    assert L is G
    assert [S.to_local(g) for g in range(G.order)] == list(range(G.order))
    assert centralizer(G, G.identity).as_group() is G
    parent_gone = weakref.ref(G)
    del G, S, L
    gc.collect()
    assert parent_gone() is None
