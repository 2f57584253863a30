"""Nakayama's rule as an oracle for the blocks of S_n, 3 <= n <= 6,
the hook-length formula for the character degrees of S_n, n <= 7, and
the Murnaghan-Nakayama rule for every character value of S_n, n <= 7.

The p-blocks of S_n are labelled by the p-cores reached from the
partitions of n by removing p-hooks; a block whose core has size
n - pw (its weight w) has the Sylow p-subgroups of S_pw as defect
groups, and a block of weight 0 is the single character of its core,
of degree given by the hook-length formula.  The value of the character
of shape lambda on the cycle type mu sums (-1)^(leg length) over the
ways to remove a rim hook of length mu_1 from lambda, times the value of
what is left on the rest of mu (Murnaghan-Nakayama; James and Kerber,
1981, 2.4.7).  Nothing here uses the block code or the character table:
the oracle is built from partitions alone and compared with what
block_idempotents, maximal_brauer_pair, defect_zero_simple_dim and
character_table compute on S_n closed from (1 2) and (1 2 ... n).
"""

from collections import Counter
from functools import lru_cache
from math import factorial, prod

import pytest

from bisetblocks.blocks import (block_idempotents, defect_zero_simple_dim,
                                maximal_brauer_pair, splitting_params)
from bisetblocks.characters import character_table
from bisetblocks.gf import fq_field
from bisetblocks.scenario import group_from_spec


def partitions(n, largest=None):
    """The partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def core_and_weight(shape, p):
    """Remove p-hooks on the beta-set of shape until none is left."""
    k = len(shape)
    beta = {part + k - 1 - i for i, part in enumerate(shape)}
    w = 0
    moved = True
    while moved:
        moved = False
        for x in sorted(beta):
            if x >= p and x - p not in beta:
                beta = (beta - {x}) | {x - p}
                w += 1
                moved = True
                break
    ordered = sorted(beta, reverse=True)
    core = tuple(b - (k - 1 - i) for i, b in enumerate(ordered))
    return tuple(part for part in core if part), w


def hook_degree(shape):
    n = sum(shape)
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = prod(shape[i] - j + conj[j] - i - 1
                 for i in range(len(shape)) for j in range(shape[i]))
    return factorial(n) // hooks


def p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def nakayama(n, p):
    """(block count, sorted defect orders, sorted defect-zero dimensions)."""
    cores = {}
    for shape in partitions(n):
        core, w = core_and_weight(shape, p)
        cores[core] = w
    defects = sorted(p_part(factorial(p * w), p) for w in cores.values())
    dims = sorted(hook_degree(core) for core, w in cores.items() if w == 0)
    return len(cores), defects, dims


def test_the_oracle_on_known_cases():
    assert core_and_weight((3, 1), 2) == ((), 2)
    assert core_and_weight((2, 1), 2) == ((2, 1), 0)
    assert core_and_weight((4, 2), 3) == ((4, 2), 0)
    assert hook_degree((3, 2, 1)) == 16
    assert hook_degree((4, 1, 1)) == 10
    assert nakayama(4, 3) == (3, [1, 1, 3], [3, 3])
    assert nakayama(6, 2) == (2, [1, 16], [16])


CASES = [(n, p) for n in range(3, 7) for p in (2, 3, 5) if p <= n]


@pytest.mark.parametrize("n, p", CASES)
def test_blocks_of_symmetric_groups_follow_nakayama(n, p):
    cycle = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    G = group_from_spec({"name": f"S{n}", "generators": ["(1 2)", cycle]})
    F = fq_field(p, splitting_params(G, p)[0])
    orders, dims = [], []
    blocks = block_idempotents(G, p, F)
    for b in blocks:
        D, e = maximal_brauer_pair(G, p, b, F)
        orders.append(D.order)
        if D.order == 1:
            dims.append(defect_zero_simple_dim(G, D, e, F))
    assert (len(blocks), sorted(orders), sorted(dims)) == nakayama(n, p)


@pytest.mark.parametrize("n", range(3, 8))
def test_character_degrees_of_symmetric_groups_are_hook_lengths(n):
    cycle = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    G = group_from_spec({"name": f"S{n}", "generators": ["(1 2)", cycle]})
    assert character_table(G).degrees() == \
        sorted(hook_degree(shape) for shape in partitions(n))


@lru_cache(maxsize=None)
def murnaghan_nakayama(beta, mu):
    """chi^lambda(mu) for the partition with beta-set beta (a frozenset),
    by removing a rim hook of length mu[0]: moving a bead from x to a
    free x - mu[0], the beads between them counting the leg length."""
    if not mu:
        return 1
    h, rest = mu[0], mu[1:]
    total = 0
    for x in beta:
        if x >= h and x - h not in beta:
            leg = sum(1 for y in beta if x - h < y < x)
            total += (-1) ** leg * murnaghan_nakayama(
                (beta - {x}) | {x - h}, rest)
    return total


def beta_set(shape):
    k = len(shape)
    return frozenset(part + k - 1 - i for i, part in enumerate(shape))


def cycle_type(perm):
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = perm[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_murnaghan_nakayama_on_known_values():
    # S3: the sign character and the degree-2 character
    assert murnaghan_nakayama(beta_set((1, 1, 1)), (2, 1)) == -1
    assert murnaghan_nakayama(beta_set((2, 1)), (3,)) == -1
    assert murnaghan_nakayama(beta_set((2, 1)), (1, 1, 1)) == 2
    # S4: the degree-3 character (3, 1) on a 4-cycle and on (1 2)(3 4)
    assert murnaghan_nakayama(beta_set((3, 1)), (4,)) == -1
    assert murnaghan_nakayama(beta_set((3, 1)), (2, 2)) == -1
    for shape in partitions(6):
        assert murnaghan_nakayama(beta_set(shape), (1,) * 6) == \
            hook_degree(shape)


@pytest.mark.parametrize("n", range(3, 8))
def test_character_values_of_symmetric_groups_follow_murnaghan_nakayama(n):
    cycle = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    G = group_from_spec({"name": f"S{n}", "generators": ["(1 2)", cycle]})
    types = [cycle_type(G.permutation(cls[0]))
             for cls in G.conjugacy_classes()]
    assert sorted(types) == sorted(partitions(n))
    table = Counter(tuple(v.as_int() for v in chi.values)
                    for chi in character_table(G).irreducibles)
    oracle = Counter(tuple(murnaghan_nakayama(beta_set(shape), mu)
                           for mu in types) for shape in partitions(n))
    assert table == oracle
