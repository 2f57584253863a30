"""Bundled permutation realizations of the small groups used throughout."""

from __future__ import annotations

from functools import cache

from .groups import FiniteGroup, group_from_permutations

_GENERATORS = {
    "S3": ["(1 2)", "(1 2 3)"],
    "S4": ["(1 2)", "(1 2 3 4)"],
    "A4": ["(1 2 3)", "(1 2)(3 4)"],
    "D8": ["(1 2 3 4)", "(1 3)"],
    # Quaternion group acting on {1,-1,i,-i,j,-j,k,-k} by left multiplication.
    "Q8": ["(1 3 2 4)(5 7 6 8)", "(1 5 2 6)(3 8 4 7)"],
    "C2xC2": ["(1 2)", "(3 4)"],
}

@cache
def named_group(name: str) -> FiniteGroup:
    """One of the bundled groups by name, built once per process.

    Cyclic groups are "C1".."C12", realized as a single n-cycle so that
    cycle notation works uniformly for element specs.
    """
    if name in _GENERATORS:
        G = group_from_permutations(_GENERATORS[name], name=name)
    elif name.startswith("C") and name[1:].isdigit():
        n = int(name[1:])
        if not 1 <= n <= 12:
            raise ValueError(f"cyclic group {name} outside the bundled range")
        if n == 1:
            G = group_from_permutations([], degree=1, name=name)
        else:
            cycle = "(" + " ".join(str(i + 1) for i in range(n)) + ")"
            G = group_from_permutations([cycle], name=name)
    else:
        raise ValueError(f"unknown group name {name!r}")
    G.bundled = True
    return G


def trivial_group() -> FiniteGroup:
    """The shared one-element group (degree-1 permutation realization)."""
    return named_group("C1")


BUNDLED_NAMES = tuple(f"C{i}" for i in range(1, 13)) + (
    "S3", "S4", "A4", "D8", "Q8", "C2xC2")
