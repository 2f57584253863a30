"""Scenario documents: parsing, validation, and the tables they use.

A scenario document names two groups, a prime, one block on each side
and a virtual bimodule given by twisted-diagonal terms.  Groups are
given by bundled name, permutation generators, or an explicit
multiplication table.  A bundled name and equal custom specs each
yield one group object per process, so data kept on a group (its
products, local groups and character table) is built once and shared
by everything that uses it.
The character table of each side is ingested from the scenario when it
carries one, and otherwise computed by characters.character_table for
a bundled or an abelian group; no table is shipped.
"""

from __future__ import annotations

import json
from importlib import resources

from .characters import (CharacterTable, character_table,
                         ingest_character_table)
from .gf import check_characteristic
from .groups import (FiniteGroup, GroupHom, element_by_name,
                     group_from_permutations, subgroup_generated,
                     _extend_hom)
from .namedgroups import BUNDLED_NAMES, named_group
from .subdirect import ProductSubgroup, twisted_diagonal


# Groups built from custom specs, kept for the process as named_group does.
_CUSTOM_GROUPS: dict = {}


def group_from_spec(spec) -> FiniteGroup:
    """Resolve a group spec: bundled name, generator list, or table.

    Dict specs accept {"name", "generators"} with one-line cycle strings,
    each checked to be a permutation, or {"name", "table"} with a full
    multiplication table, whose group axioms are checked before the
    group is kept.  Equal specs return
    the identical group object.
    """
    if isinstance(spec, str):
        return named_group(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"bad group spec {spec!r}")
    name = spec.get("name", "")
    if "generators" in spec:
        key = (name, tuple(spec["generators"]))
        G = _CUSTOM_GROUPS.get(key)
        if G is None:
            G = _CUSTOM_GROUPS[key] = group_from_permutations(
                spec["generators"], name=name or "G")
        return G
    if "table" in spec:
        key = (name, tuple(tuple(row) for row in spec["table"]))
        G = _CUSTOM_GROUPS.get(key)
        if G is None:
            G = FiniteGroup(key[1], name=name or "G")
            G.check_axioms()
            _CUSTOM_GROUPS[key] = G
        return G
    if name:
        return named_group(name)
    raise ValueError("group spec needs a name, generators, or a table")


# -- character tables ------------------------------------------------

def bundled_table(name: str) -> CharacterTable:
    """The character table of a bundled group, computed once and kept on
    the group."""
    if name not in BUNDLED_NAMES:
        raise ValueError(f"no bundled table for {name!r}")
    return character_table(named_group(name))


def table_for_group(G: FiniteGroup, doc: dict | None = None
                    ) -> CharacterTable:
    """A character table: ingested from an explicit document, else
    computed for a bundled or an abelian group."""
    if doc is not None:
        return ingest_character_table(doc, group=G)
    if (G.name in BUNDLED_NAMES and named_group(G.name) is G) \
            or G.is_abelian():
        return character_table(G)
    raise ValueError(
        f"no character table available for {G.name}; supply one")


# -- scenario documents ----------------------------------------------

def _json_int(value, what: str) -> int:
    """value, refused unless it is a JSON integer (a bool is not one)."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


class GammaTerm:
    """One transitive summand of a virtual bimodule: vertex + weight."""

    __slots__ = ("vertex", "coefficient")

    def __init__(self, vertex: ProductSubgroup, coefficient: int) -> None:
        self.vertex = vertex
        self.coefficient = int(coefficient)

    def __repr__(self):
        return f"GammaTerm(|X|={self.vertex.order}, c={self.coefficient})"


def parse_term(doc: dict, G: FiniteGroup, H: FiniteGroup) -> GammaTerm:
    """Build a twisted-diagonal term from generator data.

    The document lists generators of P <= G and Q <= H and the images
    phi(q_i) in G defining the isomorphism phi: Q -> P; the graph
    {(phi(y), y)} is the vertex.
    """
    p_gens = [element_by_name(G, s) for s in doc["p_gens"]]
    q_gens = [element_by_name(H, s) for s in doc["q_gens"]]
    phi_imgs = [element_by_name(G, s) for s in doc["phi"]]
    if len(phi_imgs) != len(q_gens):
        raise ValueError("phi must list one image per generator of Q")
    P = subgroup_generated(G, p_gens)
    Q = subgroup_generated(H, q_gens)
    Pg, Qg = P.as_group(), Q.as_group()
    imgs_local = []
    for im in phi_imgs:
        if im not in P.element_set:
            raise ValueError("phi image falls outside P")
        imgs_local.append(P.to_local(im))
    table = _extend_hom(Qg, [Q.to_local(q) for q in q_gens], imgs_local,
                        Pg.mul, Pg.identity)
    if table is None or sorted(table) != list(range(Pg.order)):
        raise ValueError("phi does not extend to an isomorphism Q -> P")
    phi = GroupHom(Qg, Pg, table)
    return GammaTerm(twisted_diagonal(P, phi, Q),
                     _json_int(doc["coefficient"], "coefficient"))


class Scenario:
    """A parsed scenario: groups, prime, block selectors, gamma terms."""

    def __init__(self, doc: dict) -> None:
        if doc.get("kind") != "broue-scenario":
            raise ValueError("document is not a broue-scenario")
        self.name = doc.get("name", "scenario")
        self.G = group_from_spec(doc["group_G"])
        self.H = group_from_spec(doc["group_H"])
        self.p = _json_int(doc["prime"], "prime")
        check_characteristic(self.p)
        self.block_G = doc["block_G"]
        self.block_H = doc["block_H"]
        for sel in (self.block_G, self.block_H):
            if not isinstance(sel, dict):
                raise ValueError(f"block selector {sel!r} is not an object")
            if not ("contains_char" in sel or "index" in sel):
                raise ValueError("block selector needs contains_char or index")
            _json_int(sel.get("index", 0), "block index")
        self.table_G = table_for_group(self.G, doc.get("table_G"))
        self.table_H = table_for_group(self.H, doc.get("table_H"))
        if "complex" in doc:
            self.complex = [
                (_json_int(entry["degree"], "degree"),
                 [parse_term(t, self.G, self.H) for t in entry["terms"]])
                for entry in doc["complex"]]
        else:
            self.complex = None
        if not isinstance(doc.get("gamma", []), list):
            raise ValueError("gamma must be a list of terms")
        self.gamma_terms = [parse_term(t, self.G, self.H)
                            for t in doc.get("gamma", [])]
        if not self.gamma_terms and self.complex is None:
            raise ValueError("scenario carries neither gamma nor a complex")
        if not isinstance(doc.get("checks", {}), dict):
            raise ValueError("checks must be an object")
        self.checks = dict(doc.get("checks", {}))
        for sel in self.block_G, self.block_H:
            if "contains_char" in sel:
                tab = self.table_G if sel is self.block_G else self.table_H
                if sel["contains_char"] not in tab.names:
                    raise ValueError(
                        f"unknown character {sel['contains_char']!r}")


BUNDLED_SCENARIOS = ("c6_c3", "identity_s3", "a4_c3")


def bundled_scenario(name: str) -> Scenario:
    if name not in BUNDLED_SCENARIOS:
        raise ValueError(f"no bundled scenario {name!r}")
    text = resources.files("bisetblocks") \
        .joinpath(f"data/scenarios/{name}.json").read_text()
    return Scenario(json.loads(text))
