"""Scenario and table documents: parsing, validation, bundled data.

A scenario document names two groups, a prime, one block on each side
and a virtual bimodule given by twisted-diagonal terms.  Groups are
given by bundled name, permutation generators, or an explicit
multiplication table.  A bundled name always yields the same group
object, and equal custom specs yield the same object for as long as it
is alive, so data kept on a group (its products, local groups and
character table) is shared by everything that uses it and freed with it.
"""

from __future__ import annotations

import json
import weakref
from importlib import resources

from .characters import (CharacterTable, abelian_character_table,
                         ingest_character_table)
from .gf import check_characteristic
from .groups import (FiniteGroup, GroupHom, element_by_name,
                     group_from_permutations, subgroup_generated,
                     _extend_hom)
from .namedgroups import BUNDLED_NAMES, named_group
from .subdirect import ProductSubgroup, twisted_diagonal


# Groups built from custom specs, each kept while something holds it.
_CUSTOM_GROUPS = weakref.WeakValueDictionary()


def group_from_spec(spec) -> FiniteGroup:
    """Resolve a group spec: bundled name, generator list, or table.

    Dict specs accept {"name", "generators"} with one-line cycle strings
    or {"name", "table"} with a full multiplication table.  Equal specs
    return the identical group object.
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
            G = _CUSTOM_GROUPS[key] = FiniteGroup(key[1], name=name or "G")
        return G
    if name:
        return named_group(name)
    raise ValueError("group spec needs a name, generators, or a table")


# -- bundled character tables ----------------------------------------

def bundled_table(name: str) -> CharacterTable:
    """The validated character table of a bundled group, kept on the group.

    Abelian groups are tabulated by abelian_character_table; the others
    are read from the documents shipped in data/tables.
    """
    if name not in BUNDLED_NAMES:
        raise ValueError(f"no bundled table for {name!r}")
    G = named_group(name)
    table = G._subgroup_cache.get("table")
    if table is None:
        if G.is_abelian():
            table = abelian_character_table(G)
        else:
            text = resources.files("bisetblocks") \
                .joinpath(f"data/tables/{name}.json").read_text()
            table = ingest_character_table(json.loads(text), group=G)
        G._subgroup_cache["table"] = table
    return table


def table_for_group(G: FiniteGroup, doc: dict | None = None
                    ) -> CharacterTable:
    """Find a character table: explicit document, bundled, or abelian."""
    if doc is not None:
        return ingest_character_table(doc, group=G)
    if G.name in BUNDLED_NAMES and named_group(G.name) is G:
        return bundled_table(G.name)
    if G.is_abelian():
        return abelian_character_table(G)
    raise ValueError(
        f"no character table available for {G.name}; supply one")


# -- scenario documents ----------------------------------------------

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
    phi = GroupHom(Qg, Pg, table, check=False)
    return GammaTerm(twisted_diagonal(P, phi, Q), int(doc["coefficient"]))


class Scenario:
    """A parsed scenario: groups, prime, block selectors, gamma terms."""

    def __init__(self, doc: dict) -> None:
        if doc.get("kind") != "broue-scenario":
            raise ValueError("document is not a broue-scenario")
        self.name = doc.get("name", "scenario")
        self.G = group_from_spec(doc["group_G"])
        self.H = group_from_spec(doc["group_H"])
        self.p = int(doc["prime"])
        check_characteristic(self.p)
        self.block_G = doc["block_G"]
        self.block_H = doc["block_H"]
        for sel in (self.block_G, self.block_H):
            if not isinstance(sel, dict):
                raise ValueError(f"block selector {sel!r} is not an object")
            if not ("contains_char" in sel or "index" in sel):
                raise ValueError("block selector needs contains_char or index")
            if not isinstance(sel.get("index", 0), int):
                raise ValueError(f"block index {sel['index']!r} is not an "
                                 "integer")
        self.table_G = table_for_group(self.G, doc.get("table_G"))
        self.table_H = table_for_group(self.H, doc.get("table_H"))
        if "complex" in doc:
            self.complex = [
                (int(entry["degree"]),
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
