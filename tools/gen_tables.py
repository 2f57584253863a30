"""Regenerate the bundled character-table documents of the non-abelian groups.

The tables of the abelian bundled groups are not shipped: bundled_table
computes them with abelian_character_table.  Each non-abelian table is
built from first principles (inflation from the abelianization and
small quotients, permutation characters), validated by the
CharacterTable invariants (orthogonality, degree bookkeeping), then
serialized.  Run from the repository root:

    python3 tools/gen_tables.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bisetblocks.characters import (CharacterTable, ClassFunction,
                                    abelian_character_table, inflate,
                                    ingest_character_table, value_to_doc)
from bisetblocks.groups import quotient, subgroup_generated
from bisetblocks.namedgroups import BUNDLED_NAMES, named_group

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "bisetblocks" \
    / "data" / "tables"


def derived_subgroup(G):
    comms = []
    for a in range(G.order):
        for b in range(G.order):
            comms.append(G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b))))
    return subgroup_generated(G, comms)


def parity_character(G):
    def sign(g):
        perm = G.permutations[g]
        seen = [False] * len(perm)
        cycles = 0
        for i in range(len(perm)):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        return 1 if (len(perm) - cycles) % 2 == 0 else -1
    return ClassFunction.from_element_function(G, sign)


def natural_minus_one(G):
    def fix(g):
        perm = G.permutations[g]
        return sum(1 for i, x in enumerate(perm) if x == i) - 1
    return ClassFunction.from_element_function(G, fix)


def linear_inflations(G):
    """Characters inflated from the abelianization."""
    D = derived_subgroup(G)
    Q, pi = quotient(G, D)
    return [inflate(chi, pi) for chi in abelian_character_table(Q).irreducibles]


def central_two_dim(G):
    """The degree-2 character of D8 or Q8: 2, -2 on the center, else 0."""
    from bisetblocks.groups import center
    Z = center(G)
    assert Z.order == 2
    zc = [z for z in Z.elements if z != G.identity][0]

    def val(g):
        if g == G.identity:
            return 2
        if g == zc:
            return -2
        return 0
    return ClassFunction.from_element_function(G, val)


def build(name):
    G = named_group(name)
    chars = list(linear_inflations(G))
    if name == "S3":
        chars.append(natural_minus_one(G))
    elif name == "A4":
        chars.append(natural_minus_one(G))
    elif name == "S4":
        std = natural_minus_one(G)
        chars.append(std)
        chars.append(std * parity_character(G))
        # Degree-2 character: inflation of the S3 standard along S4/V4.
        V4 = subgroup_generated(
            G, [g for g in range(G.order)
                if G.element_order(g) == 2
                and sum(1 for i, x in enumerate(G.permutations[g])
                        if x == i) == 0])
        Q, pi = quotient(G, V4)
        for chi in build_s3_on(Q):
            if chi.degree() == 2:
                chars.append(inflate(chi, pi))
    elif name in ("D8", "Q8"):
        chars.append(central_two_dim(G))
    else:
        raise ValueError(name)
    chars.sort(key=lambda c: (not all(v == 1 for v in c.values),
                              c.degree().as_int(),
                              [(v.minimal().n, v.minimal().coeffs)
                               for v in c.values]))
    return CharacterTable(G, chars)


def build_s3_on(Q):
    """Trivial, parity-like, and standard character of a group iso to S3."""
    # Unique linear of order 2: kernel is the derived subgroup.
    D = derived_subgroup(Q)
    _, pi = quotient(Q, D)
    out = []
    for chi in abelian_character_table(quotient(Q, D)[0]).irreducibles:
        out.append(inflate(chi, pi))
    # Degree 2: regular character minus linears, divided by 2... simpler:
    # 2 at identity, -1 on order-3 elements, 0 on involutions.
    def val(g):
        o = Q.element_order(g)
        if o == 1:
            return 2
        if o == 3:
            return -1
        return 0
    out.append(ClassFunction.from_element_function(Q, val))
    return out


def emit(name, table):
    G = table.group
    doc = {
        "kind": "character-table",
        "group": name,
        "classes": [{"rep": G.element_names[cls[0]], "size": len(cls)}
                    for cls in G.conjugacy_classes()],
        "characters": [
            {"name": table.names[i],
             "values": [value_to_doc(v) for v in chi.values]}
            for i, chi in enumerate(table.irreducibles)],
    }
    for row in doc["characters"]:
        for v in row["values"]:
            if isinstance(v, dict):
                assert all(isinstance(c, int) for c in v["coeffs"]), row
    # Round-trip through the ingestion path before writing.
    ingest_character_table(doc, group=G)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    degs = table.degrees()
    print(f"{name}: {len(degs)} chars, degrees {degs}")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name in BUNDLED_NAMES:
        if not named_group(name).is_abelian():
            emit(name, build(name))


if __name__ == "__main__":
    main()
