"""The block-invariant pipeline on a pair of groups.

Given groups G and H, a prime p and one block on each side, this module
verifies that a virtual bimodule given by twisted-diagonal terms
induces a perfect isometry, computes its invariant beta (the common
residue of the codegree ratios), computes the purely local invariant
b(B,C) from maximal pairs and defect-zero dimensions, extracts the
sign from the Brauer construction at full vertex, and reports whether

    beta(gamma) = epsilon(gamma) * beta(B,C)  in F_p*.

All choices (conjugacy representatives, local block order, field size)
are pinned by conventions; a replication pass runs the pipeline again
under the opposite conventions and over a larger field to confirm the
invariants do not depend on them.  Each replication recomputes the
modular stages: the blocks and their characters, the defect group, the
Brauer pair, the simple dimension, the sign and the congruences.  The
characteristic-0 stages (the decomposition of gamma's character, mu,
perfectness, the isometry and beta) read neither the conventions nor
the field, so a replication takes them from its base run whenever its
blocks hold the base's characters.  A replication whose blocks hold
other characters computes them again and disagrees.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

from .blocks import (action_rank, assign_characters_to_blocks,
                     block_idempotents, brauer_image, defect_group,
                     defect_zero_simple_dim, maximal_brauer_pair,
                     splitting_field_degree)
from .characters import (CharacterTable, ClassFunction, contract_middle,
                         external_character, inner_product,
                         irreducible_characters, perm_character, restrict)
from .gf import Fq, fq_field
from .groups import (FiniteGroup, PermutationGroup, ProductGroup, Subgroup,
                     center, centralizer, int_p_part, int_p_prime_part,
                     isomorphisms, normalizer, product_group)
from .gsets import biset_coset
from .scenario import GammaTerm, Scenario
from .subdirect import ProductSubgroup, twisted_diagonal


class SelectorError(ValueError):
    """A block selector that names no block of its group."""


class PipelineError(RuntimeError):
    """A pipeline failure tagged with the stage that produced it."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(message)
        self.stage = stage


def residue_of_fraction(x: Fraction, p: int) -> int:
    if x.numerator % p == 0 or x.denominator % p == 0:
        raise ValueError(f"{x} is not a p-unit at p={p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def _reuse(shared: dict, key: tuple, compute):
    """shared[key], computed and kept there on the first ask.  A key
    holds every input of its result, so a result is reused only where
    those inputs are unchanged."""
    if key not in shared:
        shared[key] = compute()
    return shared[key]


def _partition(shared: dict, table: CharacterTable, blocks: list,
               field: Fq) -> list[list[int]]:
    """assign_characters_to_blocks, kept in shared under its inputs."""
    return _reuse(shared, ("partition", table, field, tuple(blocks)),
                  lambda: assign_characters_to_blocks(table, blocks, field))


class SideData:
    """Everything the pipeline needs about one block of one group."""

    def __init__(self, group: FiniteGroup, table: CharacterTable,
                 p: int, field: Fq, selector: dict, shared: dict,
                 largest_rep: bool = False,
                 reverse_blocks: bool = False) -> None:
        self.group = group
        self.table = table
        self.p = p
        self.field = field
        self.blocks = block_idempotents(group, p, field)
        self.partition = _partition(shared, table, self.blocks, field)
        self.block_index = self._resolve(selector)
        self.block = self.blocks[self.block_index]
        self.irr = list(self.partition[self.block_index])
        self.D = defect_group(group, p, self.block, largest_rep=largest_rep)
        _, self.e = maximal_brauer_pair(group, p, self.block, field,
                                        D=self.D,
                                        reverse_blocks=reverse_blocks)
        self.C = centralizer(group, self.D)
        self.dim_simple = defect_zero_simple_dim(group, self.D, self.e,
                                                 field)
        self.z_order = center(self.D.as_group()).order

    def _resolve(self, selector: dict) -> int:
        if "index" in selector:
            i = int(selector["index"])
            if not 0 <= i < len(self.blocks):
                raise SelectorError(f"block index {i} out of range "
                                    f"(found {len(self.blocks)} blocks)")
            return i
        name = selector["contains_char"]
        if name not in self.table.names:
            raise ValueError(f"unknown character {name!r}")
        ci = self.table.names.index(name)
        for bi, part in enumerate(self.partition):
            if ci in part:
                return bi
        raise AssertionError("character escaped the block partition")

    def local_factor(self) -> Fraction:
        """|C(D)/Z(D)| / dim(simple), one side of the local fraction."""
        quot = self.C.order // self.z_order
        if quot % self.dim_simple != 0:
            raise AssertionError("simple dimension must divide |C/Z|")
        value = quot // self.dim_simple
        if value % self.p == 0:
            raise AssertionError(
                "local factor must be prime to p (defect zero)")
        return Fraction(value)

    def summary(self) -> dict:
        return {
            "group": self.group.name,
            "block_index": self.block_index,
            "block_count": len(self.blocks),
            "characters": [self.table.names[i] for i in self.irr],
            "defect_order": self.D.order,
            "centralizer_order": self.C.order,
            "center_of_defect_order": self.z_order,
            "dim_simple": self.dim_simple,
        }


class VirtualPPermBimodule:
    """An integer combination of transitive bisets of G x H."""

    def __init__(self, ambient: ProductGroup, terms) -> None:
        self.ambient = ambient
        self.terms = list(terms)
        for t in self.terms:
            if t.vertex.ambient.uid != ambient.uid:
                raise ValueError("term lives in a different product group")

    def negate(self) -> "VirtualPPermBimodule":
        return VirtualPPermBimodule(
            self.ambient,
            [GammaTerm(t.vertex, -t.coefficient) for t in self.terms])


def rickard_reduce(ambient: ProductGroup, complex_terms) -> dict:
    """Collapse a complex to its alternating sum of terms.

    Input is a list of (degree, [GammaTerm...]); coefficients are merged
    per conjugacy class of the vertex subgroup.  A zero result is
    flagged as degenerate rather than raised.
    """
    merged: dict = {}
    reps: dict = {}
    for degree, terms in complex_terms:
        sign = -1 if degree % 2 else 1
        for t in terms:
            canon = t.vertex.canonical_conjugate()
            key = canon.elements
            if key not in reps:
                reps[key] = ProductSubgroup(ambient, canon.elements)
            merged[key] = merged.get(key, 0) + sign * t.coefficient
    out = [GammaTerm(reps[k], c) for k, c in sorted(merged.items()) if c]
    return {
        "gamma": VirtualPPermBimodule(ambient, out),
        "degenerate": not out,
        "merged_classes": len(merged),
    }


class BrouePipeline:
    """All stages of the verification for one scenario and one set of
    conventions.

    Results worth sharing go into `shared` under keys that hold all
    their inputs; a replication is given its base's `shared`, so it
    computes again only what its conventions and field reach.
    """

    def __init__(self, G: FiniteGroup, H: FiniteGroup, p: int,
                 table_G: CharacterTable, table_H: CharacterTable,
                 selector_G: dict, selector_H: dict,
                 field_degree: int | None = None,
                 conventions: str = "standard",
                 shared: dict | None = None) -> None:
        if conventions not in ("standard", "alternate"):
            raise ValueError("conventions must be standard or alternate")
        self.G, self.H, self.p = G, H, p
        self.conventions = conventions
        alt = conventions == "alternate"
        self.shared = {} if shared is None else shared
        # exp C_G(P) divides exp G, so G's degree covers every local
        # centralizer
        self.base_degree = splitting_field_degree([G, H], p)
        self.field = fq_field(p, field_degree or self.base_degree)
        self.ambient = product_group(G, H)
        self.side_G = SideData(G, table_G, p, self.field, selector_G,
                               self.shared, largest_rep=alt,
                               reverse_blocks=alt)
        self.side_H = SideData(H, table_H, p, self.field, selector_H,
                               self.shared, largest_rep=alt,
                               reverse_blocks=alt)

    def _gamma_key(self, gamma: VirtualPPermBimodule) -> tuple:
        """The inputs of the decomposition of gamma's character."""
        return (self.p, self.side_G.table, self.side_H.table,
                tuple((t.vertex, t.coefficient) for t in gamma.terms))

    # -- stage: kappa ------------------------------------------------

    def kappa(self, gamma: VirtualPPermBimodule) -> dict:
        """Character of gamma, projected to the chosen block pair.

        Takes the decomposition of gamma's character over the external
        products of irreducibles, kept in shared under gamma and the two
        tables, then keeps the pairs (chi, theta) with chi in the G-block
        and the dual of theta in the H-block.
        """
        full = _reuse(self.shared, ("decomposition",)
                      + self._gamma_key(gamma),
                      lambda: self._decompose(gamma))
        irr_b = set(self.side_G.irr)
        irr_c = set(self.side_H.irr)
        dual = self.side_H.table.dual_index
        kept = {(i, j): m for (i, j), m in full.items()
                if i in irr_b and dual(j) in irr_c}
        return {
            "mu": self._external_sum(kept),
            "kept": kept,
            "full": full,
            "dropped_pairs": len(full) - len(kept),
        }

    def _decompose(self, gamma: VirtualPPermBimodule) -> dict:
        """The multiplicities {(i, j): m_ij} of chi_i x theta_j in the
        permutation character of gamma, checked to be integers and to
        reconstruct it exactly.

        The multiplicities come in two steps, never through a character
        of G x H per pair: T_j = contract_middle(total, conj theta_j) on
        G, then m_ij = <T_j, chi_i>.  The reconstruction and mu are
        external products summed over j.
        """
        tG, tH = self.side_G.table, self.side_H.table
        total: ClassFunction | None = None
        for t in gamma.terms:
            pc = perm_character(biset_coset(t.vertex).action)
            pc = pc * t.coefficient
            total = pc if total is None else total + pc
        if total is None:
            raise PipelineError("kappa", "gamma has no terms")
        parts = [contract_middle(total, theta.conjugate(), self.ambient)
                 for theta in tH.irreducibles]
        full: dict = {}
        for i, chi in enumerate(tG.irreducibles):
            for j, part in enumerate(parts):
                m = inner_product(part, chi)
                if not m.is_rational() \
                        or m.as_fraction().denominator != 1:
                    raise PipelineError(
                        "kappa", f"non-integer multiplicity at "
                        f"({tG.names[i]}, {tH.names[j]}): {m}")
                mi = m.as_int()
                if mi:
                    full[(i, j)] = mi
        if not full or self._external_sum(full) != total:
            raise PipelineError("kappa",
                                "decomposition does not reconstruct kappa")
        return full

    def _external_sum(self, mults: dict) -> ClassFunction:
        """sum m_ij chi_i x theta_j over G x H, for mults {(i, j): m_ij}:
        the external products s_j x theta_j, s_j = sum_i m_ij chi_i."""
        tG, tH = self.side_G.table, self.side_H.table
        s: dict = {}
        for (i, j), m in mults.items():
            part = tG.irreducibles[i] * m
            s[j] = part if j not in s else s[j] + part
        out = ClassFunction(self.ambient,
                            [0] * len(self.ambient.conjugacy_classes()))
        for j, sj in s.items():
            out = out + external_character(sj, tH.irreducibles[j])
        return out

    # -- stage: perfectness ------------------------------------------

    def check_perfect(self, mu: ClassFunction) -> dict:
        G, H, p = self.G, self.H, self.p
        violations = []

        def violation(condition: str) -> None:
            violations.append({"g": _el(G, g), "h": _el(H, h),
                               "condition": condition})

        # the classes of G x H are the products of the factor classes,
        # in this order, and |C_G(g)| = |G|/|g^G|.  The power basis is an
        # integral basis at every conductor, so a value times r is
        # p-integral when c r / mu.den is, c the gcd of its numerators.
        columns = zip(*mu.rows)
        for A in G.conjugacy_classes():
            for B in H.conjugacy_classes():
                g, h = A[0], B[0]
                c = gcd(*next(columns))
                if Fraction(c * len(A), mu.den * G.order).denominator % p == 0:
                    violation("value/|C_G(g)| integral")
                if Fraction(c * len(B), mu.den * H.order).denominator % p == 0:
                    violation("value/|C_H(h)| integral")
                if c and (G.is_p_prime_element(g, p)
                          != H.is_p_prime_element(h, p)):
                    violation("p-part parity match")
        return {"perfect": not violations, "violations": violations}

    # -- stage: isometry ---------------------------------------------

    def check_isometry(self, kres: dict) -> dict:
        """The signed bijection Irr(C) -> Irr(B), or the failure list."""
        tG, tH = self.side_G.table, self.side_H.table
        kept = kres["kept"]
        failures = []
        mapping = []
        used = set()
        for j in sorted(self.side_H.irr):
            dj = tH.dual_index(j)
            imgs = [(i, m) for (i, jj), m in kept.items() if jj == dj]
            if len(imgs) != 1 or abs(imgs[0][1]) != 1:
                failures.append({
                    "psi": tH.names[j],
                    "image": [(tG.names[i], m) for i, m in imgs]})
                continue
            i, s = imgs[0]
            direct = contract_middle(kres["mu"], tH.irreducibles[j],
                                     self.ambient)
            if direct != tG.irreducibles[i] * s:
                raise PipelineError(
                    "isometry", "contraction disagrees with decomposition")
            if i in used:
                failures.append({"psi": tH.names[j],
                                 "image": [(tG.names[i], s)],
                                 "reason": "image repeated"})
                continue
            used.add(i)
            mapping.append({"psi": tH.names[j], "chi": tG.names[i],
                            "sign": s, "psi_index": j, "chi_index": i})
        ok = (not failures and len(mapping) == len(self.side_H.irr)
              and used == set(self.side_G.irr))
        return {"is_isometry": ok, "map": mapping, "failures": failures}

    # -- stage: the invariant of mu ----------------------------------

    def broue_invariant(self, isometry: dict) -> dict:
        """The common residue of (|G|/chi(1)) / (|H|/psi(1)) mod p."""
        if not isometry["is_isometry"]:
            raise PipelineError("broue_invariant",
                                "no isometry; invariant undefined")
        tG, tH = self.side_G.table, self.side_H.table
        p = self.p
        ratios = []
        residues = set()
        for entry in isometry["map"]:
            chi1 = tG.irreducibles[entry["chi_index"]].degree().as_int()
            psi1 = tH.irreducibles[entry["psi_index"]].degree().as_int()
            ratio = Fraction(self.G.order * psi1,
                             self.H.order * entry["sign"] * chi1)
            try:
                r = residue_of_fraction(ratio, p)
            except ValueError as ex:
                raise PipelineError("broue_invariant", str(ex))
            residues.add(r)
            ratios.append({"psi": entry["psi"], "chi": entry["chi"],
                           "ratio": str(ratio), "residue": r})
        if len(residues) != 1:
            raise PipelineError(
                "broue_invariant",
                f"per-character residues disagree: {sorted(residues)}")
        return {"value": residues.pop(), "ratios": ratios}

    # -- stage: local invariant --------------------------------------

    def local_invariant(self) -> dict:
        num = self.side_G.local_factor()
        den = self.side_H.local_factor()
        b = num / den
        return {
            "numerator": str(num),
            "denominator": str(den),
            "b_value": str(b),
            "beta": residue_of_fraction(b, self.p),
        }

    # -- stage: the sign ---------------------------------------------

    def sign_of_gamma(self, gamma: VirtualPPermBimodule) -> dict:
        """Signed dimension of the block-projected Brauer construction
        at a full twisted diagonal of the two defect groups.

        Isomorphisms phi: E -> D between the canonical representatives
        are tried in a fixed order; the first with a nonzero signed
        total gives the sign.
        """
        D, E = self.side_G.D, self.side_H.D
        projector = self._pair_projector()
        isos = _reuse(self.shared, ("isomorphisms", E, D),
                      lambda: isomorphisms(E.as_group(), D.as_group()))
        if not isos:
            raise PipelineError("sign", "defect groups are not isomorphic")
        scans = []
        for k, phi in enumerate(isos):
            pmap = {E.from_local(i): D.from_local(phi(i))
                    for i in range(E.order)}
            P = twisted_diagonal(D, pmap, E)
            total = 0
            details = []
            for t in gamma.terms:
                U = biset_coset(t.vertex)
                fixed = U.action.fixed_points(P.elements)
                if not fixed:
                    details.append({"vertex_order": t.vertex.order,
                                    "fixed": 0, "rank": 0})
                    continue
                rank = self._projected_rank(U, fixed, projector)
                total += t.coefficient * rank
                details.append({"vertex_order": t.vertex.order,
                                "fixed": len(fixed), "rank": rank})
            scans.append({"phi_index": k, "total": total,
                          "terms": details})
            if total:
                return {"epsilon": 1 if total > 0 else -1,
                        "phi_index": k, "total": total,
                        "terms": details, "scans": scans}
        raise PipelineError(
            "sign", "Brauer construction vanished for every phi; "
            "input is not an equivalence for these blocks")

    def _pair_projector(self) -> dict:
        """e (x) f-dual as a sparse vector over the product group."""
        F = self.field
        CG, CH = self.side_G.C, self.side_H.C
        e_vec = self.side_G.e.to_vector()
        f_vec = self.side_H.e.to_vector()
        H = self.H
        z = {}
        for i1, c1 in enumerate(CG.elements):
            a = e_vec[i1]
            if not a:
                continue
            for i2, c2 in enumerate(CH.elements):
                b = f_vec[CH.to_local(H.inv(c2))]
                if b:
                    z[self.ambient.encode(c1, c2)] = F.mul(a, b)
        return z

    def _projected_rank(self, U, fixed, projector: dict) -> int:
        try:
            return action_rank(self.field, U.action.rows.__getitem__,
                               projector, fixed)
        except ValueError:
            raise PipelineError(
                "sign", "projector does not preserve the fixed set")

    # -- stage: degree congruences -----------------------------------

    def degree_congruences(self, isometry: dict) -> dict:
        """Height preservation and the local degree congruence.

        For every height-zero character psi the image must again have
        height zero.  When the stabilizer of the local block pair is
        all of H, the degree of psi is compared against the rank of the
        local block projection of its restriction; otherwise that check
        is skipped (the Green correspondence rank is not computable at
        this scale) and reported as such.
        """
        p = self.p
        tG, tH = self.side_G.table, self.side_H.table
        out = []
        J = self._pair_stabilizer()
        local_tab = None
        f_part = None
        if J.order == self.H.order:
            Cg = self.side_H.C.as_group()
            if Cg.is_abelian():
                # H is its own local group; any other's table is shared
                local_tab = tH if Cg is self.H else _reuse(
                    self.shared, ("table", Cg),
                    lambda: irreducible_characters(Cg))
                blocks_local = block_idempotents(Cg, p, self.field)
                f_index = next(i for i, blk in enumerate(blocks_local)
                               if blk == self.side_H.e)
                f_part = _partition(self.shared, local_tab, blocks_local,
                                    self.field)[f_index]
        for entry in isometry["map"]:
            j, i = entry["psi_index"], entry["chi_index"]
            psi1 = tH.irreducibles[j].degree().as_int()
            chi1 = tG.irreducibles[i].degree().as_int()
            height_zero = int_p_part(psi1, p) == int_p_part(
                self.H.order // self.side_H.D.order, p)
            rec = {"psi": entry["psi"], "chi": entry["chi"],
                   "height_zero": height_zero}
            if height_zero:
                rec["image_height_zero"] = int_p_part(chi1, p) == int_p_part(
                    self.G.order // self.side_G.D.order, p)
            if local_tab is not None:
                rank = self._local_rank(local_tab, f_part, j)
                lhs = int_p_prime_part(psi1, p) % p
                rhs = (int_p_prime_part(self.H.order // J.order, p)
                       * int_p_prime_part(rank, p)) % p
                rec["local_rank"] = rank
                rec["degree_congruence"] = lhs == rhs
            else:
                rec["degree_congruence"] = "skipped"
            out.append(rec)
        bad = [r for r in out
               if r.get("image_height_zero") is False
               or r.get("degree_congruence") is False]
        return {"ok": not bad, "per_character": out,
                "stabilizer_is_H": J.order == self.H.order}

    def _pair_stabilizer(self) -> Subgroup:
        """The subgroup of N_H(E) fixing the local block f of the pair.

        n normalizes E, hence C = C_H(E), so conjugation by n permutes
        the classes of C.  f is constant on each class, so n fixes f
        exactly when f has the same coefficient on each class K and on
        the class of n K[0] n^-1: one representative per class of C.
        """
        H = self.H
        C, f = self.side_H.C, self.side_H.e
        Cg = C.as_group()
        reps = [C.from_local(K[0]) for K in Cg.conjugacy_classes()]
        keep = [n for n in normalizer(H, self.side_H.D).elements
                if all(f.coeffs[Cg.class_index(C.to_local(H.conj(n, x)))]
                       == c for x, c in zip(reps, f.coeffs))]
        return Subgroup(H, keep)

    def _local_rank(self, local_tab: CharacterTable, f_part,
                    psi_index: int) -> int:
        """Dimension of the local block part of the restricted character.

        local_tab is the table of C = C_H(E); the decomposition of psi
        restricted to C is kept in shared, since a larger field leaves
        E and C as they are.
        """
        tH, C = self.side_H.table, self.side_H.C
        mults = _reuse(
            self.shared, ("restricted", tH, psi_index, local_tab),
            lambda: local_tab.decompose(restrict(tH.irreducibles[psi_index],
                                                 C)))
        return sum(mults[t] * local_tab.irreducibles[t].degree().as_int()
                   for t in f_part)

    # -- correspondent check -----------------------------------------

    def correspondent_check(self) -> dict:
        """Is the H-block the Brauer correspondent of the G-block?

        Requires C_G(D) = N_G(D) and an isomorphism of that group with
        H; then the Brauer image of b must equal the H-block idempotent
        under some (hence a fixed) isomorphism.  Both are central, and
        an isomorphism iota maps each class K of C_G(D) onto the class
        of iota(K[0]) in H, so the two are compared one class at a time.
        Reports skipped when the shape does not apply.
        """
        G, H = self.G, self.H
        D = self.side_G.D
        C = self.side_G.C
        N = normalizer(G, D)
        if C.elements != N.elements:
            return {"status": "skipped",
                    "reason": "centralizer and normalizer of D differ"}
        Cg = C.as_group()
        isos = isomorphisms(Cg, H)
        if not isos:
            return {"status": "skipped",
                    "reason": "local subgroup is not isomorphic to H"}
        br = brauer_image(self.side_G.block, D)
        target = self.side_H.block.coeffs
        local_classes = Cg.conjugacy_classes()
        for k, iota in enumerate(isos):
            if all(c == target[H.class_index(iota(K[0]))]
                   for K, c in zip(local_classes, br.coeffs)):
                return {"status": "confirmed", "iso_index": k}
        return {"status": "failed",
                "reason": "no isomorphism matches br_D(b) with the H-block"}

    # -- the verdict -------------------------------------------------

    def verify(self, gamma: VirtualPPermBimodule,
               replicate: bool = True,
               correspondent: bool = False) -> dict:
        report = {
            "kind": "broue-report",
            "group_G": self.G.name,
            "group_H": self.H.name,
            "prime": self.p,
            "field_order": self.field.q,
            "conventions": self.conventions,
            "side_G": self.side_G.summary(),
            "side_H": self.side_H.summary(),
            "equivalence_axiom_checked": False,
            "stages": [],
        }
        started = time.perf_counter()

        def stage(name: str, ok: bool) -> None:
            """Record a stage with its time, in seconds since the last."""
            nonlocal started
            now = time.perf_counter()
            report["stages"].append({"stage": name, "ok": ok,
                                     "elapsed": round(now - started, 3)})
            started = now

        # the characteristic-0 stages read gamma, the tables and the
        # characters of the two blocks, never the conventions or the field
        ordinary = self._gamma_key(gamma) + (tuple(self.side_G.irr),
                                             tuple(self.side_H.irr))

        def char0(name: str, compute):
            return _reuse(self.shared, (name,) + ordinary, compute)

        try:
            kres = char0("kappa", lambda: self.kappa(gamma))
            report["kappa"] = {
                "kept_pairs": [
                    [self.side_G.table.names[i],
                     self.side_H.table.names[j], m]
                    for (i, j), m in sorted(kres["kept"].items())],
                "dropped_pairs": kres["dropped_pairs"]}
            stage("kappa", True)

            perfect = char0("perfect",
                            lambda: self.check_perfect(kres["mu"]))
            report["perfect"] = perfect
            stage("perfect", perfect["perfect"])
            if not perfect["perfect"]:
                raise PipelineError("perfect", "mu is not perfect")

            isom = char0("isometry", lambda: self.check_isometry(kres))
            report["isometry"] = isom
            stage("isometry", isom["is_isometry"])
            if not isom["is_isometry"]:
                raise PipelineError("isometry", "mu is not an isometry")

            inv = char0("broue_invariant",
                        lambda: self.broue_invariant(isom))
            report["broue_invariant"] = inv
            stage("broue_invariant", True)

            local = self.local_invariant()
            report["local_invariant"] = local
            stage("local_invariant", True)

            sign = self.sign_of_gamma(gamma)
            report["sign"] = sign
            stage("sign", True)

            cong = self.degree_congruences(isom)
            report["congruences"] = cong
            stage("congruences", cong["ok"])

            if correspondent:
                report["correspondent"] = self.correspondent_check()
                stage("correspondent",
                      report["correspondent"]["status"] != "failed")

            lhs = inv["value"]
            rhs = sign["epsilon"] * local["beta"] % self.p
            report["verdict"] = {
                "beta_gamma": lhs,
                "epsilon": sign["epsilon"],
                "beta_local": local["beta"],
                "product": rhs,
                "holds": lhs == rhs,
            }
            stage("verdict", lhs == rhs)
        except PipelineError as ex:
            report["error"] = {"stage": ex.stage, "message": str(ex)}
            report["verdict"] = {"holds": False,
                                 "reason": f"failed at {ex.stage}"}
            return report

        if replicate:
            report["replications"] = self._replicate(gamma, report)
        return report

    def _replicate(self, gamma: VirtualPPermBimodule, base: dict) -> list:
        out = []
        variants = [
            ("alternate-conventions",
             {"conventions": "alternate", "field_degree": None}),
            # F_{p^k} contains the splitting field F_{p^m} only when m
            # divides k, so the larger field doubles the degree.  The
            # variant keeps its older label, which reports carry.
            ("field-degree-plus-one",
             {"conventions": "standard",
              "field_degree": 2 * self.base_degree}),
        ]
        # Each variant recomputes the modular stages and takes the
        # characteristic-0 ones from the base when its blocks hold the
        # base's characters; it agrees only when they do and it finds
        # the base's beta(B, C), beta(gamma) and verdict.  The alternate
        # conventions keep the field object, so they also reuse the
        # character partitions; the larger field keeps D, E and C, so it
        # reuses the restrictions to C and the isomorphisms E -> D.
        for label, kw in variants:
            entry = {"variant": label}
            try:
                other = BrouePipeline(
                    self.G, self.H, self.p,
                    self.side_G.table, self.side_H.table,
                    {"index": self.side_G.block_index},
                    {"index": self.side_H.block_index},
                    field_degree=kw["field_degree"],
                    conventions=kw["conventions"], shared=self.shared)
                rep = other.verify(gamma, replicate=False)
                entry["beta_local"] = rep.get("local_invariant", {}).get(
                    "beta")
                entry["epsilon"] = rep.get("sign", {}).get("epsilon")
                entry["beta_gamma"] = rep.get("broue_invariant", {}).get(
                    "value")
                entry["verdict_holds"] = rep.get("verdict", {}).get("holds")
                entry["agrees"] = (
                    entry["beta_local"] == base["local_invariant"]["beta"]
                    and entry["verdict_holds"]
                    == base["verdict"]["holds"]
                    and entry["beta_gamma"]
                    == base["broue_invariant"]["value"]
                    and all(rep[side]["characters"]
                            == base[side]["characters"]
                            for side in ("side_G", "side_H")))
            except ValueError as ex:
                # a field that is refused or too small for the variant
                entry["error"] = str(ex)
                entry["agrees"] = False
            out.append(entry)
        return out


def _el(G: FiniteGroup, g: int) -> str:
    if isinstance(G, PermutationGroup):
        return G.element_name(g)
    return str(g)


def run_scenario(S: Scenario, field_degree: int | None = None,
                 conventions: str = "standard",
                 replicate: bool | None = None) -> dict:
    """Assemble the pipeline for a parsed scenario and produce the report."""
    pipe = BrouePipeline(S.G, S.H, S.p, S.table_G, S.table_H,
                         S.block_G, S.block_H,
                         field_degree=field_degree,
                         conventions=conventions)
    if S.gamma_terms:
        gamma = VirtualPPermBimodule(pipe.ambient, S.gamma_terms)
        complex_info = None
    else:
        red = rickard_reduce(pipe.ambient, S.complex)
        complex_info = {"degenerate": red["degenerate"],
                        "merged_classes": red["merged_classes"]}
        if red["degenerate"]:
            return {"kind": "broue-report", "scenario": S.name,
                    "complex": complex_info,
                    "verdict": {"holds": False,
                                "reason": "complex reduces to zero"}}
        gamma = red["gamma"]
    checks = S.checks
    if replicate is None:
        replicate = bool(checks.get("replicate", True))
    report = pipe.verify(
        gamma, replicate=replicate,
        correspondent=bool(checks.get("correspondent", False)))
    report["scenario"] = S.name
    if complex_info:
        report["complex"] = complex_info
    return report
