"""Per-layer tracing of bisetblocks from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
SPANS and COUNTERS with wrappers.  A module-level function is rebound in
every ``bisetblocks`` module that imported it, since ``from .groups
import product_group`` copies the binding.  Only the traced benchmark
process installs the wrappers.

A span records (name, start, end, parent); spans stay in memory until
``write_spans``.  A layer's self time is the time its spans last minus
the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from array import array

# (metric prefix, module, attribute, report the call count too)
SPANS = [
    ("groups.ProductGroup", "groups", "ProductGroup.__init__", True),
    ("groups.group_from_permutations", "groups", "group_from_permutations",
     False),
    ("groups.FiniteGroup.conjugacy_classes", "groups",
     "FiniteGroup.conjugacy_classes", False),
    ("groups.centralizer", "groups", "centralizer", False),
    ("groups.quotient", "groups", "quotient", False),
    ("groups.p_subgroups_up_to_conjugacy", "groups",
     "p_subgroups_up_to_conjugacy", False),
    ("groups.Subgroup.canonical_conjugate", "groups",
     "Subgroup.canonical_conjugate", True),
    ("groups.Subgroup.as_group", "groups", "Subgroup.as_group", False),
    ("groups.subgroup_generated", "groups", "subgroup_generated", False),
    ("groups.double_cosets", "groups", "double_cosets", False),
    ("subdirect.star", "subdirect", "star", False),
    ("subdirect.pullback", "subdirect", "pullback", False),
    ("subdirect.middle_witnesses", "subdirect", "middle_witnesses", False),
    ("gsets.coset_action", "gsets", "coset_action", True),
    ("gsets.tensor_direct", "gsets", "tensor_direct", True),
    ("gsets.tensor_mackey", "gsets", "tensor_mackey", True),
    ("gsets.extended_tensor", "gsets", "extended_tensor", True),
    ("gsets.external_product", "gsets", "external_product", True),
    ("gsets.GAction.decompose", "gsets", "GAction.decompose", True),
    ("characters.perm_character", "characters", "perm_character", False),
    ("characters.induce", "characters", "induce", False),
    ("characters.inner_product", "characters", "inner_product", False),
    ("characters.contract_over_middle", "characters",
     "contract_over_middle", False),
    ("characters.contract_extended", "characters", "contract_extended",
     False),
    ("characters.verify_tensor_character_formula", "characters",
     "verify_tensor_character_formula", False),
    ("gf.mat_rank", "gf", "mat_rank", False),
    ("gf.mat_rref", "gf", "mat_rref", False),
    ("gf.poly_factor", "gf", "poly_factor", False),
    ("gf.fq_field", "gf", "fq_field", False),
    ("blocks.block_idempotents", "blocks", "block_idempotents", False),
    ("blocks.defect_group", "blocks", "defect_group", False),
    ("blocks.maximal_brauer_pair", "blocks", "maximal_brauer_pair", False),
    ("blocks.defect_zero_simple_dim", "blocks", "defect_zero_simple_dim",
     False),
    ("blocks.brauer_hom", "blocks", "brauer_hom", False),
    ("blocks.assign_characters_to_blocks", "blocks",
     "assign_characters_to_blocks", False),
    ("broue.kappa", "broue", "BrouePipeline.kappa", False),
    ("broue.check_perfect", "broue", "BrouePipeline.check_perfect", False),
    ("broue.check_isometry", "broue", "BrouePipeline.check_isometry", False),
    ("broue.broue_invariant", "broue", "BrouePipeline.broue_invariant",
     False),
    ("broue.local_invariant", "broue", "BrouePipeline.local_invariant",
     False),
    ("broue.sign_of_gamma", "broue", "BrouePipeline.sign_of_gamma", False),
    ("broue.degree_congruences", "broue", "BrouePipeline.degree_congruences",
     False),
    ("broue.correspondent_check", "broue",
     "BrouePipeline.correspondent_check", False),
    ("broue.verify", "broue", "BrouePipeline.verify", True),
    ("scenario.Scenario", "scenario", "Scenario.__init__", False),
    ("scenario.table_for_group", "scenario", "table_for_group", False),
]


def _one(args):
    return 1


def _square_order(args):
    return args[0].order ** 2


def _action_entries(args):
    return args[0].group.order * args[0].size


def _tensor_pairs(args):
    if len(args) >= 4:           # extended_tensor(X, Y, U, V)
        return args[2].size * args[3].size
    return args[0].size * args[1].size      # tensor_direct(U, V)


def _cells(args):
    rows = args[1]
    return len(rows) * len(rows[0]) if rows else 0


_CYCLOTOMIC_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                   "__mul__", "__rmul__", "__pow__", "__truediv__",
                   "__rtruediv__")

# Counters without spans, for calls too frequent or too short to time:
# (counter, module, attribute, amount to add per call as a function of
# the call's positional arguments).  table_entries is computed as order
# squared for each FiniteGroup built, not measured from memory.
COUNTERS = [
    ("groups.product_group.calls", "groups", "product_group", _one),
    ("groups.table_entries", "groups", "FiniteGroup.__init__",
     _square_order),
    ("gsets.action_entries", "gsets", "GAction.__init__", _action_entries),
    ("gsets.tensor_pairs", "gsets", "tensor_direct", _tensor_pairs),
    ("gsets.tensor_pairs", "gsets", "extended_tensor", _tensor_pairs),
    ("gf.mat_rank.cells", "gf", "mat_rank", _cells),
    ("blocks.group_algebra_mul.calls", "blocks", "group_algebra_mul", _one),
    ("blocks.CentralElement.mul.calls", "blocks", "CentralElement.__mul__",
     _one),
] + [("cyclotomic.Cyclotomic.ops", "cyclotomic", f"Cyclotomic.{op}", _one)
     for op in _CYCLOTOMIC_OPS]


def metric_units() -> dict:
    """Name and unit of every layer metric the tracer reports."""
    out = {}
    for prefix, _, _, calls in SPANS:
        out[f"{prefix}.self_s"] = "s"
        if calls:
            out[f"{prefix}.calls"] = "count"
    for name, _, _, _ in COUNTERS:
        out[name] = "count"
    out["groups.product_cache_hit_ratio"] = "ratio"
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.stack: list = []      # indices of the open spans
        self.child: list = []      # child time covered, per open span
        self.self_s: list = []
        self.calls: list = []
        self.counts: dict = {}

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.ids[name]

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run fn inside a span called name."""
        nid = self._id(name)
        self.calls[nid] += 1
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name_id.append(nid)
        self.stack.append(idx)
        self.child.append(0.0)
        t0 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.end[idx] = t1
            self.stack.pop()
            d = t1 - t0
            self.self_s[nid] += d - self.child.pop()
            if self.child:
                self.child[-1] += d

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("bisetblocks")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"bisetblocks.{info.name}")
        for prefix, module, attr, _ in SPANS:
            self._wrap(module, attr, self._span_wrapper(prefix))
        for name, module, attr, amount in COUNTERS:
            self._wrap(module, attr, self._counter_wrapper(name, amount))

    def _span_wrapper(self, prefix: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(prefix, fn, *args, **kwargs)
            return wrapper
        return make

    def _counter_wrapper(self, name: str, amount):
        counts = self.counts
        counts.setdefault(name, 0)

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += amount(args)
                return result
            return wrapper
        return make

    @staticmethod
    def _wrap(module: str, attr: str, make) -> None:
        mod = sys.modules[f"bisetblocks.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for name, other in list(sys.modules.items()):
            if name != "bisetblocks" and not name.startswith("bisetblocks."):
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapped)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Every metric of metric_units(), with the values traced so far."""
        out = {}
        for prefix, _, _, calls in SPANS:
            nid = self._id(prefix)
            out[f"{prefix}.self_s"] = self.self_s[nid]
            if calls:
                out[f"{prefix}.calls"] = self.calls[nid]
        out.update(self.counts)
        built = self.calls[self._id("groups.ProductGroup")]
        asked = self.counts["groups.product_group.calls"]
        out["groups.product_cache_hit_ratio"] = (
            (asked - built) / asked if asked else 0.0)
        return out

    def write_spans(self, path: str) -> int:
        """Write the spans as JSON lines [name, start, end, parent index]."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]],
                                     self.start[i], self.end[i],
                                     self.parent[i]]) + "\n")
        return len(self.start)
