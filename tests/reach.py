"""The reach census: which functions of the package a fixed set of CLI
calls enters, against one allowlist of those it may leave alone.

A child process installs a profiler with sys.setprofile before it
imports bisetblocks, runs each call of CALLS through cli.main, and
records its exit code and the code object of every Python call.  A
function is keyed by its file and first line, the line of its first
decorator when it has one, as code objects number it; co_qualname,
which Python 3.10 lacks, is not needed.  The functions are every def
of src/bisetblocks/*.py, nested ones included, so a function with no
caller, or with callers that are never run themselves, shows as never
entered.  A function that no call enters must be in ALLOWLIST, and an
allowlisted function that a call enters must leave it.

Run as a script, this file is the child: reach.py WORKDIR OUT.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The census calls: arguments, with {work} for the work directory and
# {data} for the package's bundled data, and the exit code each must
# give, so that a call that starts failing cannot shrink coverage unseen.
CALLS = [
    (["run-acceptance"], 0),
    (["verify-biset-laws", "--seed", "1", "--count", "10"], 0),
    (["verify-biset-laws", "--suite", "mackey", "--count", "2",
      "--inject-mutation"], 1),
    (["blocks", "S4", "--prime", "2"], 0),
    (["blocks", "A4", "--prime", "3"], 0),
    (["blocks", "{work}/table_s3.json", "--prime", "3"], 0),
    (["broue", "{data}/scenarios/a4_c3.json", "--conventions",
      "alternate"], 0),
    (["broue", "{work}/complex.json"], 0),
    (["broue", "{work}/twice_gamma.json"], 1),
    (["broue", "{work}/table_h.json"], 0),
    (["ingest-table", str(ROOT / "tests" / "fixtures" / "tables"
                          / "A4.json")], 0),
]

# S3 as a multiplication table, in the element order of the bundled S3:
# (), (1 2), (1 2 3), (2 3), (1 3), (1 3 2).
_S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 5, 1, 3, 0],
             [3, 5, 4, 0, 2, 1], [4, 2, 1, 5, 0, 3], [5, 3, 0, 4, 1, 2]]
_C6_C3_TERM = {"p_gens": ["(1 3 5)(2 4 6)"], "q_gens": ["(1 2 3)"],
               "phi": ["(1 3 5)(2 4 6)"], "coefficient": 1}
_C6_C3 = {"kind": "broue-scenario", "name": "c6_c3", "group_G": "C6",
          "group_H": "C3", "prime": 3, "block_G": {"contains_char": "chi1"},
          "block_H": {"index": 0}, "checks": {"replicate": False}}

# The documents the calls read from the work directory.
INPUTS = {
    "table_s3.json": {"name": "S3 table", "table": _S3_TABLE},
    # a complex whose terms reduce to gamma itself
    "complex.json": {**_C6_C3, "complex": [
        {"degree": d, "terms": [_C6_C3_TERM]} for d in (0, 1, 2)]},
    # twice a perfect isometry is perfect and no isometry: exit 1
    "twice_gamma.json": {**_C6_C3, "gamma": [
        {**_C6_C3_TERM, "coefficient": 2}]},
    # H given by its table, its elements by id
    "table_h.json": {**_C6_C3, "group_H": {
        "name": "C3 table", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        "gamma": [{**_C6_C3_TERM, "q_gens": [1]}]},
}

# The open ROADMAP items an allowlist entry may wait for.
OPEN_ITEMS = (4, 6, 12)

# Every function that no census call enters, by qualified name, with
# (kind, reason): kind is "__repr__", the open ROADMAP item that gives
# it a caller or moves it to tests/oracles.py, or, for a path no CLI
# input in CALLS draws, the tier-1 test that enters it.
ALLOWLIST = {
    "blocks.CentralElement.__repr__": ("__repr__", "read in debugging"),
    "characters.ClassFunction.__repr__": ("__repr__", "read in debugging"),
    "cyclotomic.Cyclotomic.__repr__": ("__repr__", "read in debugging"),
    "gf.Fq.__repr__": ("__repr__", "read in debugging"),
    "groups.FiniteGroup.__repr__": ("__repr__", "read in debugging"),
    "groups.Subgroup.__repr__": ("__repr__", "read in debugging"),
    "gsets.TransitiveDecomposition.__repr__": ("__repr__",
                                               "read in debugging"),
    "scenario.GammaTerm.__repr__": ("__repr__", "read in debugging"),
    "subdirect.ProductSubgroup.__repr__": ("__repr__", "read in debugging"),
    # perfbench/tracer.py wraps these by name; they move to
    # tests/oracles.py when the benchmark next changes
    "blocks.brauer_hom": (6, "element-vector reference of the Brauer map"),
    "blocks.group_algebra_mul": (6, "element-vector reference product"),
    "groups.p_subgroups_up_to_conjugacy": (
        6, "p-subgroup enumeration that defect groups no longer use"),
    "groups._p_subgroup_classes": (6, "p_subgroups_up_to_conjugacy's "
                                   "kernel; item 12 may take it"),
    "cyclotomic.Cyclotomic.__add__": (6, "traced operator"),
    "cyclotomic.Cyclotomic.__neg__": (6, "traced operator"),
    "cyclotomic.Cyclotomic.__sub__": (6, "traced operator"),
    "cyclotomic.Cyclotomic.__rsub__": (6, "traced operator"),
    "cyclotomic.Cyclotomic.__pow__": (6, "traced operator"),
    "cyclotomic.Cyclotomic.__truediv__": (6, "traced operator"),
    "cyclotomic.Cyclotomic.__rtruediv__": (6, "traced operator"),
    "cyclotomic.Cyclotomic._combine": (6, "helper of + and -"),
    "cyclotomic.Cyclotomic.inverse": (6, "helper of ** and /"),
    "cyclotomic.Cyclotomic.galois": (6, "helper of inverse"),
    "cyclotomic.Cyclotomic.is_zero": (6, "helper of inverse"),
    "cyclotomic._times": (6, "form of a product of irrational values"),
    # the Brauer construction of gamma at every twisted diagonal
    "blocks.fixed_cosets": (12, "local bimodules"),
    "blocks.brauer_construction": (12, "local bimodules"),
    "subdirect.is_twisted_diagonal": (12, "twisted-diagonal enumeration"),
    "subdirect.ProductSubgroup.k1": (12, "read by is_twisted_diagonal"),
    "subdirect.ProductSubgroup.k2": (12, "read by is_twisted_diagonal"),
    # the duality check of the paper's theorem
    "gsets.dual_biset": (4, "duality check"),
    "gsets.BisetView.opposite": (4, "duality check"),
    "gsets.BisetView.opposite.row": (4, "duality check"),
    "subdirect.ProductSubgroup.opposite": (4, "duality check: the dual of "
                                           "(G x H)/X is (H x G)/X^op"),
    # paths no CLI input in CALLS draws
    "broue.BrouePipeline.check_perfect.violation": (
        "tests/test_broue.py::test_check_perfect_flags_violations",
        "a failed perfectness check"),
    "broue._el": ("tests/test_broue.py::test_check_perfect_flags_violations",
                  "names the elements of a failed perfectness check"),
    "groups._codec.points": (
        "tests/test_groups.py::test_permutation_table_is_the_pairwise_"
        "composition", "permutations of more than 256 points"),
    "subdirect.full_product_subgroup": (
        "tests/test_subdirect.py::test_middle_kernel_is_the_kernel_"
        "intersection", "fallback of suites.random_product_subgroup after "
        "64 rejected draws"),
}


def defined(src: Path) -> dict:
    """(file name, first line) -> qualified name of every def of the
    package under src, nested ones included."""
    out = {}

    def visit(node, prefix: str, name: str) -> None:
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([sub.lineno]
                            + [d.lineno for d in sub.decorator_list])
                out[name, first] = f"{prefix}{sub.name}"
                visit(sub, f"{prefix}{sub.name}.", name)
            elif isinstance(sub, ast.ClassDef):
                visit(sub, f"{prefix}{sub.name}.", name)
            else:
                visit(sub, prefix, name)

    for path in sorted((src / "bisetblocks").glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.", path.name)
    return out


def run(src: Path, work: Path) -> dict:
    """The census of the package under src: the exit code of each call
    and the qualified names of the functions no call entered."""
    for name, doc in INPUTS.items():
        (work / name).write_text(json.dumps(doc))
    out = work / "census.json"
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run([sys.executable, __file__, str(work), str(out)],
                           env=env, cwd=work, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr[-2000:]
    result = json.loads(out.read_text())
    entered = {tuple(key) for key in result["entered"]}
    names = defined(src)
    return {"codes": result["codes"],
            "never_entered": {q for key, q in names.items()
                              if key not in entered}}


def _child(work: str, out: str) -> None:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    from bisetblocks import cli
    package = os.path.dirname(os.path.realpath(cli.__file__))
    data = os.path.join(package, "data")
    exits = []
    for argv, _ in CALLS:
        argv = [a.format(work=work, data=data) for a in argv]
        exits.append(cli.main(argv + ["--out", os.path.join(work, "r.json")]))
    sys.setprofile(None)
    entered = sorted({(os.path.basename(c.co_filename), c.co_firstlineno)
                      for c in codes
                      if os.path.dirname(os.path.realpath(c.co_filename))
                      == package})
    with open(out, "w") as fh:
        json.dump({"codes": exits, "entered": entered}, fh)


if __name__ == "__main__":
    _child(*sys.argv[1:])
