"""Every function in the package has a caller in the package.

A module-level function, or a method not named like __x__, must be
referenced by name in the code of src/bisetblocks other than its own
def: as a name or as an attribute.  Docstrings and comments do not
count.  References and helpers that only the tests need live in
tests/oracles.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bisetblocks"

# Names that wait for a caller, with the ROADMAP item that brings it.
DEFERRED = {
    # item 3, the paper's theorem as executable checks
    "dual_biset": 3,
    "external_character": 3,
    "fixed_cosets": 3,
    "brauer_construction": 3,
    "is_twisted_diagonal": 3,
    # item 4 deletes tools/gen_tables.py, their only caller outside tests
    "ClassFunction.from_element_function": 4,
    "inflate": 4,
    "CharacterTable.degrees": 4,
}

# The element-vector references of the block layer.  perfbench/tracer.py
# wraps them by name, so they move to tests/oracles.py when the benchmark
# next changes (ROADMAP item 5).
TRACED_REFERENCES = {"brauer_hom", "group_algebra_mul"}


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _defined(trees) -> dict:
    """Qualified name -> bare name of every function and public method."""
    out = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__")
                                     and sub.name.endswith("__"))):
                        out[f"{node.name}.{sub.name}"] = sub.name
    return out


def _referenced(trees) -> set:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_function_has_a_caller_in_the_package():
    # equality, so that an exception that gains a caller leaves the list
    trees = _trees()
    used = _referenced(trees)
    uncalled = {q for q, name in _defined(trees).items() if name not in used}
    assert uncalled == set(DEFERRED) | TRACED_REFERENCES
