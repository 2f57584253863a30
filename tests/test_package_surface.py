"""Every function in the package has a caller in the package.

A module-level function must be referenced by name in the code of
src/bisetblocks other than its own def, as a name or as an attribute;
a method not named like __x__ only as an attribute, since a method is
reached through its object or class.  Docstrings and comments do not
count.  References and helpers that only the tests need live in
tests/oracles.py.

Methods are matched by their bare name, so a method that no code calls
goes unseen while another method of the same name has a caller.
"""

import ast
from pathlib import Path

from reach import ALLOWLIST

SRC = Path(__file__).resolve().parent.parent / "src" / "bisetblocks"

# Names that wait for a caller, with the ROADMAP item that brings it, and
# the references perfbench/tracer.py wraps by name, which move to
# tests/oracles.py when the benchmark next changes (item 6): both read
# off the reach census allowlist, so an entry lives in one place.
DEFERRED = {name.split(".", 1)[1]: kind
            for name, (kind, _) in ALLOWLIST.items() if kind in (4, 12)}
TRACED_REFERENCES = {name.split(".", 1)[1]
                     for name, (kind, _) in ALLOWLIST.items() if kind == 6}


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _defined(trees) -> dict:
    """Qualified name -> (bare name, whether it is a method) of every
    function and public method."""
    out = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out[node.name] = (node.name, False)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__")
                                     and sub.name.endswith("__"))):
                        out[f"{node.name}.{sub.name}"] = (sub.name, True)
    return out


def _referenced(trees) -> tuple[set, set]:
    """(names, attributes): every bare name and every attribute read."""
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _uncalled(trees) -> set:
    names, attrs = _referenced(trees)
    return {q for q, (name, method) in _defined(trees).items()
            if name not in attrs and (method or name not in names)}


def test_every_function_has_a_caller_in_the_package():
    # A subset, not equality: the allowlist serves both checks, and an
    # entry leaves it by the census's equality once a census call
    # enters it.
    uncalled = _uncalled(_trees())
    assert uncalled <= set(DEFERRED) | TRACED_REFERENCES


def test_a_local_variable_does_not_call_a_method_of_its_name():
    # orbits, a local variable in three functions, once hid the
    # uncalled method GAction.orbits
    assert _uncalled({"m.py": ast.parse(
        "class A:\n"
        "    def orbits(self):\n"
        "        return []\n"
        "def f(a):\n"
        "    orbits = a\n"
        "    return orbits\n"
        "f(A())\n")}) == {"A.orbits"}


def test_every_traced_name_is_defined_in_the_package():
    # perfbench/tracer.py wraps each entry of SPANS and COUNTERS by name
    # and raises on one that is gone; a method must be in its class's
    # own namespace, since the tracer reads the class __dict__
    import importlib
    import importlib.util
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("traced_names", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    entries = [(module, attr) for _, module, attr, _ in tracer.SPANS]
    entries += [(module, attr) for _, module, attr, _ in tracer.COUNTERS]
    missing = []
    for module, attr in entries:
        mod = importlib.import_module(f"bisetblocks.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert len(entries) > 60 and not missing
