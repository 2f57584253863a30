"""The reach census of tests/reach.py: every function of the package is
entered by a fixed set of CLI calls, or allowlisted with a reason."""

import shutil

import pytest

import reach


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    return reach.run(reach.SRC, tmp_path_factory.mktemp("census"))


def test_every_census_call_exits_as_it_should(census):
    # a call that starts failing would leave functions unentered unseen
    assert census["codes"] == [code for _, code in reach.CALLS]


def test_the_functions_no_call_enters_are_the_allowlist(census):
    # equality, so that an entry that gains a caller leaves the list
    assert census["never_entered"] == set(reach.ALLOWLIST)


def test_every_allowlist_entry_has_its_reason():
    for name, (kind, why) in reach.ALLOWLIST.items():
        assert why, name
        if kind == "__repr__":
            assert name.endswith(".__repr__"), name
        elif isinstance(kind, int):
            assert kind in reach.OPEN_ITEMS, name
        else:
            path, test = kind.split("::")
            source = (reach.ROOT / path).read_text()
            assert f"\ndef {test}(" in source, name


def test_a_function_without_a_caller_fails_the_census(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(reach.SRC / "bisetblocks", src / "bisetblocks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "bisetblocks" / "cli.py"
    cli.write_text(cli.read_text() + "\n\ndef _unreached():\n    return 0\n")
    work = tmp_path / "work"
    work.mkdir()
    census = reach.run(src, work)
    assert census["codes"] == [code for _, code in reach.CALLS]
    assert census["never_entered"] == set(reach.ALLOWLIST) | {"cli._unreached"}
