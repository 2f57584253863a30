"""Command line interface.

Verbs: verify-biset-laws, blocks, broue, ingest-table, run-acceptance.
All reports are JSON on stdout (or --out).  Exit codes: 0 all checks
pass, 1 a verification failed, 2 the input was invalid.  The argument
parser is built once per process and reused by every call of main.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .blocks import (assign_characters_to_blocks, block_idempotents,
                     defect_group, defect_zero_simple_dim,
                     maximal_brauer_pair, splitting_field_degree,
                     splitting_params)
from .broue import SelectorError, run_scenario
from .characters import ingest_character_table, value_to_doc
from .gf import FIELD_SIZE_CAP, check_characteristic, fq_field
from .groups import (PermutationGroup, element_by_name,
                     minimal_generating_sequence)
from .namedgroups import named_group
from .scenario import Scenario, group_from_spec, table_for_group
from .suites import ALL_SUITES, DEFAULT_SEED, run_suite, worker_count

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, default=str)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as ex:
            raise InputError(f"cannot write {out}: {ex}")
    else:
        print(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as ex:
        raise InputError(f"cannot read {path}: {ex}")
    except json.JSONDecodeError as ex:
        raise InputError(f"{path} is not valid JSON: {ex}")


def _group_arg(text: str):
    """A group given as a bundled name or a path to a spec document."""
    if text.endswith(".json"):
        try:
            return group_from_spec(_load_json(text))
        except (TypeError, ValueError) as ex:
            raise InputError(f"bad group spec {text}: {ex}")
    try:
        return named_group(text)
    except Exception as ex:
        raise InputError(str(ex))


def _field_degree(p: int, requested: int | None, splitting: int) -> int:
    """The requested field degree, or the splitting degree if none is.

    A requested degree must be a positive multiple of the splitting
    degree (F_{p^k} contains F_{p^m} only when m divides k).  Either
    degree must keep p^k within the field size cap; it is checked here,
    before any field is built.
    """
    if requested is not None and (requested < 1 or requested % splitting):
        raise InputError(f"--field-degree {requested} is not a positive "
                         f"multiple of the splitting degree {splitting}")
    degree = splitting if requested is None else requested
    largest = 0
    while p ** (largest + 1) <= FIELD_SIZE_CAP:
        largest += 1
    if degree > largest:
        what = (f"the splitting degree {splitting}" if requested is None
                else f"--field-degree {requested}")
        raise InputError(f"{what} makes a field larger than "
                         f"{FIELD_SIZE_CAP} elements")
    return degree


def _filter_names(names, max_order: int | None):
    if max_order is None:
        return names
    kept = tuple(n for n in names if named_group(n).order <= max_order)
    if not kept:
        raise InputError(f"no base groups of order <= {max_order}")
    return kept


def cmd_verify_biset_laws(args) -> int:
    if args.count is not None and args.count < 1:
        raise InputError(f"--count {args.count} must be at least 1")
    if args.index is not None and args.index < 0:
        raise InputError(f"--index {args.index} must be at least 0")
    suites = ([args.suite] if args.suite else list(ALL_SUITES))
    report = {"kind": "biset-law-report", "seed": args.seed, "suites": []}
    ok = True
    for name in suites:
        _, _, pool = ALL_SUITES[name]
        rep = run_suite(name, args.seed, count=args.count,
                        groups=_filter_names(pool, args.max_order),
                        mutate=(args.inject_mutation
                                and name == (args.suite or "mackey")),
                        index=args.index, workers=worker_count())
        report["suites"].append(rep)
        ok = ok and rep["ok"]
    report["ok"] = ok
    _emit(report, args.out)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_blocks(args) -> int:
    G = _group_arg(args.group)
    p = args.prime
    try:
        check_characteristic(p)
    except ValueError as ex:
        raise InputError(str(ex))
    m, _ = splitting_params(G, p)
    field = fq_field(p, _field_degree(p, args.field_degree, m))
    started = time.perf_counter()
    try:
        blocks = block_idempotents(G, p, field)
    except ValueError as ex:
        raise InputError(str(ex))
    try:
        table = table_for_group(G)
    except ValueError:
        table = None
    report = {
        "kind": "block-report",
        "group": G.name,
        "order": G.order,
        "prime": p,
        "field_order": field.q,
        "block_count": len(blocks),
        "blocks": [],
        "elapsed": round(time.perf_counter() - started, 3),
    }
    for i, b in enumerate(blocks):
        started = time.perf_counter()
        D = defect_group(G, p, b)
        _, e = maximal_brauer_pair(G, p, b, field, D=D)
        entry = {
            "index": i,
            "coefficients": list(b.coeffs),
            "defect_order": D.order,
            "defect_generators": _subgroup_names(D),
            "local_block_coefficients": list(e.coeffs),
        }
        try:
            entry["defect_zero_dim"] = defect_zero_simple_dim(G, D, e, field)
        except ValueError as ex:
            raise InputError(str(ex))
        entry["elapsed"] = round(time.perf_counter() - started, 3)
        report["blocks"].append(entry)
    # after the loop, where a block the field does not split fails first
    if table is not None:
        try:
            partition = assign_characters_to_blocks(table, blocks, field)
        except ValueError as ex:
            raise AssertionError(f"character partition: {ex}") from ex
        for entry, part in zip(report["blocks"], partition):
            entry["characters"] = [table.names[j] for j in part]
    _emit(report, args.out)
    return EXIT_PASS


def _subgroup_names(D) -> list:
    G = D.parent
    if D.order == 1:
        return []
    gens = [D.from_local(i) for i in minimal_generating_sequence(D.as_group())]
    if isinstance(G, PermutationGroup):
        return [G.element_name(g) for g in gens]
    return gens


def cmd_broue(args) -> int:
    doc = _load_json(args.scenario)
    try:
        S = Scenario(doc)
    except (KeyError, TypeError, ValueError) as ex:
        raise InputError(f"bad scenario: {ex}")
    _field_degree(S.p, args.field_degree,
                  splitting_field_degree([S.G, S.H], S.p))
    try:
        report = run_scenario(S, field_degree=args.field_degree,
                              conventions=args.conventions)
    except SelectorError as ex:
        raise InputError(f"bad scenario: {ex}")
    _emit(report, args.out)
    return EXIT_PASS if report["verdict"].get("holds") else EXIT_FAIL


def cmd_ingest_table(args) -> int:
    doc = _load_json(args.table)
    group = None
    if isinstance(doc.get("group"), str):
        try:
            group = named_group(doc["group"])
        except Exception:
            group = None
    try:
        table = ingest_character_table(doc, group=group)
    except (KeyError, ValueError, TypeError) as ex:
        raise InputError(f"bad table: {ex}")
    Gt = table.group
    cols = [Gt.class_index(element_by_name(Gt, col["rep"]))
            for col in doc["classes"]]
    report = {
        "kind": "table-report",
        "group": Gt.name,
        "order": Gt.order,
        "class_count": len(Gt.conjugacy_classes()),
        "names": list(table.names),
        "degrees": [c.degree().as_int() for c in table.irreducibles],
        "normalized": {
            "kind": "character-table",
            "group": doc.get("group", Gt.name),
            "classes": doc["classes"],
            "characters": [
                {"name": table.names[i],
                 "values": [value_to_doc(table.irreducibles[i].values[c])
                            for c in cols]}
                for i in range(len(table.names))],
        },
        "ok": True,
    }
    _emit(report, args.out)
    return EXIT_PASS


def cmd_run_acceptance(args) -> int:
    from .acceptance import run_all   # only here: no other verb needs it
    rep = run_all(seed=args.seed)
    for r in rep["results"]:
        status = "PASS" if r["ok"] else "FAIL"
        line = (f"{status}  {r['id']}. {r['name']:<26s} "
                f"{r['elapsed']:8.3f}s  {r['detail']}")
        print(line, file=sys.stderr)
    _emit(rep, args.out)
    return EXIT_PASS if rep["ok"] else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state on it."""
    ap = argparse.ArgumentParser(
        prog="bisetblocks",
        description="Exact biset calculus and block-theory verification")
    sub = ap.add_subparsers(dest="verb", required=True)

    laws = sub.add_parser("verify-biset-laws",
                          help="run the randomized law suites")
    laws.add_argument("--seed", type=int, default=DEFAULT_SEED)
    how_many = laws.add_mutually_exclusive_group()
    how_many.add_argument("--count", type=int, default=None,
                          help="instances per suite (default: suite "
                          "standard)")
    how_many.add_argument("--index", type=int, default=None,
                          help="rerun instance INDEX alone, as a failure "
                          "record names it")
    laws.add_argument("--max-order", type=int, default=None,
                      help="keep each law's base groups up to this order")
    laws.add_argument("--suite", choices=sorted(ALL_SUITES), default=None)
    laws.add_argument("--inject-mutation", action="store_true",
                      help="corrupt the first instance of --suite "
                      "(mackey without --suite) to test failure reporting")
    laws.add_argument("--out")
    laws.set_defaults(fn=cmd_verify_biset_laws)

    blk = sub.add_parser("blocks", help="block data of a group at a prime")
    blk.add_argument("group", help="bundled name or group spec JSON path")
    blk.add_argument("--prime", type=int, required=True)
    blk.add_argument("--field-degree", type=int, default=None)
    blk.add_argument("--out")
    blk.set_defaults(fn=cmd_blocks)

    br = sub.add_parser("broue", help="run a scenario through the pipeline")
    br.add_argument("scenario", help="scenario JSON path")
    br.add_argument("--field-degree", type=int, default=None)
    br.add_argument("--conventions", choices=("standard", "alternate"),
                    default="standard")
    br.add_argument("--out")
    br.set_defaults(fn=cmd_broue)

    ing = sub.add_parser("ingest-table",
                         help="validate and normalize a character table")
    ing.add_argument("table", help="character table JSON path")
    ing.add_argument("--out")
    ing.set_defaults(fn=cmd_ingest_table)

    acc = sub.add_parser("run-acceptance", help="run all nine criteria")
    acc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    acc.add_argument("--out")
    acc.set_defaults(fn=cmd_run_acceptance)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except (AssertionError, RuntimeError) as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
