"""Command-line driver: SQL import/export, script execution, closure,
semantic enrichment, and query replay with table rendering."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CatqlError
from .instances import Instance
from .parsing import parse_script
from .queries import eval_query_direct, eval_query_via_migration
from .render import FORMATS, render_instance
from .scenario import ScenarioConfig, closure_auto, enrich, translate_isa
from .scripts import Environment, run_script
from .sqlbridge import export_sql, import_sql


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="catql", description=__doc__)
    sub = p.add_subparsers(dest="command", metavar="command")

    def add_format(sp):
        sp.add_argument("--format", choices=sorted(FORMATS), default="ascii")

    sp = sub.add_parser("import-sql", help="import a SQL file and render its tables")
    sp.add_argument("file")
    sp.add_argument("--fk-spec", help="JSON sidecar {table: {column: target_table}}")
    sp.add_argument("--guess-fk", action="store_true",
                    help="treat *_id columns naming a table as foreign keys")
    add_format(sp)

    sp = sub.add_parser("run", help="run a .catql script")
    sp.add_argument("script")

    sp = sub.add_parser("closure", help="reflexive transitive closure of an instance")
    sp.add_argument("script", help=".catql script defining the instance")
    sp.add_argument("name", nargs="?", help="instance name (default: the only one)")
    sp.add_argument("--closure-n", type=int, default=3)
    add_format(sp)

    sp = sub.add_parser("enrich", help="run the semantic-enrichment pipeline")
    sp.add_argument("--sql", required=True, help="portal data (SQL file)")
    sp.add_argument("--parent", required=True, help="ontology parent function (.catql)")
    sp.add_argument("--syn", required=True, help="synonym relation (.catql)")
    sp.add_argument("--fk-spec")
    sp.add_argument("--guess-fk", action="store_true")
    sp.add_argument("--closure-n", type=int, default=3)
    sp.add_argument("--target-node", default="material")
    sp.add_argument("--name-attr", default="material_Material_Name")
    add_format(sp)

    sp = sub.add_parser("query", help="evaluate a named query from a script")
    sp.add_argument("script")
    sp.add_argument("query_name")
    sp.add_argument("instance_name")
    sp.add_argument("--via-migration", action="store_true",
                    help="evaluate through the pullback/limit/left-pushforward composite")
    add_format(sp)

    sp = sub.add_parser("export-sql", help="export a named instance as SQL")
    sp.add_argument("script")
    sp.add_argument("name", nargs="?")
    sp.add_argument("-o", "--output", help="output file (default stdout)")

    sp = sub.add_parser("show", help="render a named instance")
    sp.add_argument("script")
    sp.add_argument("name", nargs="?")
    add_format(sp)

    return p


def _open(path: str, mode: str = "r"):
    """open() for a user-given path, as UTF-8 text; a NUL byte in the path,
    which open() rejects with a ValueError, is a user error."""
    if "\0" in path:
        raise CatqlError(f"file name contains a NUL byte: {path!r}")
    return open(path, mode, encoding="utf-8")


def _run_file(path: str):
    with _open(path) as fh:
        text = fh.read()
    return run_script(parse_script(text), Environment())


def _pick_instance(env: Environment, name, what="instance") -> Instance:
    insts = {n: v for n, (k, v) in env.entries.items() if k == "instance"}
    if name is not None:
        if name not in insts:
            raise CatqlError(f"no instance named {name!r} in script")
        return insts[name]
    if len(insts) != 1:
        raise CatqlError(
            f"script defines {len(insts)} instances; name the {what} explicitly"
        )
    return next(iter(insts.values()))


def _emit_outputs(outputs):
    for (kind, name, text) in outputs:
        if kind == "show":
            print(text)
        elif kind == "export":
            with _open(name, "w") as fh:
                fh.write(text)
            print(f"wrote {name}", file=sys.stderr)
        elif kind == "warning":
            print(f"warning: {text}", file=sys.stderr)


def _load_fk_spec(path):
    if path is None:
        return None
    with _open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise CatqlError(f"fk spec {path!r} is nested too deeply to read") from None


def _dispatch(args) -> int:
    if args.command == "import-sql":
        with _open(args.file) as fh:
            text = fh.read()
        _schema, inst = import_sql(text, _load_fk_spec(args.fk_spec), args.guess_fk)
        print(render_instance(inst, args.format))
        return 0

    if args.command == "run":
        _env, outputs = _run_file(args.script)
        _emit_outputs(outputs)
        return 0

    if args.command == "closure":
        env, _ = _run_file(args.script)
        inst = _pick_instance(env, args.name)
        print(render_instance(closure_auto(inst, args.closure_n), args.format))
        return 0

    if args.command == "enrich":
        with _open(args.sql) as fh:
            _schema, portal = import_sql(
                fh.read(), _load_fk_spec(args.fk_spec), args.guess_fk
            )
        parent_env, _ = _run_file(args.parent)
        syn_env, _ = _run_file(args.syn)
        parent = _pick_instance(parent_env, None, "parent function")
        syn = _pick_instance(syn_env, None, "synonym relation")
        cfg = ScenarioConfig(
            closure_n=args.closure_n,
            target_node=args.target_node,
            name_attr=args.name_attr,
        )
        isa = closure_auto(parent, cfg.closure_n)
        isa_prime = translate_isa(isa, syn, cfg.closure_n)
        enriched = enrich(portal, isa_prime, cfg)
        print(render_instance(enriched, args.format))
        return 0

    if args.command == "query":
        env, _ = _run_file(args.script)
        if args.query_name not in env.entries or env.entries[args.query_name][0] != "query":
            raise CatqlError(f"no query named {args.query_name!r} in script")
        q, _s = env.entries[args.query_name][1]
        inst = _pick_instance(env, args.instance_name)
        if args.via_migration:
            result = eval_query_via_migration(q, inst)
        else:
            result = eval_query_direct(q, inst)
        print(render_instance(result, args.format))
        return 0

    if args.command == "export-sql":
        env, _ = _run_file(args.script)
        inst = _pick_instance(env, args.name)
        warnings: list[str] = []
        text = export_sql(inst.schema, inst, warn=warnings.append)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        if args.output:
            with _open(args.output, "w") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return 0

    if args.command == "show":
        env, _ = _run_file(args.script)
        inst = _pick_instance(env, args.name)
        print(render_instance(inst, args.format))
        return 0

    _build_parser().print_usage(sys.stderr)
    return 1


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except (CatqlError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        # user errors; any other ValueError is an internal fault
        print(f"catql: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"catql: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
