"""Script AST, evaluator, and pretty printer for the .catql language.

A script is an ordered list of declarations; names must be defined before
use and are never redefined.  Render/export directives produce outputs that
the caller (normally the CLI) prints or writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    ConstPath,
    Mapping,
    Path,
    PathEquation,
    Schema,
    make_schema,
    validate_mapping,
    _walk_path,
)
from .errors import ScriptError, SchemaError
from .instances import Instance, disjoint_union, relationalize, union, validate_instance
from .migration import delta, pi, sigma
from .queries import Query, eval_query_direct, eval_query_via_migration, typecheck_query
from .scenario import closure_auto, compose_relations, enrich_edge, op_relation


@dataclass
class SchemaDecl:
    name: str
    nodes: list
    edges: list
    attributes: list
    equations: list  # [(raw lhs Path, raw rhs Path|ConstPath)]
    line: int = field(default=0, compare=False)


@dataclass
class InstanceDecl:
    name: str
    schema_name: str
    rows: list  # [(node, [row ids])]
    edges: list  # [(node, edge, [(row, row)])]
    attrs: list  # [(node, attr, [(row, value)])]
    line: int = field(default=0, compare=False)


@dataclass
class MappingDecl:
    name: str
    source_name: str
    target_name: str
    node_maps: list
    edge_maps: list  # [(node, edge, raw Path)]
    attr_maps: list  # [(node, attr, raw Path|ConstPath)]
    line: int = field(default=0, compare=False)


@dataclass
class QueryDecl:
    name: str
    schema_name: str
    query: Query
    line: int = field(default=0, compare=False)


@dataclass
class LetStmt:
    name: str
    expr: tuple  # (operation, argument for each valued item of its syntax)
    line: int = field(default=0, compare=False)


# The syntax of each form of .catql but a query body, after the word that
# opens it: the parser reads a form by it (`Parser.read`) and the printer
# writes it (`_write`).  An upper-case item is a field, which holds a value
# and says what it is: a name of what NAMES says it names, NODES (node names
# split by ','), a ROW (a row id: a name or an integer), a VALUE (a literal),
# a FORMAT (an optional identifier, "ascii" when it is left out), a DEPTH (an
# integer), a TYPE (a base type), a PATH, a TERM (a path or a literal) or a
# FILE (a file name string).  A tuple is the syntax of each entry of an
# instance block, which are read up to the block's '}'.  Any other item is a
# keyword or a symbol.
NAMES = {"SCHEMA", "INSTANCE", "MAPPING", "QUERY", "NODE", "EDGE", "ATTRIBUTE"}
# the names of what a script defines that a let looks up
DEFINED = ("INSTANCE", "MAPPING", "QUERY")

# statement keyword -> its syntax up to its items, its query body or its let
# operation; the whole of show and export
STATEMENTS = {
    "schema": ("SCHEMA", "{", "nodes", "NODES", ";"),
    "instance": ("INSTANCE", ":", "SCHEMA", "{"),
    "mapping": ("MAPPING", ":", "SCHEMA", "->", "SCHEMA", "{"),
    "query": ("QUERY", ":", "SCHEMA", "{"),
    "let": ("INSTANCE", "="),
    "show": ("INSTANCE", "FORMAT", ";"),
    "export": ("INSTANCE", "FILE", ";"),
}

# The items of a schema, an instance and a mapping, up to its '}': head word
# -> syntax, in the order that SchemaDecl, InstanceDecl and MappingDecl list
# them.
SCHEMA_ITEMS = {
    "edge": ("EDGE", ":", "NODE", "->", "NODE", ";"),
    "attribute": ("ATTRIBUTE", ":", "NODE", "->", "TYPE", ";"),
    "equation": ("PATH", "=", "TERM", ";"),
}
INSTANCE_ITEMS = {
    "node": ("NODE", "{", ("ROW", ";"), "}"),
    "edge": ("NODE", ".", "EDGE", "{", ("ROW", "->", "ROW", ";"), "}"),
    "attribute": ("NODE", ".", "ATTRIBUTE", "{", ("ROW", "=", "VALUE", ";"), "}"),
}
MAPPING_ITEMS = {
    "node": ("NODE", "->", "NODE", ";"),
    "edge": ("NODE", ".", "EDGE", "->", "PATH", ";"),
    "attribute": ("NODE", ".", "ATTRIBUTE", "->", "TERM", ";"),
}

# let operation -> (function, syntax), ended by ';'.  The function takes the
# field values in turn, a DEFINED name looked up.  A query is defined with
# its schema.
LET_OPS = {
    "delta": (delta, ("MAPPING", "INSTANCE")),
    "sigma": (sigma, ("MAPPING", "INSTANCE")),
    "pi": (pi, ("MAPPING", "INSTANCE")),
    "union": (union, ("INSTANCE", "INSTANCE")),
    "disjoint_union": (disjoint_union, ("INSTANCE", "INSTANCE")),
    "compose": (compose_relations, ("INSTANCE", "INSTANCE")),
    "relationalize": (relationalize, ("INSTANCE",)),
    "op": (op_relation, ("INSTANCE",)),
    "eval": (lambda q, I: eval_query_direct(q[0], I), ("QUERY", "INSTANCE")),
    "eval_migration": (lambda q, I: eval_query_via_migration(q[0], I), ("QUERY", "INSTANCE")),
    "closure": (closure_auto, ("INSTANCE", "DEPTH")),
    "enrich": (enrich_edge, ("INSTANCE", "edge", "NODE", ".", "EDGE",
                             "using", "INSTANCE", "name", "ATTRIBUTE")),
}


@dataclass
class ShowStmt:
    name: str
    format: str = "ascii"
    line: int = field(default=0, compare=False)


@dataclass
class ExportStmt:
    name: str
    filename: str
    line: int = field(default=0, compare=False)


@dataclass
class Script:
    statements: tuple


def resolve_path(s: Schema, raw: Path) -> Path:
    """Attach the attribute terminal of a raw dotted path, validating steps."""
    if isinstance(raw, ConstPath):
        return raw
    if raw.source not in s.nodes:
        raise SchemaError(f"unknown node {raw.source!r} in path {raw}")
    _nodes, attr = _walk_path(s, raw.source, raw.steps, raw)
    return raw if attr is None else Path(raw.source, raw.steps[:-1], attr)


class Environment:
    def __init__(self):
        self.entries: dict[str, tuple[str, object]] = {}

    def define(self, name, kind, value, line):
        if name in self.entries:
            raise ScriptError(f"name {name!r} is already defined", line)
        self.entries[name] = (kind, value)

    def lookup(self, name, kind, line):
        if name not in self.entries:
            raise ScriptError(f"undefined name {name!r}", line)
        k, v = self.entries[name]
        if k != kind:
            raise ScriptError(f"{name!r} is a {k}, expected a {kind}", line)
        return v

    def __contains__(self, name):
        return name in self.entries


def _block_functions(inst: str, what: str, blocks) -> dict:
    """{(node, name): {row: value}} of an instance literal's edge or attribute
    blocks.  A block given twice, or a row listed twice in one block, would
    lose entries, so either raises a SchemaError."""
    out = {}
    for (node, name, pairs) in blocks:
        if (node, name) in out:
            raise SchemaError(f"instance {inst!r}: {what} {node}.{name} has two blocks")
        fn = out[(node, name)] = dict(pairs)
        if len(fn) < len(pairs):
            seen = set()
            for (row, _value) in pairs:
                if row in seen:
                    raise SchemaError(
                        f"instance {inst!r}: {what} {node}.{name} lists row {row!r} twice"
                    )
                seen.add(row)
    return out


def run_script(script: Script, env: Optional[Environment] = None):
    """Evaluate declarations in order.  Returns (environment, outputs) where
    outputs is a list of ('show'|'export', name-or-filename, text)."""
    from . import render, sqlbridge

    env = env or Environment()
    outputs = []
    for stmt in script.statements:
        try:
            if isinstance(stmt, SchemaDecl):
                base = make_schema(stmt.name, stmt.nodes, stmt.edges, stmt.attributes)
                eqs = [
                    PathEquation(resolve_path(base, l), resolve_path(base, r))
                    for (l, r) in stmt.equations
                ]
                s = make_schema(stmt.name, stmt.nodes, stmt.edges, stmt.attributes, eqs)
                env.define(stmt.name, "schema", s, stmt.line)
            elif isinstance(stmt, InstanceDecl):
                s = env.lookup(stmt.schema_name, "schema", stmt.line)
                rows = {}
                for (node, ids) in stmt.rows:
                    if node not in s.nodes:
                        raise SchemaError(f"unknown node {node!r} in instance {stmt.name!r}")
                    if node in rows:
                        raise SchemaError(f"instance {stmt.name!r}: node {node} has two blocks")
                    rows[node] = ids
                for (node, e, _pairs) in stmt.edges:
                    if (node, e) not in s.edge_table:
                        raise SchemaError(f"unknown edge {node}.{e} in instance {stmt.name!r}")
                for (node, a, _pairs) in stmt.attrs:
                    if (node, a) not in s.attr_table:
                        raise SchemaError(f"unknown attribute {node}.{a} in instance {stmt.name!r}")
                inst = Instance(
                    s,
                    rows,
                    _block_functions(stmt.name, "edge", stmt.edges),
                    _block_functions(stmt.name, "attribute", stmt.attrs),
                )
                validate_instance(inst)
                env.define(stmt.name, "instance", inst, stmt.line)
            elif isinstance(stmt, MappingDecl):
                src = env.lookup(stmt.source_name, "schema", stmt.line)
                tgt = env.lookup(stmt.target_name, "schema", stmt.line)
                F = Mapping(
                    source=src,
                    target=tgt,
                    nodes=dict(stmt.node_maps),
                    edges={
                        (node, e): resolve_path(tgt, p) for (node, e, p) in stmt.edge_maps
                    },
                    attrs={
                        (node, a): resolve_path(tgt, p) for (node, a, p) in stmt.attr_maps
                    },
                )
                validate_mapping(F)
                env.define(stmt.name, "mapping", F, stmt.line)
            elif isinstance(stmt, QueryDecl):
                s = env.lookup(stmt.schema_name, "schema", stmt.line)
                typecheck_query(stmt.query, s)
                env.define(stmt.name, "query", (stmt.query, s), stmt.line)
            elif isinstance(stmt, LetStmt):
                value = _eval_let(stmt, env)
                env.define(stmt.name, "instance", value, stmt.line)
            elif isinstance(stmt, ShowStmt):
                inst = env.lookup(stmt.name, "instance", stmt.line)
                outputs.append(("show", stmt.name, render.render_instance(inst, stmt.format)))
            elif isinstance(stmt, ExportStmt):
                inst = env.lookup(stmt.name, "instance", stmt.line)
                warnings: list[str] = []
                text = sqlbridge.export_sql(inst.schema, inst, warn=warnings.append)
                outputs.append(("export", stmt.filename, text))
                for w in warnings:
                    outputs.append(("warning", stmt.filename, w))
            else:
                raise ScriptError(f"unknown statement {stmt!r}", getattr(stmt, "line", 0))
        except ScriptError:
            raise
        except Exception as exc:  # annotate with source position
            raise ScriptError(str(exc), getattr(stmt, "line", 0)) from exc
    return env, outputs


def _eval_let(stmt: LetStmt, env: Environment):
    op, *args = stmt.expr
    if op not in LET_OPS:
        raise ScriptError(f"unknown operation {op!r}", stmt.line)
    fn, syntax = LET_OPS[op]
    fields = [want for want in syntax if want.isupper()]
    return fn(*(env.lookup(x, want.lower(), stmt.line) if want in DEFINED else x
                for want, x in zip(fields, args)))


# ---- pretty printing ----------------------------------------------------


_INDENT = "    "  # a query's items, under its select, from and where


def _query_lines(q: Query) -> list:
    """A query body's lines; a name in it that is a reserved word raises
    ScriptError.  A string constant may hold a line break, so the body is
    indented line by line from this list, not from its text."""
    selects = [f"{_printed(s.expr, 'path')} as {_printed(s.alias, 'alias')}" for s in q.selects]
    bindings = [f"{_printed(node, 'table')} as {_printed(var, 'variable')}" for var, node in q.bindings]
    for term in (t for g in q.where for c in g.alternatives for t in (c.lhs, c.rhs)):
        _printed(term, "term")
    lines = []
    for head, sep, texts in (("select", ",", selects), ("from", ",", bindings),
                             ("where", " and", [str(g) for g in q.where])):
        if texts or head != "where":
            lines += [head] + [f"{_INDENT}{t}{sep}" for t in texts[:-1]] + [f"{_INDENT}{t}" for t in texts[-1:]]
    return lines


def format_script(script: Script) -> str:
    return "\n".join(map(_format_statement, script.statements)) + "\n"


def _format_statement(stmt) -> str:
    if isinstance(stmt, SchemaDecl):
        return _write_body("schema", (stmt.name, stmt.nodes), SCHEMA_ITEMS,
                           (stmt.edges, stmt.attributes, stmt.equations), stmt.line)
    if isinstance(stmt, InstanceDecl):
        return _write_body("instance", (stmt.name, stmt.schema_name), INSTANCE_ITEMS,
                           (stmt.rows, stmt.edges, stmt.attrs), stmt.line)
    if isinstance(stmt, MappingDecl):
        return _write_body("mapping", (stmt.name, stmt.source_name, stmt.target_name), MAPPING_ITEMS,
                           (stmt.node_maps, stmt.edge_maps, stmt.attr_maps), stmt.line)
    if isinstance(stmt, QueryDecl):
        head = _write("query", STATEMENTS["query"], (stmt.name, stmt.schema_name), stmt.line)
        body = "\n".join("  " + ln for ln in _query_lines(stmt.query))
        return f"{head}\n{body}\n}}"
    if isinstance(stmt, LetStmt) and stmt.expr[0] in LET_OPS:
        op, *args = stmt.expr
        head = _write("let", STATEMENTS["let"], (stmt.name,), stmt.line)
        return f"{head} {_write(op, LET_OPS[op][1], args, stmt.line)};"
    if isinstance(stmt, ShowStmt):
        return _write("show", STATEMENTS["show"], (stmt.name, stmt.format), stmt.line)
    if isinstance(stmt, ExportStmt):
        return _write("export", STATEMENTS["export"], (stmt.name, stmt.filename), stmt.line)
    raise ScriptError(f"cannot format {stmt!r}")


def _write_body(keyword: str, head, items: dict, entries, line: int) -> str:
    """A declaration with items: its head, then a line for each item, for
    each head word of `items` in turn one per values in its list of
    `entries`, then '}'."""
    lines = [_write(keyword, STATEMENTS[keyword], head, line)]
    lines += [f"  {_write(word, items[word], values, line)}"
              for word, listed in zip(items, entries) for values in listed]
    return "\n".join(lines + ["}"])


def _write(head: str, syntax, values, line: int) -> str:
    """The text of a form: `head`, then each item of `syntax`, a field as
    the next of `values`.  Items are spaced, but for none before ';', none
    around '.' and a line break and an indent after a '{' that opens no
    block; an instance block's entries are written in turn on its line.  A
    default FORMAT is left out."""
    values = iter(values)
    text, glue = head, " " if head else ""
    for want in syntax:
        word = want
        if type(want) is tuple:  # a block's entries, each by its syntax
            glue = " "
            word = " ".join(_write("", want, x if type(x) is tuple else (x,), line) for x in next(values))
        elif want.isupper():
            x = next(values)
            if want == "FORMAT" and x == "ascii":
                continue
            if want == "NODES":
                word = ", ".join(_printed(node, "node", line) for node in x)
            elif want == "TYPE":
                word = x
            else:
                word = _printed(ConstPath(x) if want in ("FILE", "VALUE") else x, want.lower(), line)
        text += word if want in (".", ";") else glue + word
        glue = "" if want == "." else "\n  " if want == "{" else " "
    return text


def _printed(x, role: str, line=None) -> str:
    """The text of `x`, a name, a row id, a path or a literal of `role`.  A
    name in it that is a reserved word raises ScriptError, as the text would
    not parse, and so does a row id that is neither a name nor an integer
    in canonical form, as it would not read back as itself; a literal,
    which is quoted or a number, is not checked."""
    from .parsing import _TOKEN, KEYWORDS

    word = str(x)
    if isinstance(x, ConstPath):
        return word
    if role == "row":
        kind = (m := _TOKEN.fullmatch(word)) and m.lastgroup
        try:  # the row id that the word reads back as
            back = word if kind == "IDENT" else str(int(word)) if kind == "INT" else None
        except ValueError:  # an INT that int() refuses
            back = None
        if back != word:
            raise ScriptError(f"cannot print row {word!r}: it would not read back as that row id", line)
    for name in word.split("."):
        if name in KEYWORDS:
            raise ScriptError(f"cannot print {role} {name!r}: it is a reserved word", line)
    return word
