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


# The kinds of name a script defines; a let looks up an argument of each.
DEFINED = ("instance", "mapping", "query")

# let operation -> (function, syntax after the operation).  A syntax item is a
# kind of DEFINED name, looked up and passed; NAME or INT, passed as read; or a
# keyword or ".", which is only read.  A query is defined with its schema.
LET_OPS = {
    "delta": (delta, ("mapping", "instance")),
    "sigma": (sigma, ("mapping", "instance")),
    "pi": (pi, ("mapping", "instance")),
    "union": (union, ("instance", "instance")),
    "disjoint_union": (disjoint_union, ("instance", "instance")),
    "compose": (compose_relations, ("instance", "instance")),
    "relationalize": (relationalize, ("instance",)),
    "op": (op_relation, ("instance",)),
    "eval": (lambda q, I: eval_query_direct(q[0], I), ("query", "instance")),
    "eval_migration": (lambda q, I: eval_query_via_migration(q[0], I), ("query", "instance")),
    "closure": (closure_auto, ("instance", "INT")),
    "enrich": (enrich_edge, ("instance", "edge", "NAME", ".", "NAME",
                             "using", "instance", "name", "NAME")),
}


# what the NAME items of an operation's syntax name, in order
NAME_ROLES = {"enrich": ("node", "edge", "attribute")}


def _let_syntax(expr) -> list:
    """(item, argument) for each item of the syntax of expr's operation; the
    argument of a keyword or "." is None."""
    args = iter(expr[1:])
    return [(want, next(args) if want in (*DEFINED, "NAME", "INT") else None)
            for want in LET_OPS[expr[0]][1]]


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
    op = stmt.expr[0]
    if op not in LET_OPS:
        raise ScriptError(f"unknown operation {op!r}", stmt.line)
    return LET_OPS[op][0](*(env.lookup(x, want, stmt.line) if want in DEFINED else x
                            for want, x in _let_syntax(stmt.expr) if x is not None))


# ---- pretty printing ----------------------------------------------------


_INDENT = "    "  # a query's items, under its select, from and where


def format_query(q: Query) -> str:
    lines = ["select"]
    lines.append(",\n".join(f"{_INDENT}{item.expr} as {item.alias}" for item in q.selects))
    lines.append("from")
    lines.append(",\n".join(f"{_INDENT}{node} as {var}" for (var, node) in q.bindings))
    if q.where:
        lines.append("where")
        lines.append(" and\n".join(f"{_INDENT}{g}" for g in q.where))
    return "\n".join(lines)


def format_script(script: Script) -> str:
    out = []
    for stmt in script.statements:
        out.append(_format_statement(stmt))
    return "\n".join(out) + "\n"


def _format_statement(stmt) -> str:
    if isinstance(stmt, SchemaDecl):
        lines = [f"schema {stmt.name} {{"]
        lines.append("  nodes " + ", ".join(stmt.nodes) + ";")
        for (e, src, tgt) in stmt.edges:
            lines.append(f"  edge {e} : {src} -> {tgt};")
        for (a, src, ty) in stmt.attributes:
            lines.append(f"  attribute {a} : {src} -> {ty};")
        for (l, r) in stmt.equations:
            lines.append(f"  equation {l} = {r};")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(stmt, InstanceDecl):
        lines = [f"instance {stmt.name} : {stmt.schema_name} {{"]
        for (node, ids) in stmt.rows:
            lines.append(f"  node {node} {{ " + " ".join(f"{i};" for i in ids) + " }")
        for (node, e, pairs) in stmt.edges:
            body = " ".join(f"{a} -> {b};" for (a, b) in pairs)
            lines.append(f"  edge {node}.{e} {{ {body} }}")
        for (node, a, pairs) in stmt.attrs:
            body = " ".join(f"{r} = {ConstPath(v)};" for (r, v) in pairs)
            lines.append(f"  attribute {node}.{a} {{ {body} }}")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(stmt, MappingDecl):
        lines = [f"mapping {stmt.name} : {stmt.source_name} -> {stmt.target_name} {{"]
        for (a, b) in stmt.node_maps:
            lines.append(f"  node {a} -> {b};")
        for (node, e, p) in stmt.edge_maps:
            lines.append(f"  edge {node}.{e} -> {p};")
        for (node, a, p) in stmt.attr_maps:
            lines.append(f"  attribute {node}.{a} -> {p};")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(stmt, QueryDecl):
        body = format_query(stmt.query)
        indented = "\n".join("  " + ln for ln in body.splitlines())
        return f"query {stmt.name} : {stmt.schema_name} {{\n{indented}\n}}"
    if isinstance(stmt, LetStmt) and stmt.expr[0] in LET_OPS:
        from .parsing import KEYWORDS
        syntax = _let_syntax(stmt.expr)
        for role, x in zip(NAME_ROLES.get(stmt.expr[0], ()), [x for w, x in syntax if w == "NAME"]):
            if x in KEYWORDS:
                raise ScriptError(f"cannot print {role} {x!r}: it is a reserved word", stmt.line)
        words = " ".join(want if x is None else str(x) for want, x in syntax)
        return f"let {stmt.name} = {stmt.expr[0]} {words};".replace(" . ", ".")
    if isinstance(stmt, ShowStmt):
        fmt = "" if stmt.format == "ascii" else f" {stmt.format}"
        return f"show {stmt.name}{fmt};"
    if isinstance(stmt, ExportStmt):
        return f"export {stmt.name} {ConstPath(stmt.filename)};"
    raise ScriptError(f"cannot format {stmt!r}")
