"""Import/export for a restricted SQL dialect in categorical normal form.

Every table has one leading INT PRIMARY KEY id column; remaining columns are
attributes (INT, VARCHAR(n)) or foreign keys (REFERENCES, or declared in a
sidecar fk_spec, or optionally guessed from a *_id naming convention).

The text is scanned by `parsing.lex` with the table _SQL_RULES: whitespace and
`--` comments are skipped, a STRING is single- or double-quoted with the quote
doubled inside it, INT is an optional minus and decimal digits, and IDENT is
ASCII.  Table, column and REFERENCES names must be IDENT tokens, and a
VARCHAR length an INT token.  So export_sql refuses a schema with a node,
attribute or edge name that is not an IDENT: the text could not be read back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Schema, make_schema
from .errors import SqlExportError, SqlImportError
from .instances import Instance, LabelledNull, validate_instance
from .parsing import lex, rule_table


@dataclass
class SqlColumn:
    name: str
    sql_type: str  # "INT" or "VARCHAR(n)"
    role: str  # "id", "attribute", "fk"
    fk_target: str = ""


@dataclass
class SqlTableDef:
    name: str
    columns: list


_SQL_RULES = rule_table(
    SKIP=r"\s+|--[^\n]*",
    STRING=r"'(?:[^']|'')*'" r'|"(?:[^"]|"")*"',
    INT=r"-?\d+",
    IDENT=r"[A-Za-z_][A-Za-z0-9_]*",
    SYM=r"[(),;]",
)


class _SqlParser:
    def __init__(self, text):
        self.kinds, self.tokens = [], []
        for kind, t, offset in lex(_SQL_RULES, text):
            if kind is None:
                raise SqlImportError(f"unexpected SQL character {t!r} at offset {offset}")
            self.kinds.append(kind)
            self.tokens.append(t)
        self.kinds.append("SYM")
        self.tokens.append(";")  # tolerate missing final terminator
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, word):
        t = self.next()
        if t is None or t.upper() != word.upper():
            raise SqlImportError(f"expected {word!r}, got {t!r}")
        return t

    def expect_kind(self, kind, what):
        """The next token, which must be of `kind` (IDENT or INT)."""
        t = self.next()
        if self.kinds[self.pos - 1] != kind:
            raise SqlImportError(f"expected {what}, got {t!r}")
        return t

    def at_kw(self, word):
        t = self.peek()
        return t is not None and t.upper() == word.upper()

    def parse(self):
        tables = []
        inserts = []
        while self.peek() is not None:
            if self.peek() == ";":
                self.next()
                continue
            if self.at_kw("CREATE"):
                tables.append(self.parse_create())
            elif self.at_kw("INSERT"):
                inserts.append(self.parse_insert())
            else:
                raise SqlImportError(f"unsupported SQL construct starting at {self.peek()!r}")
        return tables, inserts

    def parse_create(self):
        self.expect("CREATE")
        self.expect("TABLE")
        name = self.expect_kind("IDENT", "table name")
        self.expect("(")
        columns = []
        while True:
            col_kind, col = self.kinds[self.pos], self.next()
            ty = self.next()
            if ty is None:
                raise SqlImportError("unterminated CREATE TABLE")
            if col_kind != "IDENT":
                raise SqlImportError(f"expected column name in table {name!r}, got {col!r}")
            tyu = ty.upper()
            if tyu == "INT":
                sql_type = "INT"
            elif tyu == "VARCHAR":
                self.expect("(")
                n = self.expect_kind("INT", "VARCHAR length")
                self.expect(")")
                sql_type = f"VARCHAR({n})"
            else:
                raise SqlImportError(f"unsupported column type {ty!r} in table {name!r}")
            role, fk_target = "attribute", ""
            while self.peek() not in (",", ")"):
                if self.at_kw("PRIMARY"):
                    self.next()
                    self.expect("KEY")
                    role = "id"
                elif self.at_kw("REFERENCES"):
                    self.next()
                    fk_target = self.expect_kind("IDENT", "table name after REFERENCES")
                    role = "fk"
                else:
                    raise SqlImportError(
                        f"unsupported column modifier {self.peek()!r} in table {name!r}"
                    )
            columns.append(SqlColumn(col, sql_type, role, fk_target))
            if self.next() == ")":
                break
        self.expect(";")
        return SqlTableDef(name, columns)

    def parse_insert(self):
        self.expect("INSERT")
        self.expect("INTO")
        name = self.next()
        self.expect("VALUES")
        tuples = []
        while True:
            self.expect("(")
            vals = []
            while True:
                vals.append(self._value(self.next()))
                sep = self.next()
                if sep == ")":
                    break
                if sep != ",":
                    raise SqlImportError(f"expected ',' or ')' in VALUES, got {sep!r}")
            tuples.append(vals)
            sep = self.next()
            if sep == ";":
                break
            if sep != ",":
                raise SqlImportError(f"expected ',' or ';' after tuple, got {sep!r}")
        return (name, tuples)

    @staticmethod
    def _value(tok):
        if tok is None:
            raise SqlImportError("unterminated VALUES")
        if tok.upper() == "NULL":
            return None
        if tok[0] in ("'", '"'):
            q = tok[0]
            return tok[1:-1].replace(q + q, q)
        try:
            return int(tok)
        except ValueError:
            raise SqlImportError(f"bad literal {tok!r} in VALUES")


def _check_fk_spec(fk_spec, by_name):
    """The sidecar must be {table: {column: table}} over tables and columns
    that the SQL creates."""
    if not isinstance(fk_spec, dict):
        raise SqlImportError("fk spec must be an object {table: {column: table}}")
    for tname, cols in fk_spec.items():
        if tname not in by_name:
            raise SqlImportError(f"fk spec names unknown table {tname!r}")
        if not isinstance(cols, dict):
            raise SqlImportError(
                f"fk spec for table {tname!r} must be an object {{column: table}}"
            )
        columns = {c.name: c for c in by_name[tname].columns}
        for cname, target in cols.items():
            c = columns.get(cname)
            if c is None:
                raise SqlImportError(
                    f"fk spec names unknown column {cname!r} of table {tname!r}"
                )
            if c.role == "id":
                raise SqlImportError(
                    f"fk spec names the primary key {cname!r} of table {tname!r}"
                )
            if not isinstance(target, str) or target not in by_name:
                raise SqlImportError(
                    f"fk spec: column {cname!r} of table {tname!r} references "
                    f"unknown table {target!r}"
                )
            if c.role == "fk" and c.fk_target != target:
                raise SqlImportError(
                    f"fk spec sends column {cname!r} of table {tname!r} to {target!r}, "
                    f"but it REFERENCES {c.fk_target!r}"
                )


def import_sql(text, fk_spec=None, guess_fk=False):
    """Parse the restricted dialect into (Schema, Instance)."""
    tables, inserts = _SqlParser(text).parse()
    by_name = {}
    for t in tables:
        if t.name in by_name:
            raise SqlImportError(f"table {t.name!r} created twice")
        by_name[t.name] = t
    fk_spec = {} if fk_spec is None else fk_spec
    _check_fk_spec(fk_spec, by_name)

    # resolve roles: REFERENCES, then sidecar, then (opt-in) naming convention
    for t in tables:
        ids = [c for c in t.columns if c.role == "id"]
        if len(ids) != 1 or t.columns[0].role != "id":
            raise SqlImportError(
                f"table {t.name!r} must have exactly one PRIMARY KEY id column, named first"
            )
        if t.columns[0].sql_type != "INT":
            raise SqlImportError(f"table {t.name!r}: id column must be INT")
        for c in t.columns[1:]:
            if c.role == "attribute" and c.name in fk_spec.get(t.name, {}):
                c.role, c.fk_target = "fk", fk_spec[t.name][c.name]
            elif c.role == "attribute" and guess_fk and c.name.lower().endswith("_id"):
                base = c.name[:-3].split("_")[-1].lower()
                if base in {n.lower() for n in by_name}:
                    c.role = "fk"
                    c.fk_target = next(n for n in by_name if n.lower() == base)
            if c.role == "fk":
                if c.fk_target not in by_name:
                    raise SqlImportError(
                        f"table {t.name!r}: foreign key {c.name!r} references "
                        f"unknown table {c.fk_target!r}"
                    )
                if c.sql_type != "INT":
                    raise SqlImportError(f"foreign key column {c.name!r} must be INT")

    nodes = [t.name for t in tables]
    edges = []
    attributes = []
    for t in tables:
        for c in t.columns[1:]:
            if c.role == "fk":
                edges.append((c.name, t.name, c.fk_target))
            else:
                ty = "integer" if c.sql_type == "INT" else "string"
                attributes.append((c.name, t.name, ty))
    schema = make_schema("sql_import", nodes, edges, attributes)

    rows = {t.name: [] for t in tables}
    cells = {}  # (table, row id) -> list of raw values
    for (name, tuples) in inserts:
        if name not in by_name:
            raise SqlImportError(f"INSERT into unknown table {name!r}")
        t = by_name[name]
        for vals in tuples:
            if len(vals) != len(t.columns):
                raise SqlImportError(
                    f"table {name!r}: INSERT arity {len(vals)} != {len(t.columns)} columns"
                )
            if not isinstance(vals[0], int):
                raise SqlImportError(f"table {name!r}: primary key must be an integer")
            rid = str(vals[0])
            if (name, rid) in cells:
                raise SqlImportError(f"table {name!r}: duplicate primary key {vals[0]}")
            rows[name].append(rid)
            cells[(name, rid)] = vals

    edge_fn = {}
    attr_fn = {}
    for t in tables:
        for idx, c in enumerate(t.columns[1:], start=1):
            if c.role == "fk":
                m = {}
                for rid in rows[t.name]:
                    v = cells[(t.name, rid)][idx]
                    if not isinstance(v, int):
                        raise SqlImportError(
                            f"table {t.name!r}: foreign key {c.name!r} needs integer ids"
                        )
                    if (c.fk_target, str(v)) not in cells:
                        raise SqlImportError(
                            f"table {t.name!r}: row {rid} references missing "
                            f"{c.fk_target!r} id {v}"
                        )
                    m[rid] = str(v)
                edge_fn[(t.name, c.name)] = m
            else:
                want = int if c.sql_type == "INT" else str
                m = {}
                for rid in rows[t.name]:
                    v = cells[(t.name, rid)][idx]
                    if v is None:
                        m[rid] = LabelledNull(f"null!{t.name}!{c.name}!{rid}")
                    elif not isinstance(v, want):
                        raise SqlImportError(
                            f"table {t.name!r}: column {c.name!r} row {rid}: "
                            f"type mismatch for {v!r}"
                        )
                    else:
                        m[rid] = v
                attr_fn[(t.name, c.name)] = m

    inst = Instance(schema, rows, edge_fn, attr_fn)
    validate_instance(inst)
    return schema, inst


def _sql_str(v: str) -> str:
    return "'" + v.replace("'", "''") + "'"


def _check_export_names(schema: Schema):
    """Every node, attribute and edge name must lex as one IDENT of _SQL_RULES,
    or import_sql could not read the exported text back."""
    named = [(f"node {n!r}", n) for n in sorted(schema.nodes)]
    named += [(f"attribute {a!r} of node {n!r}", a) for (a, n, _ty) in sorted(schema.attributes)]
    named += [(f"edge {e!r} of node {n!r}", e) for (e, n, _tgt) in sorted(schema.edges)]
    for what, name in named:
        m = _SQL_RULES.fullmatch(name)
        if m is None or m.lastgroup != "IDENT":
            raise SqlExportError(f"cannot export {what} as SQL: not an ASCII identifier")


def export_sql(schema: Schema, I: Instance, warn=None) -> str:
    """Deterministic CREATE/INSERT script; labelled nulls export as NULL.

    Raises SqlExportError on a node, attribute or edge name that is not a SQL
    identifier."""
    _check_export_names(schema)
    warn = warn or (lambda _msg: None)
    # integer ids are kept; otherwise rows are renumbered densely
    id_map = {}
    for node in sorted(schema.nodes):
        rws = I.node_rows(node)
        if all(r.isdigit() for r in rws) and len(set(int(r) for r in rws)) == len(rws):
            id_map[node] = {r: int(r) for r in rws}
        else:
            id_map[node] = {r: i + 1 for i, r in enumerate(rws)}
    lines = []
    for node in sorted(schema.nodes):
        cols = ["  id INT PRIMARY KEY"]
        for (name, ty) in schema.node_attrs[node]:
            cols.append(f"  {name} {'INT' if ty == 'integer' else 'VARCHAR(255)'}")
        for (name, tgt) in schema.out_edges[node]:
            cols.append(f"  {name} INT REFERENCES {tgt}")
        lines.append(f"CREATE TABLE {node} (\n" + ",\n".join(cols) + "\n);")
    for node in sorted(schema.nodes):
        rws = I.node_rows(node)
        if not rws:
            continue
        tuples = []
        for r in sorted(rws, key=lambda x: id_map[node][x]):
            vals = [str(id_map[node][r])]
            for (name, _ty) in schema.node_attrs[node]:
                v = I.attr(node, name)[r]
                if isinstance(v, LabelledNull):
                    warn(f"{node}.{name} row {r}: labelled null {v.label} exported as NULL")
                    vals.append("NULL")
                elif isinstance(v, str):
                    vals.append(_sql_str(v))
                else:
                    vals.append(str(v))
            for (name, tgt) in schema.out_edges[node]:
                vals.append(str(id_map[tgt][I.edge(node, name)[r]]))
            tuples.append("(" + ", ".join(vals) + ")")
        lines.append(f"INSERT INTO {node} VALUES\n" + ",\n".join(tuples) + ";")
    return "\n".join(lines) + "\n"
