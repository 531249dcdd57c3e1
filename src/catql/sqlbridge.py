"""Import/export for a restricted SQL dialect in categorical normal form.

Every table has one leading INT PRIMARY KEY id column; remaining columns are
attributes (INT, VARCHAR(n)) or foreign keys (REFERENCES, or declared in a
sidecar fk_spec, or optionally guessed from a *_id naming convention).

The text is lexed one token at a time, by a match of _SQL_SCAN at an offset,
which `parsing.scan_pattern` builds from the rules of _SQL_RULES, as it
builds the .catql scan: whitespace and `--` comments are skipped, a STRING is
single- or double-quoted with the quote doubled inside it, INT is an optional
minus and decimal digits, and IDENT is ASCII.  The first character that no
rule matches starts one last lexeme, the rest of the text, which is an error
at its offset.  If parsing fails first, the whole text is scanned, so that
such a character is the error wherever it is.
Table, column and REFERENCES names must be IDENT tokens, and a VARCHAR length
an INT token of at least 1.  So export_sql refuses a schema with a node,
attribute or edge name that is not an IDENT: the text could not be read back.

An INSERT block into a table created before it is read up to its first `;`
outside quotes and comments by one `findall` of a pattern of k-tuples of
literals, and each column is read in one step.  Any other block (a comment
inside a tuple, a fault, tuples of another arity, no CREATE TABLE yet) is
walked, one findall per tuple up to its `)`, and token by token for a tuple
that this does not read whole, which raises at its first fault; so are the
blocks of a table of 64 or more columns until 64 of its rows would have been
walked: the pattern costs about that much to compile.  Tables are built, and
export_sql writes INSERTs, column by column; a check that fails is walked in order.
An id's string is made once per import, and every table's row and every
foreign key with that id shares it; export_sql writes each node's ids once,
and a foreign-key column by looking them up.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from types import NoneType

from .core import Schema, _table, make_schema
from .errors import SqlExportError, SqlImportError
from .instances import Instance, LabelledNull, validate_instance
from .parsing import rule_table, scan_pattern


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


_SQL_RULES = dict(
    STRING=r"'[^']*(?:''[^']*)*'" r'|"[^"]*(?:""[^"]*)*"',
    INT=r"-?\d+",
    IDENT=r"[A-Za-z_][A-Za-z0-9_]*",
    SYM=r"[(),;]",
)
_SQL_TOKEN = rule_table(**_SQL_RULES)
# Whitespace and comments are skipped.  A comment must run to the end of its
# line, so no token is matched inside one.
_SQL_SCAN = scan_pattern(r"(?:\s+|--[^\n]*(?![^\n]))*", _SQL_RULES)
# Up to the first `;` outside quotes and `--` comments.  Each piece between
# two runs of plain text starts with its own character, and a comment runs
# to the end of its line, so the text splits one way only.
_SQL_BLOCK_END = re.compile(
    r"""[^;'"-]*(?:(?:'[^']*'|"[^"]*"|--[^\n]*(?![^\n])|-(?!-))[^;'"-]*)*;""")
# One literal, as a group, with the blanks around it.
_VALUE = rf"\s*({_SQL_RULES['STRING']}|{_SQL_RULES['INT']}|(?i:NULL)(?![A-Za-z0-9_]))\s*"
# Between a tuple's `(` and `)`: each literal and a `,` before the next, or the
# end; other text is `(?s:.+)`, its group empty.
_TUPLE_VALUES = re.compile(rf"{_VALUE}(?:,(?!\s*\Z)|\Z)|(?s:.+)")


def _tuple_pattern(k):
    """One k-tuple of literals, a group each, then the `,` or the final `;`
    after it, with any comments before them, as the last group; other text is
    `(?s:.+)`, groups empty.  Comments parse one way: the scan's splits blank
    runs many ways, and would backtrack exponentially.  After a tuple they are
    a branch, not a skip, which cost 9% on blocks without comments."""
    comment = r"--[^\n]*(?![^\n])\s*"
    return re.compile(rf"\s*(?:{comment})*\({','.join([_VALUE] * k)}\)\s*(,|;\Z|(?:{comment})+(?:,|;\Z))|(?s:.+)")


def _literal(tok):
    """The value of one VALUES lexeme."""
    if tok is None:
        raise SqlImportError("unterminated VALUES")
    c = tok[0]
    if c == "'" or c == '"':
        return tok[1:-1].replace(c + c, c)
    if c == "-" or c.isdecimal():  # an INT token
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            pass
    elif tok.upper() == "NULL":
        return None
    raise SqlImportError(f"bad literal {tok!r} in VALUES")


def _column(lexemes):
    """One column of VALUES lexemes, in one step if all INT or all alike quoted."""
    q = lexemes[0][0]
    if (q == "'" or q == '"') and all(map(str.startswith, lexemes, repeat(q))):
        return [t[1:-1].replace(q + q, q) for t in lexemes]
    try:
        return list(map(int, lexemes))
    except ValueError:  # a lexeme that is not an INT
        return list(map(_literal, lexemes))


class _SqlParser:
    def __init__(self, text):
        self.text = text + "\n;"  # tolerate missing final terminator
        self.arity = {}  # the column count of each table created so far
        self.walked = Counter()  # per wide column count, the rows walked to spare a compile
        self._lex(0)

    @_table
    def tokens(self):
        """Every token of the text; raises at the first unexpected character."""
        tokens = _SQL_SCAN.findall(self.text)
        tokens.pop()  # the empty lexeme matched at the end of the text
        if _SQL_TOKEN.fullmatch(tokens[-1]) is None:
            self._lex(len(self.text) - len(tokens[-1]))  # raises there
        return tokens

    def _lex(self, at):
        """Make the token after offset `at` current, or None at the end."""
        m = _SQL_SCAN.match(self.text, at)
        self.start, self.end, self.tok = at, m.end(), m[1] or None
        if self.end == len(self.text) and self.tok and not _SQL_TOKEN.fullmatch(self.tok):
            raise SqlImportError(
                f"unexpected SQL character {self.tok[0]!r} at offset {m.start(1)}"
            )

    def next(self):
        t = self.tok
        self._lex(self.end)
        return t

    def expect(self, word):
        t = self.next()
        if t is None or t.upper() != word.upper():
            raise SqlImportError(f"expected {word!r}, got {t!r}")
        return t

    def expect_kind(self, kind, what):
        """The next token, which must be of `kind` (IDENT or INT)."""
        t = self.next()
        if t is None or _SQL_TOKEN.fullmatch(t).lastgroup != kind:
            raise SqlImportError(f"expected {what}, got {t!r}")
        return t

    def at_kw(self, word):
        return self.tok is not None and self.tok.upper() == word.upper()

    def parse(self):
        """(tables, inserts).  An unexpected character anywhere in the text
        is the error, whatever fault comes before it."""
        tables = []
        inserts = []
        try:
            while self.tok is not None:
                if self.tok == ";":
                    self.next()
                    continue
                if self.at_kw("CREATE"):
                    tables.append(self.parse_create())
                elif self.at_kw("INSERT"):
                    inserts.append(self.parse_insert())
                else:
                    raise SqlImportError(
                        f"unsupported SQL construct starting at {self.tok!r}"
                    )
        except SqlImportError:
            self.tokens  # scans the whole text, to raise at an unexpected character
            raise
        return tables, inserts

    def parse_create(self):
        self.expect("CREATE")
        self.expect("TABLE")
        name = self.expect_kind("IDENT", "table name")
        self.expect("(")
        columns = []
        while True:
            col = self.next()
            ty = self.next()
            if ty is None:
                raise SqlImportError("unterminated CREATE TABLE")
            if _SQL_TOKEN.fullmatch(col).lastgroup != "IDENT":
                raise SqlImportError(f"expected column name in table {name!r}, got {col!r}")
            tyu = ty.upper()
            if tyu == "INT":
                sql_type = "INT"
            elif tyu == "VARCHAR":
                self.expect("(")
                n = self.expect_kind("INT", "VARCHAR length")
                self.expect(")")
                # below 1, read digit by digit: int() refuses more than 4300 digits
                if n[0] == "-" or not any(map(int, n)):
                    raise SqlImportError(
                        f"table {name!r}: column {col!r} has VARCHAR length {n}, below 1"
                    )
                sql_type = f"VARCHAR({n})"
            else:
                raise SqlImportError(f"unsupported column type {ty!r} in table {name!r}")
            role, fk_target = "attribute", ""
            while self.tok not in (",", ")"):
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
                        f"unsupported column modifier {self.tok!r} in table {name!r}"
                    )
            columns.append(SqlColumn(col, sql_type, role, fk_target))
            if self.next() == ")":
                break
        self.expect(";")
        self.arity[name] = len(columns)
        return SqlTableDef(name, columns)

    def parse_insert(self):
        """(name, columns, rows) of one INSERT: its block as columns if its
        tuples are of one arity, and else as rows."""
        self.expect("INSERT")
        self.expect("INTO")
        name = self.expect_kind("IDENT", "table name")
        self.expect("VALUES")
        end = name in self.arity and _SQL_BLOCK_END.match(self.text, self.start)
        k = self.arity.get(name, 0)
        if end and k >= 64:
            # A k-tuple pattern compiles in about the time that a walk over 64
            # rows of k values takes, so blocks of a wide table are walked
            # while its walked rows stay under 64, and only then compiled.  A
            # narrower pattern is cheap, and re's cache keeps it.  Every row
            # has a `(`, so the count bounds the block's rows from above.
            rows = self.text.count("(", self.start, end.end())
            if self.walked[k] + rows < 64:
                self.walked[k] += rows
                end = None
        if end:
            pattern = _tuple_pattern(k)  # compiled once, by re's cache
            *cols, seps = zip(*pattern.findall(self.text, self.start, end.end()))
            try:  # a tuple that does not fit, or a bad literal, is walked below
                cols = list(map(_column, cols)) if seps[-1] else None
            except SqlImportError:
                cols = None
            if cols:
                self._lex(end.end())
                return name, cols, None
        rows = []
        while True:
            self.expect("(")
            rows.append(self._walked_tuple())
            sep = self.next()
            if sep == ";":
                break
            if sep != ",":
                raise SqlImportError(f"expected ',' or ';' after tuple, got {sep!r}")
        if len(set(map(len, rows))) > 1:
            return name, [], rows
        return name, list(map(list, zip(*rows))), None

    def _walked_tuple(self):
        """The values of the tuple whose `(` was just read, by one findall up to
        the first `)`, or token by token where that does not read them whole
        (a comment, a `)` in a string, a fault); the token after `)` is current."""
        close = self.text.find(")", self.start)
        lexemes = _TUPLE_VALUES.findall(self.text, self.start, close) if close >= 0 else ()
        if not lexemes or "" in lexemes:
            return self._tuple_by_tokens()
        vals = _column(lexemes)  # raises as the token walk would
        self._lex(close + 1)
        return vals

    def _tuple_by_tokens(self):
        vals = []
        while True:
            vals.append(_literal(self.next()))
            sep = self.next()
            if sep == ")":
                return vals
            if sep != ",":
                raise SqlImportError(f"expected ',' or ')' in VALUES, got {sep!r}")


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
        names = set()
        for c in t.columns:
            if c.name in names:
                raise SqlImportError(f"table {t.name!r}: column {c.name!r} declared twice")
            names.add(c.name)
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

    # One check per INSERT; if it fails, the rows are walked for the first fault.
    values = {t.name: [[] for _ in t.columns] for t in tables}  # by column
    keys = {t.name: set() for t in tables}  # each table's integer row ids
    for (name, cols, ragged) in inserts:
        if name not in by_name:
            raise SqlImportError(f"INSERT into unknown table {name!r}")
        arity = len(by_name[name].columns)
        seen = keys[name]
        new = set(cols[0]) if cols else set()
        if (len(cols) != arity or set(map(type, new)) != {int}
                or len(new) != len(cols[0]) or not seen.isdisjoint(new)):
            for vals in ragged or zip(*cols):
                if len(vals) != arity:
                    raise SqlImportError(
                        f"table {name!r}: INSERT arity {len(vals)} != {arity} columns"
                    )
                if not isinstance(vals[0], int):
                    raise SqlImportError(f"table {name!r}: primary key must be an integer")
                if vals[0] in seen:
                    raise SqlImportError(f"table {name!r}: duplicate primary key {vals[0]}")
                seen.add(vals[0])
        seen |= new
        for acc, col in zip(values[name], cols):
            acc += col

    # Each table is built column by column, after a type check of the whole
    # column; a failed check re-walks the column to raise its first row's error.
    # one string per integer id, shared by every row and foreign key with it
    minted = {i: str(i) for i in set().union(*keys.values())}
    rows, edge_fn, attr_fn = {}, {}, {}
    for t in tables:
        columns = values[t.name]
        rids = rows[t.name] = list(map(minted.__getitem__, columns[0]))
        for c, col in zip(t.columns[1:], columns[1:]):
            types = set(map(type, col))
            if c.role == "fk":
                targets = keys[c.fk_target]
                if types - {int} or not targets.issuperset(col):
                    for rid, v in zip(rids, col):
                        if not isinstance(v, int):
                            raise SqlImportError(
                                f"table {t.name!r}: foreign key {c.name!r} needs integer ids"
                            )
                        if v not in targets:
                            raise SqlImportError(
                                f"table {t.name!r}: row {rid} references missing "
                                f"{c.fk_target!r} id {v}"
                            )
                edge_fn[(t.name, c.name)] = dict(zip(rids, map(minted.__getitem__, col)))
                continue
            want = int if c.sql_type == "INT" else str
            if types - {want, NoneType}:
                for rid, v in zip(rids, col):
                    if v is not None and not isinstance(v, want):
                        raise SqlImportError(
                            f"table {t.name!r}: column {c.name!r} row {rid}: "
                            f"type mismatch for {v!r}"
                        )
            m = attr_fn[(t.name, c.name)] = dict(zip(rids, col))
            if NoneType in types:
                for rid, v in zip(rids, col):
                    if v is None:
                        m[rid] = LabelledNull(f"null!{t.name}!{c.name}!{rid}")

    inst = Instance(schema, rows, edge_fn, attr_fn)
    validate_instance(inst)
    return schema, inst


def _sql_str(v: str) -> str:
    return "'" + v.replace("'", "''") + "'"


def _check_export_names(schema: Schema):
    """Every node, attribute and edge name must lex as one IDENT of _SQL_RULES,
    and no attribute or edge may be named id, the key column of its node's
    table, or import_sql could not read the exported text back."""
    columns = [(f"attribute {a!r} of node {n!r}", a) for (a, n, _ty) in sorted(schema.attributes)]
    columns += [(f"edge {e!r} of node {n!r}", e) for (e, n, _tgt) in sorted(schema.edges)]
    for what, name in [(f"node {n!r}", n) for n in sorted(schema.nodes)] + columns:
        m = _SQL_TOKEN.fullmatch(name)
        if m is None or m.lastgroup != "IDENT":
            raise SqlExportError(f"cannot export {what} as SQL: not an ASCII identifier")
    for what, name in columns:
        if name == "id":
            raise SqlExportError(f"cannot export {what} as SQL: id is its table's key column")


def export_sql(schema: Schema, I: Instance, warn=None) -> str:
    """Deterministic CREATE/INSERT script; labelled nulls export as NULL.

    Raises SqlExportError on a node, attribute or edge name that is not a SQL
    identifier."""
    _check_export_names(schema)
    warn = warn or (lambda _msg: None)
    # integer ids, negative ones included, are kept when no two are equal as
    # integers; otherwise rows are renumbered densely.  Each node's ids are
    # written once: row -> SQL id, in id order.
    sql_ids = {}
    for node in sorted(schema.nodes):
        rws = I.node_rows(node)
        digits = map(str.removeprefix, rws, repeat("-"))
        if all(map(str.isdecimal, digits)) and len(set(map(int, rws))) == len(rws):
            ids = sorted(zip(map(int, rws), rws))
        else:
            ids = enumerate(rws, 1)
        sql_ids[node] = {r: str(i) for i, r in ids}
    lines = []
    for node in sorted(schema.nodes):
        cols = ["  id INT PRIMARY KEY"]
        for (name, ty) in schema.node_attrs[node]:
            cols.append(f"  {name} {'INT' if ty == 'integer' else 'VARCHAR(255)'}")
        for (name, tgt) in schema.out_edges[node]:
            cols.append(f"  {name} INT REFERENCES {tgt}")
        lines.append(f"CREATE TABLE {node} (\n" + ",\n".join(cols) + "\n);")
    for node in sorted(schema.nodes):
        order = list(sql_ids[node])
        if not order:
            continue
        # one list of SQL values per column; only a column that holds a
        # labelled null is written value by value
        cols = [list(sql_ids[node].values())]
        nulls = []  # (row position, warning), sent in row order
        for (name, _ty) in schema.node_attrs[node]:
            col = list(map(I.attr(node, name).__getitem__, order))
            kinds = set(map(type, col))
            if kinds == {str} or kinds == {int}:
                cols.append(list(map(_sql_str if str in kinds else str, col)))
                continue
            nulls += [(i, f"{node}.{name} row {r}: labelled null {v.label} exported as NULL")
                      for i, (r, v) in enumerate(zip(order, col)) if isinstance(v, LabelledNull)]
            cols.append(["NULL" if isinstance(v, LabelledNull) else
                         _sql_str(v) if isinstance(v, str) else str(v) for v in col])
        for (_i, msg) in sorted(nulls, key=lambda null: null[0]):
            warn(msg)
        for (name, tgt) in schema.out_edges[node]:
            cols.append(list(map(sql_ids[tgt].__getitem__,
                                 map(I.edge(node, name).__getitem__, order))))
        rows = "),\n(".join(map(", ".join, zip(*cols)))
        lines.append(f"INSERT INTO {node} VALUES\n({rows});")
    return "\n".join(lines) + "\n"
