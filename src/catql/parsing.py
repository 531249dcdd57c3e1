"""The .catql lexer, and the recursive-descent parsers for the
.catql script language and its embedded select/from/where query sub-language.

`lex` scans text by a rule table: one master regex with a named group per
token kind, tried in order.  Its table is CATQL_RULES.  sqlbridge scans SQL
itself, with one `findall` over the rules of its own table.  The grammar, its
lexical rules included, is documented bit-exactly in docs/grammar.ebnf.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

from .core import ConstPath, Path
from .errors import ParseError
from .queries import Clause, Group, Literal, PathExpr, Query, SelectItem
from . import scripts


def rule_table(**rules: str) -> re.Pattern:
    """Compile `kind=regex` rules, in priority order, into one master regex.
    Matches of the kind SKIP (whitespace, comments) are dropped by `lex`."""
    return re.compile("|".join(f"(?P<{kind}>{rx})" for kind, rx in rules.items()))


def lex(rules: re.Pattern, text: str):
    """Yield the (kind, lexeme, offset) tokens of `text` by a `rule_table`.

    The first character that no rule matches ends the scan: it is yielded as
    the token (None, character, offset).
    """
    pos = 0
    for m in rules.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        if kind != "SKIP":
            yield kind, m.group(), pos
        pos = m.end()
    if pos < len(text):
        yield None, text[pos], pos


CATQL_RULES = rule_table(
    SKIP=r"[ \t\r\n]+|#[^\n]*",
    STRING=r'"(?s:\\.|[^"\\])*"',
    INT=r"-?\d+",
    IDENT=r"[^\W\d]\w*",
    SYM=r"->|[{}(),;:.=]",
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

KEYWORDS = {
    "schema", "instance", "mapping", "query", "let", "show", "export",
    "nodes", "node", "edge", "attribute", "equation",
    "select", "from", "where", "as", "and", "or",
    "string", "integer",
}


@dataclass
class Token:
    kind: str  # IDENT, INT, STRING, SYM, EOF
    value: object
    line: int
    column: int


class Parser:
    def __init__(self, text: str):
        self.tokens = []
        line, line_start, last = 1, 0, 0
        for kind, value, offset in chain(lex(CATQL_RULES, text), [("EOF", None, len(text))]):
            newlines = text.count("\n", last, offset)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", last, offset) + 1
            last = offset
            column = offset - line_start + 1
            if kind is None and value == '"':
                raise ParseError("unterminated string literal", line, column)
            if kind is None:
                raise ParseError(f"unexpected character {value!r}", line, column)
            if kind == "STRING":
                value = value[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(r"\1", value)
            elif kind == "INT":
                try:
                    value = int(value)
                except ValueError:  # longer than the interpreter converts
                    raise ParseError(
                        f"integer literal of {len(value)} digits is too long", line, column
                    ) from None
            self.tokens.append(Token(kind, value, line, column))
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message):
        t = self.peek()
        raise ParseError(message + f", got {t.value!r}", t.line, t.column)

    def at_sym(self, sym):
        t = self.peek()
        return t.kind == "SYM" and t.value == sym

    def at_kw(self, word):
        t = self.peek()
        return t.kind == "IDENT" and t.value == word

    def expect_sym(self, sym) -> Token:
        if not self.at_sym(sym):
            self.error(f"expected {sym!r}")
        return self.next()

    def expect_kw(self, word) -> Token:
        if not self.at_kw(word):
            self.error(f"expected keyword {word!r}")
        return self.next()

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind != "IDENT":
            self.error("expected identifier")
        return self.next().value

    def expect_name(self) -> str:
        """An identifier that is not a reserved keyword."""
        t = self.peek()
        if t.kind != "IDENT" or t.value in KEYWORDS:
            self.error("expected name")
        return self.next().value

    # ---- shared pieces -------------------------------------------------

    def parse_literal_value(self):
        t = self.peek()
        if t.kind == "STRING":
            return self.next().value
        if t.kind == "INT":
            return self.next().value
        self.error("expected literal")

    def parse_path(self) -> Path:
        """Node [ '.' step ]* ; attribute terminals are resolved later."""
        source = self.expect_name()
        steps = []
        while self.at_sym("."):
            self.next()
            steps.append(self.expect_name())
        return Path(source, tuple(steps))

    def parse_path_or_const(self):
        t = self.peek()
        if t.kind in ("STRING", "INT"):
            return ConstPath(self.parse_literal_value())
        return self.parse_path()

    # ---- query sub-language --------------------------------------------

    def parse_query_body(self) -> Query:
        self.expect_kw("select")
        selects = [self.parse_select_item()]
        while self.at_sym(","):
            self.next()
            selects.append(self.parse_select_item())
        self.expect_kw("from")
        bindings = [self.parse_binding()]
        while self.at_sym(","):
            self.next()
            bindings.append(self.parse_binding())
        where = []
        if self.at_kw("where"):
            self.next()
            where.append(self.parse_group())
            while self.at_kw("and"):
                self.next()
                where.append(self.parse_group())
        return Query(tuple(bindings), tuple(where), tuple(selects))

    def parse_select_item(self) -> SelectItem:
        expr = self.parse_path_expr()
        self.expect_kw("as")
        return SelectItem(self.expect_name(), expr)

    def parse_binding(self):
        node = self.expect_name()
        self.expect_kw("as")
        return (self.expect_name(), node)

    def parse_group(self) -> Group:
        if self.at_sym("("):
            self.next()
            alts = [self.parse_clause()]
            while self.at_kw("or"):
                self.next()
                alts.append(self.parse_clause())
            self.expect_sym(")")
            return Group(tuple(alts))
        return Group((self.parse_clause(),))

    def parse_clause(self) -> Clause:
        lhs = self.parse_term()
        self.expect_sym("=")
        return Clause(lhs, self.parse_term())

    def parse_term(self):
        t = self.peek()
        if t.kind in ("STRING", "INT"):
            return Literal(self.parse_literal_value())
        return self.parse_path_expr()

    def parse_path_expr(self) -> PathExpr:
        var = self.expect_name()
        steps = []
        while self.at_sym("."):
            self.next()
            steps.append(self.expect_name())
        return PathExpr(var, tuple(steps))

    # ---- script declarations -------------------------------------------

    def parse_script(self) -> scripts.Script:
        stmts = []
        while self.peek().kind != "EOF":
            stmts.append(self.parse_statement())
        return scripts.Script(tuple(stmts))

    def parse_statement(self):
        t = self.peek()
        if t.kind != "IDENT":
            self.error("expected a declaration keyword")
        line = t.line
        if t.value == "schema":
            return self.parse_schema_decl(line)
        if t.value == "instance":
            return self.parse_instance_decl(line)
        if t.value == "mapping":
            return self.parse_mapping_decl(line)
        if t.value == "query":
            return self.parse_query_decl(line)
        if t.value == "let":
            return self.parse_let(line)
        if t.value == "show":
            self.next()
            name = self.expect_name()
            fmt = "ascii"
            if self.peek().kind == "IDENT" and not self.at_sym(";"):
                fmt = self.expect_ident()
            self.expect_sym(";")
            return scripts.ShowStmt(name, fmt, line)
        if t.value == "export":
            self.next()
            name = self.expect_name()
            tok = self.peek()
            if tok.kind != "STRING":
                self.error("expected file name string")
            fname = self.next().value
            self.expect_sym(";")
            return scripts.ExportStmt(name, fname, line)
        self.error("unknown declaration")

    def parse_schema_decl(self, line):
        self.expect_kw("schema")
        name = self.expect_name()
        self.expect_sym("{")
        nodes, edges, attributes, equations = [], [], [], []
        self.expect_kw("nodes")
        nodes.append(self.expect_name())
        while self.at_sym(","):
            self.next()
            nodes.append(self.expect_name())
        self.expect_sym(";")
        while not self.at_sym("}"):
            if self.at_kw("edge"):
                self.next()
                ename = self.expect_name()
                self.expect_sym(":")
                src = self.expect_name()
                self.expect_sym("->")
                tgt = self.expect_name()
                self.expect_sym(";")
                edges.append((ename, src, tgt))
            elif self.at_kw("attribute"):
                self.next()
                aname = self.expect_name()
                self.expect_sym(":")
                src = self.expect_name()
                self.expect_sym("->")
                ty = self.peek()
                if ty.kind == "IDENT" and ty.value in ("string", "integer"):
                    self.next()
                else:
                    self.error("expected base type 'string' or 'integer'")
                self.expect_sym(";")
                attributes.append((aname, src, ty.value))
            elif self.at_kw("equation"):
                self.next()
                lhs = self.parse_path()
                self.expect_sym("=")
                rhs = self.parse_path_or_const()
                self.expect_sym(";")
                equations.append((lhs, rhs))
            else:
                self.error("expected edge/attribute/equation")
        self.next()
        return scripts.SchemaDecl(name, nodes, edges, attributes, equations, line)

    def parse_instance_decl(self, line):
        self.expect_kw("instance")
        name = self.expect_name()
        self.expect_sym(":")
        schema_name = self.expect_name()
        self.expect_sym("{")
        rows, edges, attrs = [], [], []
        while not self.at_sym("}"):
            if self.at_kw("node"):
                self.next()
                node = self.expect_name()
                self.expect_sym("{")
                ids = []
                while not self.at_sym("}"):
                    ids.append(self.parse_row_id())
                    self.expect_sym(";")
                self.next()
                rows.append((node, ids))
            elif self.at_kw("edge"):
                self.next()
                node = self.expect_name()
                self.expect_sym(".")
                ename = self.expect_name()
                self.expect_sym("{")
                pairs = []
                while not self.at_sym("}"):
                    a = self.parse_row_id()
                    self.expect_sym("->")
                    b = self.parse_row_id()
                    self.expect_sym(";")
                    pairs.append((a, b))
                self.next()
                edges.append((node, ename, pairs))
            elif self.at_kw("attribute"):
                self.next()
                node = self.expect_name()
                self.expect_sym(".")
                aname = self.expect_name()
                self.expect_sym("{")
                pairs = []
                while not self.at_sym("}"):
                    a = self.parse_row_id()
                    self.expect_sym("=")
                    v = self.parse_literal_value()
                    self.expect_sym(";")
                    pairs.append((a, v))
                self.next()
                attrs.append((node, aname, pairs))
            else:
                self.error("expected node/edge/attribute block")
        self.next()
        return scripts.InstanceDecl(name, schema_name, rows, edges, attrs, line)

    def parse_row_id(self) -> str:
        t = self.peek()
        if t.kind == "INT":
            return str(self.next().value)
        return self.expect_name()

    def parse_mapping_decl(self, line):
        self.expect_kw("mapping")
        name = self.expect_name()
        self.expect_sym(":")
        src = self.expect_name()
        self.expect_sym("->")
        tgt = self.expect_name()
        self.expect_sym("{")
        node_maps, edge_maps, attr_maps = [], [], []
        while not self.at_sym("}"):
            if self.at_kw("node"):
                self.next()
                a = self.expect_name()
                self.expect_sym("->")
                b = self.expect_name()
                self.expect_sym(";")
                node_maps.append((a, b))
            elif self.at_kw("edge"):
                self.next()
                node = self.expect_name()
                self.expect_sym(".")
                ename = self.expect_name()
                self.expect_sym("->")
                p = self.parse_path()
                self.expect_sym(";")
                edge_maps.append((node, ename, p))
            elif self.at_kw("attribute"):
                self.next()
                node = self.expect_name()
                self.expect_sym(".")
                aname = self.expect_name()
                self.expect_sym("->")
                p = self.parse_path_or_const()
                self.expect_sym(";")
                attr_maps.append((node, aname, p))
            else:
                self.error("expected node/edge/attribute mapping")
        self.next()
        return scripts.MappingDecl(name, src, tgt, node_maps, edge_maps, attr_maps, line)

    def parse_query_decl(self, line):
        self.expect_kw("query")
        name = self.expect_name()
        self.expect_sym(":")
        schema_name = self.expect_name()
        self.expect_sym("{")
        q = self.parse_query_body()
        self.expect_sym("}")
        return scripts.QueryDecl(name, schema_name, q, line)

    def parse_let(self, line):
        self.expect_kw("let")
        name = self.expect_name()
        self.expect_sym("=")
        op = self.expect_ident()
        if op in ("delta", "sigma", "pi", "union", "disjoint_union", "compose"):
            a = self.expect_name()
            b = self.expect_name()
            expr = (op, a, b)
        elif op in ("relationalize", "op"):
            expr = (op, self.expect_name())
        elif op in ("eval", "eval_migration"):
            a = self.expect_name()
            b = self.expect_name()
            expr = (op, a, b)
        elif op == "closure":
            a = self.expect_name()
            t = self.peek()
            if t.kind != "INT":
                self.error("expected closure depth")
            expr = (op, a, self.next().value)
        elif op == "enrich":
            inst = self.expect_name()
            self.expect_kw("edge")
            node = self.expect_name()
            self.expect_sym(".")
            ename = self.expect_name()
            self.expect_kw("using")
            rel = self.expect_name()
            self.expect_kw("name")
            attr = self.expect_name()
            expr = (op, inst, node, ename, rel, attr)
        else:
            self.error("unknown let operation")
        self.expect_sym(";")
        return scripts.LetStmt(name, expr, line)


def parse_script(text: str) -> scripts.Script:
    return Parser(text).parse_script()


def parse_query(text: str) -> Query:
    p = Parser(text)
    q = p.parse_query_body()
    if p.peek().kind != "EOF":
        p.error("trailing input after query")
    return q
