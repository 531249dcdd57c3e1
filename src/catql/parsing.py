"""The .catql scanner, and the recursive-descent parsers for the .catql
script language and its embedded select/from/where query sub-language.

`scan_pattern` builds, from a rule table, the pattern by which both .catql
and SQL (in sqlbridge) are scanned with one C-level regex call: skipped text,
then one lexeme, to the end of the text.  The .catql scan also captures the
skipped text, so `re.split` gives it and the lexemes in turn.  The parser
works on the plain lexeme strings: a STRING lexeme keeps its quotes, so it
never equals a symbol or a keyword.  A token's kind and value are worked out
only where the grammar reads a literal or an error is raised, and a line and
column only for an error or a statement's `line`.  Every form but a query
body (each statement, and each schema, instance and mapping item and let
operation) is read by its syntax in the tables of `scripts`, and the entries
of an instance block are checked in one step.  The grammar, its lexical rules
included, is documented bit-exactly in docs/grammar.ebnf.
"""

from __future__ import annotations

import re
import sys

from .core import ConstPath, Path
from .errors import ParseError
from .queries import Clause, Group, Query, SelectItem
from . import scripts


def rule_table(**rules: str) -> re.Pattern:
    """Compile `kind=regex` rules, in priority order, into one master regex:
    the `lastgroup` of its fullmatch of a lexeme is the lexeme's kind."""
    return re.compile("|".join(f"(?P<{kind}>{rx})" for kind, rx in rules.items()))


def scan_pattern(skip: str, rules: dict) -> re.Pattern:
    """The regex `skip` (the text skipped before a lexeme), then one lexeme as
    the last group: a token of `rules`, the empty string at the end of the
    text, or the rest of the text from the first character that no rule
    matches."""
    return re.compile(skip + "(" + "|".join(rules.values()) + r"|\Z|(?s:.+))")


_RULES = dict(
    STRING=r'"[^"\\]*(?:\\(?s:.)[^"\\]*)*"',
    INT=r"-?\d+",
    IDENT=r"[^\W\d]\w*",
    SYM=r"->|[{}(),;:.=]",
)
_TOKEN = rule_table(**_RULES)
# A lexeme that this matches whole is an IDENT, as STRING and INT match no such text.
_IDENT = re.compile(_RULES["IDENT"])
# Whitespace and '#' comments, captured as the first group.  STRING and this
# skip are unrolled: each run of plain characters is one step, never one
# alternation per character.
_SCAN = scan_pattern(r"([ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*)", _RULES)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _column(*kinds: str) -> re.Pattern:
    """A regex for a block column's lexemes joined by spaces, each a token of
    one of `kinds`.  No lexeme of these kinds holds a space but a STRING, and
    a STRING ends at its first unescaped quote, so the match is exact."""
    rx = "|".join(_RULES[k] for k in kinds)
    return re.compile(rf"(?:(?:{rx})(?: (?:{rx}))*)?")


_NAMES, _ROW_IDS = _column("IDENT"), _column("IDENT", "INT")
_STRINGS, _LITERALS = _column("STRING"), _column("STRING", "INT")
# int() converts every literal of at most this many digits, whatever its limit.
_INT_SAFE = sys.int_info.str_digits_check_threshold

KEYWORDS = {
    "schema", "instance", "mapping", "query", "let", "show", "export",
    "nodes", "node", "edge", "attribute", "equation",
    "select", "from", "where", "as", "and", "or",
    "string", "integer",
}


def _kind(lexeme: str) -> str:
    """IDENT, INT, STRING or SYM; EOF for the empty lexeme at the end."""
    return _TOKEN.fullmatch(lexeme).lastgroup if lexeme else "EOF"


def _unquote(lexeme: str) -> str:
    s = lexeme[1:-1]
    return _ESCAPE.sub(r"\1", s) if "\\" in s else s


def _row_ids(col):
    """The row ids of a column of lexemes, or None if one is not a NAME or an
    INT.  An INT row id is the string of its value, so 01 is row "1"."""
    if not KEYWORDS.isdisjoint(col):
        return None
    joined = " ".join(col)
    if _NAMES.fullmatch(joined):
        return col
    if _ROW_IDS.fullmatch(joined):
        return [str(int(x)) if _kind(x) == "INT" else x for x in col]
    return None


def _literals(col):
    """The values of a column of lexemes, or None if one is not a literal."""
    joined = " ".join(col)
    if _STRINGS.fullmatch(joined):
        return [x[1:-1] for x in col] if "\\" not in joined else list(map(_unquote, col))
    if _LITERALS.fullmatch(joined):
        return [_unquote(x) if x[0] == '"' else int(x) for x in col]
    return None


# the column check of each field of an instance block's entries
_COLUMNS = {"ROW": _row_ids, "VALUE": _literals}


class Parser:
    def __init__(self, text: str):
        parts = _SCAN.split(text)
        self.text, self.skips, self.lexemes = text, parts[1::3], parts[2::3]
        # The last lexeme is the empty EOF; text that ends in skipped text
        # gives a second one, which is dropped.
        if len(self.lexemes) > 1 and not self.lexemes[-2]:
            del self.skips[-1], self.lexemes[-1]
        self.pos = 0
        self._mark = (0, 0, 1)  # a lexeme, and the offset and line of its skipped text
        # The first character that no rule matches starts the last lexeme.
        lexemes = self.lexemes
        if len(lexemes) > 1 and _TOKEN.fullmatch(lexemes[-2]) is None:
            c = lexemes[-2][0]
            message = "unterminated string literal" if c == '"' else f"unexpected character {c!r}"
            self.raise_at(len(lexemes) - 2, message)

    # ---- tokens on demand ------------------------------------------------

    def position(self, i: int):
        """(line, column) of lexeme i, counted on from the lexeme last asked
        for unless i is before it."""
        j, offset, line = self._mark if i >= self._mark[0] else (0, 0, 1)
        skip = offset + sum(map(len, self.skips[j:i])) + sum(map(len, self.lexemes[j:i]))
        line += self.text.count("\n", offset, skip)
        self._mark = (i, skip, line)
        offset = skip + len(self.skips[i])
        return line + self.skips[i].count("\n"), offset - self.text.rfind("\n", 0, offset)

    def value(self, i: int):
        """The value of lexeme i: an int for an INT, the unescaped text of a
        STRING, None at the end of the text, else the lexeme."""
        x = self.lexemes[i]
        kind = _kind(x)
        if kind == "STRING":
            return _unquote(x)
        if kind == "INT":
            try:
                return int(x)
            except ValueError:  # longer than the interpreter converts
                self.raise_at(i, f"integer literal of {len(x)} digits is too long")
        return x or None

    def token(self, i: int):
        """(kind, value, line, column) of lexeme i."""
        return (_kind(self.lexemes[i]), self.value(i), *self.position(i))

    def raise_at(self, i: int, message: str):
        """Raise a ParseError at lexeme i; but at the first INT lexeme that
        int() refuses if there is one, as a scan that converted every INT
        would."""
        for j, x in enumerate(self.lexemes):
            m = len(x) > _INT_SAFE and _TOKEN.fullmatch(x)
            if m and m.lastgroup == "INT":
                try:
                    int(x)
                except ValueError:
                    i, message = j, f"integer literal of {len(x)} digits is too long"
                    break
        raise ParseError(message, *self.position(i))

    # ---- reading ---------------------------------------------------------

    def peek(self) -> str:
        return self.lexemes[self.pos]

    def next(self) -> str:
        self.pos += 1
        return self.lexemes[self.pos - 1]

    def kind(self) -> str:
        return _kind(self.lexemes[self.pos])

    def at(self, lexeme: str) -> bool:
        return self.lexemes[self.pos] == lexeme

    def error(self, message):
        self.raise_at(self.pos, f"{message}, got {self.value(self.pos)!r}")

    def expect(self, lexeme):
        """Read `lexeme`, a keyword or a symbol, which must come next."""
        if self.lexemes[self.pos] != lexeme:
            self.error(f"expected keyword {lexeme!r}" if lexeme.isalpha() else f"expected {lexeme!r}")
        self.pos += 1

    def expect_value(self, kinds, message):
        """The value of the next token, which must be of one of `kinds`."""
        if self.kind() not in kinds:
            self.error(message)
        self.pos += 1
        return self.value(self.pos - 1)

    def expect_ident(self) -> str:
        return self.expect_value(("IDENT",), "expected identifier")

    def expect_name(self) -> str:
        """An identifier that is not a reserved keyword."""
        x = self.lexemes[self.pos]
        if x in KEYWORDS or not _IDENT.fullmatch(x):
            self.error("expected name")
        self.pos += 1
        return x

    # ---- shared pieces -------------------------------------------------

    def parse_literal_value(self):
        return self.expect_value(("STRING", "INT"), "expected literal")

    def parse_path(self) -> Path:
        """Name [ '.' step ]*, a raw Path: the name is a node, or a query's
        variable; attribute terminals are resolved later."""
        source = self.expect_name()
        steps = []
        while self.at("."):
            self.next()
            steps.append(self.expect_name())
        return Path(source, tuple(steps))

    def parse_path_or_const(self):
        if self.kind() in ("STRING", "INT"):
            return ConstPath(self.parse_literal_value())
        return self.parse_path()

    # ---- query sub-language --------------------------------------------

    def parse_query_body(self) -> Query:
        self.expect("select")
        selects = [self.parse_select_item()]
        while self.at(","):
            self.next()
            selects.append(self.parse_select_item())
        self.expect("from")
        bindings = [self.parse_binding()]
        while self.at(","):
            self.next()
            bindings.append(self.parse_binding())
        where = []
        if self.at("where"):
            self.next()
            where.append(self.parse_group())
            while self.at("and"):
                self.next()
                where.append(self.parse_group())
        return Query(tuple(bindings), tuple(where), tuple(selects))

    def parse_select_item(self) -> SelectItem:
        expr = self.parse_path()
        self.expect("as")
        return SelectItem(self.expect_name(), expr)

    def parse_binding(self):
        node = self.expect_name()
        self.expect("as")
        return (self.expect_name(), node)

    def parse_group(self) -> Group:
        if self.at("("):
            self.next()
            alts = [self.parse_clause()]
            while self.at("or"):
                self.next()
                alts.append(self.parse_clause())
            self.expect(")")
            return Group(tuple(alts))
        return Group((self.parse_clause(),))

    def parse_clause(self) -> Clause:
        lhs = self.parse_path_or_const()
        self.expect("=")
        return Clause(lhs, self.parse_path_or_const())

    # ---- script declarations -------------------------------------------

    def parse_script(self) -> scripts.Script:
        stmts = []
        while self.peek():
            stmts.append(self.parse_statement())
        return scripts.Script(tuple(stmts))

    def parse_statement(self):
        t = self.peek()
        line = self.position(self.pos)[0]
        if t not in scripts.STATEMENTS:
            self.error("unknown declaration" if self.kind() == "IDENT" else "expected a declaration keyword")
        self.pos += 1
        head = self.read(t, scripts.STATEMENTS[t])
        if t == "schema":
            items = self.read_items(scripts.SCHEMA_ITEMS, "expected edge/attribute/equation")
            return scripts.SchemaDecl(*head, *items, line)
        if t == "instance":
            items = self.read_items(scripts.INSTANCE_ITEMS, "expected node/edge/attribute block")
            return scripts.InstanceDecl(*head, *items, line)
        if t == "mapping":
            items = self.read_items(scripts.MAPPING_ITEMS, "expected node/edge/attribute mapping")
            return scripts.MappingDecl(*head, *items, line)
        if t == "query":
            q = self.parse_query_body()
            self.expect("}")
            return scripts.QueryDecl(*head, q, line)
        if t == "let":
            return self.parse_let(*head, line)
        if t == "show":
            return scripts.ShowStmt(*head, line)
        return scripts.ExportStmt(*head, line)

    def read(self, head: str, syntax) -> tuple:
        """The values of the fields of `syntax`, the form that the word
        `head` opens (see scripts.STATEMENTS), read in turn; every other
        item is a keyword or a symbol, which must come next."""
        lexemes, names, values = self.lexemes, scripts.NAMES, []
        for want in syntax:
            if want in names:
                values.append(self.expect_name())
            elif type(want) is tuple:
                values.append(self.parse_block(head, want))
            elif not want.isupper():
                if lexemes[self.pos] != want:
                    self.expect(want)  # raises
                self.pos += 1
            elif want == "NODES":
                nodes = [self.expect_name()]
                while lexemes[self.pos] == ",":
                    self.pos += 1
                    nodes.append(self.expect_name())
                values.append(nodes)
            elif want == "PATH":
                values.append(self.parse_path())
            elif want == "TERM":
                values.append(self.parse_path_or_const())
            elif want == "ROW":  # an INT row id is the string of its value, so 01 is row "1"
                values.append(str(self.parse_literal_value()) if self.kind() == "INT" else self.expect_name())
            elif want == "VALUE":
                values.append(self.parse_literal_value())
            elif want == "FORMAT":
                values.append(self.next() if self.kind() == "IDENT" else "ascii")
            elif want == "TYPE":
                if self.peek() not in ("string", "integer"):
                    self.error("expected base type 'string' or 'integer'")
                values.append(self.next())
            elif want == "DEPTH":
                values.append(self.expect_value(("INT",), f"expected {head} depth"))
            else:  # FILE
                values.append(self.expect_value(("STRING",), "expected file name string"))
        return tuple(values)

    def read_items(self, items: dict, message: str):
        """The items of a schema, an instance or a mapping, up to its '}':
        for each head word of `items`, the values of its items, each read by
        its syntax.  A word that heads no item raises `message`."""
        lexemes, found = self.lexemes, {head: [] for head in items}
        while lexemes[self.pos] != "}":
            head = lexemes[self.pos]
            if head not in items:
                self.error(message)
            self.pos += 1
            found[head].append(self.read(head, items[head]))
        self.pos += 1
        return found.values()

    def parse_block(self, head: str, entry):
        """The entries of an instance block, up to its '}', each read by the
        syntax `entry`: the list of their values, or of their tuples of
        values when an entry has more than one.  The lexemes up to the first
        '}' are checked column by column in one step.  A block that fails is
        read entry by entry by `read`, which raises the error at its first
        bad token."""
        lexemes, p, width = self.lexemes, self.pos, len(entry)
        try:
            q = lexemes.index("}", p)
        except ValueError:
            q = p - 1  # no '}': no entry count fits
        columns, ok = [], not (q - p) % width
        for k, want in enumerate(entry):
            if not ok:
                break
            col = lexemes[p + k:q:width]
            if want in _COLUMNS:
                try:
                    col = _COLUMNS[want](col)
                except ValueError:  # an INT that int() refuses
                    col = None
                ok = col is not None
                columns.append(col)
            else:
                ok = col.count(want) == len(col)
        while not ok:  # every check passes on entries that all read, so this raises
            self.read(head, entry)
        self.pos = q
        return columns[0] if len(columns) == 1 else list(zip(*columns))

    def parse_let(self, name, line):
        op = self.expect_ident()
        if op not in scripts.LET_OPS:
            self.pos -= 1  # point at the operation, not the token after it
            self.error("unknown let operation")
        expr = (op, *self.read(op, scripts.LET_OPS[op][1]))
        self.expect(";")
        return scripts.LetStmt(name, expr, line)


def parse_script(text: str) -> scripts.Script:
    return Parser(text).parse_script()


def parse_query(text: str) -> Query:
    p = Parser(text)
    q = p.parse_query_body()
    if p.peek():
        p.error("trailing input after query")
    return q
