"""Script language: parsing, evaluation, pretty-printing fixpoint, errors."""

import pathlib
import random
import re

import pytest

from catql.errors import CatqlError, ParseError, SchemaError, ScriptError
from catql.instances import validate_instance
from catql.core import ConstPath, Path
from catql.parsing import KEYWORDS, Parser, parse_query, parse_script
from catql.queries import Query, SelectItem
from catql.scripts import (
    INSTANCE_ITEMS, LET_OPS, MAPPING_ITEMS, NAMES, SCHEMA_ITEMS, STATEMENTS, Environment,
    ExportStmt, InstanceDecl, LetStmt, MappingDecl, QueryDecl, SchemaDecl, Script, ShowStmt,
    format_script, run_script,
)

from conftest import ScriptGen, read_data


DEMO = """
# two-node schema with a mapping and a migration
schema S {
  nodes a, b;
  edge f : a -> b;
  attribute v : b -> string;
}

schema T {
  nodes c;
  attribute w : c -> string;
}

instance I : S {
  node a { x; y; }
  node b { u; }
  edge a.f { x -> u; y -> u; }
  attribute b.v { u = "hello"; }
}

mapping F : T -> S {
  node c -> b;
  attribute c.w -> b.v;
}

let J = delta F I;
show J;
"""


class TestParse:
    def test_demo_script(self):
        script = parse_script(DEMO)
        assert len(script.statements) == 6

    def test_fig_query_shape(self):
        q = parse_query(read_data("query1.txt"))
        assert len(q.bindings) == 6
        assert len(q.where) == 8
        assert len(q.selects) == 5
        # the two or-groups have two alternatives each
        sizes = sorted(len(g.alternatives) for g in q.where)
        assert sizes == [1, 1, 1, 1, 1, 1, 2, 2]

    def test_malformed_select(self):
        with pytest.raises(ParseError):
            parse_query("select from unitcode as x")

    def test_error_carries_position(self):
        try:
            parse_script("schema S {\n  nodes a\n}")
        except ParseError as e:
            assert e.line == 3
        else:
            pytest.fail("expected ParseError")

    def test_comments_ignored(self):
        s = parse_script("# a comment\nschema S { nodes a; }\n# done\n")
        assert len(s.statements) == 1

    @staticmethod
    def tokens(text):
        return [p.token(i) for p in [Parser(text)] for i in range(len(p.lexemes))]

    def test_token_kinds_values_positions(self):
        text = "schema S {\n  nodes a_1, b2;\r\n\tattribute v : a_1 -> string; }\n"
        assert self.tokens(text) == [
            ("IDENT", "schema", 1, 1), ("IDENT", "S", 1, 8), ("SYM", "{", 1, 10),
            ("IDENT", "nodes", 2, 3), ("IDENT", "a_1", 2, 9), ("SYM", ",", 2, 12),
            ("IDENT", "b2", 2, 14), ("SYM", ";", 2, 16),
            ("IDENT", "attribute", 3, 2), ("IDENT", "v", 3, 12), ("SYM", ":", 3, 14),
            ("IDENT", "a_1", 3, 16), ("SYM", "->", 3, 20), ("IDENT", "string", 3, 23),
            ("SYM", ";", 3, 29), ("SYM", "}", 3, 31), ("EOF", None, 4, 1),
        ]

    def test_arrow_against_negative_int(self):
        assert self.tokens("a->-1 -> 1 -2 12x") == [
            ("IDENT", "a", 1, 1), ("SYM", "->", 1, 2), ("INT", -1, 1, 4),
            ("SYM", "->", 1, 7), ("INT", 1, 1, 10), ("INT", -2, 1, 12),
            ("INT", 12, 1, 15), ("IDENT", "x", 1, 17), ("EOF", None, 1, 18),
        ]

    def test_string_escapes(self):
        assert self.tokens(r'"a\"b\\c\d" "#"') == [
            ("STRING", 'a"b\\cd', 1, 1), ("STRING", "#", 1, 13), ("EOF", None, 1, 16),
        ]

    def test_hash_comments(self):
        assert self.tokens('x # y "z\n# whole line\ny') == [
            ("IDENT", "x", 1, 1), ("IDENT", "y", 3, 1), ("EOF", None, 3, 2),
        ]

    def test_unterminated_string_position(self):
        with pytest.raises(ParseError) as exc:
            parse_script('schema S {\n  nodes a;\n  "abc\\"')
        assert str(exc.value) == "unterminated string literal (line 3, column 3)"
        assert (exc.value.line, exc.value.column) == (3, 3)

    def test_unexpected_character_position(self):
        with pytest.raises(ParseError) as exc:
            parse_script("schema S {\n  nodes a; @ }")
        assert str(exc.value) == "unexpected character '@' (line 2, column 12)"

    @pytest.mark.parametrize("text", ["\u00b2", "x = -\u00b2", "a \u00bd", "1\u00b2", "-\u0663"])
    def test_numeric_characters_raise_catql_errors(self, text):
        with pytest.raises(CatqlError):
            parse_script(text)

    def test_minus_before_non_decimal_digit(self):
        with pytest.raises(ParseError) as exc:
            parse_script("x = -\u00b2")
        assert str(exc.value) == "unexpected character '-' (line 1, column 5)"

    def test_int_and_name_follow_the_unicode_classes(self):
        # INT is -?\d+ (what int() reads); a name may start with any \w but \d
        assert self.tokens("x\u00b2 \u00b2 -\u0663\u0661 \u00bd") == [
            ("IDENT", "x\u00b2", 1, 1), ("IDENT", "\u00b2", 1, 4), ("INT", -31, 1, 6),
            ("IDENT", "\u00bd", 1, 10), ("EOF", None, 1, 11),
        ]

    def test_lines_counted_inside_string_literals(self):
        with pytest.raises(ParseError) as exc:
            parse_script('schema S {\n nodes a; edge f : a -> "x\ny" ; }\n @')
        assert (exc.value.line, exc.value.column) == (4, 2)
        tokens = self.tokens('"a\nbc" x')
        assert tokens[1:] == [("IDENT", "x", 2, 5), ("EOF", None, 2, 6)]

    def test_integer_literal_too_long_to_convert(self):
        with pytest.raises(ParseError) as exc:
            parse_script(f"schema S {{\n  nodes a; }}\nx = {'7' * 5000};")
        assert str(exc.value) == (
            "integer literal of 5000 digits is too long (line 3, column 5)"
        )

    def test_eof_at_end_of_trailing_comment(self):
        assert self.tokens("x # end")[-1] == ("EOF", None, 1, 8)
        with pytest.raises(ParseError) as exc:
            parse_script("schema S { nodes a; # no newline")
        assert str(exc.value) == (
            "expected edge/attribute/equation, got None (line 1, column 33)"
        )


class TestRoundTrip:
    def test_parse_print_parse_fixpoint_demo(self):
        ast1 = parse_script(DEMO)
        text = format_script(ast1)
        ast2 = parse_script(text)
        assert ast1 == ast2
        assert format_script(ast2) == text

    def test_parse_print_parse_fixpoint_data_scripts(self):
        for name in ("parent.catql", "syn.catql"):
            ast1 = parse_script(read_data(name))
            text = format_script(ast1)
            assert parse_script(text) == ast1

    def test_query_statement_round_trip(self):
        """String literals in query clauses and schema equations print
        escaped, so a quote or a backslash reads back as itself."""
        src = (
            "schema S { nodes a; attribute v : a -> string; }\n"
            'query q : S {\n  select a.v as x\n  from a as a0\n  where (a0.v="p" or a0.v="q")\n}\n'
            'schema E { nodes a; attribute v : a -> string; equation a.v = "c\\\\d\\"e"; }\n'
            'query r : E {\n  select a.v as x\n  from a as a0\n  where a0.v = "a\\"b\\\\"\n}\n'
        )
        ast1 = parse_script(src)
        assert ast1.statements[3].query.where[0].alternatives[0].rhs.value == 'a"b\\'
        assert ast1.statements[2].equations[0][1].value == 'c\\d"e'
        assert parse_script(format_script(ast1)) == ast1

    def test_export_file_name_round_trip(self):
        ast1 = parse_script('export I "a\\\\b\\"c.sql";')
        assert ast1.statements[0].filename == 'a\\b"c.sql'
        text = format_script(ast1)
        assert text == 'export I "a\\\\b\\"c.sql";\n'
        assert parse_script(text) == ast1


REPEATED_ROW = """
schema S { nodes a; attribute n : a -> string; }
instance I : S { node a { x; x; } attribute a.n { x = "u"; } }
"""

# An instance literal whose blocks list row x twice; kept whole, it would be
# a valid instance with f(x) = x and v(x) = 7.
DUPLICATE_ENTRIES = """
schema S { nodes a; edge f : a -> a; attribute v : a -> integer; }
instance I : S {
  node a { x; y; }
  edge a.f { x -> y; x -> x; y -> y; }
  attribute a.v { x = 5; x = 7; y = 1; }
}
"""


class TestRun:
    def test_demo_outputs(self):
        env, outputs = run_script(parse_script(DEMO))
        assert "J" in env
        shows = [o for o in outputs if o[0] == "show"]
        assert len(shows) == 1 and "hello" in shows[0][2]

    def test_undefined_name(self):
        with pytest.raises(ScriptError):
            run_script(parse_script("show nothing;"))

    def test_no_redefinition(self):
        src = "schema S { nodes a; }\nschema S { nodes b; }"
        with pytest.raises(ScriptError):
            run_script(parse_script(src))

    def test_error_annotated_with_line(self):
        src = "schema S { nodes a; }\ninstance I : S {\n  node b { x; }\n}"
        try:
            run_script(parse_script(src))
        except ScriptError as e:
            assert e.line == 2
        else:
            pytest.fail("expected ScriptError")

    def test_repeated_row_id_rejected(self):
        with pytest.raises(ScriptError):
            run_script(parse_script(REPEATED_ROW))

    @pytest.mark.parametrize("blocks, message", [
        ("edge a.f { x -> y; x -> x; }", "edge a.f lists row 'x' twice"),
        ("attribute a.v { x = 5; y = 6; x = 7; }", "attribute a.v lists row 'x' twice"),
        ("edge a.f { x -> y; } edge a.f { y -> y; }", "edge a.f has two blocks"),
        ("attribute a.v { x = 5; } attribute a.v { y = 7; }", "attribute a.v has two blocks"),
        ("node a { z; }", "node a has two blocks"),
    ])
    def test_instance_literal_entries_given_once(self, blocks, message):
        src = (
            "schema S { nodes a; edge f : a -> a; attribute v : a -> integer; }\n"
            f"instance I : S {{\n  node a {{ x; y; }}\n  {blocks}\n}}\n"
        )
        with pytest.raises(ScriptError) as info:
            run_script(parse_script(src))
        assert str(info.value) == f"instance 'I': {message} (statement at line 2)"
        assert isinstance(info.value.__cause__, SchemaError)

    def test_let_union_and_eval(self):
        src = DEMO + "\nlet K = union J J;\nshow K csv;"
        env, outputs = run_script(parse_script(src))
        assert "K" in env

    def test_query_eval_statements(self):
        src = (
            "schema S { nodes a; attribute v : a -> string; }\n"
            "instance I : S { node a { r1; r2; } attribute a.v { r1 = \"p\"; r2 = \"q\"; } }\n"
            "query q : S { select x.v as out from a as x where x.v=\"p\" }\n"
            "let R1 = eval q I;\n"
            "let R2 = eval_migration q I;\n"
        )
        env, _ = run_script(parse_script(src))
        from catql.instances import iso_check

        assert iso_check(env.lookup("R1", "instance", 0), env.lookup("R2", "instance", 0))

    def test_export_output(self, tmp_path):
        src = DEMO + '\nexport J "out.sql";'
        _env, outputs = run_script(parse_script(src))
        exports = [o for o in outputs if o[0] == "export"]
        assert len(exports) == 1
        assert "CREATE TABLE" in exports[0][2]

    @pytest.mark.parametrize("stmt", ["closure R 2", "compose R Rop"])
    def test_relation_of_labelled_nulls_rejected(self, stmt):
        from test_cli import NULL_NAMED_RELATION

        text = NULL_NAMED_RELATION + f"let Rop = op R;\nlet C = {stmt};\n"
        with pytest.raises(ScriptError, match="is a labelled null") as info:
            run_script(parse_script(text))
        assert isinstance(info.value.__cause__, SchemaError)

    def test_closure_statement(self):
        env, outputs = run_script(parse_script(
            read_data("parent.catql") + "\nlet isa = closure parent 3;\nshow isa;"
        ))
        from catql.scenario import relation_pairs

        isa = env.lookup("isa", "instance", 0)
        assert ("ferrous-17-4PH", "ferrous-alloy") in relation_pairs(isa)


# a script that defines an argument for every let operation
LET_DEFS = """
schema S {
  nodes a, b;
  edge f : a -> b;
  attribute v : b -> string;
}
schema T {
  nodes isa, Material;
  edge left : isa -> Material;
  edge right : isa -> Material;
  attribute name : Material -> string;
}
instance I : S {
  node a { x; y; }
  node b { u; w; }
  edge a.f { x -> u; y -> w; }
  attribute b.v { u = "steel"; w = "alloy"; }
}
instance R : T {
  node Material { m1; m2; m3; }
  node isa { p; q; }
  edge isa.left { p -> m1; q -> m2; }
  edge isa.right { p -> m2; q -> m3; }
  attribute Material.name { m1 = "steel"; m2 = "alloy"; m3 = "metal"; }
}
mapping G : S -> S {
  node a -> a;
  node b -> b;
  edge a.f -> a.f;
  attribute b.v -> b.v;
}
query q : S {
  select x.f.v as n
  from a as x
}
"""

# one let of each operation, on the names LET_DEFS defines
LETS = {
    "delta": "delta G I",
    "sigma": "sigma G I",
    "pi": "pi G I",
    "union": "union R R",
    "disjoint_union": "disjoint_union R R",
    "compose": "compose R R",
    "relationalize": "relationalize I",
    "op": "op R",
    "eval": "eval q I",
    "eval_migration": "eval_migration q I",
    "closure": "closure R 2",
    "enrich": "enrich I edge a.f using R name v",
}

GRAMMAR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "grammar.ebnf"


class TestLetOps:
    def test_every_operation_has_a_case(self):
        assert set(LETS) == set(LET_OPS)

    @pytest.mark.parametrize("op", list(LET_OPS))
    def test_parse_format_parse_and_run(self, op):
        text = f"let J = {LETS[op]};\n"
        script = parse_script(text)
        assert script.statements[0].expr[0] == op
        assert format_script(script) == text
        assert parse_script(format_script(script)) == script
        env, _outputs = run_script(parse_script(LET_DEFS + text))
        validate_instance(env.lookup("J", "instance", 0))

    def test_grammar_rule_names_the_table(self):
        """The let-expr rule lists the operations of LET_OPS in its order,
        each followed by its syntax."""
        grammar = {}
        for alt in re.split(r"\n\s*\|", grammar_rule("let-expr")):
            tokens = grammar_tokens(alt)
            end = tokens.index(")") + 1 if tokens[0] == "(" else 1
            for op in tokens[:end]:
                if op.startswith('"'):
                    grammar[op.strip('"')] = tokens[end:]
        assert list(grammar) == list(LET_OPS)
        for op, (_fn, syntax) in LET_OPS.items():
            assert grammar[op] == table_tokens(syntax), op

    @pytest.mark.parametrize("rule, items, head", [
        ("edge-decl", SCHEMA_ITEMS, "edge"),
        ("attr-decl", SCHEMA_ITEMS, "attribute"),
        ("equation-decl", SCHEMA_ITEMS, "equation"),
        ("node-block", INSTANCE_ITEMS, "node"),
        ("edge-block", INSTANCE_ITEMS, "edge"),
        ("attr-block", INSTANCE_ITEMS, "attribute"),
        ("node-map", MAPPING_ITEMS, "node"),
        ("edge-map", MAPPING_ITEMS, "edge"),
        ("attr-map", MAPPING_ITEMS, "attribute"),
    ])
    def test_grammar_item_rule_names_the_table(self, rule, items, head):
        """A schema, instance or mapping item's rule is its head word and
        its syntax."""
        want = [f'"{head}"', *table_tokens(items[head])]
        assert grammar_tokens(grammar_rule(rule)) == want

    @pytest.mark.parametrize("keyword", list(STATEMENTS))
    def test_grammar_statement_rule_opens_with_the_table(self, keyword):
        """A statement's rule opens with its keyword and its syntax, and a
        show or an export statement is no more."""
        whole = keyword in ("show", "export")
        tokens = grammar_tokens(grammar_rule(f"{keyword}-{'stmt' if whole or keyword == 'let' else 'decl'}"))
        want = [f'"{keyword}"', *table_tokens(STATEMENTS[keyword])]
        assert tokens[:len(want)] == want
        assert not whole or tokens == want


# the grammar tokens of each field of the syntax tables that holds no single name
GRAMMAR_FIELDS = {"NODES": ["NAME", "{", '","', "NAME", "}"], "ROW": ["row-id"],
                  "VALUE": ["literal"], "FORMAT": ["[", "IDENT", "]"], "DEPTH": ["INT"],
                  "TYPE": ["base-type"], "PATH": ["path"], "TERM": ["path-or-const"],
                  "FILE": ["STRING"]}


def table_tokens(syntax) -> list:
    """The grammar's tokens for a syntax of the tables: NAME for a name
    field, keywords and symbols quoted, and a block's entry syntax in
    braces."""
    tokens = []
    for x in syntax:
        if isinstance(x, tuple):
            tokens += ["{", *table_tokens(x), "}"]
        else:
            tokens += ["NAME"] if x in NAMES else GRAMMAR_FIELDS[x] if x.isupper() else [f'"{x}"']
    return tokens


def grammar_rule(name: str) -> str:
    """The right-hand side of a rule of docs/grammar.ebnf, without comments."""
    text = re.sub(r"\(\*.*?\*\)", "", GRAMMAR.read_text(), flags=re.S)
    return re.search(rf"^{name}\s*=(.*?);[ \t]*$", text, re.M | re.S).group(1)


def grammar_tokens(rule: str) -> list:
    """A rule's quoted terminals, parentheses, braces, brackets, upper-case
    tokens and rule names, in order; the EBNF bars are left out."""
    return re.findall(r'"[^"]*"|[(){}\[\]]|[A-Z]+|[a-z][a-z-]*', rule)


# the role of each name that a generated script holds
ROLES = {"schema", "instance", "mapping", "query", "node", "edge", "attribute", "row",
         "path", "term", "alias", "variable", "table", "format"}


def query_naming(alias="x", var="v", table="a") -> Query:
    return Query(((var, table),), (), (SelectItem(alias, Path(var, ("w",))),))


class TestTabledForms:
    @pytest.mark.parametrize("seed", range(5))
    def test_print_parse_round_trip(self, seed):
        """A generated script prints to text that parses back to it, and
        prints again to the same text."""
        for k in range(200):
            script = ScriptGen(1000 * seed + k).script()
            text = format_script(script)
            assert parse_script(text) == script, text
            assert format_script(parse_script(text)) == text

    @pytest.mark.parametrize("seed", range(5))
    def test_reserved_word_in_a_tabled_name_is_refused(self, seed):
        """One name of a generated script that is a reserved word, in any
        field or in a query body, raises the ScriptError that names it and
        its field's role."""
        rng, refused = random.Random(seed), set()
        for k in range(120):
            plain = ScriptGen(1000 * seed + k)
            plain.script()
            # the same draws up to the reserved word, at a name of each role
            # in turn where the script has one
            role = sorted(ROLES)[k % len(ROLES)]
            at = [i for i, r in enumerate(plain.roles, 1) if r == role] or range(1, len(plain.roles) + 1)
            gen = ScriptGen(1000 * seed + k, reserved_at=rng.choice(at))
            script = gen.script()
            role, word = gen.reserved
            refused.add(role)
            with pytest.raises(ScriptError, match=re.escape(f"cannot print {role} {word!r}: it is a reserved word")):
                format_script(script)
        assert refused == ROLES

    @pytest.mark.parametrize("stmt, refused", [
        (SchemaDecl("S", ["a", "node"], [], [], []), "node 'node'"),
        (InstanceDecl("I", "S", [("edge", ["x"])], [], []), "node 'edge'"),
        (InstanceDecl("I", "S", [("a", ["x", "node"])], [], []), "row 'node'"),
        (InstanceDecl("I", "S", [], [("a", "f", [("x", "as")])], []), "row 'as'"),
        (InstanceDecl("I", "S", [], [], [("a", "from", [])]), "attribute 'from'"),
        (ShowStmt("select", "csv"), "instance 'select'"),
        (QueryDecl("q", "S", query_naming(alias="as")), "alias 'as'"),
        (QueryDecl("q", "S", query_naming(var="where")), "path 'where'"),
        (QueryDecl("q", "S", query_naming(table="select")), "table 'select'"),
        (ShowStmt("I", "node"), "format 'node'"),
    ])
    def test_reserved_word_in_a_list_block_show_or_query_is_refused(self, stmt, refused):
        """A node list, an instance block's names and row ids, a show's
        instance and format and a query body's names pass the printer's one
        reserved-word check."""
        with pytest.raises(ScriptError, match=re.escape(f"cannot print {refused}: it is a reserved word")):
            format_script(Script((stmt,)))

    @pytest.mark.parametrize("row", ["L.x", "a b", "01"])
    def test_row_id_that_does_not_read_back_is_refused(self, row):
        """A row id that is neither a name nor an integer in canonical form
        (disjoint_union's "L.x", "a b", "01", which reads back as "1") is
        refused in a node, edge or attribute block."""
        for stmt in (InstanceDecl("I", "S", [("a", ["x", row])], [], []),
                     InstanceDecl("I", "S", [], [("a", "f", [("x", row)])], []),
                     InstanceDecl("I", "S", [], [], [("a", "v", [(row, 1)])])):
            with pytest.raises(ScriptError, match=re.escape(f"cannot print row {row!r}: it would not read back")):
                format_script(Script((stmt,)))

    def test_row_ids_that_read_back_print_as_they_are(self):
        decl = InstanceDecl("I", "S", [("a", ["x", "-1", "12", "é3", "_0"])],
                            [("a", "f", [("x", "-1"), ("12", "x")])],
                            [("a", "v", [("_0", "L.x"), ("-1", -7)])])
        text = format_script(Script((decl,)))
        assert text == ('instance I : S {\n  node a { x; -1; 12; é3; _0; }\n'
                        '  edge a.f { x -> -1; 12 -> x; }\n  attribute a.v { _0 = "L.x"; -1 = -7; }\n}\n')
        assert parse_script(text) == Script((decl,))

    def test_variable_is_checked_where_it_is_bound(self):
        """A query's variable is refused in its binding, which is printed
        after its select items."""
        q = Query((("v", "a"), ("where", "b")), (), (SelectItem("x", Path("v", ("w",))),))
        with pytest.raises(ScriptError, match="cannot print variable 'where'"):
            format_script(Script((QueryDecl("q", "S", q),)))

    @pytest.mark.parametrize("text", [
        "show I;\nshow I ascii;\nshow I csv;\n",
        "instance I : S {\n  node a { x; -1; 01; }\n  edge a.f {  }\n"
        '  attribute a.v { x = "a\\"b"; -1 = -7; }\n}\n',
        # a string constant is quoted: a reserved word in it is printed
        'schema S {\n  nodes a;\n  attribute v : a -> string;\n  equation a.v = "x.and.y";\n}\n'
        'instance I : S {\n  node a { r; }\n  attribute a.v { r = "a.node.b"; }\n}\n'
        'mapping F : S -> S {\n  node a -> a;\n  attribute a.v -> "p.where";\n}\n'
        'query q : S {\n  select\n      v.v as x\n  from\n      a as v\n  where\n'
        '      v.v = "row.\nselect"\n}\n'
        'export I "run.export.csv";\n',
    ])
    def test_show_and_instance_blocks_round_trip(self, text):
        ast = parse_script(text)
        assert parse_script(format_script(ast)) == ast
