"""Script language: parsing, evaluation, pretty-printing fixpoint, errors."""

import pytest

from catql.errors import ParseError, ScriptError
from catql.parsing import parse_query, parse_script
from catql.scripts import Environment, format_script, run_script

from conftest import read_data


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
        src = (
            "schema S { nodes a; attribute v : a -> string; }\n"
            'query q : S {\n  select a.v as x\n  from a as a0\n  where (a0.v="p" or a0.v="q")\n}\n'
        )
        ast1 = parse_script(src)
        assert parse_script(format_script(ast1)) == ast1


REPEATED_ROW = """
schema S { nodes a; attribute n : a -> string; }
instance I : S { node a { x; x; } attribute a.n { x = "u"; } }
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

    def test_closure_statement(self):
        env, outputs = run_script(parse_script(
            read_data("parent.catql") + "\nlet isa = closure parent 3;\nshow isa;"
        ))
        from catql.scenario import relation_pairs

        isa = env.lookup("isa", "instance", 0)
        assert ("ferrous-17-4PH", "ferrous-alloy") in relation_pairs(isa)
