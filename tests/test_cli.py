"""CLI: subcommands, flags, exit codes, rendering formats."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catql
from catql import cli
from catql.cli import cli_main
from catql.instances import Instance, iso_check
from catql.parsing import parse_query
from catql.queries import eval_query_via_migration
from catql.render import render_instance
from catql.sqlbridge import import_sql

from conftest import DATA


GOLDEN = Path(__file__).parent / "golden"


def data_path(name):
    return str(DATA / name)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, hash_seed="0"):
    """`python -m catql` in a subprocess, with this checkout's catql."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(catql.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "catql", *argv], env=env,
                          capture_output=True, text=True)


class TestImportSql:
    def test_ascii(self, capsys):
        code, out, _err = run_cli(capsys, "import-sql", data_path("unitcode.sql"))
        assert code == 0
        assert "unitcode (5 rows)" in out

    def test_csv_five_rows(self, capsys):
        code, out, _err = run_cli(
            capsys, "import-sql", "--format", "csv", data_path("unitcode.sql")
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["id", "Code", "Description"]
        assert len([r for r in rows[1:] if r]) == 5

    def test_json(self, capsys):
        code, out, _err = run_cli(
            capsys, "import-sql", "--format", "json", data_path("unitcode.sql")
        )
        assert code == 0
        doc = json.loads(out)
        assert {r["Code"] for r in doc} == {"EA", "Thousands", "Inch", "mm", "cm"}

    def test_missing_file_user_error(self, capsys):
        code, _out, err = run_cli(capsys, "import-sql", "/nonexistent.sql")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("spec", [[1, 2], {"capability": 5}, {"capability": {"x": "nosuch"}}])
    def test_bad_fk_spec_user_error(self, tmp_path, capsys, spec):
        f = tmp_path / "f.json"
        f.write_text(json.dumps(spec))
        code, _out, err = run_cli(
            capsys, "import-sql", data_path("portal_a.sql"), "--fk-spec", str(f)
        )
        assert code == 1
        assert "fk spec" in err


# `catql closure --closure-n 3 parent.catql`, pinned: materials keyed by their
# least row, each pair by the least (depth, row) that reaches it
PARENT_CLOSURE_3 = (
    "Material (6 rows)\n"
    "id       | name                \n"
    "---------+---------------------\n"
    "0.m17    | ferrous-17-4PH      \n"
    "0.m420   | ferrous-420         \n"
    "0.mal    | ferrous-alloy       \n"
    "0.matter | matter              \n"
    "0.mph    | ferrous-PH-stainless\n"
    "0.mss    | ferrous-stainless   \n"
    "\n"
    "isa (18 rows)\n"
    "id       | left     | right   \n"
    "---------+----------+---------\n"
    "0.m17    | 0.m17    | 0.m17   \n"
    "0.m420   | 0.m420   | 0.m420  \n"
    "0.mal    | 0.mal    | 0.mal   \n"
    "0.matter | 0.matter | 0.matter\n"
    "0.mph    | 0.mph    | 0.mph   \n"
    "0.mss    | 0.mss    | 0.mss   \n"
    "1.m17    | 0.m17    | 0.mph   \n"
    "1.m420   | 0.m420   | 0.mph   \n"
    "1.mal    | 0.mal    | 0.matter\n"
    "1.mph    | 0.mph    | 0.mss   \n"
    "1.mss    | 0.mss    | 0.mal   \n"
    "2.m17    | 0.m17    | 0.mss   \n"
    "2.m420   | 0.m420   | 0.mss   \n"
    "2.mph    | 0.mph    | 0.mal   \n"
    "2.mss    | 0.mss    | 0.matter\n"
    "3.m17    | 0.m17    | 0.mal   \n"
    "3.m420   | 0.m420   | 0.mal   \n"
    "3.mph    | 0.mph    | 0.matter\n"
    "\n"
)

# a relation whose element names are labelled nulls: sigma of a span schema
# without a name attribute
NULL_NAMED_RELATION = """
schema P { nodes isa, Material; edge left : isa -> Material; edge right : isa -> Material; }
schema T {
  nodes isa, Material;
  edge left : isa -> Material;
  edge right : isa -> Material;
  attribute name : Material -> string;
}
instance R0 : P {
  node Material { a; b; }
  node isa { p; }
  edge isa.left { p -> a; }
  edge isa.right { p -> b; }
}
mapping F : P -> T {
  node isa -> isa;
  node Material -> Material;
  edge isa.left -> isa.left;
  edge isa.right -> isa.right;
}
let R = sigma F R0;
"""


class TestClosure:
    def test_parent_closure_pinned(self, capsys):
        code, out, _err = run_cli(
            capsys, "closure", "--closure-n", "3", data_path("parent.catql")
        )
        assert code == 0
        assert out == PARENT_CLOSURE_3

    def test_labelled_null_names_user_error(self, tmp_path, capsys):
        script = tmp_path / "s.catql"
        script.write_text(NULL_NAMED_RELATION)
        code, _out, err = run_cli(capsys, "closure", str(script), "R")
        assert code == 1
        assert "relation element ?sk!Material!name!" in err
        assert "is a labelled null" in err

    def test_parent_closure(self, capsys):
        code, out, _err = run_cli(
            capsys, "closure", "--closure-n", "3", data_path("parent.catql")
        )
        assert code == 0
        assert "isa" in out and "ferrous-17-4PH" in out

    def test_bad_script_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.catql"
        bad.write_text("schema {")
        code, _out, err = run_cli(capsys, "closure", str(bad))
        assert code == 1

    def test_negative_depth_user_error(self, capsys):
        code, _out, err = run_cli(
            capsys, "closure", "--closure-n", "-3", data_path("parent.catql")
        )
        assert code == 1
        assert "closure depth" in err


class TestShowRunQuery:
    def test_show_named_instance(self, tmp_path, capsys):
        script = tmp_path / "s.catql"
        script.write_text(
            "schema S { nodes a; attribute v : a -> string; }\n"
            'instance I : S { node a { x; } attribute a.v { x = "hi"; } }\n'
        )
        code, out, _err = run_cli(capsys, "show", str(script), "I")
        assert code == 0 and "hi" in out

    def test_run_executes_shows_and_exports(self, tmp_path, capsys):
        out_sql = tmp_path / "dump.sql"
        script = tmp_path / "s.catql"
        script.write_text(
            "schema S { nodes a; attribute v : a -> string; }\n"
            'instance I : S { node a { x; } attribute a.v { x = "hi"; } }\n'
            "show I;\n"
            f'export I "{out_sql}";\n'
        )
        code, out, _err = run_cli(capsys, "run", str(script))
        assert code == 0 and "hi" in out
        assert "CREATE TABLE" in out_sql.read_text()

    def test_repeated_row_id_user_error(self, tmp_path, capsys):
        from test_script import REPEATED_ROW

        script = tmp_path / "dup.catql"
        script.write_text(REPEATED_ROW + "show I;\n")
        code, out, _err = run_cli(capsys, "run", str(script))
        assert code == 1
        assert out == ""

    def test_duplicate_instance_entry_user_error(self, tmp_path, capsys):
        from test_script import DUPLICATE_ENTRIES

        script = tmp_path / "dup.catql"
        script.write_text(DUPLICATE_ENTRIES + "show I;\n")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 1
        assert out == ""
        assert "instance 'I': edge a.f lists row 'x' twice" in err

    def test_query_subcommand(self, tmp_path, capsys):
        script = tmp_path / "s.catql"
        script.write_text(
            "schema S { nodes a; attribute v : a -> string; }\n"
            'instance I : S { node a { x; y; } attribute a.v { x = "hi"; y = "lo"; } }\n'
            'query q : S { select z.v as out from a as z where z.v="hi" }\n'
        )
        code, out, _err = run_cli(capsys, "query", str(script), "q", "I")
        assert code == 0 and "hi" in out and "lo" not in out
        code2, out2, _err = run_cli(
            capsys, "query", "--via-migration", str(script), "q", "I"
        )
        assert code2 == 0 and "hi" in out2

    def test_export_sql_stdout(self, tmp_path, capsys):
        script = tmp_path / "s.catql"
        script.write_text(
            "schema S { nodes a; attribute v : a -> string; }\n"
            'instance I : S { node a { x; } attribute a.v { x = "hi"; } }\n'
        )
        code, out, _err = run_cli(capsys, "export-sql", str(script))
        assert code == 0 and "INSERT INTO a VALUES" in out

    def test_export_sql_renumbers_ids_int_cannot_read(self, tmp_path, capsys):
        # "²" is a .catql identifier that str.isdigit accepts but int() refuses
        script = tmp_path / "s.catql"
        script.write_text("schema S { nodes a; attribute v : a -> string; }\n"
                          'instance I : S { node a { ²; } attribute a.v { ² = "hi"; } }\n',
                          encoding="utf-8")
        code, out, err = run_cli(capsys, "export-sql", str(script))
        assert (code, err) == (0, "")
        assert out == ("CREATE TABLE a (\n  id INT PRIMARY KEY,\n  v VARCHAR(255)\n);\n"
                       "INSERT INTO a VALUES\n(1, 'hi');\n")
        inst = cli._pick_instance(cli._run_file(str(script))[0], None)
        _schema, again = import_sql(out)
        assert iso_check(Instance(again.schema, inst.rows, inst.edge_fn, inst.attr_fn), again)

    def test_export_sql_refuses_non_sql_name(self, tmp_path, capsys):
        script = tmp_path / "s.catql"
        script.write_text("schema S { nodes café; }\ninstance I : S { node café { x; } }\n",
                          encoding="utf-8")
        code, out, err = run_cli(capsys, "export-sql", str(script))
        assert code == 1 and out == ""
        assert "catql: error: cannot export node 'café' as SQL" in err


class TestEnrich:
    def test_output_independent_of_hash_seed(self):
        argv = ["enrich", "--sql", data_path("portal_a.sql"), "--parent",
                data_path("parent.catql"), "--syn", data_path("syn.catql")]
        runs = [run_module(*argv, hash_seed=seed) for seed in ("0", "1")]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        assert "capabilitymaterials" in runs[0].stdout

    def test_pipeline(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "enrich",
            "--sql", data_path("portal_a.sql"),
            "--parent", data_path("parent.catql"),
            "--syn", data_path("syn.catql"),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["capabilitymaterials"]) == 10

    @pytest.mark.parametrize("fmt, golden", [
        ("ascii", "enrich.txt"), ("csv", "enrich.csv"), ("json", "enrich.json"),
    ])
    def test_golden_output(self, capsys, fmt, golden):
        """The bundled run, byte for byte."""
        code, out, _err = run_cli(
            capsys, "enrich", "--sql", data_path("portal_a.sql"),
            "--parent", data_path("parent.catql"), "--syn", data_path("syn.catql"),
            "--format", fmt,
        )
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()

    def test_golden_query1_via_migration(self):
        """The bundled query on the bundled portal via migration, in ascii,
        byte for byte: its row ids name the union of its four parts."""
        _schema, inst = import_sql((DATA / "portal_a.sql").read_text())
        out = eval_query_via_migration(parse_query((DATA / "query1.txt").read_text()), inst)
        assert render_instance(out).encode() == (GOLDEN / "query1_via_migration.txt").read_bytes()

    def test_golden_disjunctive_via_migration(self):
        """A disjunction of a row clause and a constant, and one of a row
        clause and an attribute-to-attribute clause, on the bundled portal
        via migration, in ascii, byte for byte: each of its four parts
        chooses other row clauses, so each has its own binding schema, and
        its row ids name the union of the four."""
        _schema, inst = import_sql((DATA / "portal_a.sql").read_text())
        q = parse_query(
            "select c.capability_Capability_Name as ccn, p.productorservicecategory_Category_Name as pcn "
            "from capability as c, productorservicecategory as p, capabilitycategories as cc, "
            "unitcode as u where u = c.capability_Max_Length_Unit and "
            '(c = cc.capabilitycategories_Capability_id or u.unitcode_Code = "Inch") and '
            "(p = cc.capabilitycategories_ProductOrServiceCategory_id or "
            "p.productorservicecategory_Category_Name = c.capability_Capability_Name)")
        out = eval_query_via_migration(q, inst)
        assert render_instance(out).encode() == (GOLDEN / "disjunctive_via_migration.txt").read_bytes()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _out, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_no_subcommand(self, capsys):
        code, _out, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_no_path_bound_option(self, tmp_path, capsys):
        script = tmp_path / "s.catql"
        script.write_text("schema S { nodes a; }\n")
        code, _out, err = run_cli(capsys, "run", str(script), "--path-bound", "9")
        assert code == 1 and "unrecognized arguments: --path-bound 9" in err

    def test_bad_format_value(self, capsys):
        code, _out, err = run_cli(
            capsys, "import-sql", "--format", "yaml", data_path("unitcode.sql")
        )
        assert code == 1


class TestExitCodes:
    def test_malformed_json_fk_spec(self, tmp_path, capsys):
        spec = tmp_path / "fk.json"
        spec.write_text("{not json")
        code, _out, err = run_cli(capsys, "import-sql", data_path("unitcode.sql"),
                                  "--fk-spec", str(spec))
        assert code == 1 and "catql: error:" in err

    def test_deeply_nested_fk_spec(self, tmp_path, capsys):
        spec = tmp_path / "fk.json"
        spec.write_text("[" * 100_000 + "]" * 100_000)
        code, _out, err = run_cli(capsys, "import-sql", data_path("unitcode.sql"),
                                  "--fk-spec", str(spec))
        assert code == 1
        assert err == f"catql: error: fk spec {str(spec)!r} is nested too deeply to read\n"

    def test_non_utf8_input(self, tmp_path, capsys):
        sql = tmp_path / "latin1.sql"
        sql.write_bytes("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(9)); -- caf\xe9\n"
                        .encode("latin-1"))
        code, _out, err = run_cli(capsys, "import-sql", str(sql))
        assert code == 1 and "catql: error:" in err and "codec can't decode" in err

    def test_nul_byte_in_path(self, capsys):
        code, _out, err = run_cli(capsys, "import-sql", "portal\0.sql")
        assert code == 1 and "catql: error: file name contains a NUL byte" in err

    def test_literal_too_long_for_int_is_a_user_error(self, tmp_path, capsys):
        sql = tmp_path / "big.sql"
        sql.write_text("CREATE TABLE t (id INT PRIMARY KEY, v INT);\n"
                       f"INSERT INTO t VALUES (1, {'9' * 5000});\n")
        code, _out, err = run_cli(capsys, "import-sql", str(sql))
        assert code == 1 and "catql: error: bad literal '999" in err

    def test_catql_literal_too_long_for_int_is_a_user_error(self, tmp_path, capsys):
        script = tmp_path / "big.catql"
        script.write_text(
            "schema S { nodes a; attribute n : a -> integer; }\n"
            f"instance I : S {{ node a {{ x; }} attribute a.n {{ x = {'7' * 5000}; }} }}\n"
        )
        code, out, err = run_cli(capsys, "show", str(script), "I")
        assert code == 1 and out == ""
        assert "catql: error: integer literal of 5000 digits is too long (line 2" in err

    def test_internal_value_error_exits_2(self, monkeypatch, capsys):
        def broken(*_args, **_kwargs):
            raise ValueError("invariant broken")

        monkeypatch.setattr(cli, "import_sql", broken)
        code, _out, err = run_cli(capsys, "import-sql", data_path("unitcode.sql"))
        assert code == 2
        assert "catql: internal error: ValueError: invariant broken" in err

    def test_infinite_hom_set_refused_at_once(self, tmp_path):
        script = tmp_path / "loops.catql"
        script.write_text(
            "schema L { nodes a; edge f : a -> a; edge g : a -> a; }\n"
            "schema S { nodes a; }\n"
            "mapping F : S -> L { node a -> a; }\n"
            "instance I : S { node a { x; } }\n"
            "let J = sigma F I;\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(catql.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "catql", "run", str(script)], env=env,
                              capture_output=True, text=True, timeout=5)
        assert proc.returncode == 1
        assert proc.stderr == (
            "catql: error: schema 'L' has infinitely many morphisms out of 'a': the normal "
            "form a.f ends twice in a (the same node, reached by the same last steps), so "
            "the steps between repeat without end (statement at line 5)\n")

    def test_python_m_catql(self):
        ok = run_module("import-sql", data_path("unitcode.sql"))
        assert ok.returncode == 0 and "unitcode (5 rows)" in ok.stdout
        usage = run_module()
        assert usage.returncode == 1 and "usage" in usage.stderr
