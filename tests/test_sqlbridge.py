"""SQL dialect import/export: parsing, foreign-key discovery, round trips."""

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import catql
from catql.core import make_schema
from catql.errors import SqlExportError, SqlImportError
from catql.instances import Instance, LabelledNull, empty_instance, iso_check, validate_instance
from catql.sqlbridge import _SqlParser, _literal, export_sql, import_sql

from conftest import read_data
from test_fuzz import mutate


class TestImport:
    def test_unitcode_snippet(self):
        schema, inst = import_sql(read_data("unitcode.sql"))
        assert schema.nodes == frozenset({"unitcode"})
        assert {a for (a, _n, _t) in schema.attributes} == {"Code", "Description"}
        assert len(inst.node_rows("unitcode")) == 5
        codes = set(inst.attr("unitcode", "Code").values())
        assert codes == {"EA", "Thousands", "Inch", "mm", "cm"}

    def test_empty_table(self):
        schema, inst = import_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
        assert inst.node_rows("t") == ()

    def test_references_becomes_edge(self, portal):
        schema, _ = portal
        assert ("capabilitymaterials_Material_id", "capabilitymaterials", "material") in schema.edges

    def test_fk_spec_sidecar(self):
        text = (
            "CREATE TABLE a (id INT PRIMARY KEY);\n"
            "CREATE TABLE b (id INT PRIMARY KEY, owner INT);\n"
            "INSERT INTO a VALUES (1);\n"
            "INSERT INTO b VALUES (10, 1);\n"
        )
        schema, inst = import_sql(text, fk_spec={"b": {"owner": "a"}})
        assert ("owner", "b", "a") in schema.edges
        assert inst.edge("b", "owner")["10"] == "1"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([1, 2], "must be an object"),
            ([], "must be an object"),
            ({"b": 5}, "for table 'b' must be an object"),
            ({"nosuch": {"owner": "a"}}, "unknown table 'nosuch'"),
            ({"b": {"nosuch": "a"}}, "unknown column 'nosuch'"),
            ({"b": {"owner": "nosuch"}}, "references unknown table 'nosuch'"),
            ({"b": {"owner": 5}}, "references unknown table 5"),
            ({"b": {"id": "a"}}, "primary key 'id'"),
            ({"c": {"link": "b"}}, "REFERENCES 'a'"),
        ],
    )
    def test_fk_spec_shape_checked(self, spec, message):
        text = (
            "CREATE TABLE a (id INT PRIMARY KEY);\n"
            "CREATE TABLE b (id INT PRIMARY KEY, owner INT);\n"
            "CREATE TABLE c (id INT PRIMARY KEY, link INT REFERENCES a);\n"
        )
        with pytest.raises(SqlImportError, match=message):
            import_sql(text, fk_spec=spec)

    def test_fk_guessing_opt_in(self):
        text = (
            "CREATE TABLE user (id INT PRIMARY KEY);\n"
            "CREATE TABLE post (id INT PRIMARY KEY, author_user_id INT);\n"
        )
        schema_off, _ = import_sql(text)
        assert not schema_off.edges
        schema_on, _ = import_sql(text, guess_fk=True)
        assert ("author_user_id", "post", "user") in schema_on.edges

    def test_referential_integrity(self):
        text = (
            "CREATE TABLE a (id INT PRIMARY KEY);\n"
            "CREATE TABLE b (id INT PRIMARY KEY, owner INT REFERENCES a);\n"
            "INSERT INTO b VALUES (10, 99);\n"
        )
        with pytest.raises(SqlImportError, match="missing"):
            import_sql(text)

    def test_duplicate_primary_key(self):
        text = "CREATE TABLE a (id INT PRIMARY KEY);\nINSERT INTO a VALUES (1), (1);"
        with pytest.raises(SqlImportError, match="duplicate"):
            import_sql(text)

    def test_type_mismatch(self):
        text = "CREATE TABLE a (id INT PRIMARY KEY, n INT);\nINSERT INTO a VALUES (1, 'x');"
        with pytest.raises(SqlImportError, match="mismatch"):
            import_sql(text)

    def test_unsupported_construct(self):
        with pytest.raises(SqlImportError, match="DROP"):
            import_sql("DROP TABLE a;")

    def test_null_becomes_labelled_null(self):
        text = "CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(9));\nINSERT INTO a VALUES (1, NULL);"
        _s, inst = import_sql(text)
        assert isinstance(inst.attr("a", "v")["1"], LabelledNull)

    def test_comments_and_quote_styles(self):
        text = (
            "-- leading comment\n"
            "CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(99));\n"
            "INSERT INTO a VALUES (1, 'it''s'), (2, \"say \"\"hi\"\"\");\n"
        )
        _s, inst = import_sql(text)
        assert inst.attr("a", "v")["1"] == "it's"
        assert inst.attr("a", "v")["2"] == 'say "hi"'

    def test_comments_and_doubled_quotes_at_edges(self):
        text = (
            "CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(9)); -- one\n"
            "INSERT INTO a VALUES (1, ''''), (2, ''), (3, '-- x'),\n"
            "  (4, \"\"\"\"), (5, \"a''b\"), (-6, '\"');--tail"
        )
        _s, inst = import_sql(text)
        assert inst.attr("a", "v") == {
            "1": "'", "2": "", "3": "-- x", "4": '"', "5": "a''b", "-6": '"',
        }

    @pytest.mark.parametrize("text, offset, char", [
        ("CREATE TABLE a (id INT PRIMARY KEY);\n@", 37, "@"),
        ("CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(9));\n"
         "INSERT INTO a VALUES (1, 'x)", 76, "'"),
        ("-- c\nCREATE TABLE a.b", 19, "."),
        ("CREATE TABLE a (id INT PRIMARY KEY);@", 36, "@"),
        ("CREATE TABLE a (id INT PRIMARY KEY);\n-- c\n@", 42, "@"),
        ("CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(9));\n"
         "INSERT INTO a VALUES (1, 'it''s", 80, "'"),
        ("INSERT INTO a VALUES (1, \"x", 25, '"'),
    ])
    def test_unexpected_character_offset(self, text, offset, char):
        with pytest.raises(SqlImportError) as exc:
            import_sql(text)
        assert str(exc.value) == f"unexpected SQL character {char!r} at offset {offset}"

    @pytest.mark.parametrize("text, message", [
        ("CREATE TABLE 't' (id INT PRIMARY KEY);", "expected table name, got \"'t'\""),
        ("CREATE TABLE 5 (id INT PRIMARY KEY);", "expected table name, got '5'"),
        ("CREATE TABLE a (id INT PRIMARY KEY, ; INT);",
         "expected column name in table 'a', got ';'"),
        ("CREATE TABLE a (id INT PRIMARY KEY, \"v\" INT);",
         "expected column name in table 'a', got '\"v\"'"),
        ("CREATE TABLE 5 (id INT PRIMARY KEY);\n"
         "CREATE TABLE a (id INT PRIMARY KEY, f INT REFERENCES 5);",
         "expected table name, got '5'"),
        ("CREATE TABLE a (id INT PRIMARY KEY, f INT REFERENCES 'a');",
         "expected table name after REFERENCES, got \"'a'\""),
        ("CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(abc));",
         "expected VARCHAR length, got 'abc'"),
        ("CREATE TABLE a (id INT PRIMARY KEY);\nINSERT INTO 'a' VALUES (1);",
         "expected table name, got \"'a'\""),
        ("CREATE TABLE a (id INT PRIMARY KEY);\nINSERT INTO 5 VALUES (1);",
         "expected table name, got '5'"),
    ])
    def test_names_must_be_identifiers(self, text, message):
        with pytest.raises(SqlImportError) as exc:
            import_sql(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("CREATE TABLE t (id INT PRIMARY KEY, a INT, a INT);\nINSERT INTO t VALUES (1, 2, 3);",
         "table 't': column 'a' declared twice"),
        ("CREATE TABLE t (id INT PRIMARY KEY, a INT, a VARCHAR(9));",
         "table 't': column 'a' declared twice"),
        ("CREATE TABLE t (id INT PRIMARY KEY, id INT);",
         "table 't': column 'id' declared twice"),
        ("CREATE TABLE u (id INT PRIMARY KEY);\n"
         "CREATE TABLE t (id INT PRIMARY KEY, b INT REFERENCES u, b INT REFERENCES u);",
         "table 't': column 'b' declared twice"),
        ("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(-5));",
         "table 't': column 'v' has VARCHAR length -5, below 1"),
        ("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(0));",
         "table 't': column 'v' has VARCHAR length 0, below 1"),
    ])
    def test_bad_column_declarations(self, text, message):
        with pytest.raises(SqlImportError) as exc:
            import_sql(text)
        assert str(exc.value) == message

    def test_varchar_length_one(self):
        schema, inst = import_sql(
            "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(1));\nINSERT INTO t VALUES (1, 'x');"
        )
        assert inst.attr("t", "v") == {"1": "x"}

    def test_literal_longer_than_int_converts(self):
        # int() refuses a string of more than 4300 digits (Python 3.10.7+)
        big = "1" * 5000
        with pytest.raises(SqlImportError) as exc:
            import_sql(A + f"INSERT INTO a VALUES (1, {big});")
        assert str(exc.value) == f"bad literal {big!r} in VALUES"
        with pytest.raises(SqlImportError) as exc:
            import_sql(A + f"INSERT INTO a VALUES (1, 2), (-{big}, 3;")
        assert str(exc.value) == f"bad literal {'-' + big!r} in VALUES"

    @pytest.mark.parametrize("length, accepted", [
        ("7" * 5000, True),
        ("0" * 4999 + "1", True),
        ("0" * 5000, False),
        ("-" + "7" * 5000, False),
    ], ids=["long", "leading-zeros", "zeros", "negative"])
    def test_varchar_length_longer_than_int_converts(self, length, accepted):
        text = f"CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR({length}));"
        if accepted:
            schema, _inst = import_sql(text)
            assert schema.attributes == {("v", "t", "string")}
        else:
            with pytest.raises(SqlImportError) as exc:
                import_sql(text)
            assert str(exc.value) == f"table 't': column 'v' has VARCHAR length {length}, below 1"

    def test_insert_order_insensitive(self):
        a = "CREATE TABLE t (id INT PRIMARY KEY, v INT);\nINSERT INTO t VALUES (1, 5);\nINSERT INTO t VALUES (2, 6);"
        b = "CREATE TABLE t (id INT PRIMARY KEY, v INT);\nINSERT INTO t VALUES (2, 6);\nINSERT INTO t VALUES (1, 5);"
        assert iso_check(import_sql(a)[1], import_sql(b)[1])

    def test_imported_instances_validate(self, portal):
        _s, inst = portal
        validate_instance(inst)

    @pytest.mark.parametrize("create, values, columns", [
        ("n INT, s VARCHAR(9)", "(1, NULL, 'a'), (2, 5, NULL)",
         {"n": [None, 5], "s": ["a", None]}),
        ("s VARCHAR(9)", """(1, 'a'), (2, "b"), (3, 'c')""", {"s": ["a", "b", "c"]}),
        ("s VARCHAR(9)", "(1, 'it''s'), (2, '''')", {"s": ["it's", "'"]}),
        ("s VARCHAR(9)", '(1, "say ""hi"""), (2, """")', {"s": ['say "hi"', '"']}),
        ("s VARCHAR(9)", "(1, ''), (2, '')", {"s": ["", ""]}),
        ("", "(3), (-1), (2)", {}),
    ], ids=["null-int-and-varchar", "both-quotes", "doubled-single", "doubled-double",
            "empty-strings", "id-only"])
    def test_block_values(self, create, values, columns):
        cols = "id INT PRIMARY KEY" + (f", {create}" if create else "")
        _s, inst = import_sql(f"CREATE TABLE a ({cols});\nINSERT INTO a VALUES {values};")
        rows = inst.node_rows("a")
        assert len(rows) == values.count("), (") + 1
        assert {c: [inst.attr("a", c)[r] for r in rows] for c in columns} == {
            c: [LabelledNull(f"null!a!{c}!{r}") if v is None else v for r, v in zip(rows, vals)]
            for c, vals in columns.items()
        }

    def test_two_blocks_into_one_table(self):
        _s, inst = import_sql(A + "INSERT INTO a VALUES (1, 2), (3, 4);\nINSERT INTO a VALUES (5, 6);")
        assert inst.attr("a", "v") == {"1": 2, "3": 4, "5": 6}


class TestScanner:
    def test_comment_at_end_without_newline(self):
        assert _SqlParser("CREATE -- x").tokens == ["CREATE", ";"]
        assert _SqlParser("-- x").tokens == [";"]

    def test_dashes_inside_a_string_are_not_a_comment(self):
        assert _SqlParser("VALUES ('a -- b', \"--\")--c\n;").tokens == [
            "VALUES", "(", "'a -- b'", ",", '"--"', ")", ";", ";",
        ]

    def test_long_blank_run_is_scanned_in_linear_time(self):
        started = time.perf_counter()
        with pytest.raises(SqlImportError) as exc:
            import_sql(" " * 200_000 + "@")
        assert str(exc.value) == "unexpected SQL character '@' at offset 200000"
        assert time.perf_counter() - started < 1.0

    def test_import_memory_peak(self):
        text = portal_text(170)
        assert 80_000 < len(text) < 90_000
        tracemalloc.start()
        try:
            import_sql(text)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


A = "CREATE TABLE a (id INT PRIMARY KEY, v INT);\n"
AB = (
    "CREATE TABLE a (id INT PRIMARY KEY);\n"
    "CREATE TABLE b (id INT PRIMARY KEY, f INT REFERENCES a, v INT);\n"
    "INSERT INTO a VALUES (1);\n"
)


class TestErrorOrder:
    """Which error wins when an input has several faults."""

    @pytest.mark.parametrize("text, message", [
        (A + "INSERT INTO a VALUES (1, 'x'), (2, 3, 4);", "table 'a': INSERT arity 3 != 2 columns"),
        (A + "INSERT INTO a VALUES ('k', 2), (3);", "table 'a': primary key must be an integer"),
        (A + "INSERT INTO a VALUES (1, 2), (1, 2, 3);", "table 'a': INSERT arity 3 != 2 columns"),
        (A + "INSERT INTO a VALUES (5, 1), (5, 'x'), ('k', 2);", "table 'a': duplicate primary key 5"),
        (A + "INSERT INTO a VALUES (1, 2);\nINSERT INTO a VALUES (2, 3), (1, 4), ('k', 5);",
         "table 'a': duplicate primary key 1"),
        (A + "INSERT INTO a VALUES (1, 2, 3);\nINSERT INTO zz VALUES (1);",
         "table 'a': INSERT arity 3 != 2 columns"),
        (A + "INSERT INTO zz VALUES (1);\nINSERT INTO a VALUES (1, 2, 3);",
         "INSERT into unknown table 'zz'"),
        (AB + "INSERT INTO b VALUES (10, 1, 'x'), (11, 7, 2), (12, 'q', 3);",
         "table 'b': row 11 references missing 'a' id 7"),
        (AB + "INSERT INTO b VALUES (10, 1, 'x'), (11, 'q', 2), (12, 7, 3);",
         "table 'b': foreign key 'f' needs integer ids"),
        (AB + "INSERT INTO b VALUES (10, 1, NULL), (11, 1, 'x'), (12, 1, \"y\");",
         "table 'b': column 'v' row 11: type mismatch for 'x'"),
        ("CREATE TABLE a (id INT PRIMARY KEY, v INT, w VARCHAR(3));\n"
         "INSERT INTO a VALUES (1, 2, 3), (2, 'x', 'y');",
         "table 'a': column 'v' row 2: type mismatch for 'x'"),
        (A + "INSERT INTO a VALUES (1 2); @", "unexpected SQL character '@' at offset 72"),
        (A + "INSERT INTO a VALUES (1, 2; INSERT INTO a VALUES (3, 4);",
         "expected ',' or ')' in VALUES, got ';'"),
        (A + "INSERT INTO a VALUES (1, , 2), (3);", "bad literal ',' in VALUES"),
        (A + "INSERT INTO a VALUES (), (1, x);", "bad literal ')' in VALUES"),
        (A + "INSERT INTO a VALUES (1, 2) (3, 4);", "expected ',' or ';' after tuple, got '('"),
        (A + "INSERT INTO a VALUES (1, 'x'", "expected ',' or ')' in VALUES, got ';'"),
        (A + "INSERT INTO a VALUES (1,", "bad literal ';' in VALUES"),
        (A + "INSERT INTO a VALUES (1, foo), (2, 'it''s');", "bad literal 'foo' in VALUES"),
        (A + "INSERT INTO a VALUES (1, foo), (2, 3), (bar, 4);", "bad literal 'foo' in VALUES"),
        (A + "INSERT INTO a VALUES (1, 2), (3, 4, 5), (6 7);",
         "expected ',' or ')' in VALUES, got '7'"),
        # one token out of place in a block of one period
        (A + "INSERT INTO a VALUES (1, 2), 7 3, 4);", "expected '(', got '7'"),
        (A + "INSERT INTO a VALUES (1, 2), (3, 4 x, (5, 6);",
         "expected ',' or ')' in VALUES, got 'x'"),
        (A + "INSERT INTO a VALUES (1, 2) x (3, 4);", "expected ',' or ';' after tuple, got 'x'"),
        (A + "INSERT INTO a VALUES (1, 2 3 4);", "expected ',' or ')' in VALUES, got '3'"),
        (A + "INSERT INTO a VALUES (1, 2), ('k', 3);", "table 'a': primary key must be an integer"),
        (A + "INSERT INTO a VALUES (1, 2), (NULL, 3);", "table 'a': primary key must be an integer"),
        (A + "INSERT INTO a VALUES (1, 2);\nINSERT INTO a VALUES (3, 4), (1, 5);",
         "table 'a': duplicate primary key 1"),
        (A + "INSERT INTO zz VALUES (1, ((, 2));", "bad literal '(' in VALUES"),
        (A + "INSERT INTO a VALUES (1, 2); DROP TABLE a; INSERT INTO a VALUES ('q');",
         "unsupported SQL construct starting at 'DROP'"),
        (A + "CREATE TABLE a (id INT PRIMARY KEY);\nINSERT INTO a VALUES ('x');",
         "table 'a' created twice"),
    ])
    def test_first_fault_wins(self, text, message):
        with pytest.raises(SqlImportError) as exc:
            import_sql(text)
        assert str(exc.value) == message


class TestExport:
    def test_unitcode_round_trip(self):
        _s1, i1 = import_sql(read_data("unitcode.sql"))
        _s2, i2 = import_sql(export_sql(i1.schema, i1))
        assert iso_check(i1, i2)

    def test_portal_round_trip(self, portal):
        schema, inst = portal
        _s2, i2 = import_sql(export_sql(schema, inst))
        assert iso_check(inst, i2)

    def test_empty_instance_creates_only(self):
        schema, inst = import_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
        text = export_sql(schema, inst)
        assert "CREATE TABLE" in text and "INSERT" not in text

    def test_null_warns(self):
        text = "CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(9));\nINSERT INTO a VALUES (1, NULL);"
        schema, inst = import_sql(text)
        warnings = []
        out = export_sql(schema, inst, warn=warnings.append)
        assert "NULL" in out and len(warnings) == 1

    def test_null_warnings_in_row_order(self):
        schema, inst = import_sql(
            "CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(9), w INT);\n"
            "INSERT INTO a VALUES (2, NULL, NULL), (1, NULL, NULL), (3, 'x', 4);"
        )
        warnings = []
        export_sql(schema, inst, warn=warnings.append)
        assert warnings == [
            f"a.{c} row {r}: labelled null null!a!{c}!{r} exported as NULL"
            for r in "12" for c in "vw"
        ]

    def test_pinned_text(self):
        schema, inst = import_sql(
            "CREATE TABLE unit (id INT PRIMARY KEY, code VARCHAR(9), size INT);\n"
            "CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(20), len INT,"
            " unit INT REFERENCES unit);\n"
            """INSERT INTO unit VALUES (-1, 'mm', -5), (2, "in""ch", NULL);\n"""
            "INSERT INTO part VALUES (10, 'it''s', -3, -1), (7, NULL, 0, 2), (8, '', NULL, 2);\n"
        )
        assert export_sql(schema, inst) == (
            "CREATE TABLE part (\n  id INT PRIMARY KEY,\n  len INT,\n  name VARCHAR(255),\n"
            "  unit INT REFERENCES unit\n);\n"
            "CREATE TABLE unit (\n  id INT PRIMARY KEY,\n  code VARCHAR(255),\n  size INT\n);\n"
            "INSERT INTO part VALUES\n(7, 0, NULL, 2),\n(8, NULL, '', 2),\n(10, -3, 'it''s', -1);\n"
            "INSERT INTO unit VALUES\n(-1, 'mm', -5),\n(2, 'in\"ch', NULL);\n"
        )

    def test_negative_ids_are_kept(self):
        """Negative integer ids, and the edges into their table, survive a
        round trip as they are; ids that are equal as integers, such as -0
        and 0, are still renumbered."""
        text = ("CREATE TABLE unit (id INT PRIMARY KEY, code VARCHAR(9));\n"
                "CREATE TABLE part (id INT PRIMARY KEY, unit INT REFERENCES unit);\n"
                "INSERT INTO unit VALUES (-1, 'mm'), (2, 'in'), (-30, 'ft');\n"
                "INSERT INTO part VALUES (-7, -1), (5, -30), (6, 2);\n")
        schema, inst = import_sql(text)
        out = export_sql(schema, inst)
        assert "(-30, 'ft'),\n(-1, 'mm'),\n(2, 'in')" in out
        assert "(-7, -1),\n(5, -30),\n(6, 2)" in out
        _s2, again = import_sql(out)
        assert again.rows == inst.rows
        assert again.edge_fn == inst.edge_fn == {("part", "unit"): {"-7": "-1", "5": "-30", "6": "2"}}
        s = make_schema("Z", ["t"], [])
        zeros = Instance(s, {"t": ["-0", "0"]}, {}, {})
        assert "INSERT INTO t VALUES\n(1),\n(2);" in export_sql(s, zeros)

    def test_single_quote_output(self):
        schema, inst = import_sql(read_data("unitcode.sql"))
        out = export_sql(schema, inst)
        assert "'EA'" in out and '"EA"' not in out

    @pytest.mark.parametrize("nodes, edges, attrs, message", [
        (["café"], [], [], "cannot export node 'café' as SQL"),
        (["t5", "5"], [], [], "cannot export node '5' as SQL"),
        (["a"], [], [("prix €", "a", "integer")], "cannot export attribute 'prix €' of node 'a'"),
        (["a", "b"], [("to-b", "a", "b")], [], "cannot export edge 'to-b' of node 'a'"),
        (["id", "b"], [("id", "b", "id")], [], "cannot export edge 'id' of node 'b'"),
        (["id"], [], [("id", "id", "string")], "cannot export attribute 'id' of node 'id'"),
    ])
    def test_names_import_cannot_read_are_refused(self, nodes, edges, attrs, message):
        schema = make_schema("S", nodes, edges, attrs)
        with pytest.raises(SqlExportError, match=message):
            export_sql(schema, empty_instance(schema))


def rand_sql_text(rng: random.Random):
    n_tables = rng.randint(1, 3)
    names = [f"t{i}" for i in range(n_tables)]
    defs = []
    for i, name in enumerate(names):
        cols = [("id", "INT PRIMARY KEY")]
        for j in range(rng.randint(0, 3)):
            kind = rng.random()
            if kind < 0.3 and i > 0:
                cols.append((f"fk{j}", f"INT REFERENCES {names[rng.randrange(i)]}"))
            elif kind < 0.6:
                cols.append((f"n{j}", "INT"))
            else:
                cols.append((f"s{j}", "VARCHAR(32)"))
        defs.append((name, cols))
    lines = []
    for (name, cols) in defs:
        lines.append(
            f"CREATE TABLE {name} (" + ", ".join(f"{c} {t}" for (c, t) in cols) + ");"
        )
    rows = {}
    for (name, cols) in defs:
        ids = rng.sample(range(1, 50), rng.randint(1, 5))
        rows[name] = ids
    pool = ["alpha", "be'ta", 'ga"mma', ""]
    for (name, cols) in defs:
        tuples = []
        for rid in rows[name]:
            vals = [str(rid)]
            for (c, t) in cols[1:]:
                if "REFERENCES" in t:
                    target = t.split()[-1]
                    vals.append(str(rng.choice(rows[target])))
                elif t == "INT":
                    vals.append(str(rng.choice([-3, 0, 42])) if rng.random() > 0.1 else "NULL")
                else:
                    v = rng.choice(pool)
                    vals.append("'" + v.replace("'", "''") + "'" if rng.random() > 0.1 else "NULL")
            tuples.append("(" + ", ".join(vals) + ")")
        lines.append(f"INSERT INTO {name} VALUES " + ", ".join(tuples) + ";")
    return "\n".join(lines)


def reference_inserts(tokens):
    """Each INSERT's (table, columns), read tuple by tuple with _literal."""
    inserts = []
    i = 0
    while i < len(tokens):
        if tokens[i] != "INSERT":
            i += 1
            continue
        name, i, rows = tokens[i + 2], i + 4, []  # INSERT INTO name VALUES
        while tokens[i - 1] != ";":  # i is at a tuple's "("
            rows.append([])
            while tokens[i] != ")":
                rows[-1].append(_literal(tokens[i + 1]))
                i += 2
            i += 2
        inserts.append((name, [list(col) for col in zip(*rows)]))
    return inserts


def requote(rng: random.Random, text: str) -> str:
    """The text with about half its 'single-quoted' strings double-quoted."""
    tokens = _SqlParser(text).tokens
    for i, t in enumerate(tokens):
        if t[0] == "'" and rng.random() < 0.5:
            tokens[i] = '"' + t[1:-1].replace("''", "'").replace('"', '""') + '"'
    return " ".join(tokens)


@pytest.fixture
def walked(monkeypatch):
    """A list that gains one entry per tuple of a walked block."""
    tuples = []
    walked_tuple = _SqlParser._walked_tuple
    monkeypatch.setattr(_SqlParser, "_walked_tuple",
                        lambda self: tuples.append(1) or walked_tuple(self))
    return tuples


class TestBlockRead:
    def test_columns_match_reference_reader(self):
        rng = random.Random(15)
        for _ in range(300):
            text = rand_sql_text(rng)
            for t in (text, requote(rng, text)):
                _tables, inserts = _SqlParser(t).parse()
                assert [(name, cols) for (name, cols, _rows) in inserts] == \
                    reference_inserts(_SqlParser(t).tokens), t
                assert all(rows is None for (_name, _cols, rows) in inserts)


    def test_comments_between_tokens(self, walked):
        """The texts above, with comments and line breaks put between random
        tokens, import as they do without them.  A comment inside a tuple
        makes its block walked token by token, so both reads are compared."""
        rng, gaps = random.Random(15), random.Random(16)
        comments = ["x", "it's; y", "(1, 2);", "'", '"', "--", "NULL", ""]
        for _ in range(300):
            text = rand_sql_text(rng)
            for t in (text, requote(rng, text)):
                commented = "".join(
                    tok + gaps.choice([" ", " ", " ", "\n", f" --{gaps.choice(comments)}\n"])
                    for tok in _SqlParser(t).tokens[:-1]
                )
                _s, inst = import_sql(t)
                _s, again = import_sql(commented)
                assert (again.rows, again.edge_fn, again.attr_fn) == \
                    (inst.rows, inst.edge_fn, inst.attr_fn), commented
        assert len(walked) > 1000

    def test_quotes_in_comments_between_tuples(self, walked):
        """A quote or `;` in a `--` comment between tuples leaves the block
        on the tuple path."""
        comments = ["-- it's", '-- say "', "-- it's; x", "---'", "--", ""]
        text = A + "".join(f"INSERT INTO a VALUES ({2 * i}, -1), {c}\n ({2 * i + 1}, 2);\n"
                           for i, c in enumerate(comments * 50))
        _tables, inserts = _SqlParser(text).parse()
        assert walked == []
        assert [(name, cols) for (name, cols, _rows) in inserts] == \
            reference_inserts(_SqlParser(text).tokens)
        assert len(inserts) == 300

    def test_comments_after_a_tuple(self, walked):
        """A comment between a tuple's `)` and the `,` or `;` after it leaves
        the block on the tuple path, and reads as the comment after the
        comma does."""
        comments = ["-- it's", '-- say "', "-- (5, 6);", "---'", "--", ""]
        before, after = A, A
        for i, c in enumerate(comments * 50):
            before += f"INSERT INTO a VALUES ({3 * i}, -1) {c}\n, ({3 * i + 1}, 2), ({3 * i + 2}, 3) {c}\n;\n"
            after += f"INSERT INTO a VALUES ({3 * i}, -1), {c}\n ({3 * i + 1}, 2), ({3 * i + 2}, 3);\n"
        _s, got = import_sql(before)
        assert walked == []
        _s, want = import_sql(after)
        assert (got.rows, got.attr_fn) == (want.rows, want.attr_fn)
        assert len(got.rows["a"]) == 900


class TestTupleRead:
    """INSERT blocks read by one tuple pattern import as they did when every
    token was scanned."""

    def test_strings_that_look_like_syntax(self):
        _s, inst = import_sql(
            "CREATE TABLE a (id INT PRIMARY KEY, s VARCHAR(99));\n"
            "INSERT INTO a VALUES (1, 'x;y'), (2, '(1, 2)'), (3, '--'), (4, 'a\nb'),\n"
            "  (5, 'it''s'), (6, \"say \"\"hi\"\"\"), (7, '\"\"'), (8, \"''\"), (9, ';');"
        )
        assert inst.attr("a", "s") == {
            "1": "x;y", "2": "(1, 2)", "3": "--", "4": "a\nb",
            "5": "it's", "6": 'say "hi"', "7": '""', "8": "''", "9": ";",
        }

    def test_nulls_and_integer_spellings(self):
        _s, inst = import_sql(
            "CREATE TABLE a (id INT PRIMARY KEY, v INT, w VARCHAR(9));\n"
            "INSERT INTO a VALUES (-0, null, NULL), (007, -0, 'x'), (-12, 007, Null);"
        )
        assert inst.rows["a"] == ("-12", "0", "7")
        assert inst.attr("a", "v") == {"0": LabelledNull("null!a!v!0"), "7": 0, "-12": 7}
        assert inst.attr("a", "w") == {
            "0": LabelledNull("null!a!w!0"), "7": "x", "-12": LabelledNull("null!a!w!-12"),
        }

    def test_comment_with_quote_and_semicolon_inside_a_block(self):
        _s, inst = import_sql(A + "INSERT INTO a VALUES (1, 2), -- it's; x\n (3, 4);")
        assert inst.attr("a", "v") == {"1": 2, "3": 4}
        _s, inst = import_sql("CREATE TABLE b (id INT PRIMARY KEY, s VARCHAR(9));\n"
                              "INSERT INTO b VALUES (1, 'a'), -- it's\n (2, 'x;y'), (3, 'b');")
        assert inst.attr("b", "s") == {"1": "a", "2": "x;y", "3": "b"}

    def test_insert_before_its_create(self):
        _s, inst = import_sql("INSERT INTO a VALUES (1, 2), (3, 4);\n" + A)
        assert inst.attr("a", "v") == {"1": 2, "3": 4}

    @pytest.mark.parametrize("text", [
        A + "INSERT INTO a VALUES (1, 2), (3, 4);\n@",
        A + "INSERT INTO a VALUES (1, 2), (1, 3); @",
        A + "INSERT INTO a VALUES (1, 2);\nINSERT INTO zz VALUES (1, 'x');@",
    ])
    def test_bad_character_after_a_block(self, text):
        with pytest.raises(SqlImportError) as exc:
            import_sql(text)
        assert str(exc.value) == f"unexpected SQL character '@' at offset {text.index('@')}"

    def test_many_blocks_in_linear_time(self):
        text = A + "".join(f"INSERT INTO a VALUES ({i}, {-i});\n" for i in range(20_000))
        started = time.perf_counter()
        _s, inst = import_sql(text)
        assert time.perf_counter() - started < 1.0
        assert len(inst.rows["a"]) == 20_000 and inst.attr("a", "v")["19999"] == -19999


    def test_wide_short_table_first_import_is_walked(self):
        """A table of 5,000 columns and 20 rows is walked on its first import
        in a fresh process: compiling its tuple pattern took about 1.3 s."""
        code = (
            "import json, sys, time\n"
            "from catql.sqlbridge import import_sql\n"
            "k = 5000\n"
            "text = ('CREATE TABLE t (id INT PRIMARY KEY, '\n"
            "        + ', '.join(f'c{i} INT' for i in range(k)) + ');\\n'\n"
            "        + 'INSERT INTO t VALUES ' + ',\\n'.join(\n"
            "            '(' + ', '.join(str(r * 7 + i) for i in range(k + 1)) + ')'\n"
            "            for r in range(20)) + ';')\n"
            "started = time.perf_counter()\n"
            "_s, inst = import_sql(text)\n"
            "elapsed = time.perf_counter() - started\n"
            "ok = inst.rows['t'] == tuple(sorted(str(r * 7) for r in range(20))) and all(\n"
            "    inst.attr('t', f'c{i}') == {str(r * 7): r * 7 + i + 1 for r in range(20)}\n"
            "    for i in range(k))\n"
            "print(json.dumps([elapsed, ok]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(catql.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        elapsed, ok = json.loads(run.stdout)
        assert ok
        assert elapsed < 0.5

    def test_wide_table_compiles_after_64_walked_rows(self, walked):
        """One-row blocks of a 64-column table are walked until 64 rows
        would have been walked, and then read by the tuple pattern; a
        63-column table is never walked."""
        for k, expected in ((64, 63), (63, 0)):
            walked.clear()
            text = ("CREATE TABLE a (id INT PRIMARY KEY, "
                    + ", ".join(f"c{i} INT" for i in range(k - 1)) + ");\n"
                    + "".join(f"INSERT INTO a VALUES ({r}, " + ", ".join(["-1"] * (k - 1)) + ");\n"
                              for r in range(100)))
            _s, inst = import_sql(text)
            assert len(walked) == expected
            assert inst.attr("a", "c0") == {str(r): -1 for r in range(100)}

def tuple_read(text, method):
    """The values that `method` reads from the tuple that text opens, with
    the current token and its offset after them, or the error raised."""
    try:
        p = _SqlParser(text)
        p.next()  # the tuple's `(`
        return method(p), p.tok, p.start
    except SqlImportError as exc:
        return str(exc)


class TestWalkedTupleRead:
    """A walked tuple read by one findall gives the values, error and next
    token that the token walk gives."""

    def test_against_token_walk(self):
        values = ["1", "-2", "007", "'a'", "'a)b'", "'it''s'", '"x"', "''", "NULL", "null",
                  "9" * 5000]
        junk = ["NULLX", "x", "", ",", "-- c)\n", "(", ")", "'", "@"]
        seps = [",", ", ", " ,\n", " , ", ",-- c\n", " "]
        cases = ["(1, 2)", "( 1 ,'a' , NULL )", "('a)b', 2)", "()", "(1, )", "(1 2)",
                 "(1, 2", "(1, 'x", "(1, @)"]
        rng = random.Random(33)
        for _ in range(3000):
            items = [rng.choice(junk if rng.random() < 0.1 else values)
                     for _ in range(rng.randint(1, 6))]
            sep = rng.choice(seps[:4] if rng.random() < 0.8 else seps)
            cases.append("(" + sep.join(items) + ")" + rng.choice(["", ",", " (1)", ";", "@"]))
        read = 0
        for text in cases:
            got = tuple_read(text, _SqlParser._walked_tuple)
            assert got == tuple_read(text, _SqlParser._tuple_by_tokens), text
            read += isinstance(got, tuple)
        assert read >= 1000, read


class TestRandomRoundTrip:
    def test_random_files(self):
        rng = random.Random(55)
        for _ in range(25):
            text = rand_sql_text(rng)
            schema, inst = import_sql(text)
            validate_instance(inst)
            _s2, reimported = import_sql(export_sql(schema, inst))
            assert iso_check(inst, reimported)


def reference_import(text, fk_spec=None, guess_fk=False):
    """import_sql's (schema, instance), or its error, built row by row with
    one str() per id cell.  The schema comes from import_sql on the CREATE
    statements alone, which raises what it would raise before reading any
    row."""
    tables, inserts = _SqlParser(text).parse()
    creates = "".join(
        f"CREATE TABLE {t.name} (" + ", ".join(
            f"{c.name} {c.sql_type}" + {"id": " PRIMARY KEY", "attribute": "",
                                        "fk": f" REFERENCES {c.fk_target}"}[c.role]
            for c in t.columns) + ");\n" for t in tables)
    schema, _empty = import_sql(creates, fk_spec, guess_fk)
    targets = {(n, e): tgt for (e, n, tgt) in schema.edges}
    columns = {t.name: t.columns for t in tables}
    table_rows = {t.name: [] for t in tables}
    for (name, cols, ragged) in inserts:
        if name not in columns:
            raise SqlImportError(f"INSERT into unknown table {name!r}")
        arity, ids = len(columns[name]), [r[0] for r in table_rows[name]]
        for vals in ragged or zip(*cols):
            if len(vals) != arity:
                raise SqlImportError(f"table {name!r}: INSERT arity {len(vals)} != {arity} columns")
            if not isinstance(vals[0], int):
                raise SqlImportError(f"table {name!r}: primary key must be an integer")
            if vals[0] in ids:
                raise SqlImportError(f"table {name!r}: duplicate primary key {vals[0]}")
            ids.append(vals[0])
            table_rows[name].append(vals)
    rows, edge_fn, attr_fn = {}, {}, {}
    for t in tables:
        rows[t.name] = [str(vals[0]) for vals in table_rows[t.name]]
        for j, c in enumerate(t.columns[1:], 1):
            tgt = targets.get((t.name, c.name))
            fn = (edge_fn if tgt else attr_fn)[(t.name, c.name)] = {}
            for vals in table_rows[t.name]:
                rid, v = vals[0], vals[j]
                if tgt and not isinstance(v, int):
                    raise SqlImportError(
                        f"table {t.name!r}: foreign key {c.name!r} needs integer ids")
                if tgt and v not in [r[0] for r in table_rows[tgt]]:
                    raise SqlImportError(
                        f"table {t.name!r}: row {rid} references missing {tgt!r} id {v}")
                want = int if tgt or c.sql_type == "INT" else str
                if v is not None and not isinstance(v, want):
                    raise SqlImportError(
                        f"table {t.name!r}: column {c.name!r} row {rid}: type mismatch for {v!r}")
                fn[str(rid)] = (str(v) if tgt else
                                LabelledNull(f"null!{t.name}!{c.name}!{rid}") if v is None else v)
    inst = Instance(schema, rows, edge_fn, attr_fn)
    validate_instance(inst)
    return schema, inst


def import_outcome(read, text, **options):
    """repr of an import's rows, edge and attribute dicts, or its error."""
    try:
        _schema, inst = read(text, **options)
    except SqlImportError as exc:
        return "SqlImportError", str(exc)
    return repr((inst.rows, inst.edge_fn, inst.attr_fn))


def assert_ids_shared(inst):
    """Equal row ids are one object, in every table, edge and attribute dict."""
    ids = {}
    for node_rows in inst.rows.values():
        assert all(ids.setdefault(r, r) is r for r in node_rows)
    for fn in (*inst.edge_fn.values(), *inst.attr_fn.values()):
        assert all(r is ids[r] for r in fn)
    for fn in inst.edge_fn.values():
        assert all(t is ids[t] for t in fn.values())


class TestSharedIds:
    """import_sql mints one string per integer id and import, and imports
    as a row-by-row reader that calls str() per id cell."""

    CASES = [
        pytest.param("CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(9));\n"
                     "CREATE TABLE b (id INT PRIMARY KEY, f INT REFERENCES a, w INT);\n"
                     "INSERT INTO a VALUES (10, NULL), (11, 'x');\n"
                     "INSERT INTO b VALUES (11, 10, NULL), (12, 11, 7);", {},
                     id="null-column-in-a-table-before-others"),
        pytest.param("CREATE TABLE a (id INT PRIMARY KEY, v INT);\n"
                     "CREATE TABLE b (id INT PRIMARY KEY, f INT REFERENCES a);\n"
                     "INSERT INTO a VALUES (-10, -- x\n 1), (20, 2);\n"
                     "INSERT INTO b VALUES (-10, 20), (20, -10), (-30, -10);", {},
                     id="walked-block-negative-ids"),
        pytest.param(A + "INSERT INTO a VALUES (10, 1), (11);", {}, id="ragged-short"),
        pytest.param(A + "INSERT INTO a VALUES (10), (11, 1);", {}, id="ragged-long"),
        pytest.param("CREATE TABLE a (id INT PRIMARY KEY);\n"
                     "CREATE TABLE b (id INT PRIMARY KEY, owner INT);\n"
                     "INSERT INTO a VALUES (10), (11);\nINSERT INTO b VALUES (11, 10), (10, 11);",
                     {"fk_spec": {"b": {"owner": "a"}}}, id="fk-spec"),
        pytest.param("CREATE TABLE user (id INT PRIMARY KEY);\n"
                     "CREATE TABLE post (id INT PRIMARY KEY, author_user_id INT);\n"
                     "INSERT INTO user VALUES (10), (-11);\n"
                     "INSERT INTO post VALUES (-11, 10), (10, -11);",
                     {"guess_fk": True}, id="guess-fk"),
        pytest.param(AB + "INSERT INTO b VALUES (10, 1, 'x');", {}, id="type-mismatch"),
        pytest.param(AB + "INSERT INTO b VALUES (10, 2, 1);", {}, id="missing-target"),
        pytest.param(AB + "INSERT INTO b VALUES (10, 'x', 1);", {}, id="string-foreign-key"),
    ]

    @pytest.mark.parametrize("text, options", CASES)
    def test_cases(self, text, options):
        outcome = import_outcome(import_sql, text, **options)
        assert outcome == import_outcome(reference_import, text, **options)
        if isinstance(outcome, str):
            assert_ids_shared(import_sql(text, **options)[1])

    def test_random_files_and_their_exports(self):
        rng = random.Random(55)
        for _ in range(100):
            text = rand_sql_text(rng)
            schema, inst = import_sql(text)
            for t in (text, export_sql(schema, inst)):
                assert import_outcome(import_sql, t) == import_outcome(reference_import, t), t
            assert_ids_shared(inst)

    def test_fuzzed_portals(self):
        rng, original, imported = random.Random(11), read_data("portal_a.sql"), 0
        for _ in range(400):
            text = mutate(rng, original)
            outcome = import_outcome(import_sql, text)
            assert outcome == import_outcome(reference_import, text), text
            imported += isinstance(outcome, str)
        assert imported >= 50

    def test_equal_ids_in_two_tables_are_one_object(self):
        _s, inst = import_sql(portal_text(3))
        assert_ids_shared(inst)
        material, links = inst.rows["material"], inst.rows["capabilitymaterials"]
        assert links[links.index("12")] is material[material.index("12")]
        fk = inst.edge("capabilitymaterials", "capabilitymaterials_Material_id")["12"]
        assert fk == "10" and fk is material[material.index("10")]


def portal_text(n: int) -> str:
    """A portal-shaped script: 4n materials, 6n capabilities each with a unit,
    and 6n capability-material links; about 500 bytes per n."""
    units = ["EA", "Thousands", "Inch", "mm", "cm"]
    parts = [
        "CREATE TABLE unitcode (id INT PRIMARY KEY, unitcode_Code VARCHAR(255));",
        "CREATE TABLE material (id INT PRIMARY KEY, material_Name VARCHAR(255));",
        "CREATE TABLE capability (id INT PRIMARY KEY, capability_Name VARCHAR(255),\n"
        "  capability_Max_Length INT, capability_Unit INT REFERENCES unitcode);",
        "CREATE TABLE capabilitymaterials (id INT PRIMARY KEY,\n"
        "  capabilitymaterials_Capability_id INT REFERENCES capability,\n"
        "  capabilitymaterials_Material_id INT REFERENCES material);",
    ]
    rows = {
        "unitcode": [f"({i + 1}, '{u}')" for i, u in enumerate(units)],
        "material": [f"({i + 1}, 'Stainless Steel mat-{i % 97}')" for i in range(4 * n)],
        "capability": [f"({i + 1}, 'Sinker EDM capability-{i}', {5 + i % 491}, {1 + i % 5})" for i in range(6 * n)],
        "capabilitymaterials": [
            f"({i + 1}, {1 + (7 * i) % (6 * n)}, {1 + (3 * i) % (4 * n)})" for i in range(6 * n)
        ],
    }
    for name, tuples in rows.items():
        parts.append(f"INSERT INTO {name} VALUES\n" + ",\n".join(tuples) + ";")
    return "\n".join(parts) + "\n"
