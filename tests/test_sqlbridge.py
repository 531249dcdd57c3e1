"""SQL dialect import/export: parsing, foreign-key discovery, round trips."""

import random

import pytest

from catql.core import make_schema
from catql.errors import SqlExportError, SqlImportError
from catql.instances import LabelledNull, empty_instance, iso_check, validate_instance
from catql.sqlbridge import export_sql, import_sql

from conftest import read_data


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
    ])
    def test_names_must_be_identifiers(self, text, message):
        with pytest.raises(SqlImportError) as exc:
            import_sql(text)
        assert str(exc.value) == message

    def test_insert_order_insensitive(self):
        a = "CREATE TABLE t (id INT PRIMARY KEY, v INT);\nINSERT INTO t VALUES (1, 5);\nINSERT INTO t VALUES (2, 6);"
        b = "CREATE TABLE t (id INT PRIMARY KEY, v INT);\nINSERT INTO t VALUES (2, 6);\nINSERT INTO t VALUES (1, 5);"
        assert iso_check(import_sql(a)[1], import_sql(b)[1])

    def test_imported_instances_validate(self, portal):
        _s, inst = portal
        validate_instance(inst)


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

    def test_single_quote_output(self):
        schema, inst = import_sql(read_data("unitcode.sql"))
        out = export_sql(schema, inst)
        assert "'EA'" in out and '"EA"' not in out

    @pytest.mark.parametrize("nodes, edges, attrs, message", [
        (["café"], [], [], "cannot export node 'café' as SQL"),
        (["t5", "5"], [], [], "cannot export node '5' as SQL"),
        (["a"], [], [("prix €", "a", "integer")], "cannot export attribute 'prix €' of node 'a'"),
        (["a", "b"], [("to-b", "a", "b")], [], "cannot export edge 'to-b' of node 'a'"),
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


class TestRandomRoundTrip:
    def test_random_files(self):
        rng = random.Random(55)
        for _ in range(25):
            text = rand_sql_text(rng)
            schema, inst = import_sql(text)
            validate_instance(inst)
            _s2, reimported = import_sql(export_sql(schema, inst))
            assert iso_check(inst, reimported)
