"""Scenario operations: F_n, closures, relation algebra, enrichment."""

import random
import time

import pytest

from catql.core import Path, PathEquation, make_schema, validate_mapping
from catql.errors import SchemaError, ScriptError, ValidationError
from catql.instances import (
    Instance,
    LabelledNull,
    enumerate_homs,
    iso_check,
    relationalize,
    validate_instance,
)
from catql.migration import delta
from catql.parsing import parse_script
from catql.scenario import (
    ScenarioConfig,
    build_fn,
    closure_auto,
    closure_relation,
    compose_relations,
    enrich,
    enrich_edge,
    enrichment_script,
    function_schema,
    generate_enrichment,
    op_relation,
    relation_from_pairs,
    relation_pairs,
    relation_schema,
    transitive_closure,
    translate_isa,
)
from catql.scripts import run_script

from conftest import disjoint_union_many, read_data


def make_parent(pairs):
    """Function instance from {name: parent name}."""
    s = function_schema()
    names = sorted(set(pairs) | set(pairs.values()))
    return Instance(
        s,
        {"Material": names},
        {("Material", "parent"): {n: pairs.get(n, n) for n in names}},
        {("Material", "name"): {n: n for n in names}},
    )


def rt_closure_oracle(parent):
    """Reflexive transitive closure by iterated squaring over the name graph."""
    names = set(parent)
    reach = {(a, a) for a in names} | {(a, parent[a]) for a in names}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(reach):
            c = parent[b]
            if (a, c) not in reach:
                reach.add((a, c))
                changed = True
    return reach


def bundled_parent():
    env, _ = run_script(parse_script(read_data("parent.catql")))
    return env.lookup("parent", "instance", 0)


def union_of_pullbacks(I, n):
    """The paper's construction: the pullbacks of I along F_0..F_n, unioned."""
    steps = [delta(build_fn(k, relation_schema(), I.schema), I) for k in range(n + 1)]
    return relationalize(disjoint_union_many(steps))


def iterated_composition(R, n):
    """R^0 | R^1 | ... | R^n by naive composition, R^0 the diagonal on R's names."""
    base = relation_pairs(R)
    cur = {(x, x) for p in base for x in p}
    acc = set(cur)
    for _k in range(n):
        cur = relation_pairs(compose_relations(relation_from_pairs(cur), R))
        acc |= cur
    return relation_from_pairs(acc)


def rand_parent(rng):
    """A parent function on up to 12 rows, on a function schema with random
    names, whose rows may share a name or have a labelled-null one."""
    node, edge, attr = rng.choice([("Material", "parent", "name"), ("T", "up", "label")])
    s = make_schema("P", [node], [(edge, node, node)], [(attr, node, "string")])
    rows = [f"r{i}" for i in range(rng.randint(1, 12))]
    pool = [f"w{i}" for i in range(rng.randint(1, len(rows)))]
    pool += [LabelledNull("u"), LabelledNull("v")]
    names = {r: rng.choice(pool) if rng.random() < 0.5 else f"n{r}" for r in rows}
    return Instance(
        s,
        {node: rows},
        {(node, edge): {r: rng.choice(rows) for r in rows}},
        {(node, attr): names},
    )


def same_instance(a, b):
    return (a.rows, a.edge_fn, a.attr_fn) == (b.rows, b.edge_fn, b.attr_fn)


class TestBuildFn:
    def test_f0_both_identity(self):
        F = build_fn(0)
        assert F.edges[("isa", "left")] == Path("Material")
        assert F.edges[("isa", "right")] == Path("Material")
        validate_mapping(F)

    def test_f1_right_is_parent(self):
        F = build_fn(1)
        assert F.edges[("isa", "right")] == Path("Material", ("parent",))

    def test_f3_right_is_parent_cubed(self):
        F = build_fn(3)
        assert F.edges[("isa", "right")] == Path("Material", ("parent",) * 3)
        validate_mapping(F)

    def test_negative_rejected(self):
        with pytest.raises(SchemaError, match="^closure depth must be nonnegative, got -1$"):
            build_fn(-1)


class TestTransitiveClosure:
    def test_n0_diagonal(self):
        I = make_parent({"iron": "metal", "metal": "matter", "matter": "matter"})
        out = transitive_closure(I, 0)
        assert relation_pairs(out) == {(x, x) for x in ("iron", "metal", "matter")}

    def test_chain_n3(self):
        I = make_parent({"iron": "metal", "metal": "matter", "matter": "matter"})
        out = transitive_closure(I, 3)
        assert relation_pairs(out) == rt_closure_oracle(
            {"iron": "metal", "metal": "matter", "matter": "matter"}
        )

    def test_monotone_in_n(self):
        I = make_parent({"a": "b", "b": "c", "c": "d", "d": "d"})
        prev = transitive_closure(I, 1)
        nxt = transitive_closure(I, 2)
        assert relation_pairs(prev) <= relation_pairs(nxt)
        # containment is witnessed by an injective hom as well
        assert enumerate_homs(relationalize(prev), relationalize(nxt)) >= 1

    def test_output_validates(self):
        I = make_parent({"a": "b", "b": "b"})
        validate_instance(transitive_closure(I, 2))

    def test_isa_id_is_least_depth_then_row(self):
        """Depths compare as numbers: the pair first reached at depth 4 keeps
        that depth in its id at any larger n."""
        out = transitive_closure(bundled_parent(), 10)
        name = out.attr("Material", "name")
        ids = {
            (name[out.edge("isa", "left")[r]], name[out.edge("isa", "right")[r]]): r
            for r in out.node_rows("isa")
        }
        assert ids[("ferrous-17-4PH", "matter")] == "4.m17"
        assert ids[("ferrous-420", "matter")] == "4.m420"
        assert ids[("matter", "matter")] == "0.matter"


class TestClosureOracles:
    def test_transitive_closure_is_union_of_pullbacks(self):
        """Same instance as the union of the F_k pullbacks up to depth 9, and
        the same pairs at every depth; ids differ beyond 9 only because the
        union's ids compare depths as strings."""
        rng = random.Random(1101)
        for case in range(200):
            I = rand_parent(rng)
            for n in (rng.randint(0, 9), rng.randint(10, 30)):
                got, want = transitive_closure(I, n), union_of_pullbacks(I, n)
                assert relation_pairs(got) == relation_pairs(want), f"case {case}, n={n}"
                if n <= 9:
                    assert same_instance(got, want), f"case {case}, n={n}"

    def test_closure_relation_is_iterated_composition(self):
        rng = random.Random(1102)
        for case in range(200):
            names = [f"a{i}" for i in range(rng.randint(1, 8))]
            R = relation_from_pairs(
                {(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 12))}
            )
            n = rng.randint(0, 8)
            assert same_instance(closure_relation(R, n), iterated_composition(R, n)), (
                f"case {case}, n={n}"
            )

    def test_shapes_agree_from_depth_0(self):
        """A parent function and the relation of its (row, parent) pairs have
        the same closure at every depth; at depth 0 it is the diagonal."""
        rng = random.Random(1103)
        for case in range(50):
            names = [f"w{i}" for i in range(rng.randint(1, 10))]
            parent = {a: rng.choice(names) for a in names}
            fn = make_parent(parent)
            rel = relation_from_pairs(set(parent.items()))
            assert relation_pairs(closure_auto(fn, 0)) == {(a, a) for a in names}
            for n in range(6):
                assert relation_pairs(closure_auto(fn, n)) == relation_pairs(
                    closure_auto(rel, n)
                ), f"case {case}, n={n}"

    def test_shapes_agree_on_an_element_in_no_pair(self):
        """Material rows a, b, c and the one pair (a, b): c is in no pair,
        but it is an element, so it keeps its diagonal pair (c, c), as it
        does in the parent function a -> b, b -> b, c -> c."""
        R = Instance(
            relation_schema(),
            {"Material": ["a", "b", "c"], "isa": ["p"]},
            {("isa", "left"): {"p": "a"}, ("isa", "right"): {"p": "b"}},
            {("Material", "name"): {"a": "a", "b": "b", "c": "c"}},
        )
        fn = make_parent({"a": "b", "b": "b", "c": "c"})
        for n in range(4):
            pairs = relation_pairs(closure_auto(R, n))
            assert pairs == relation_pairs(closure_auto(fn, n)), n
            assert ("c", "c") in pairs
        assert pairs == {("a", "a"), ("a", "b"), ("b", "b"), ("c", "c")}

    def test_cost_does_not_grow_with_depth(self):
        """Each walk stops once it reaches nothing new, so a huge depth costs
        what depth |M| does and gives the same instance."""
        rng = random.Random(1104)
        names = [f"a{i}" for i in range(40)]
        rel = relation_from_pairs({(rng.choice(names), rng.choice(names)) for _ in range(80)})
        start = time.perf_counter()
        for inst in (bundled_parent(), rel):
            size = len(inst.node_rows("Material"))
            assert same_instance(closure_auto(inst, 10**9), closure_auto(inst, size))
        assert time.perf_counter() - start < 1.0


class TestRelationAlgebra:
    def test_op_involution(self):
        R = relation_from_pairs({("a", "b"), ("b", "c")})
        assert iso_check(op_relation(op_relation(R)), R)

    def test_op_swaps(self):
        R = relation_from_pairs({("a", "b")})
        assert relation_pairs(op_relation(R)) == {("b", "a")}

    def test_compose_single_link(self):
        out = compose_relations(
            relation_from_pairs({("a", "b")}), relation_from_pairs({("b", "c")})
        )
        assert relation_pairs(out) == {("a", "c")}

    def test_compose_matches_nested_loop_oracle(self):
        rng = random.Random(77)
        names = ["u", "v", "w", "x", "y"]
        for _ in range(20):
            r1 = {(rng.choice(names), rng.choice(names)) for _ in range(10)}
            r2 = {(rng.choice(names), rng.choice(names)) for _ in range(10)}
            want = {(a, d) for (a, b) in r1 for (c, d) in r2 if b == c}
            got = relation_pairs(
                compose_relations(relation_from_pairs(r1), relation_from_pairs(r2))
            )
            assert got == want

    def test_compose_associative(self):
        rng = random.Random(78)
        names = ["u", "v", "w"]
        for _ in range(10):
            rs = [
                relation_from_pairs(
                    {(rng.choice(names), rng.choice(names)) for _ in range(4)} or {("u", "u")}
                )
                for _ in range(3)
            ]
            a = compose_relations(compose_relations(rs[0], rs[1]), rs[2])
            b = compose_relations(rs[0], compose_relations(rs[1], rs[2]))
            assert iso_check(a, b)

    def test_compose_on_bundled_closure_pinned(self):
        isa = closure_auto(bundled_parent(), 3)
        expected = set()
        for (a, bs) in [
            ("ferrous-17-4PH", "ferrous-17-4PH ferrous-PH-stainless ferrous-alloy "
                               "ferrous-stainless matter"),
            ("ferrous-420", "ferrous-420 ferrous-PH-stainless ferrous-alloy "
                            "ferrous-stainless matter"),
            ("ferrous-PH-stainless", "ferrous-PH-stainless ferrous-alloy "
                                     "ferrous-stainless matter"),
            ("ferrous-alloy", "ferrous-alloy matter"),
            ("ferrous-stainless", "ferrous-alloy ferrous-stainless matter"),
            ("matter", "matter"),
        ]:
            expected |= {(a, b) for b in bs.split()}
        assert len(expected) == 20
        assert relation_pairs(compose_relations(isa, isa)) == expected

    def test_labelled_null_name_rejected(self):
        with pytest.raises(SchemaError, match=r"relation element \?x is a labelled null"):
            relation_from_pairs({(LabelledNull("x"), "a"), ("a", "b")})

    def test_closure_relation_diagonal_seeded(self):
        R = relation_from_pairs({("a", "b"), ("b", "c")})
        out = closure_relation(R, 3)
        assert relation_pairs(out) == {
            ("a", "a"), ("b", "b"), ("c", "c"),
            ("a", "b"), ("b", "c"), ("a", "c"),
        }

    def test_closure_auto_dispatches(self):
        fn = make_parent({"a": "a"})
        rel = relation_from_pairs({("a", "b")})
        assert relation_pairs(closure_auto(fn, 1)) == {("a", "a")}
        assert ("a", "b") in relation_pairs(closure_auto(rel, 1))
        from catql.core import make_schema

        other = make_schema("neither", ["a", "b"], [("f", "a", "b")])
        with pytest.raises(SchemaError):
            closure_auto(Instance(other, {"a": [], "b": []}, {}, {}), 1)

    @pytest.mark.parametrize("shape", ["function", "relation"])
    def test_closure_auto_negative_depth_rejected(self, shape):
        inst = make_parent({"a": "b"}) if shape == "function" else relation_from_pairs({("a", "b")})
        with pytest.raises(SchemaError, match="-3"):
            closure_auto(inst, -3)

    @pytest.mark.parametrize("closure", ["transitive_closure", "closure_relation", "translate_isa"])
    def test_negative_depth_rejected(self, closure):
        rel = relation_from_pairs({("a", "b")})
        call = {
            "transitive_closure": lambda: transitive_closure(make_parent({"a": "b"}), -3),
            "closure_relation": lambda: closure_relation(rel, -3),
            "translate_isa": lambda: translate_isa(rel, rel, -3),
        }[closure]
        with pytest.raises(SchemaError, match="closure depth must be nonnegative, got -3"):
            call()


class TestTranslate:
    def test_empty_syn_empty_result(self):
        isa = relation_from_pairs({("o1", "o2")})
        syn = relation_from_pairs(set())
        out = translate_isa(isa, syn, 3)
        assert relation_pairs(out) == set()

    def test_identity_syn_restricts_and_closes(self):
        isa = relation_from_pairs({("a", "b"), ("b", "c")})
        syn = relation_from_pairs({("a", "a"), ("b", "b"), ("c", "c")})
        out = translate_isa(isa, syn, 3)
        assert relation_pairs(out) == relation_pairs(closure_relation(isa, 3))

    def test_vocabulary_translation(self):
        isa = relation_from_pairs({("ferrous", "metal")})
        syn = relation_from_pairs({("ferrous", "iron"), ("metal", "metallic")})
        out = translate_isa(isa, syn, 1)
        assert ("iron", "metallic") in relation_pairs(out)


class TestEnrichment:
    def test_script_generation_shape(self, portal):
        schema, _ = portal
        text = generate_enrichment(schema, "material", "material_Material_Name")
        script = parse_script(text)
        # one enrich step for the single linking table, then the final union
        assert len(script.statements) == 2
        assert "capabilitymaterials" in text
        # the statements enrich runs are those the text parses to, line for line
        stmts = enrichment_script(schema, "material", "material_Material_Name").statements
        assert stmts == script.statements
        assert [x.line for x in stmts] == [x.line for x in script.statements] == [2, 3]

    def test_no_incoming_edges_identity_union(self):
        from catql.sqlbridge import import_sql

        schema, inst = import_sql(
            "CREATE TABLE material (id INT PRIMARY KEY, material_Material_Name VARCHAR(9));\n"
            "INSERT INTO material VALUES (1, 'x'), (2, 'x');"
        )
        text = generate_enrichment(schema, "material", "material_Material_Name")
        out = enrich(inst, relation_from_pairs(set()), ScenarioConfig())
        assert iso_check(out, relationalize(inst))

    def test_reserved_word_names_are_refused_by_the_printer(self):
        """A schema name that is a reserved .catql word cannot be printed as
        a let: generate_enrichment raises ScriptError naming the word and
        what it names, where it used to print text that parse_script
        rejects.  enrich never prints the script, so it still runs."""
        from catql.sqlbridge import import_sql

        cases = [("portal", "edge", "material_Material_Name", "edge 'edge'"),
                 ("node", "m", "material_Material_Name", "node 'node'"),
                 ("portal", "m", "string", "attribute 'string'")]
        for table, column, name_attr, named in cases:
            schema, inst = import_sql(
                f"CREATE TABLE material (id INT PRIMARY KEY, {name_attr} VARCHAR(9));\n"
                f"CREATE TABLE {table} (id INT PRIMARY KEY,"
                f" {column} INT REFERENCES material);\n"
                f"INSERT INTO material VALUES (1, 'steel');\n"
                f"INSERT INTO {table} VALUES (7, 1);"
            )
            with pytest.raises(ScriptError, match=f"cannot print {named}: it is a reserved word"):
                generate_enrichment(schema, "material", name_attr)
            cfg = ScenarioConfig(target_node="material", name_attr=name_attr)
            out = enrich(inst, relation_from_pairs({("steel", "metal")}), cfg)
            assert len(out.rows[table]) == 2

    def test_missing_attribute_rejected(self, portal):
        schema, _ = portal
        with pytest.raises(SchemaError):
            generate_enrichment(schema, "material", "nope")

    def test_empty_relation_is_identity(self, portal):
        _s, inst = portal
        out = enrich(inst, relation_from_pairs(set()), ScenarioConfig())
        assert iso_check(out, relationalize(inst))

    def test_single_link_single_pair(self):
        from catql.sqlbridge import import_sql

        schema, inst = import_sql(
            "CREATE TABLE material (id INT PRIMARY KEY, material_Material_Name VARCHAR(99));\n"
            "CREATE TABLE link (id INT PRIMARY KEY, m INT REFERENCES material);\n"
            "INSERT INTO material VALUES (1, 'steel'), (2, 'metal');\n"
            "INSERT INTO link VALUES (10, 1);\n"
        )
        out = enrich_edge(
            inst, "link", "m", relation_from_pairs({("steel", "metal")}),
            "material_Material_Name",
        )
        validate_instance(out)
        assert len(out.node_rows("link")) == 2
        new = [r for r in out.node_rows("link") if r != "10"]
        assert out.attr("material", "material_Material_Name")[out.edge("link", "m")[new[0]]] == "metal"

    def test_null_new_name_skipped(self):
        """A row matching two pairs, one of them to a labelled-null name,
        gains only the row for the named target."""
        from catql.sqlbridge import import_sql

        _schema, inst = import_sql(
            "CREATE TABLE material (id INT PRIMARY KEY, material_Material_Name VARCHAR(99));\n"
            "CREATE TABLE link (id INT PRIMARY KEY, m INT REFERENCES material);\n"
            "INSERT INTO material VALUES (1, 'steel'), (2, 'alloy');\n"
            "INSERT INTO link VALUES (10, 1);\n"
        )
        rel = Instance(
            relation_schema(),
            {"Material": ["alloy", "steel", "z"], "isa": ["p0", "p1"]},
            {("isa", "left"): {"p0": "steel", "p1": "steel"},
             ("isa", "right"): {"p0": "alloy", "p1": "z"}},
            {("Material", "name"): {"alloy": "alloy", "steel": "steel", "z": LabelledNull("z")}},
        )
        out = enrich_edge(inst, "link", "m", rel, "material_Material_Name")
        assert out.rows["link"] == ("10", "enr!10!alloy")
        assert out.edge("link", "m")["enr!10!alloy"] == "2"
        assert out.rows["material"] == inst.rows["material"]

    def test_creates_missing_target_row(self):
        from catql.sqlbridge import import_sql

        _schema, inst = import_sql(
            "CREATE TABLE material (id INT PRIMARY KEY, material_Material_Name VARCHAR(99));\n"
            "CREATE TABLE link (id INT PRIMARY KEY, m INT REFERENCES material);\n"
            "INSERT INTO material VALUES (1, 'steel');\n"
            "INSERT INTO link VALUES (10, 1);\n"
        )
        out = enrich_edge(
            inst, "link", "m", relation_from_pairs({("steel", "unobtanium")}),
            "material_Material_Name",
        )
        names = set(out.attr("material", "material_Material_Name").values())
        assert "unobtanium" in names

    def test_reserved_word_names_enrich(self):
        """The enrichment runs as statements, not as text parsed back, so a
        table or column named by a reserved word of .catql enriches too."""
        from catql.sqlbridge import import_sql

        _schema, inst = import_sql(
            "CREATE TABLE material (id INT PRIMARY KEY, material_Material_Name VARCHAR(99));\n"
            "CREATE TABLE node (id INT PRIMARY KEY, edge INT REFERENCES material);\n"
            "INSERT INTO material VALUES (1, 'steel');\n"
            "INSERT INTO node VALUES (10, 1);\n"
        )
        out = enrich(inst, relation_from_pairs({("steel", "alloy")}), ScenarioConfig())
        validate_instance(out)
        assert len(out.node_rows("node")) == 2
        assert "alloy" in out.attr("material", NAME).values()

    def test_monotone_and_idempotent(self, portal):
        _s, inst = portal
        isa_prime = closure_relation(
            relation_from_pairs({("17-4 Stainless Steel", "Pre-hardened Stainless Steel")}), 2
        )
        cfg = ScenarioConfig()
        once = enrich(inst, isa_prime, cfg)
        validate_instance(once)
        # the original instance embeds
        assert enumerate_homs(relationalize(inst), once) >= 1
        twice = enrich(once, isa_prime, cfg)
        assert iso_check(once, twice)


NAME = "material_Material_Name"


def link_instance(materials, links, equations=()):
    """material rows {id: name} and link rows {id: (material, copied name)};
    link.m leads to material, and link.mname holds a name."""
    s = make_schema(
        "L", ["material", "link"], [("m", "link", "material")],
        [(NAME, "material", "string"), ("mname", "link", "string")], equations,
    )
    return Instance(
        s, {"material": list(materials), "link": list(links)},
        {("link", "m"): {x: m for x, (m, _n) in links.items()}},
        {("material", NAME): dict(materials),
         ("link", "mname"): {x: n for x, (_m, n) in links.items()}},
    )


class TestEnrichEdgeChecks:
    """enrich_edge validates only the rows it adds, and each check still
    fires on them."""

    def test_new_target_id_taken_by_a_row_named_otherwise(self):
        inst = link_instance({"1": "Steel", "mat!Zinc": "Lead"}, {"10": ("1", "Steel")})
        with pytest.raises(ValidationError) as exc:
            enrich_edge(inst, "link", "m", relation_from_pairs({("Steel", "Zinc")}), NAME)
        assert str(exc.value) == "row 'mat!Zinc' is listed more than once at node 'material'"

    def test_equation_that_only_a_new_row_violates(self):
        eq = PathEquation(Path("link", (), "mname"), Path("link", ("m",), NAME))
        inst = link_instance({"1": "Steel", "2": "Metal"}, {"10": ("1", "Steel")}, [eq])
        validate_instance(inst)
        with pytest.raises(ValidationError) as exc:
            enrich_edge(inst, "link", "m", relation_from_pairs({("Steel", "Metal")}), NAME)
        assert str(exc.value) == (
            "equation link.mname = link.m.material_Material_Name violated at node 'link', "
            "row 'enr!10!Metal': 'Steel' != 'Metal'"
        )

    def test_existing_enriched_row_is_skipped(self):
        inst = link_instance({"1": "Steel", "2": "Metal"},
                             {"10": ("1", "Steel"), "enr!10!Metal": ("2", "Old")})
        out = enrich_edge(inst, "link", "m", relation_from_pairs({("Steel", "Metal")}), NAME)
        assert (out.rows, out.edge_fn, out.attr_fn) == (inst.rows, inst.edge_fn, inst.attr_fn)
