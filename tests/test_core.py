"""Schemas, paths, normalization, morphism enumeration, mappings."""

import gc
import random
import weakref

import pytest

from catql.core import (
    ConstPath,
    Mapping,
    Path,
    PathEquation,
    apply_mapping,
    compose_mappings,
    enumerate_morphisms,
    identity_mapping,
    identity_path,
    make_schema,
    normalize_path,
    path_compose,
    paths_equal,
    validate_mapping,
    validate_schema,
)
from catql.errors import NotSaturated, SchemaError, ValidationError

from conftest import rand_adjunction_triple


def loop_schema(equations=()):
    return make_schema(
        "L", ["Material"], [("parent", "Material", "Material")], [], equations
    )


def fg_schema():
    """a --f--> b --g--> c, plus a shortcut h: a -> c with f.g = h."""
    return make_schema(
        "FG",
        ["a", "b", "c"],
        [("f", "a", "b"), ("g", "b", "c"), ("h", "a", "c")],
        [],
        [PathEquation(Path("a", ("f", "g")), Path("a", ("h",)))],
    )


class TestPathCompose:
    def test_identity_left_unit(self):
        p = path_compose(identity_path("Material"), Path("Material", ("parent",)))
        assert p == Path("Material", ("parent",))

    def test_identity_right_unit(self):
        p = path_compose(Path("Material", ("parent",)), identity_path("Material"))
        assert p == Path("Material", ("parent",))

    def test_concatenation(self):
        p = path_compose(Path("Material", ("parent",)), Path("Material", ("parent",)))
        assert p == Path("Material", ("parent", "parent"))

    def test_associative(self):
        a = Path("Material", ("parent",))
        assert path_compose(path_compose(a, a), a) == path_compose(a, path_compose(a, a))

    def test_attribute_valued_source_rejected(self):
        with pytest.raises(SchemaError):
            path_compose(Path("Material", (), "name"), Path("Material", ("parent",)))

    def test_const_absorbed(self):
        assert path_compose(Path("a", ("f",)), ConstPath("x")) == ConstPath("x")


class TestNormalize:
    def test_one_rewrite(self):
        s = fg_schema()
        assert normalize_path(s, Path("a", ("f", "g"))) == Path("a", ("h",))

    def test_no_equations_already_normal(self):
        s = loop_schema()
        p = Path("Material", ("parent", "parent"))
        assert normalize_path(s, p) == p

    def test_idempotent_loop_equation(self):
        # f.f = f collapses all powers to f
        s = loop_schema(
            [PathEquation(Path("Material", ("parent", "parent")), Path("Material", ("parent",)))]
        )
        p = Path("Material", ("parent",) * 3)
        assert normalize_path(s, p) == Path("Material", ("parent",))

    def test_normalization_idempotent(self):
        s = fg_schema()
        p = normalize_path(s, Path("a", ("f", "g")))
        assert normalize_path(s, p) == p

    def test_constant_equation(self):
        s = make_schema(
            "K",
            ["a"],
            [],
            [("code", "a", "string")],
            [PathEquation(Path("a", (), "code"), ConstPath("cm"))],
        )
        assert normalize_path(s, Path("a", (), "code")) == ConstPath("cm")


class TestPathsEqual:
    def test_syntactic_equality(self):
        s = loop_schema()
        p = Path("Material", ("parent",))
        assert paths_equal(s, p, p)

    def test_axiom(self):
        s = fg_schema()
        assert paths_equal(s, Path("a", ("f", "g")), Path("a", ("h",)))

    def test_free_category_distinct(self):
        s = make_schema("D", ["a", "b"], [("f", "a", "b"), ("g", "a", "b")])
        assert not paths_equal(s, Path("a", ("f",)), Path("a", ("g",)))

    def test_transitive_through_rewriting(self):
        s = make_schema(
            "TR",
            ["a", "b"],
            [("f", "a", "b"), ("g", "a", "b"), ("h", "a", "b")],
            [],
            [
                PathEquation(Path("a", ("f",)), Path("a", ("g",))),
                PathEquation(Path("a", ("g",)), Path("a", ("h",))),
            ],
        )
        assert paths_equal(s, Path("a", ("f",)), Path("a", ("h",)))


class TestEnumerateMorphisms:
    def test_discrete_empty(self):
        s = make_schema("D2", ["a", "b"], [])
        assert enumerate_morphisms(s, "a", "b") == ()

    def test_free_loop_not_saturated(self):
        with pytest.raises(NotSaturated):
            enumerate_morphisms(loop_schema(), "Material", "Material")

    def test_tamed_loop(self):
        s = loop_schema(
            [PathEquation(Path("Material", ("parent", "parent")), Path("Material", ("parent",)))]
        )
        ms = enumerate_morphisms(s, "Material", "Material")
        assert set(ms) == {Path("Material"), Path("Material", ("parent",))}

    def test_matches_bfs_enumeration_on_dag(self):
        rng = random.Random(7)
        from conftest import rand_dag_schema

        for _ in range(20):
            s = rand_dag_schema(rng, "Z")
            nodes = sorted(s.nodes)
            for a in nodes:
                for b in nodes:
                    got = set(enumerate_morphisms(s, a, b))
                    # brute force: all edge sequences up to length 6 (DAG: enough)
                    want = set()
                    frontier = [Path(a)]
                    for _d in range(6):
                        nxt = []
                        for p in frontier:
                            from catql.core import nodes_along

                            end = nodes_along(s, p)[-1]
                            for (en, _t) in s.out_edges[end]:
                                nxt.append(Path(a, p.steps + (en,)))
                        frontier = nxt
                        want |= {p for p in nxt if nodes_along(s, p)[-1] == b}
                    if a == b:
                        want.add(Path(a))
                    assert got == want


class TestMappings:
    def test_identity_mapping_validates(self):
        s = fg_schema()
        validate_mapping(identity_mapping(s))

    def test_wrong_endpoints_rejected(self):
        s = make_schema("D2", ["a", "b"], [("f", "a", "b")])
        F = Mapping(
            source=s, target=s, nodes={"a": "a", "b": "b"},
            edges={("a", "f"): Path("a")},  # ends at a, must end at b
        )
        with pytest.raises(ValidationError):
            validate_mapping(F)

    def test_equation_preservation_required(self):
        s = make_schema(
            "EQ",
            ["a", "b"],
            [("f", "a", "b"), ("g", "a", "b")],
            [],
            [PathEquation(Path("a", ("f",)), Path("a", ("g",)))],
        )
        t = make_schema("FR", ["a", "b"], [("f", "a", "b"), ("g", "a", "b")])
        F = Mapping(
            source=s,
            target=t,
            nodes={"a": "a", "b": "b"},
            edges={("a", "f"): Path("a", ("f",)), ("a", "g"): Path("a", ("g",))},
        )
        with pytest.raises(ValidationError):
            validate_mapping(F)

    def test_compose_with_identity(self):
        rng = random.Random(3)
        for _ in range(10):
            F, _I, _J = rand_adjunction_triple(rng)
            ids, idt = identity_mapping(F.source), identity_mapping(F.target)
            assert compose_mappings(ids, F).edges == F.edges
            assert compose_mappings(F, idt).nodes == F.nodes

    def test_composite_validates(self):
        rng = random.Random(11)
        from conftest import rand_dag_schema, rand_mapping

        done = 0
        while done < 10:
            U = rand_dag_schema(rng, "U")
            T = rand_dag_schema(rng, "T")
            S = rand_dag_schema(rng, "S")
            F = rand_mapping(rng, S, T)
            G = rand_mapping(rng, T, U)
            if F is None or G is None:
                continue
            validate_mapping(compose_mappings(F, G))
            done += 1

    def test_apply_mapping_attribute(self):
        s = make_schema("A1", ["x"], [], [("v", "x", "string")])
        t = make_schema("A2", ["y"], [], [("w", "y", "string")])
        F = Mapping(
            source=s, target=t, nodes={"x": "y"},
            attrs={("x", "v"): Path("y", (), "w")},
        )
        validate_mapping(F)
        assert apply_mapping(F, Path("x", (), "v")) == Path("y", (), "w")


class TestSchemaTables:
    def test_freed_with_schema_and_not_part_of_its_value(self):
        s = fg_schema()
        assert normalize_path(s, Path("a", ("f", "g"))) == Path("a", ("h",))
        assert enumerate_morphisms(s, "a", "c") == (Path("a", ("h",)),)
        twin = fg_schema()
        assert s == twin and hash(s) == hash(twin) and repr(s) == repr(twin)
        ref = weakref.ref(s)
        del s
        gc.collect()
        assert ref() is None

    def test_topo_order(self):
        s = make_schema(
            "T",
            ["z", "b", "a", "m", "c", "d", "e"],
            [("f", "z", "m"), ("g", "a", "m"), ("l", "m", "m"), ("h", "b", "z"),
             ("p", "c", "d"), ("q", "d", "c"), ("r", "d", "e")],
        )
        # sources by name, a loop is no constraint, and c and d, on a cycle,
        # and e, below it, come last
        assert s.topo_order == ("a", "b", "z", "m", "c", "d", "e")


class TestValidateSchema:
    def test_duplicate_edge_name_per_node(self):
        with pytest.raises(SchemaError):
            make_schema("B", ["a", "b"], [("f", "a", "b"), ("f", "a", "a")])

    def test_unknown_base_type(self):
        with pytest.raises(SchemaError):
            make_schema("B", ["a"], [], [("v", "a", "float")])

    def test_equation_sort_mismatch(self):
        with pytest.raises(SchemaError):
            make_schema(
                "B",
                ["a", "b"],
                [("f", "a", "b")],
                [("v", "a", "string")],
                [PathEquation(Path("a", ("f",)), Path("a", (), "v"))],
            )
