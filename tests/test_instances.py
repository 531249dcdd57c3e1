"""Instances: validation, path evaluation, unions, relationalize, isos, homs."""

import copy
import itertools
import math
import random
import time
from collections import Counter

import pytest

from catql import instances as instances_module
from catql.core import Path, PathEquation, make_schema
from catql.errors import LimitExceeded, SchemaError, ValidationError
from catql.instances import (
    Instance,
    LabelledNull,
    _candidates,
    _homs,
    _refine,
    disjoint_union,
    empty_instance,
    enumerate_homs,
    eval_path,
    extend,
    iso_check,
    join,
    relationalize,
    union,
    validate_instance,
)
from catql.migration import pi
from catql.sqlbridge import export_sql, import_sql

from conftest import (
    disjoint_union_many,
    rand_adjunction_triple,
    rand_dag_schema,
    rand_instance,
    read_data,
)


def chain_schema():
    return make_schema(
        "CH",
        ["Material"],
        [("parent", "Material", "Material")],
        [("name", "Material", "string")],
    )


def chain_instance():
    rows = {"Material": ["iron", "metal", "matter"]}
    edge_fn = {("Material", "parent"): {"iron": "metal", "metal": "matter", "matter": "matter"}}
    attr_fn = {("Material", "name"): {"iron": "iron", "metal": "metal", "matter": "matter"}}
    return Instance(chain_schema(), rows, edge_fn, attr_fn)


class TestValidate:
    def test_empty_ok(self):
        validate_instance(empty_instance(chain_schema()))

    def test_chain_ok(self):
        validate_instance(chain_instance())

    def test_dangling_edge_target(self):
        I = chain_instance()
        bad = Instance(
            I.schema,
            I.rows,
            {("Material", "parent"): {"iron": "nowhere", "metal": "matter", "matter": "matter"}},
            I.attr_fn,
        )
        with pytest.raises(ValidationError):
            validate_instance(bad)

    def test_wrong_attribute_type(self):
        I = chain_instance()
        bad_attrs = {("Material", "name"): {"iron": 1, "metal": "m", "matter": "x"}}
        with pytest.raises(ValidationError):
            validate_instance(Instance(I.schema, I.rows, I.edge_fn, bad_attrs))

    def test_bad_column_names_its_first_bad_entry(self):
        I = chain_instance()

        def named(*values):
            names = {("Material", "name"): dict(zip(("iron", "metal", "matter"), values))}
            return Instance(I.schema, I.rows, I.edge_fn, names)

        with pytest.raises(ValidationError) as exc:
            validate_instance(named("a", 2, 3))
        assert str(exc.value) == "attribute 'name': row 'metal' has integer value, expected string"
        with pytest.raises(ValidationError, match="^boolean is not an attribute value$"):
            validate_instance(named("a", True, "c"))

        class Name(str):
            pass

        validate_instance(named(Name("a"), LabelledNull("n"), "c"))
        edges = {("Material", "parent"): {"iron": "metal", "metal": "gone", "matter": "void"}}
        with pytest.raises(ValidationError) as exc:
            validate_instance(Instance(I.schema, I.rows, edges, I.attr_fn))
        assert str(exc.value) == "edge 'parent' sends row 'metal' to dangling target 'gone'"

    def test_equation_violation_names_row(self):
        s = make_schema(
            "ID",
            ["a"],
            [("f", "a", "a")],
            [],
            [PathEquation(Path("a", ("f",)), Path("a"))],
        )
        bad = Instance(s, {"a": ["x", "y"]}, {("a", "f"): {"x": "y", "y": "y"}}, {})
        with pytest.raises(ValidationError, match="x"):
            validate_instance(bad)

    def test_missing_edge_entry(self):
        I = chain_instance()
        partial = {("Material", "parent"): {"iron": "metal", "metal": "matter"}}
        with pytest.raises(ValidationError):
            validate_instance(Instance(I.schema, I.rows, partial, I.attr_fn))


class TestEvalPath:
    def test_identity(self):
        assert eval_path(chain_instance(), Path("Material"), "iron") == "iron"

    def test_single_step(self):
        assert eval_path(chain_instance(), Path("Material", ("parent",)), "iron") == "metal"

    def test_two_steps(self):
        p = Path("Material", ("parent", "parent"))
        assert eval_path(chain_instance(), p, "iron") == "matter"

    def test_attribute_terminal(self):
        p = Path("Material", ("parent",), "name")
        assert eval_path(chain_instance(), p, "iron") == "metal"


class TestDisjointUnion:
    def test_counts_add(self):
        I = chain_instance()
        d = disjoint_union(I, I)
        assert len(d.node_rows("Material")) == 6
        validate_instance(d)

    def test_with_empty_iso(self):
        I = chain_instance()
        assert iso_check(disjoint_union(I, empty_instance(I.schema)), I)

    def test_schema_mismatch(self):
        I = chain_instance()
        other = empty_instance(make_schema("O", ["a"], []))
        with pytest.raises(SchemaError):
            disjoint_union(I, other)


class TestRelationalize:
    def test_distinct_rows_untouched(self):
        I = chain_instance()
        assert iso_check(relationalize(I), I)

    def test_duplicates_merge(self):
        s = chain_schema()
        rows = {"Material": ["a", "b"]}
        I = Instance(
            s,
            rows,
            {("Material", "parent"): {"a": "a", "b": "b"}},
            {("Material", "name"): {"a": "x", "b": "x"}},
        )
        r = relationalize(I)
        assert len(r.node_rows("Material")) == 1

    def test_edge_targets_distinguish(self):
        # rows 1,2 share direct attributes but their parents' names differ
        s = chain_schema()
        rows = {"Material": ["r1", "r2", "p1", "p2"]}
        I = Instance(
            s,
            rows,
            {("Material", "parent"): {"r1": "p1", "r2": "p2", "p1": "p1", "p2": "p2"}},
            {("Material", "name"): {"r1": "x", "r2": "x", "p1": "q", "p2": "z"}},
        )
        r = relationalize(I)
        assert len(r.node_rows("Material")) == 4

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            s = rand_dag_schema(rng, "R", with_attrs=True)
            I = rand_instance(rng, s)
            r = relationalize(I)
            assert iso_check(relationalize(r), r)

    def test_representative_is_min_id(self):
        s = chain_schema()
        I = Instance(
            s,
            {"Material": ["b", "a"]},
            {("Material", "parent"): {"a": "a", "b": "b"}},
            {("Material", "name"): {"a": "x", "b": "x"}},
        )
        assert relationalize(I).node_rows("Material") == ("a",)

    def test_attribute_free_node_collapses(self):
        s = make_schema("AF", ["a"], [])
        I = Instance(s, {"a": ["x", "y", "z"]}, {}, {})
        assert len(relationalize(I).node_rows("a")) == 1

    def test_labelled_nulls_equal_only_same_label(self):
        s = make_schema("LN", ["a"], [], [("v", "a", "string")])
        I = Instance(
            s, {"a": ["x", "y", "z"]}, {},
            {("a", "v"): {"x": LabelledNull("n1"), "y": LabelledNull("n2"),
                          "z": LabelledNull("n1")}},
        )
        assert len(relationalize(I).node_rows("a")) == 2


class TestUnion:
    def test_self_union_is_relationalize(self):
        I = chain_instance()
        assert iso_check(union(I, I), relationalize(I))

    def test_span_pairs(self):
        from catql.scenario import relation_from_pairs, relation_pairs

        u = union(relation_from_pairs({("a", "b")}), relation_from_pairs({("b", "c")}))
        assert relation_pairs(u) == {("a", "b"), ("b", "c")}

    def test_schema_mismatch_names_union(self):
        I = chain_instance()
        other = empty_instance(make_schema("O", ["a"], []))
        with pytest.raises(SchemaError, match="^union requires instances on the same schema$"):
            union(I, other)


class TestIso:
    def test_reflexive(self):
        I = chain_instance()
        assert iso_check(I, I)

    def test_cardinality_mismatch(self):
        I = chain_instance()
        assert not iso_check(I, empty_instance(I.schema))

    def test_rotated_cycle(self):
        s = make_schema("C3", ["a"], [("f", "a", "a")], [("v", "a", "string")])

        def cyc(names):
            n = len(names)
            return Instance(
                s,
                {"a": list(names)},
                {("a", "f"): {names[i]: names[(i + 1) % n] for i in range(n)}},
                {("a", "v"): {x: "same" for x in names}},
            )

        assert iso_check(cyc(["p", "q", "r"]), cyc(["u", "v", "w"]))

    def test_different_structure(self):
        s = make_schema("C3", ["a"], [("f", "a", "a")], [("v", "a", "string")])
        cycle = Instance(
            s, {"a": ["p", "q"]},
            {("a", "f"): {"p": "q", "q": "p"}},
            {("a", "v"): {"p": "same", "q": "same"}},
        )
        fixed = Instance(
            s, {"a": ["p", "q"]},
            {("a", "f"): {"p": "p", "q": "q"}},
            {("a", "v"): {"p": "same", "q": "same"}},
        )
        assert not iso_check(cycle, fixed)
        assert not iso_check(fixed, cycle)


class TestEnumerateHoms:
    def test_from_empty(self):
        I = chain_instance()
        assert enumerate_homs(empty_instance(I.schema), I) == 1

    def test_free_point(self):
        s = make_schema("P", ["a"], [])
        one = Instance(s, {"a": ["x"]}, {}, {})
        three = Instance(s, {"a": ["u", "v", "w"]}, {}, {})
        assert enumerate_homs(one, three) == 3
        with pytest.raises(LimitExceeded):
            enumerate_homs(one, three, limit=2)

    def test_naturality_constrains(self):
        s = make_schema("E", ["a", "b"], [("f", "a", "b")])
        I = Instance(s, {"a": ["x"], "b": ["y"]}, {("a", "f"): {"x": "y"}}, {})
        J = Instance(
            s, {"a": ["u"], "b": ["p", "q"]}, {("a", "f"): {"u": "p"}}, {}
        )
        # x must land on u, forcing y -> p; q remains unused: 1 hom... but y
        # may map to either row only if naturality allows; f(x)=y pins it.
        assert enumerate_homs(I, J) == 1

    def test_attribute_mismatch_blocks(self):
        s = make_schema("V", ["a"], [], [("v", "a", "string")])
        I = Instance(s, {"a": ["x"]}, {}, {("a", "v"): {"x": "red"}})
        J = Instance(s, {"a": ["y"]}, {}, {("a", "v"): {"y": "blue"}})
        assert enumerate_homs(I, J) == 0

    def test_fixed_points_into_two_cycle(self):
        s = make_schema("L", ["a"], [("f", "a", "a")])
        cycle = Instance(s, {"a": ["p", "q"]}, {("a", "f"): {"p": "q", "q": "p"}}, {})
        one = Instance(s, {"a": ["x"]}, {("a", "f"): {"x": "x"}}, {})
        two = Instance(s, {"a": ["x", "y"]}, {("a", "f"): {"x": "x", "y": "y"}}, {})
        assert enumerate_homs(one, cycle) == 0
        assert enumerate_homs(two, cycle) == 0

    def test_negative_limit_refused(self):
        """A negative limit raises one error naming it, on a searched
        component and on a single-row one alike."""
        s = make_schema("E", ["a", "b"], [("f", "a", "b")])
        I = Instance(s, {"a": ["x"], "b": ["u"]}, {("a", "f"): {"x": "u"}}, {})
        J = Instance(s, {"a": ["y", "z"], "b": ["v"]}, {("a", "f"): {"y": "v", "z": "v"}}, {})
        assert enumerate_homs(I, J) == 2
        p = make_schema("P", ["a"], [])
        one = Instance(p, {"a": ["x"]}, {}, {})
        three = Instance(p, {"a": ["u", "v", "w"]}, {}, {})
        for source, target in ((I, J), (one, three)):
            for limit in (-1, -3):
                with pytest.raises(ValueError, match=f"not {limit}$"):
                    enumerate_homs(source, target, limit=limit)


def rand_loop_schema(rng):
    """Up to two nodes, with edges between any two nodes, loops included."""
    nodes = ["n0", "n1"][: rng.randint(1, 2)]
    edges = [(f"e{i}", rng.choice(nodes), rng.choice(nodes)) for i in range(rng.randint(0, 3))]
    attrs = [("v", "n0", "string")] if rng.random() < 0.5 else []
    return make_schema("RL", nodes, edges, attrs)


def rand_loop_instance(rng, s, sizes):
    rows = {n: [f"{n}r{i}" for i in range(sizes[n])] for n in s.nodes}
    edge_fn = {(src, e): {r: rng.choice(rows[tgt]) for r in rows[src]} for (e, src, tgt) in s.edges}
    attr_fn = {(src, a): {r: rng.choice("xy") for r in rows[src]} for (a, src, _t) in s.attributes}
    return Instance(s, rows, edge_fn, attr_fn)


def node_maps(I, J, bijective):
    """Every node-wise function (or bijection) from the rows of I to those of J."""
    nodes = sorted(I.schema.nodes)
    per_node = [
        itertools.permutations(J.rows[n]) if bijective
        else itertools.product(J.rows[n], repeat=len(I.rows[n]))
        for n in nodes
    ]
    for images in itertools.product(*(list(p) for p in per_node)):
        yield {(n, r): t for n, ts in zip(nodes, images) for r, t in zip(I.rows[n], ts)}


def is_natural(I, J, h):
    s = I.schema
    return all(
        h[(tgt, I.edge(src, e)[r])] == J.edge(src, e)[h[(src, r)]]
        for (e, src, tgt) in s.edges for r in I.rows[src]
    ) and all(
        I.attr(src, a)[r] == J.attr(src, a)[h[(src, r)]]
        for (a, src, _t) in s.attributes for r in I.rows[src]
    )


class TestSearchAgainstExhaustiveOracle:
    def test_random_schemas_with_loops(self):
        rng = random.Random(11)
        for _ in range(300):
            s = rand_loop_schema(rng)
            sizes = {n: rng.randint(1, 3) for n in s.nodes}
            I = rand_loop_instance(rng, s, sizes)
            J = rand_loop_instance(rng, s, {n: rng.randint(1, 3) for n in s.nodes})
            K = rand_loop_instance(rng, s, sizes)
            expected = sum(is_natural(I, J, h) for h in node_maps(I, J, False))
            assert enumerate_homs(I, J) == expected
            iso = any(is_natural(I, K, h) for h in node_maps(I, K, True))
            assert iso_check(I, K) == iso

    def test_dag_schemas_with_attributes(self):
        """An edge image is forced, and may land outside the attribute
        bucket of the row it is forced onto."""
        rng = random.Random(12)
        outside = 0
        for _ in range(150):
            edges = [(e, src, tgt) for (e, src, tgt) in
                     [("f", "n0", "n1"), ("g", "n1", "n2"), ("h", "n0", "n2"), ("k", "n0", "n1")]
                     if rng.random() < 0.6]
            attrs = [("v", n, "string") for n in ("n0", "n1", "n2") if rng.random() < 0.7]
            s = make_schema("D3", ["n0", "n1", "n2"], edges, attrs)
            sizes = {n: rng.randint(1, 2) for n in s.nodes}
            I = rand_loop_instance(rng, s, sizes)
            J = rand_loop_instance(rng, s, {n: rng.randint(1, 3) for n in s.nodes})
            K = rand_loop_instance(rng, s, sizes)
            outside += forces_outside_bucket(I, J)
            expected = sum(is_natural(I, J, h) for h in node_maps(I, J, False))
            assert enumerate_homs(I, J) == expected
            iso = any(is_natural(I, K, h) for h in node_maps(I, K, True))
            assert iso_check(I, K) == iso
        assert outside >= 30

    def test_iso_with_equal_color_counts(self):
        """Pairs that refinement cannot tell apart by color counts, among them
        two fixed points against a 2-cycle, decided by the injective search."""
        s = make_schema("L", ["a"], [("f", "a", "a")], [("v", "a", "string")])

        def graph(f, values):
            rows = [f"r{i}" for i in range(len(f))]
            return Instance(s, {"a": rows}, {("a", "f"): {r: rows[j] for r, j in zip(rows, f)}},
                            {("a", "v"): dict(zip(rows, values))})

        fixed_and_cycle = graph([0, 1, 3, 2], "xxxx")
        two_cycles = graph([1, 0, 3, 2], "xxxx")
        assert not iso_check(fixed_and_cycle, two_cycles)
        assert iso_check(two_cycles, graph([2, 3, 0, 1], "xxxx"))
        rng = random.Random(13)
        undecided = 0
        for _ in range(300):
            n = rng.randint(3, 5)
            values = ["x"] * n if rng.random() < 0.5 else [rng.choice("xy") for _ in range(n)]
            I = graph([rng.randrange(n) for _ in range(n)], values)
            K = graph([rng.randrange(n) for _ in range(n)], rng.sample(values, n))
            color = _refine([I, K])
            if sorted(color[:n]) != sorted(color[n:]):
                continue
            iso = any(is_natural(I, K, h) for h in node_maps(I, K, True))
            assert iso_check(I, K) == iso
            undecided += not iso and len(set(color)) < n
        assert undecided >= 20

    def test_limit_when_most_rows_are_forced(self):
        """Only the source rows branch; the count is exact up to the limit,
        and LimitExceeded is raised exactly when it is passed."""
        s = make_schema("F", ["s", "m", "t"],
                        [("f", "s", "m"), ("g", "m", "t"), ("h", "s", "t")],
                        [("v", "t", "string")])
        rng = random.Random(14)
        for _ in range(100):
            ms = rng.randint(1, 3)
            I = Instance(
                s,
                {"s": [f"s{i}" for i in range(ms)], "m": [f"m{i}" for i in range(ms)], "t": ["t0"]},
                {("s", "f"): {f"s{i}": f"m{i}" for i in range(ms)},
                 ("m", "g"): {f"m{i}": "t0" for i in range(ms)},
                 ("s", "h"): {f"s{i}": "t0" for i in range(ms)}},
                {("t", "v"): {"t0": "x"}},
            )
            J = rand_loop_instance(rng, s, {"s": rng.randint(1, 4), "m": rng.randint(1, 3),
                                            "t": rng.randint(1, 2)})
            homs = sum(is_natural(I, J, h) for h in node_maps(I, J, False))
            assert enumerate_homs(I, J, limit=homs) == homs
            if homs:
                with pytest.raises(LimitExceeded):
                    enumerate_homs(I, J, limit=homs - 1)


def attr_tuple(I, node, row):
    """The values of row's attributes, in the schema's order."""
    return tuple(I.attr(node, name)[row] for (name, _ty) in I.schema.node_attrs[node])


def forces_outside_bucket(I, J):
    """Whether some edge sends a row of J in a row's attribute bucket to a row
    outside the bucket of that row's own image."""
    s = I.schema
    return any(
        attr_tuple(J, src, t) == attr_tuple(I, src, r)
        and attr_tuple(J, tgt, J.edge(src, e)[t]) != attr_tuple(I, tgt, I.edge(src, e)[r])
        for (e, src, tgt) in s.edges for r in I.rows[src] for t in J.rows[src]
    )


class TestForcedImageSearch:
    @pytest.mark.parametrize("case, homs", [(43, 432), (60, 9)])
    def test_slow_criterion_2_counts(self, case, homs):
        """J -> pi(F, I) in cases 43 and 60 of criterion 2 maps 4 rows into 98
        and 5 rows into 84; assigning rows in node order without following
        edge images took seconds on each."""
        rng = random.Random(1002)
        for _ in range(case + 1):
            F, I, J = rand_adjunction_triple(rng)
        target = pi(F, I)
        start = time.perf_counter()
        assert enumerate_homs(J, target) == homs
        assert time.perf_counter() - start < 1.0


class TestDeepInstances:
    def test_long_parent_chain(self):
        n = 10_000
        s = chain_schema()

        def chain(ids):
            parent = {ids[i]: ids[min(i + 1, n - 1)] for i in range(n)}
            return Instance(
                s, {"Material": ids}, {("Material", "parent"): parent},
                {("Material", "name"): {ids[i]: f"w{i}" for i in range(n)}},
            )

        I = chain([f"m{i}" for i in range(n)])
        relabelled = chain([f"x{(i * 7919) % n}" for i in range(n)])
        assert iso_check(I, relabelled)
        assert enumerate_homs(I, I) == 1

    def test_chain_differing_at_its_top(self):
        # refinement by rounds needs one round per row on this chain, which is
        # quadratic (seconds at 2000 rows); the worklist splits one row off
        # per splitter
        n = 2000
        ids = [f"m{i:04d}" for i in range(n)]
        names = {r: "w" for r in ids}
        names[ids[-1]] = "top"
        parent = {ids[i]: ids[min(i + 1, n - 1)] for i in range(n)}
        I = Instance(chain_schema(), {"Material": ids},
                     {("Material", "parent"): parent}, {("Material", "name"): names})
        start = time.perf_counter()
        out = relationalize(I)
        assert time.perf_counter() - start < 1.0
        assert out.total_rows() == n


def rand_refine_schema(rng):
    """Up to three nodes; edges between any two nodes, so self-loops, cycles
    and parallel edges all occur; up to two attributes."""
    nodes = ["n0", "n1", "n2"][: rng.randint(1, 3)]
    edges = [(f"e{i}", rng.choice(nodes), rng.choice(nodes)) for i in range(rng.randint(0, 4))]
    attrs = [(f"v{i}", rng.choice(nodes), "string") for i in range(rng.randint(0, 2))]
    return make_schema("RF", nodes, edges, attrs)


def rand_refine_instance(rng, s, counts=(0, 1, 2, 3, 4, 6)):
    """Up to six rows per node (a row count is drawn from counts), values
    from a small pool with two labelled nulls; a node is emptied when an
    edge out of it has an empty target."""
    sizes = {n: rng.choice(counts) for n in sorted(s.nodes)}
    changed = True
    while changed:
        changed = False
        for (_e, src, tgt) in s.edges:
            if sizes[src] and not sizes[tgt]:
                sizes[src], changed = 0, True
    pool = ["x", "y", LabelledNull("p"), LabelledNull("q")]
    rows = {n: [f"{n}r{i}" for i in range(k)] for n, k in sizes.items()}
    edge_fn = {(src, e): {r: rng.choice(rows[tgt]) for r in rows[src]}
               for (e, src, tgt) in sorted(s.edges)}
    attr_fn = {(src, a): {r: rng.choice(pool[: rng.randint(1, 4)]) for r in rows[src]}
               for (a, src, _t) in sorted(s.attributes)}
    return Instance(s, rows, edge_fn, attr_fn)


def relabelled(rng, I):
    """A copy of I with its rows renamed by a random permutation per node."""
    s = I.schema
    new = {n: {r: f"c{r}" for r in I.rows[n]} for n in s.nodes}
    for n in sorted(s.nodes):
        targets = list(new[n].values())
        rng.shuffle(targets)
        new[n] = dict(zip(new[n], targets))
    return Instance(
        s,
        {n: list(new[n].values()) for n in s.nodes},
        {(src, e): {new[src][r]: new[tgt][v] for r, v in I.edge(src, e).items()}
         for (e, src, tgt) in s.edges},
        {(src, a): {new[src][r]: v for r, v in I.attr(src, a).items()}
         for (a, src, _t) in s.attributes},
    )


def search_iso(I, J):
    """The reference: iso_check decided by refinement and the injective
    search alone, with no identity step first."""
    if I.schema != J.schema:
        return False
    if any(len(I.rows[n]) != len(J.rows[n]) for n in I.schema.nodes):
        return False
    color = _refine([I, J])
    split = I.total_rows()
    cI, cJ = color[:split], color[split:]
    if Counter(cI) != Counter(cJ):
        return False
    search = _homs(cI, cJ, I.row_images, J.row_images, _candidates(cJ), injective=True)
    return next(search(list(range(split))), None) is not None


def equal_copy(I):
    """An instance equal to I, built from copies of its own tables."""
    return Instance(I.schema, {n: list(rs) for n, rs in I.rows.items()},
                    {k: dict(fn) for k, fn in I.edge_fn.items()},
                    {k: dict(fn) for k, fn in I.attr_fn.items()})


def same_tables(I, J):
    """Whether I and J have the same rows, edges and attributes."""
    s = I.schema
    return I.rows == J.rows and \
        all(I.edge(n, e) == J.edge(n, e) for (e, n, _t) in s.edges) and \
        all(I.attr(n, a) == J.attr(n, a) for (a, n, _t) in s.attributes)


@pytest.fixture
def refines(monkeypatch):
    """A list that gains one entry per call of `_refine` inside instances."""
    calls = []
    monkeypatch.setattr(instances_module, "_refine",
                        lambda instances: calls.append(1) or _refine(instances))
    return calls


def iso_outcome(I, J, refines):
    """iso_check(I, J), and how it was decided: "identity" where the row
    counts agree and it answered without refining, "searched" where it
    refined, and "not reached" where the row counts differ."""
    before = len(refines)
    answer = iso_check(I, J)
    if any(len(I.rows[n]) != len(J.rows[n]) for n in I.schema.nodes):
        return answer, "not reached"
    return answer, "identity" if len(refines) == before else "searched"


def with_row_copied(rng, K):
    """A copy of K in which one row takes every edge image and attribute
    value of another row of its node, or None where no node with an edge or
    attribute has two rows."""
    s = K.schema
    choices = [(n, r, r2) for n in sorted(s.nodes) if s.out_edges[n] or s.node_attrs[n]
               for r in K.rows[n] for r2 in K.rows[n] if r != r2]
    if not choices:
        return None
    n, r, r2 = rng.choice(choices)
    edge_fn = {k: dict(fn) for k, fn in K.edge_fn.items()}
    attr_fn = {k: dict(fn) for k, fn in K.attr_fn.items()}
    for fn in [edge_fn[(n, e)] for (e, _t) in s.out_edges[n]] + \
              [attr_fn[(n, a)] for (a, _t) in s.node_attrs[n]]:
        fn[r] = fn[r2]
    return Instance(s, K.rows, edge_fn, attr_fn)


def iso_near_misses(rng, K):
    """Copies of K with one change each: one edge image or one attribute
    value changed, one row dropped, or one row copied from another."""
    copied = with_row_copied(rng, K)
    return [J for _kind, J in near_misses(rng, K, K)] + ([copied] if copied else [])


def portal_sql(rng, scale):
    """The bundled portal's tables with scale times as many rows, in the
    shape the benchmark's portals have: some names repeat, and a junction
    table may list one pair twice."""
    def insert(table, rows):
        body = ",\n".join(f"({i}, {', '.join(map(str, r))})" for i, r in enumerate(rows, 1))
        return f"INSERT INTO {table} VALUES\n{body};\n"

    def names(prefix, n):  # about one in ten repeats an earlier name
        return [(f"'{prefix}-{rng.randrange(i) if i and rng.random() < 0.1 else i}'",) for i in range(n)]

    n_caps = 6 * scale
    return "".join([
        read_data("portal_a.sql").split("INSERT INTO")[0],
        insert("unitcode", [(f"'{u}'",) for u in ("EA", "Thousands", "Inch", "mm", "cm")]),
        insert("material", names("mat", 4 * scale)),
        insert("productorservicecategory", names("cat", 4 * scale)),
        insert("capability", [(f"'cap-{i}'", rng.randint(5, 500), rng.randint(1, 5))
                              for i in range(n_caps)]),
        insert("capabilitymaterials", [(rng.randint(1, n_caps), rng.randint(1, 4 * scale))
                                       for _ in range(n_caps)]),
        insert("capabilitycategories", [(rng.randint(1, n_caps), rng.randint(1, 4 * scale))
                                        for _ in range(n_caps)]),
    ])


def roundtrip(sql):
    """The instance that sql imports, and the one that its export imports."""
    schema, I = import_sql(sql)
    return I, import_sql(export_sql(schema, I))[1]


class TestIsoIdentityStep:
    """iso_check answers True without refining when J has I's row ids and
    tables, and refines and searches every other pair."""

    def test_against_search_on_random_pairs(self, refines):
        """Permuted-id copies, near misses of them and random pairs, with
        loops, cycles, attributes and labelled nulls; then equal copies and
        same-id near misses, whose draws come from a second stream."""
        rng, same_ids = random.Random(71), random.Random(171)
        outcomes = Counter()
        for k in range(240):
            if k % 3 == 0:
                s = rand_loop_schema(rng)
                I = rand_loop_instance(rng, s, {n: rng.randint(1, 5) for n in s.nodes})
                other = rand_loop_instance(rng, s, {n: len(I.rows[n]) for n in s.nodes})
            elif k % 3 == 1:
                s = rand_refine_schema(rng)
                I, other = rand_refine_instance(rng, s), rand_refine_instance(rng, s)
            else:
                s = rand_dag_schema(rng, "D", with_attrs=rng.random() < 0.5, try_equation=True)
                I, other = rand_instance(rng, s, max_rows=5), rand_instance(rng, s, max_rows=5)
            K = relabelled(rng, I)
            for J in (K, *iso_near_misses(rng, K), other,
                      equal_copy(I), *iso_near_misses(same_ids, I)):
                answer, how = iso_outcome(I, J, refines)
                assert answer == search_iso(I, J)
                # the identity step decides exactly the pairs with equal tables
                assert (how == "identity") == same_tables(I, J)
                outcomes[how if how != "searched" else f"searched, {answer}"] += 1
        assert sum(outcomes.values()) >= 1000, outcomes
        assert outcomes["identity"] >= 240, outcomes
        # the search runs, and answers both ways
        assert min(outcomes["searched, True"], outcomes["searched, False"]) >= 50, outcomes

    def test_against_search_on_portals(self, refines):
        """Portals at scales 1 to 30 against their reimported export, which
        keeps the row ids, against a copy with permuted ids, against an
        equal copy and against same-id near misses."""
        rng, same_ids = random.Random(72), random.Random(172)
        outcomes = Counter()
        for scale in range(1, 31):
            I, again = roundtrip(portal_sql(rng, scale))
            for J in (again, relabelled(rng, I), equal_copy(I)):
                answer, how = iso_outcome(I, J, refines)
                assert answer is search_iso(I, J) is True
                outcomes[(J is again, how)] += 1
            for J in iso_near_misses(same_ids, I):
                answer, how = iso_outcome(I, J, refines)
                assert answer == search_iso(I, J)
                assert (how == "identity") == same_tables(I, J)
                outcomes[how] += 1
        assert outcomes[(True, "identity")] == 30, outcomes
        assert outcomes[(False, "identity")] == 30, outcomes  # the equal copies
        assert outcomes["searched"] >= 60, outcomes

    def test_pinned_answers(self):
        loop = make_schema("L", ["a"], [("f", "a", "a")])

        def graph(f):
            rows = [f"r{i}" for i in range(len(f))]
            return Instance(loop, {"a": rows}, {("a", "f"): {r: rows[j] for r, j in zip(rows, f)}}, {})

        # two fixed points against a 2-cycle, on the same row ids: not isomorphic
        for I, J in ((graph([0, 1]), graph([1, 0])), (graph([1, 0]), graph([0, 1]))):
            assert not iso_check(I, J)
        # isomorphic, but not by the identity: the search finds one
        I, J = graph([1, 0, 3, 2]), graph([2, 3, 0, 1])
        assert iso_check(I, J)
        # g ->f c: J's edge sends both g rows to one c row
        s = make_schema("GC", ["g", "c"], [("f", "g", "c")])
        rows = {"g": ["g1", "g2"], "c": ["c1", "c2"]}
        I = Instance(s, rows, {("g", "f"): {"g1": "c1", "g2": "c2"}}, {})
        J = Instance(s, rows, {("g", "f"): {"g1": "c1", "g2": "c1"}}, {})
        assert not iso_check(I, J)
        # isomorphic by swapping c1 and c2, which only the search finds
        I = Instance(s, rows, {("g", "f"): {"g1": "c2", "g2": "c1"}}, {})
        J = Instance(s, rows, {("g", "f"): {"g1": "c1", "g2": "c2"}}, {})
        assert iso_check(I, J)
        # the bijection that commutes with the edge swaps two attribute values
        s = make_schema("GV", ["g", "c"], [("f", "g", "c")], [("v", "c", "string")])
        values = {("c", "v"): {"c1": "x", "c2": "y"}}
        I = Instance(s, {"g": ["g1"], "c": ["c1", "c2"]}, {("g", "f"): {"g1": "c1"}}, values)
        J = Instance(s, {"g": ["g1"], "c": ["c1", "c2"]}, {("g", "f"): {"g1": "c2"}}, values)
        assert not iso_check(I, J)

    def test_portal_roundtrip_needs_no_search(self, portal, monkeypatch):
        """On the roundtrip workload's shape the identity step decides:
        neither the refinement nor the search runs."""
        def no_search(*_args, **_kwargs):
            raise AssertionError("the refinement or the search ran")

        schema, inst = portal
        pairs = [(inst, import_sql(export_sql(schema, inst))[1])]
        rng = random.Random(73)
        # 85 is the benchmark probe's scale: 2,215 rows
        pairs += [roundtrip(portal_sql(rng, scale)) for scale in (8, 20, 34, 85)]
        monkeypatch.setattr(instances_module, "_refine", no_search)
        monkeypatch.setattr(instances_module, "_homs", no_search)
        for I, J in pairs:
            assert iso_check(I, J)


def moore_partition(instances):
    """The oracle: Moore rounds.  Every row is recolored by its color and its
    edge targets' colors, round after round, until the number of colors stops
    growing.  Returns the classes of (instance, node, row) keys."""
    s = instances[0].schema
    keys = [(k, n, r) for k, I in enumerate(instances) for n in sorted(s.nodes) for r in I.rows[n]]

    def renumber(signature):
        ids = {}
        return {key: ids.setdefault(signature(key), len(ids)) for key in keys}

    color = renumber(lambda key: (key[1], attr_tuple(instances[key[0]], key[1], key[2])))
    while True:
        new = renumber(lambda key: (color[key], tuple(
            color[(key[0], tgt, instances[key[0]].edge(key[1], e)[key[2]])]
            for (e, tgt) in s.out_edges[key[1]]
        )))
        if len(set(new.values())) == len(set(color.values())):
            break
        color = new
    return classes_of(keys, [color[key] for key in keys])


def classes_of(keys, colors):
    classes = {}
    for key, c in zip(keys, colors):
        classes.setdefault(c, set()).add(key)
    return {frozenset(cl) for cl in classes.values()}


class TestRefineAgainstMooreOracle:
    def test_random_instances(self):
        rng = random.Random(41)
        seen = dict.fromkeys(["loop", "cycle", "parallel", "empty", "null", "merged", "joint"], 0)
        for _ in range(600):
            s = rand_refine_schema(rng)
            I = rand_refine_instance(rng, s)
            instances = [I]
            if rng.random() < 0.5:  # a joint partition of two instances
                other = relabelled(rng, I) if rng.random() < 0.5 else rand_refine_instance(rng, s)
                instances.append(other)
            keys = [(k, n, r) for k, J in enumerate(instances)
                    for n in s.topo_order for r in J.rows[n]]
            got = classes_of(keys, _refine(instances))
            expected = moore_partition(instances)
            assert got == expected
            pairs = {(src, tgt) for (_e, src, tgt) in s.edges}
            seen["loop"] += any(src == tgt for (src, tgt) in pairs)
            seen["cycle"] += any((tgt, src) in pairs for (src, tgt) in pairs if src != tgt)
            seen["parallel"] += len(pairs) < len(s.edges)
            seen["empty"] += any(not J.rows[n] for J in instances for n in s.nodes)
            seen["null"] += any(isinstance(v, LabelledNull) for J in instances
                                for fn in J.attr_fn.values() for v in fn.values())
            seen["merged"] += len(expected) < len(keys)
            seen["joint"] += any(len({k for (k, _n, _r) in cl}) > 1 for cl in expected)
        assert min(seen.values()) >= 20, seen


def rand_settle_schema(rng):
    """Up to six nodes with shuffled names: a core of up to three, most often
    on a ring, with random edges among them; a head node with an edge into
    the core; a tail whose nodes each take an edge from the core or an
    earlier tail node; and up to two edges anywhere.  So self-loops, longer
    cycles, nodes that reach a cycle and chains that only a cycle reaches
    all occur, and a name order often disagrees with edge order.  Up to
    three attributes."""
    names = rng.sample("abcdefgh", rng.randint(1, 6))
    k = rng.randint(1, min(3, len(names)))
    core, rest = names[:k], names[k:]
    h = rng.randint(0, min(1, len(rest)))
    head, tail = rest[:h], rest[h:]
    pairs = [(a, b) for a, b in zip(core, core[1:] + core[:1]) if rng.random() < 0.8]
    pairs += [(rng.choice(core), rng.choice(core)) for _ in range(rng.randint(0, 2))]
    pairs += [(n, rng.choice(core)) for n in head]
    pairs += [(rng.choice(core + tail[:i]), n) for i, n in enumerate(tail)]
    pairs += [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 2))]
    edges = [(f"e{i}", a, b) for i, (a, b) in enumerate(pairs)]
    attrs = [(f"v{i}", rng.choice(names), "string") for i in range(rng.randint(0, 3))]
    return make_schema("ST", names, edges, attrs)


def reach_sets(s):
    """node -> the nodes that a path of one or more edges leads to from it."""
    succ = {n: {tgt for (_e, tgt) in s.out_edges[n]} for n in s.nodes}
    out = {}
    for n in s.nodes:
        seen, todo = set(), list(succ[n])
        while todo:
            m = todo.pop()
            if m not in seen:
                seen.add(m)
                todo.extend(succ[m])
        out[n] = seen
    return out


class TestTwoPhaseRefine:
    def test_settle_order(self):
        """Schema.settle_order lists exactly the nodes that no cycle reaches,
        each after the targets of its edges."""
        rng = random.Random(43)
        for _ in range(500):
            s = rand_settle_schema(rng)
            order = s.settle_order
            reach = reach_sets(s)
            on_cycle = {n for n in s.nodes if n in reach[n]}
            assert set(order) == {n for n in s.nodes if on_cycle.isdisjoint(reach[n] | {n})}
            assert len(set(order)) == len(order)
            for (_e, src, tgt) in s.edges:
                if src in order:
                    assert order.index(tgt) < order.index(src)

    def test_against_fixpoint_coloring(self):
        """_refine's partition equals the naive fixpoint coloring, on one
        instance and jointly on two, and union(I, J) equals the
        relationalized disjoint union in rows, edges and attributes."""
        rng = random.Random(47)
        seen = Counter()
        for _ in range(2000):
            s = rand_settle_schema(rng)
            I = rand_refine_instance(rng, s)
            other = relabelled(rng, I) if rng.random() < 0.3 else rand_refine_instance(rng, s)
            for instances in ([I], [I, other]):
                keys = [(k, n, r) for k, J in enumerate(instances)
                        for n in s.topo_order for r in J.rows[n]]
                expected = moore_partition(instances)
                assert classes_of(keys, _refine(instances)) == expected
                seen["merged"] += len(expected) < len(keys)
                seen["joint"] += any(len({k for (k, _n, _r) in cl}) > 1 for cl in expected)
            for J in (other, I):
                got, want = union(I, J), relationalize(disjoint_union(I, J))
                assert (got.rows, got.edge_fn, got.attr_fn) == (want.rows, want.edge_fn, want.attr_fn)
            settled, reach = set(s.settle_order), reach_sets(s)
            on_cycle = {n for n in s.nodes if n in reach[n]}
            filled = {n for n in s.nodes if I.rows[n]}
            seen["self-loop"] += any(src == tgt and src in filled for (_e, src, tgt) in s.edges)
            seen["longer cycle"] += any(a != b and a in reach[b]
                                        for a in on_cycle & filled for b in reach[a])
            seen["reaches a cycle"] += bool(filled - settled - on_cycle)
            seen["below a cycle"] += any(filled & settled & reach[n] for n in on_cycle)
            # reversed(topo_order) would color a settled node before a target
            backwards = [n for n in reversed(s.topo_order) if n in settled]
            seen["not reversed topo_order"] += any(
                src in settled and backwards.index(tgt) > backwards.index(src)
                for (_e, src, tgt) in s.edges)
        assert min(seen.values()) >= 50, seen


def extended(rng, I):
    """I with the rows of a fresh instance on its schema, renamed apart;
    their edges lead into the new rows or into I's."""
    s = I.schema
    K = rand_refine_instance(rng, s)
    new = {n: {r: f"x{r}" for r in K.rows[n]} for n in s.nodes}
    edge_fn = {}
    for (e, src, tgt) in s.edges:
        fn = edge_fn[(src, e)] = dict(I.edge(src, e))
        for r, t in K.edge(src, e).items():
            use_I = I.rows[tgt] and rng.random() < 0.4
            fn[new[src][r]] = rng.choice(I.rows[tgt]) if use_I else new[tgt][t]
    attr_fn = {(src, a): {**I.attr(src, a), **{new[src][r]: v for r, v in K.attr(src, a).items()}}
               for (a, src, _t) in s.attributes}
    return Instance(s, {n: [*I.rows[n], *new[n].values()] for n in s.nodes}, edge_fn, attr_fn)


def new_part(I, J):
    """The rows of J, an extension of I, that I lacks, with their edge and
    attribute entries: extend's arguments that build J from I."""
    rows = {n: [r for r in rs if r not in I.rows[n]] for n, rs in J.rows.items()}
    return (rows, *({(n, x): {r: fn[r] for r in rows[n]} for (n, x), fn in fns.items()}
                    for fns in (J.edge_fn, J.attr_fn)))


class TestExtend:
    def test_against_merged_instance(self):
        """extend leaves I as it was and equals the instance built from the
        merged rows and functions, which validates."""
        rng = random.Random(59)
        for _ in range(200):
            s = rand_settle_schema(rng)
            I = rand_refine_instance(rng, s)
            J = extended(rng, I)
            before = copy.deepcopy((I.rows, I.edge_fn, I.attr_fn))
            got = extend(I, *new_part(I, J))
            assert (I.rows, I.edge_fn, I.attr_fn) == before
            assert (got.rows, got.edge_fn, got.attr_fn) == (J.rows, J.edge_fn, J.attr_fn)
            validate_instance(got)

    def test_reused_row_or_broken_equation_raises(self):
        s = make_schema("ID", ["a"], [("f", "a", "a")], [],
                        [PathEquation(Path("a", ("f",)), Path("a"))])
        I = Instance(s, {"a": ["x"]}, {("a", "f"): {"x": "x"}}, {})
        validate_instance(extend(I, {"a": ["y"]}, {("a", "f"): {"y": "y"}}, {}))
        with pytest.raises(ValidationError, match="^row 'x' is listed more than once"):
            extend(I, {"a": ["x"]}, {("a", "f"): {"x": "x"}}, {})
        with pytest.raises(ValidationError, match="^equation a.f = a violated at node 'a', row 'y'"):
            extend(I, {"a": ["y"]}, {("a", "f"): {"y": "x"}}, {})


def near_misses(rng, I, J):
    """(kind, copy of J) pairs, J an extension of I, each copy changed so
    that it no longer extends I: one value or one edge image of a row of I
    changed, or one row of I that no edge leads to dropped."""
    s = I.schema

    def changed(edit):
        rows = {n: list(rs) for n, rs in J.rows.items()}
        edge_fn = {k: dict(fn) for k, fn in J.edge_fn.items()}
        attr_fn = {k: dict(fn) for k, fn in J.attr_fn.items()}
        edit(rows, edge_fn, attr_fn)
        return Instance(s, rows, edge_fn, attr_fn)

    out = []
    valued = [(n, a, r) for (a, n, _t) in sorted(s.attributes) for r in I.rows[n]]
    if valued:
        n, a, r = rng.choice(valued)
        value = rng.choice([v for v in ["x", "y", LabelledNull("p"), LabelledNull("q")]
                            if v != J.attr(n, a)[r]])
        out.append(("changed value", changed(lambda _r, _e, af: af[(n, a)].update({r: value}))))
    movable = [(n, e, tgt, r) for (e, n, tgt) in sorted(s.edges) for r in I.rows[n]
               if len(J.rows[tgt]) > 1]
    if movable:
        n, e, tgt, r = rng.choice(movable)
        image = rng.choice([t for t in J.rows[tgt] if t != J.edge(n, e)[r]])
        out.append(("changed edge image",
                    changed(lambda _r, ef, _a: ef[(n, e)].update({r: image}))))
    images = {(tgt, t) for (e, src, tgt) in s.edges for t in J.edge(src, e).values()}
    droppable = [(n, r) for n in sorted(s.nodes) for r in I.rows[n] if (n, r) not in images]
    if droppable:
        n, r = rng.choice(droppable)

        def drop(rows, edge_fn, attr_fn):
            rows[n].remove(r)
            for fn in [edge_fn[(n, e)] for (e, _t) in s.out_edges[n]] + \
                      [attr_fn[(n, a)] for (a, _t) in s.node_attrs[n]]:
                del fn[r]

        out.append(("row only in I", changed(drop)))
    return out


class TestUnionOnExtensions:
    def test_against_disjoint_union(self):
        """union(I, J) equals the relationalized disjoint union in rows,
        edges and attributes when J extends I, equals I, or I is empty;
        when I extends J; when J is built from I by extend; and on near
        misses, which the extension check must refuse."""
        rng = random.Random(53)
        seen = Counter()
        for _ in range(300):
            s = rand_settle_schema(rng)
            I = rand_refine_instance(rng, s)
            J = extended(rng, I)
            proper = J.total_rows() > I.total_rows()
            cases = [("J == I", I, Instance(s, I.rows, I.edge_fn, I.attr_fn)),
                     ("I empty", empty_instance(s), J),
                     ("extend", I, extend(I, *new_part(I, J)))]
            if proper:
                cases += [("J extends I", I, J), ("J inside I", J, I)]
            cases += [(kind, I, miss) for (kind, miss) in near_misses(rng, I, J)]
            for kind, A, B in cases:
                got, want = union(A, B), relationalize(disjoint_union(A, B))
                assert (got.rows, got.edge_fn, got.attr_fn) == \
                    (want.rows, want.edge_fn, want.attr_fn), kind
                big, small = (A, B) if kind == "J inside I" else (B, A)
                assert instances_module._extends(big, small) == (kind in (
                    "J == I", "I empty", "extend", "J extends I", "J inside I")), kind
                seen[kind] += 1
            seen["labelled null"] += any(isinstance(v, LabelledNull)
                                         for fn in J.attr_fn.values() for v in fn.values())
            seen["cycle"] += bool(I.total_rows()) and len(s.settle_order) < len(s.nodes)
        assert len(seen) == 10 and min(seen.values()) >= 50, seen


def pairs_instance(k):
    """k disjoint f-pairs a_i -> b_i on the schema a -> b."""
    s = make_schema("P", ["a", "b"], [("f", "a", "b")])
    a, b = [f"a{i}" for i in range(k)], [f"b{i}" for i in range(k)]
    return Instance(s, {"a": a, "b": b}, {("a", "f"): dict(zip(a, b))}, {})


def component_count(I):
    """The number of connected components of I's rows along its edges."""
    s = I.schema
    linked = {(n, r): set() for n in s.nodes for r in I.rows[n]}
    for (e, src, tgt) in s.edges:
        for r, v in I.edge(src, e).items():
            linked[(src, r)].add((tgt, v))
            linked[(tgt, v)].add((src, r))
    seen, count = set(), 0
    for x in linked:
        if x not in seen:
            count += 1
            todo = [x]
            while todo:
                y = todo.pop()
                if y not in seen:
                    seen.add(y)
                    todo.extend(linked[y])
    return count


class TestComponentCount:
    def test_against_exhaustive_oracle(self):
        """The product of the component counts equals the exhaustive count,
        and a disjoint union counts the product of its parts' counts."""
        rng = random.Random(53)
        seen = Counter()
        while seen["pairs"] < 1000:
            s = rand_settle_schema(rng)
            I1, I2 = (rand_refine_instance(rng, s, (0, 1, 2, 3)) for _ in "12")
            J = rand_refine_instance(rng, s, (0, 1, 2, 3))
            space = max(math.prod(len(J.rows[n]) ** len(K.rows[n]) for n in s.nodes)
                        for K in (I1, I2))
            if space > 2000:
                continue
            counts = [enumerate_homs(K, J) for K in (I1, I2)]
            for K, count in zip((I1, I2), counts):
                assert count == sum(is_natural(K, J, h) for h in node_maps(K, J, False))
            assert enumerate_homs(disjoint_union_many([I1, I2]), J) == counts[0] * counts[1]
            filled = {n for n in s.nodes if I1.rows[n]}
            split = component_count(I1) > 1
            seen["pairs"] += 1
            seen["components"] += split
            seen["self-loop"] += any(src == tgt and src in filled for (_e, src, tgt) in s.edges)
            seen["cycle"] += any(n in reach and n in filled for n, reach in reach_sets(s).items())
            seen["null"] += any(isinstance(v, LabelledNull) for fn in I1.attr_fn.values()
                                for v in fn.values())
            seen["no hom"] += counts[0] == 0
            seen["multiplied"] += split and counts[0] > 1
        assert min(seen.values()) >= 50, seen

    def test_disjoint_pairs(self):
        """k disjoint f-pairs into 2 have 2^k homs, counted exactly, beyond
        the limit, and without enumerating them."""
        J = pairs_instance(2)
        start = time.perf_counter()
        assert enumerate_homs(pairs_instance(21), J) == 2 ** 21
        assert enumerate_homs(pairs_instance(21), J, limit=3) == 2 ** 21
        assert enumerate_homs(pairs_instance(1000), J) == 2 ** 1000
        assert time.perf_counter() - start < 1.0

    def test_no_hom_beside_a_component_over_the_limit(self):
        """A component with more than limit homs raises only when no other
        component has none, in either order of the components."""
        s = make_schema("L", ["a"], [("f", "a", "a")], [("v", "a", "string")])

        def graph(f, values):
            return Instance(s, {"a": list(f)}, {("a", "f"): f}, {("a", "v"): values})

        # a 2-cycle and two fixed points: v is x on the cycle, y on the points
        J = graph({"p": "q", "q": "p", "r": "r", "s": "s"}, {"p": "x", "q": "x", "r": "y", "s": "y"})
        over = {"e0": "e1", "e1": "e0"}, {"e0": "y", "e1": "y"}  # 2 homs, onto r or s
        none = {"z": "z"}, {"z": "x"}  # a fixed point with v = x: no hom
        assert enumerate_homs(graph(*over), J) == 2
        with pytest.raises(LimitExceeded):
            enumerate_homs(graph(*over), J, limit=1)
        assert enumerate_homs(graph(*none), J) == 0
        for z in ("z", "a"):  # the fixed point's row sorts last, then first
            f, v = {**over[0], z: z}, {**over[1], z: "x"}
            assert enumerate_homs(graph(f, v), J, limit=1) == 0

    def test_components_after_the_limit_need_one_hom(self, monkeypatch):
        """Once one component is over the limit, each later component is
        searched for one hom only, and the count still raises."""
        found = []  # the first row of the component of each hom found
        homs = instances_module._homs

        def counted(*args, **kwargs):
            search = homs(*args, **kwargs)

            def counting(rows):
                for img in search(rows):
                    found.append(rows[0])
                    yield img
            return counting

        monkeypatch.setattr(instances_module, "_homs", counted)
        with pytest.raises(LimitExceeded):  # three components of 5 homs each
            enumerate_homs(pairs_instance(3), pairs_instance(5), limit=2)
        assert Counter(found) == {0: 3, 1: 1, 2: 1}


def rand_join_case(rng, max_vars=4, max_groups=4):
    """Random domains over a shared row pool, and random groups of one to
    three alternatives whose terms read a random row -> value table, the row
    itself, or a constant (a labelled null among them)."""
    pool = ["r0", "r1", "r2", "r3", "r4"]
    values = ["a", "b", 0, 1, LabelledNull("x"), LabelledNull("y")] + pool[:2]
    domains = [rng.sample(pool, rng.randint(0, 4)) for _ in range(rng.randint(0, max_vars))]

    def term():
        if not domains or rng.random() < 0.2:
            return rng.choice(values)
        v = rng.randrange(len(domains))
        if rng.random() < 0.3:
            return (v, lambda r: r)
        table = {r: rng.choice(values) for r in pool}
        return (v, table.__getitem__)

    groups = [
        [(term(), term()) for _ in range(rng.choice([1, 1, 2, 3]))]
        for _ in range(rng.randint(0, max_groups))
    ]
    return domains, groups


def join_oracle(domains, groups):
    """The filtered product, ordered by the rows' positions in their domains
    taken in ascending order of domain size, ties in declared order."""

    def value(term, a):
        return term[1](a[term[0]]) if isinstance(term, tuple) else term

    expected = [
        a for a in itertools.product(*domains)
        if all(any(value(l, a) == value(r, a) for (l, r) in g) for g in groups)
    ]
    order = sorted(range(len(domains)), key=lambda v: (len(domains[v]), v))
    expected.sort(key=lambda a: [domains[v].index(a[v]) for v in order])
    return expected


class TestJoin:
    def test_matches_product_oracle(self):
        rng = random.Random(23)
        nonempty = 0
        for _ in range(600):
            domains, groups = rand_join_case(rng)
            got = join(domains, groups)
            assert got == join_oracle(domains, groups)
            assert len(set(got)) == len(got)
            nonempty += bool(got) and any(len(g) > 1 for g in groups)
        assert nonempty > 20

    def test_connected_plans_match_product_oracle(self):
        """Up to six variables and six groups, so the plan follows hash
        clauses away from size order and the output must be re-sorted, and
        some groups' alternatives lie on different variables, one each."""
        rng = random.Random(29)
        seen = Counter()
        for _ in range(2000):
            domains, groups = rand_join_case(rng, max_vars=6, max_groups=6)
            got = join(domains, groups)
            assert got == join_oracle(domains, groups)
            kinds = {("var" if all(isinstance(t, tuple) for t in alt) else "const",
                      "single" if len(g) == 1 else "disjunctive")
                     for g in groups for alt in g}
            seen.update(kinds)
            seen["4+ variables, nonempty"] += len(domains) >= 4 and bool(got)
            one_var = [[{t[0] for t in alt if isinstance(t, tuple)} for alt in g] for g in groups]
            seen["a union of one join per alternative"] += any(
                len(g) > 1 and all(len(vs) == 1 for vs in g) and len(set().union(*g)) > 1 for g in one_var)
        assert min(seen.values()) >= 20, seen
