"""Query typechecking, direct evaluation, desugaring, and their agreement."""

import itertools
import random
import time

import pytest

from catql import queries
from catql.core import make_schema, validate_mapping, validate_schema
from catql.errors import DesugarError, TypecheckError
from catql.instances import (
    Instance,
    LabelledNull,
    eval_path,
    iso_check,
    relationalize,
)
from catql.migration import _PiPlan, delta, pi, sigma
from catql.parsing import parse_query
from catql.queries import (
    Clause,
    Group,
    ConstPath,
    Path,
    Query,
    SelectItem,
    compile_query,
    desugar_query,
    eval_query_direct,
    eval_query_via_migration,
    split_disjuncts,
    typecheck_query,
)

from conftest import disjoint_union_many, rand_dag_schema, rand_instance, read_data


def unitcode_instance():
    s = make_schema(
        "uc", ["unitcode"], [],
        [("Code", "unitcode", "string"), ("Description", "unitcode", "string")],
    )
    rows = ["1", "2", "3", "4", "5"]
    codes = dict(zip(rows, ["EA", "Thousands", "Inch", "mm", "cm"]))
    descs = {r: f"desc {r}" for r in rows}
    return Instance(
        s, {"unitcode": rows}, {},
        {("unitcode", "Code"): codes, ("unitcode", "Description"): descs},
    )


def result_rows(out):
    """Set of attribute tuples of a query result, in select order."""
    s = out.schema
    names = sorted(a for (a, _n, _t) in s.attributes)
    return {
        tuple(out.attr("row", a)[r] for a in names) for r in out.node_rows("row")
    }


class TestTypecheck:
    def test_fig_query_against_portal(self, portal):
        schema, _inst = portal
        q = parse_query(read_data("query1.txt"))
        assert len(q.bindings) == 6
        assert len(q.where) == 8
        assert len(q.selects) == 5
        typecheck_query(q, schema)

    def test_type_mismatch(self):
        q = parse_query('select x.Code as c from unitcode as x where x.Code=5')
        with pytest.raises(TypecheckError):
            typecheck_query(q, unitcode_instance().schema)

    def test_unknown_table(self):
        q = parse_query("select x.Code as c from nosuch as x")
        with pytest.raises(TypecheckError):
            typecheck_query(q, unitcode_instance().schema)

    def test_row_node_mismatch(self, portal):
        schema, _ = portal
        q = parse_query(
            "select m.material_Material_Name as n from material as m, unitcode as u "
            "where m = u"
        )
        with pytest.raises(TypecheckError):
            typecheck_query(q, schema)

    def test_duplicate_variable(self):
        q = parse_query("select x.Code as c from unitcode as x, unitcode as x")
        with pytest.raises(TypecheckError):
            typecheck_query(q, unitcode_instance().schema)

    def test_constant_only_clause_rejected(self):
        q = Query(
            bindings=(("x", "unitcode"),),
            where=(Group((Clause(ConstPath("a"), ConstPath("a")),)),),
            selects=(SelectItem("c", Path("x", ("Code",))),),
        )
        with pytest.raises(TypecheckError):
            typecheck_query(q, unitcode_instance().schema)


class TestDirectEval:
    def test_constant_filter(self):
        q = parse_query('select x.Code as c from unitcode as x where x.Code="cm"')
        out = eval_query_direct(q, unitcode_instance())
        assert result_rows(out) == {("cm",)}

    def test_unsatisfiable(self):
        q = parse_query('select x.Code as c from unitcode as x where x.Code="nope"')
        assert result_rows(eval_query_direct(q, unitcode_instance())) == set()

    def test_no_where_projects_all(self):
        q = parse_query("select x.Code as c from unitcode as x")
        out = eval_query_direct(q, unitcode_instance())
        assert result_rows(out) == {("EA",), ("Thousands",), ("Inch",), ("mm",), ("cm",)}

    def test_set_semantics_collapses_duplicates(self):
        q = parse_query("select x.Description as d from unitcode as x")
        I = unitcode_instance()
        same = {r: "same" for r in I.node_rows("unitcode")}
        I2 = Instance(I.schema, I.rows, {}, {**I.attr_fn, ("unitcode", "Description"): same})
        out = eval_query_direct(q, I2)
        assert len(out.node_rows("row")) == 1

    def test_fig_query_two_rows(self, portal):
        _schema, inst = portal
        q = parse_query(read_data("query1.txt"))
        out = eval_query_direct(q, inst)
        assert len(out.node_rows("row")) == 2

    def test_fig_query_output_pinned(self, portal):
        _schema, inst = portal
        out = eval_query_direct(parse_query(read_data("query1.txt")), inst)
        assert out.node_rows("row") == ("q0", "q1")
        assert {a: out.attr("row", a) for (a, _n, _t) in out.schema.attributes} == {
            "mn": {"q0": "Pre-hardened Stainless Steel", "q1": "17-4 Stainless Steel"},
            "ccn": {"q0": "Sinker EDM Drilling", "q1": "Ram EDM Burning"},
            "ml": {"q0": 30, "q1": 45},
            "ucc": {"q0": "cm", "q1": "cm"},
            "pcn": {"q0": "Sinker EDM", "q1": "Ram EDM"},
        }

    def test_invariant_under_binding_reorder(self, portal):
        _schema, inst = portal
        q = parse_query(read_data("query1.txt"))
        rng = random.Random(9)
        perm = list(q.bindings)
        rng.shuffle(perm)
        q2 = Query(tuple(perm), tuple(reversed(q.where)), q.selects)
        assert iso_check(eval_query_direct(q, inst), eval_query_direct(q2, inst))


def naive_oracle(q, I):
    """Cartesian product + filter + project + relationalize."""
    res = typecheck_query(q, I.schema)

    def ev(term, asg):
        if isinstance(term, ConstPath):
            return term.value
        sort = res.expr_sort[term]
        p = sort[1] if sort[0] == "attr" else sort[2]
        return eval_path(I, p, asg[term.source])

    from catql.queries import result_schema

    rows, attr_fn = [], {}
    names = [a for (a, _t) in res.select_types]
    tuples = set()
    domains = [I.rows[node] for (_v, node) in q.bindings]
    for combo in itertools.product(*domains):
        asg = {v: r for ((v, _n), r) in zip(q.bindings, combo)}
        if all(
            any(ev(c.lhs, asg) == ev(c.rhs, asg) for c in g.alternatives)
            for g in q.where
        ):
            tuples.add(tuple(ev(item.expr, asg) for item in q.selects))
    rs = result_schema(res.select_types)
    rows = [f"o{i}" for i in range(len(tuples))]
    attr_fn = {("row", a): {} for a in names}
    for rid, tup in zip(rows, sorted(tuples, key=str)):
        for a, v in zip(names, tup):
            attr_fn[("row", a)][rid] = v
    return relationalize(Instance(rs, {"row": rows}, {}, attr_fn))


def rand_row_expr(rng, s, var, node, max_len=2):
    """A random row-valued term out of var, bound to node, and its end node."""
    steps = []
    cur = node
    for _ in range(rng.randint(0, max_len)):
        outs = s.out_edges[cur]
        if not outs:
            break
        en, tgt = rng.choice(outs)
        steps.append(en)
        cur = tgt
    return Path(var, tuple(steps)), cur


def rand_attr_expr(rng, s, var, node):
    """A random attribute-valued term out of var and its type, or None."""
    e, cur = rand_row_expr(rng, s, var, node)
    cands = s.node_attrs[cur]
    if not cands:
        return None
    an, ty = rng.choice(cands)
    return Path(var, e.steps + (an,)), ty


def rand_query(rng, s, I, max_bindings=3):
    """A random type-correct query; may or may not be satisfiable."""
    nodes = sorted(s.nodes)
    nb = rng.randint(1, max_bindings)
    bindings = tuple((f"v{i}", rng.choice(nodes)) for i in range(nb))

    groups = []
    for _ in range(rng.randint(0, 3)):
        alts = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.random()
            (v1, n1) = rng.choice(bindings)
            if kind < 0.4:
                e1, c1 = rand_row_expr(rng, s, v1, n1)
                # find another expression landing on the same node
                for _try in range(10):
                    (v2, n2) = rng.choice(bindings)
                    e2, c2 = rand_row_expr(rng, s, v2, n2)
                    if c2 == c1:
                        alts.append(Clause(e1, e2))
                        break
            else:
                a1 = rand_attr_expr(rng, s, v1, n1)
                if a1 is None:
                    continue
                e1, ty = a1
                if kind < 0.8:
                    pool = ["red", "blue", "green"] if ty == "string" else [0, 1, 7]
                    alts.append(Clause(e1, ConstPath(rng.choice(pool))))
                else:
                    for _try in range(10):
                        (v2, n2) = rng.choice(bindings)
                        a2 = rand_attr_expr(rng, s, v2, n2)
                        if a2 is not None and a2[1] == ty:
                            alts.append(Clause(e1, a2[0]))
                            break
        if alts:
            groups.append(Group(tuple(alts)))
    selects = []
    for i in range(rng.randint(1, 3)):
        (v, n) = rng.choice(bindings)
        a = rand_attr_expr(rng, s, v, n)
        if a is not None:
            selects.append(SelectItem(f"s{i}", a[0]))
    if not selects:
        return None
    return Query(bindings, tuple(groups), tuple(selects))


def with_nulls(rng, I, share):
    """I with about `share` of its attribute values replaced by labelled nulls
    from a pool of two labels, so that nulls meet in join keys and filters."""
    attr_fn = {
        k: {r: LabelledNull(rng.choice("xy")) if rng.random() < share else v
            for r, v in fn.items()}
        for k, fn in I.attr_fn.items()
    }
    return Instance(I.schema, I.rows, I.edge_fn, attr_fn)


def random_query_corpus(seed, count, max_rows=4, max_bindings=3, null_share=0.0):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = rand_dag_schema(rng, "Q", with_attrs=True)
        I = rand_instance(rng, s, max_rows=max_rows)
        if null_share:
            I = with_nulls(rng, I, null_share)
        q = rand_query(rng, s, I, max_bindings)
        if q is None:
            continue
        try:
            typecheck_query(q, s)
        except TypecheckError:
            continue
        out.append((q, I))
    return out


def rand_disjunctive_query(rng, s):
    """A random type-correct query with a group of two or three
    alternatives, or None.  A clause is a row equality, an attribute
    equality between two terms or of a term with itself, or an attribute
    against a constant written on either side."""
    bindings = tuple((f"v{i}", rng.choice(sorted(s.nodes))) for i in range(rng.randint(1, 3)))

    def clause():
        (v1, n1) = rng.choice(bindings)
        kind = rng.choice(["row", "const", "const_left", "self", "terms"])
        if kind == "row":
            e1, c1 = rand_row_expr(rng, s, v1, n1)
            for _try in range(10):
                e2, c2 = rand_row_expr(rng, s, *rng.choice(bindings))
                if c2 == c1:
                    return Clause(e1, e2)
            return None
        a1 = rand_attr_expr(rng, s, v1, n1)
        if a1 is None:
            return None
        e1, ty = a1
        if kind == "self":
            return Clause(e1, e1)
        if kind == "terms":
            for _try in range(10):
                a2 = rand_attr_expr(rng, s, *rng.choice(bindings))
                if a2 is not None and a2[1] == ty:
                    return Clause(e1, a2[0])
            return None
        c = ConstPath(rng.choice(["red", "blue"] if ty == "string" else [0, 7]))
        return Clause(c, e1) if kind == "const_left" else Clause(e1, c)

    groups = []
    for g in range(rng.randint(1, 3)):
        alts = tuple(filter(None, (clause() for _ in range(rng.randint(2 - (g > 0), 3)))))
        if alts:
            groups.append(Group(alts))
    selects = []
    for i in range(rng.randint(1, 3)):
        a = rand_attr_expr(rng, s, *rng.choice(bindings))
        if a is not None:
            selects.append(SelectItem(f"s{i}", a[0]))
    if not selects or all(len(g.alternatives) == 1 for g in groups):
        return None
    return Query(bindings, tuple(groups), tuple(selects))


def disjunctive_corpus(seed, count):
    """(query, instance) pairs as in random_query_corpus, every query disjunctive."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = rand_dag_schema(rng, "Q", with_attrs=True)
        I = rand_instance(rng, s, max_rows=4)
        if rng.random() < 0.3:
            I = with_nulls(rng, I, 0.3)
        q = rand_disjunctive_query(rng, s)
        if q is not None:
            out.append((q, I))
    return out


def sigma_inputs(q, I):
    """sigma's (mapping, instance) arguments in eval_query_via_migration(q,
    I): each part's f_sigma and pi output, in order."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queries, "sigma", lambda F, J: calls.append((F, J)) or sigma(F, J))
        eval_query_via_migration(q, I)
    return calls


class TestOracleAgreement:
    def test_direct_matches_naive_oracle(self):
        for q, I in random_query_corpus(101, 300, max_bindings=4):
            assert result_rows(eval_query_direct(q, I)) == result_rows(naive_oracle(q, I))

    def test_direct_matches_naive_oracle_with_nulls(self):
        null_rows = 0
        for q, I in random_query_corpus(202, 300, max_bindings=4, null_share=0.3):
            got = result_rows(eval_query_direct(q, I))
            assert got == result_rows(naive_oracle(q, I))
            null_rows += sum(any(isinstance(v, LabelledNull) for v in row) for row in got)
        assert null_rows > 0


class TestDesugar:
    def test_disjunction_refused(self, portal):
        schema, _ = portal
        q = parse_query(read_data("query1.txt"))
        with pytest.raises(DesugarError):
            desugar_query(q, schema)

    def test_split_covers_all_choices(self, portal):
        q = parse_query(read_data("query1.txt"))
        parts = split_disjuncts(q)
        assert len(parts) == 4
        assert all(p.is_conjunctive() for p in parts)

    def test_mappings_validate(self):
        for q, I in random_query_corpus(77, 10):
            for part in split_disjuncts(q):
                d = desugar_query(part, I.schema)
                validate_mapping(d.f_delta)
                validate_mapping(d.f_pi)
                validate_mapping(d.f_sigma)

    def test_projection_only(self):
        q = parse_query("select x.Code as c from unitcode as x")
        I = unitcode_instance()
        assert iso_check(eval_query_via_migration(q, I), eval_query_direct(q, I))

    def test_join_pullback(self, portal):
        _s, inst = portal
        q = parse_query(
            "select c.capability_Capability_Name as n, u.unitcode_Code as k "
            "from capability as c, unitcode as u where u = c.capability_Max_Length_Unit"
        )
        assert iso_check(eval_query_via_migration(q, inst), eval_query_direct(q, inst))

    def test_fig_query_via_migration(self, portal):
        _s, inst = portal
        q = parse_query(read_data("query1.txt"))
        assert iso_check(eval_query_via_migration(q, inst), eval_query_direct(q, inst))

    def test_three_way_join_via_migration_is_hashed(self):
        """Three 500-row tables that each reference a 450-row key table.  pi
        joins its families with the key table bound first, so the three
        tables are hash-joined instead of enumerated as a 500^3 product."""
        rng = random.Random(31)
        s = make_schema(
            "star", ["A", "B", "C", "D"],
            [("d", "A", "D"), ("d", "B", "D"), ("d", "C", "D")],
            [("name", "A", "string"), ("name", "B", "string"), ("name", "C", "string")],
        )
        keys = [f"k{i}" for i in range(450)]
        rows = {t: [f"{t}{i}" for i in range(500)] for t in "ABC"}
        I = Instance(
            s, {**rows, "D": keys},
            {(t, "d"): {r: rng.choice(keys) for r in rows[t]} for t in "ABC"},
            {(t, "name"): {r: r for r in rows[t]} for t in "ABC"},
        )
        q = parse_query(
            "select a.name as x, b.name as y, c.name as z from A as a, B as b, C as c "
            "where a.d = b.d and b.d = c.d"
        )
        start = time.perf_counter()
        direct = eval_query_direct(q, I)
        via = eval_query_via_migration(q, I)
        assert time.perf_counter() - start < 2
        assert len(direct.rows["row"]) > 400
        assert result_rows(via) == result_rows(direct)

    def test_query_shapes_via_migration_are_planned(self, portal):
        """The bundled query on eight copies of the portal, and a chain and a
        star join over 1,000-row tables, give the direct rows via migration,
        all within one 2 s budget.  pi binds its families through the join
        clauses with the constant filters at the scan, so none is a product
        of whole tables."""
        rng = random.Random(13)

        def tables(names, edges):
            s = make_schema("shape", names, edges, [("name", t, "string") for t in names])
            rows = {t: [f"{t}{i}" for i in range(1000)] for t in names}
            return Instance(
                s, rows,
                {(src, e): {r: rng.choice(rows[tgt]) for r in rows[src]}
                 for (e, src, tgt) in edges},
                {(t, "name"): {r: r for r in rows[t]} for t in names},
            )

        _s, inst = portal
        cases = [
            (parse_query(read_data("query1.txt")), disjoint_union_many([inst] * 8)),
            (parse_query("select a.name as x, b.name as y, c.name as z "
                         "from A as a, B as b, C as c where b = a.f and c = b.g"),
             tables(["A", "B", "C"], [("f", "A", "B"), ("g", "B", "C")])),
            (parse_query("select x.name as w, a.name as x, b.name as y, c.name as z "
                         "from X as x, A as a, B as b, C as c "
                         "where a = x.f and b = x.g and c = x.h"),
             tables(["X", "A", "B", "C"], [("f", "X", "A"), ("g", "X", "B"), ("h", "X", "C")])),
        ]
        start = time.perf_counter()
        for q, I in cases:
            direct = result_rows(eval_query_direct(q, I))
            assert result_rows(eval_query_via_migration(q, I)) == direct
            assert len(direct) in (2, 1000)
        assert time.perf_counter() - start < 2

    def test_disjunction_of_constants_via_migration_filters_each_join(self):
        """Two 1,000-row tables, no join clause, and a disjunction of a
        constant on each side: each part joins with its own constant at the
        scan, about 1,000 families, never the 1,000,000-row product of the
        two tables, so the query runs within 0.5 s.  Evaluated directly, the
        join is the union of one join per alternative, each alternative a
        scan filter, so it gives the same 1,999 rows within 0.1 s."""
        s = make_schema("pair", ["A", "B"], [], [("name", t, "string") for t in "AB"])
        rows = {t: [f"{t}{i}" for i in range(1000)] for t in "AB"}
        I = Instance(s, rows, {}, {(t, "name"): {r: r for r in rows[t]} for t in "AB"})
        q = parse_query('select a.name as x, b.name as y from A as a, B as b '
                        'where (a.name = "A7" or b.name = "B9")')
        start = time.perf_counter()
        via = eval_query_via_migration(q, I)
        assert time.perf_counter() - start < 0.5
        assert result_rows(via) == {("A7", b) for b in rows["B"]} | {(a, "B9") for a in rows["A"]}
        start = time.perf_counter()
        direct = eval_query_direct(q, I)
        assert time.perf_counter() - start < 0.1
        assert len(direct.rows["row"]) == 1999
        assert result_rows(direct) == result_rows(via)


    def test_disjunction_with_a_join_alternative_splits_directly(self):
        """A disjunction of a constant on one table and a join of the two:
        evaluated directly, it is the union of a scan-filtered join and a
        hash join, so it gives the 1,999 rows of the migration within 0.1 s,
        not after the 1,000,000-row product of the two tables."""
        s = make_schema("pair", ["A", "B"], [], [("name", t, "string") for t in "AB"])
        rows = {t: [f"{t}{i}" for i in range(1000)] for t in "AB"}
        names = {(t, "name"): {r: r[1:] for r in rows[t]} for t in "AB"}
        I = Instance(s, rows, {}, names)
        q = parse_query('select a.name as x, b.name as y from A as a, B as b '
                        'where (a.name = "7" or a.name = b.name)')
        via = eval_query_via_migration(q, I)
        start = time.perf_counter()
        direct = eval_query_direct(q, I)
        assert time.perf_counter() - start < 0.1
        assert len(direct.rows["row"]) == 1999
        assert result_rows(direct) == result_rows(via)


class TestCompiledQuery:
    def test_fig_query_compiles_to_one_binding_schema(self, portal):
        """query1's two attribute disjunctions make four parts on one B,
        which carries an attribute per select item and per where-side
        occurrence of every alternative."""
        schema, _ = portal
        parts = compile_query(parse_query(read_data("query1.txt")), schema)
        assert len(parts) == 4
        assert len({id(d.f_delta) for d in parts}) == 1
        assert len(parts[0].f_delta.source.attributes) == 5 + 5
        assert len({id(d.f_pi.target) for d in parts}) == 4
        assert len({id(d.f_sigma.target) for d in parts}) == 1

    def test_disjunctive_queries_match_direct(self):
        """Via migration, every part's rows unioned give the direct rows, on
        320 random disjunctive queries."""
        kinds = dict.fromkeys(["const_left", "self", "row_disjunction", "different_terms"], 0)
        for q, I in disjunctive_corpus(25, 320):
            assert result_rows(eval_query_via_migration(q, I)) == result_rows(eval_query_direct(q, I))
            clauses = [c for g in q.where for c in g.alternatives]
            kinds["const_left"] += any(isinstance(c.lhs, ConstPath) for c in clauses)
            kinds["self"] += any(c.lhs == c.rhs for c in clauses)
            sort = typecheck_query(q, I.schema).expr_sort
            kinds["row_disjunction"] += any(
                sum(sort.get(c.lhs, ("const",))[0] == "row" for c in g.alternatives) > 1
                for g in q.where)
            kinds["different_terms"] += any(len({c.lhs for c in g.alternatives}) > 1 for g in q.where)
        assert min(kinds.values()) >= 10, kinds

    def test_disjunctive_parts_through_the_shared_plan_match_pi(self):
        """Each part's pi output through its binding schema's shared plan is
        pi(d.f_pi, delta(d.f_delta, I)): the same schema, and rows, edge dicts
        and attribute dicts of one repr, on disjunctive and conjunctive
        queries."""
        compared = 0
        for q, I in disjunctive_corpus(27, 150) + random_query_corpus(28, 150, null_share=0.2):
            parts = compile_query(q, I.schema)
            got = sigma_inputs(q, I)
            assert len(got) == len(parts)
            for d, (_f, out) in zip(parts, got):
                want = pi(d.f_pi, delta(d.f_delta, I))
                assert out.schema == want.schema
                assert repr((out.rows, out.edge_fn, out.attr_fn)) == repr((want.rows, want.edge_fn, want.attr_fn))
                compared += 1
        assert compared >= 500

    def test_fig_query_via_migration_builds_one_pi_plan(self, portal, monkeypatch):
        """query1's four parts share one B, so one pi plan serves them all."""
        plans = []
        monkeypatch.setattr(queries, "_PiPlan", lambda F: plans.append(F) or _PiPlan(F))
        _s, inst = portal
        out = eval_query_via_migration(parse_query(read_data("query1.txt")), inst)
        assert len(plans) == 1
        assert len(out.rows["row"]) == 2

    def test_parts_validate(self):
        """B, C and R are built without validation; they and the three
        mappings of every part pass it."""
        for q, I in disjunctive_corpus(26, 60):
            for d in compile_query(q, I.schema):
                for F in (d.f_delta, d.f_pi, d.f_sigma):
                    validate_schema(F.source)
                    validate_mapping(F)
                validate_schema(d.f_sigma.target)

    def test_alias_named_like_a_where_attribute(self):
        """An alias is never one of C's where attributes: when the two
        shared the name _w0, C kept one attribute, read by both, and the
        rows came back empty."""
        for alias in ("_w0", "w0", "sel0", "r"):
            q = parse_query(f'select x.Description as {alias} from unitcode as x '
                            'where x.Code = "cm"')
            assert result_rows(eval_query_via_migration(q, unitcode_instance())) == {("desc 5",)}
