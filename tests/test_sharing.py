"""Outputs that share their inputs' tables, and no operation editing its inputs.

delta passes through the dict of a source edge or attribute whose image is
one edge or one attribute, and relationalize returns its input when no two
rows merge.  So an output may hold its input's dicts, and an edit to one
would show in the other.  TestSharingKeepsInputs deep-copies every input
before a call and compares it after; the other two classes check each
shortcut against the copying code that it skips.
"""

import copy
import random

from catql.core import ConstPath
from catql.errors import CatqlError
from catql.instances import (
    LabelledNull,
    _quotient,
    _refine,
    disjoint_union,
    enumerate_homs,
    extend,
    iso_check,
    path_fn,
    relationalize,
    union,
)
from catql.migration import delta, pi, sigma
from catql.queries import eval_query_direct, eval_query_via_migration
from catql.scenario import enrich_edge, relation_from_pairs

from conftest import (
    rand_adjunction_triple,
    rand_attributed_triple,
    rand_instance,
    rand_presented_triple,
)
from test_instances import (
    equal_copy,
    extended,
    iso_near_misses,
    new_part,
    rand_refine_instance,
    rand_refine_schema,
    relabelled,
)
from test_queries import rand_disjunctive_query, random_query_corpus, with_nulls


def snapshot(*instances):
    return copy.deepcopy([(I.rows, I.edge_fn, I.attr_fn) for I in instances])


def leaves_inputs(call, *inputs):
    """call's result, or None where it raises a CatqlError; either way the
    rows, edge_fn and attr_fn of every input, inner dicts included, are as
    they were before the call."""
    before = snapshot(*inputs)
    try:
        out = call()
    except CatqlError:
        out = None
    assert snapshot(*inputs) == before
    return out


def triples(seed, count):
    """count (F: S -> T, I on S, J on T) triples: attribute-free, with
    attributes and equations, and on schemas with cycles, in turn."""
    rng = random.Random(seed)
    makers = [rand_adjunction_triple, rand_attributed_triple, rand_presented_triple]
    return [makers[k % 3](rng) for k in range(count)]


def one_step(p) -> bool:
    """Whether image p is one edge or one attribute of its source node."""
    return not isinstance(p, ConstPath) and len(p.steps) + (p.attr is not None) == 1


def images(F, J):
    """(kind, J's dicts of that kind, key, image, the key of J's dict for a
    one-step image or None) for each source edge and attribute of F, edges
    first."""
    return [(kind, fns, key, p, (p.source, p.steps[0] if p.steps else p.attr) if one_step(p) else None)
            for kind, fns, imgs in (("edge", J.edge_fn, F.edges), ("attr", J.attr_fn, F.attrs))
            for key, p in sorted(imgs.items(), key=repr)]


def check_delta_shares(F, J, out):
    """Each table of delta(F, J) for a one-step image is J's own dict, and
    every other table is none of J's dicts."""
    for kind, fns, key, p, at in images(F, J):
        table = (out.edge_fn if kind == "edge" else out.attr_fn)[key]
        if at is not None and at in fns:
            assert table is fns[at]
        else:
            assert all(table is not fn for fn in (*J.edge_fn.values(), *J.attr_fn.values()))


def all_distinct(I) -> bool:
    color = _refine([I])
    return len(set(color)) == len(color)


class TestSharingKeepsInputs:
    def test_migrations(self):
        for F, I, J in triples(301, 150):
            out = leaves_inputs(lambda: delta(F, J), J)
            check_delta_shares(F, J, out)
            leaves_inputs(lambda: sigma(F, I), I)
            leaves_inputs(lambda: pi(F, I), I)

    def test_unions_and_extensions(self):
        rng = random.Random(302)
        shared = 0
        for F, I, J in triples(303, 150):
            K = rand_instance(rng, I.schema)
            out = leaves_inputs(lambda: relationalize(I), I)
            assert (out is I) == all_distinct(I)
            shared += out is I and I.total_rows() > 1
            leaves_inputs(lambda: union(I, K), I, K)
            leaves_inputs(lambda: disjoint_union(I, K), I, K)
            big = extended(rng, I)
            rows, edge_fn, attr_fn = new_part(I, big)
            part = copy.deepcopy((rows, edge_fn, attr_fn))
            leaves_inputs(lambda: extend(I, rows, edge_fn, attr_fn), I)
            assert (rows, edge_fn, attr_fn) == part
            leaves_inputs(lambda: union(I, big), I, big)
            leaves_inputs(lambda: union(big, I), I, big)
        assert shared >= 20, shared

    def test_iso_and_homs(self):
        """iso_check on permuted copies, which it searches, on near misses
        of them, and on equal copies, which its identity step decides;
        enumerate_homs both ways."""
        rng = random.Random(307)
        for _ in range(200):
            I = rand_refine_instance(rng, rand_refine_schema(rng))
            K = relabelled(rng, I)
            for J in (K, *iso_near_misses(rng, K), equal_copy(I)):
                leaves_inputs(lambda: iso_check(I, J), I, J)
                leaves_inputs(lambda: enumerate_homs(I, J, limit=1000), I, J)
                leaves_inputs(lambda: enumerate_homs(J, I, limit=1000), I, J)

    def test_queries(self):
        rng = random.Random(304)
        corpus = random_query_corpus(305, 120, null_share=0.2)
        while len(corpus) < 180:
            F, I, _J = rand_attributed_triple(rng)
            q = rand_disjunctive_query(rng, I.schema)
            if q is not None:
                corpus.append((q, with_nulls(rng, I, 0.2)))
        for q, I in corpus:
            leaves_inputs(lambda: eval_query_direct(q, I), I)
            leaves_inputs(lambda: eval_query_via_migration(q, I), I)

    def test_enrich_edge(self, portal):
        _schema, inst = portal
        s = inst.schema
        names = sorted(set(inst.attr("material", "material_Material_Name").values()), key=repr)
        rng = random.Random(306)
        for _ in range(20):
            pairs = {(rng.choice(names), rng.choice(names + ["Zinc", "Metal"])) for _ in range(4)}
            rel = relation_from_pairs(pairs)
            for (e, src, tgt) in sorted(s.edges):
                if tgt == "material":
                    leaves_inputs(lambda: enrich_edge(inst, src, e, rel, "material_Material_Name"),
                                  inst, rel)


def spread(I):
    """I with each attribute value replaced by its row's id, so that no two
    rows of a node with an attribute merge."""
    attr_fn = {key: {r: r for r in fn} for key, fn in I.attr_fn.items()}
    return type(I)(I.schema, I.rows, I.edge_fn, attr_fn)


class TestSharingRelationalize:
    def test_against_quotient(self):
        """relationalize gives the rows and tables of the quotient that it
        skips, and returns I exactly when every row has its own color."""
        rng = random.Random(307)
        seen = dict.fromkeys(["cycle", "null", "merged", "returned"], 0)
        for _ in range(600):
            s = rand_refine_schema(rng)
            I = rand_refine_instance(rng, s)
            if rng.random() < 0.5:
                I = spread(I)
            ref = _quotient([I], [(0, "", I.rows)], _refine([I]))
            out = relationalize(I)
            assert out.rows == ref.rows
            for (e, src, _tgt) in s.edges:
                assert out.edge(src, e) == ref.edge(src, e)
            for (a, src, _ty) in s.attributes:
                assert out.attr(src, a) == ref.attr(src, a)
            assert (out is I) == all_distinct(I)
            filled = {n for n in s.nodes if I.rows[n]}
            seen["cycle"] += len([n for n in s.settle_order if n in filled]) < len(filled)
            seen["null"] += any(isinstance(v, LabelledNull) for fn in I.attr_fn.values() for v in fn.values())
            seen["merged"] += ref.total_rows() < I.total_rows()
            seen["returned"] += out is I and I.total_rows() > 1
        assert min(seen.values()) >= 60, seen


def copying_delta(F, I):
    """delta as it was before it shared tables: every table is built."""
    s = F.source
    rows = {n: I.rows[F.nodes[n]] for n in s.nodes}
    edge_fn = {}
    for (name, src, _tgt) in s.edges:
        f = path_fn(I, F.edges[(src, name)])
        edge_fn[(src, name)] = {r: f(r) for r in rows[src]}
    attr_fn = {}
    for (name, src, _ty) in s.attributes:
        f = path_fn(I, F.attrs[(src, name)])
        attr_fn[(src, name)] = {r: f(r) for r in rows[src]}
    return rows, edge_fn, attr_fn


class TestSharingDelta:
    def test_against_copying_delta(self):
        """delta equals the copying reference, and shares J's dict exactly
        where an image is one step."""
        seen = dict.fromkeys(["identity", "one-step edge", "longer edge",
                              "one-step attribute", "longer attribute", "constant"], 0)
        for F, _I, J in triples(308, 600):
            out = delta(F, J)
            rows, edge_fn, attr_fn = copying_delta(F, J)
            s = F.source
            assert out.rows == {n: tuple(sorted(rows[n])) for n in s.nodes}
            for (e, src, _tgt) in s.edges:
                assert out.edge(src, e) == edge_fn[(src, e)]
            for (a, src, _ty) in s.attributes:
                assert out.attr(src, a) == attr_fn[(src, a)]
            check_delta_shares(F, J, out)
            for kind, _fns, _key, p, at in images(F, J):
                if isinstance(p, ConstPath):
                    seen["constant"] += 1
                elif kind == "edge":
                    seen[["identity", "one-step edge", "longer edge"][min(len(p.steps), 2)]] += 1
                else:
                    seen["one-step attribute" if at else "longer attribute"] += 1
        assert min(seen.values()) >= 20, seen
