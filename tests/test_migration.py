"""The three migrations: pullback (delta), left pushforward (sigma), limit (pi)."""

import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path as FsPath

import pytest

import catql

from catql.core import (
    ConstPath,
    Mapping,
    Path,
    PathEquation,
    all_morphisms_from,
    enumerate_morphisms,
    identity_mapping,
    make_schema,
    normalize_path,
    path_compose,
    path_target,
    paths_equal,
    validate_mapping,
)
from catql.errors import CatqlError, InconsistencyError, NotSaturated
from catql.instances import (
    Instance,
    LabelledNull,
    disjoint_union,
    enumerate_homs,
    eval_path,
    iso_check,
    validate_instance,
)
from catql.migration import delta, pi, sigma
from catql.scenario import build_fn, function_schema, relation_pairs, relation_schema

from conftest import (
    VALUE_POOLS,
    rand_adjunction_triple,
    rand_attributed_triple,
    rand_instance,
    rand_presented_triple,
)
from test_queries import disjunctive_corpus, sigma_inputs


def parent_chain():
    s = function_schema()
    rows = {"Material": ["iron", "metal", "matter"]}
    return Instance(
        s,
        rows,
        {("Material", "parent"): {"iron": "metal", "metal": "matter", "matter": "matter"}},
        {("Material", "name"): {r: r for r in rows["Material"]}},
    )


class TestDelta:
    def test_identity(self):
        I = parent_chain()
        out = delta(identity_mapping(I.schema), I)
        assert iso_check(out, I)

    def test_f0_reflexive_closure(self):
        I = parent_chain()
        out = delta(build_fn(0, relation_schema(), I.schema), I)
        assert relation_pairs(out) == {(x, x) for x in ("iron", "metal", "matter")}

    def test_f1_graph_of_parent(self):
        I = parent_chain()
        out = delta(build_fn(1, relation_schema(), I.schema), I)
        assert relation_pairs(out) == {
            ("iron", "metal"), ("metal", "matter"), ("matter", "matter")
        }

    def test_output_validates(self):
        I = parent_chain()
        validate_instance(delta(build_fn(2, relation_schema(), I.schema), I))


def finite_two_node():
    s = make_schema(
        "F2", ["a", "b"], [("f", "a", "b")],
        [("v", "a", "string"), ("w", "b", "integer")],
    )
    return Instance(
        s,
        {"a": ["x", "y"], "b": ["u", "v"]},
        {("a", "f"): {"x": "u", "y": "v"}},
        {("a", "v"): {"x": "p", "y": "q"}, ("b", "w"): {"u": 1, "v": 2}},
    )


TWO_ATTRIBUTE_CLASH = """
from catql.core import Mapping, Path, make_schema
from catql.errors import InconsistencyError
from catql.instances import Instance
from catql.migration import sigma

attrs = [("v", "b", "string"), ("w", "b", "string")]
S = make_schema("SC", ["a", "b"], [("f", "a", "b"), ("g", "a", "b")], attrs)
T = make_schema("TC", ["a", "b"], [("f", "a", "b")], attrs)
F = Mapping(
    source=S, target=T, nodes={"a": "a", "b": "b"},
    edges={("a", "f"): Path("a", ("f",)), ("a", "g"): Path("a", ("f",))},
    attrs={("b", n): Path("b", (), n) for (n, _s, _t) in attrs},
)
I = Instance(
    S, {"a": ["x"], "b": ["y", "z"]},
    {("a", "f"): {"x": "y"}, ("a", "g"): {"x": "z"}},
    {("b", n): {"y": "red", "z": "blue"} for (n, _s, _t) in attrs},
)
try:
    sigma(F, I)
except InconsistencyError as exc:
    print(exc)
"""

# Two classes clash on two attributes, declared w before v.  Class A is
# {x1 along f, b1, b9}, class B is {x2 along f, b2, b3}; A's least member
# comes first, but in row order B's clashing reading b3 comes before A's b9.
TWO_CLASS_CLASH = """
from catql.core import Mapping, Path, make_schema
from catql.errors import InconsistencyError
from catql.instances import Instance
from catql.migration import sigma

attrs = [("w", "b", "string"), ("v", "b", "string")]
S = make_schema("SC", ["a", "b"], [("f", "a", "b"), ("g", "a", "b")], attrs)
T = make_schema("TC", ["a", "b"], [("f", "a", "b")], attrs)
F = Mapping(
    source=S, target=T, nodes={"a": "a", "b": "b"},
    edges={("a", "f"): Path("a", ("f",)), ("a", "g"): Path("a", ("f",))},
    attrs={("b", n): Path("b", (), n) for (n, _s, _t) in attrs},
)
I = Instance(
    S, {"a": ["x1", "x2"], "b": ["b1", "b2", "b3", "b9"]},
    {("a", "f"): {"x1": "b1", "x2": "b2"}, ("a", "g"): {"x1": "b9", "x2": "b3"}},
    {("b", "v"): {"b1": "red", "b2": "red", "b3": "blue", "b9": "blue"},
     ("b", "w"): {"b1": "green", "b2": "green", "b3": "red", "b9": "red"}},
)
try:
    sigma(F, I)
except InconsistencyError as exc:
    print(exc)
"""


def messages_under_hash_seeds(script):
    """The standard output of script under PYTHONHASHSEED 0 and 1, as a set."""
    messages = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(FsPath(catql.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        messages.add(proc.stdout)
    return messages


class TestSigma:
    def test_identity(self):
        I = finite_two_node()
        assert iso_check(sigma(identity_mapping(I.schema), I), I)

    def test_fold_is_disjoint_union(self):
        # two copies of a pointed schema folded onto one
        S = make_schema("SS", ["a1", "a2"], [], [("v1", "a1", "string"), ("v2", "a2", "string")])
        T = make_schema("TT", ["a"], [], [("v", "a", "string")])
        F = Mapping(
            source=S, target=T, nodes={"a1": "a", "a2": "a"},
            attrs={("a1", "v1"): Path("a", (), "v"), ("a2", "v2"): Path("a", (), "v")},
        )
        validate_mapping(F)
        I = Instance(
            S, {"a1": ["x"], "a2": ["y", "z"]}, {},
            {("a1", "v1"): {"x": "p"}, ("a2", "v2"): {"y": "q", "z": "r"}},
        )
        out = sigma(F, I)
        assert len(out.node_rows("a")) == 3
        assert sorted(out.attr("a", "v").values()) == ["p", "q", "r"]

    def test_unconstrained_attribute_gets_labelled_null(self):
        S = make_schema("SN", ["a"], [])
        T = make_schema("TN", ["a"], [], [("v", "a", "string")])
        F = Mapping(source=S, target=T, nodes={"a": "a"})
        validate_mapping(F)
        out = sigma(F, Instance(S, {"a": ["x"]}, {}, {}))
        (val,) = out.attr("a", "v").values()
        assert isinstance(val, LabelledNull)

    def test_attribute_clash_is_error(self):
        # edge collapse forces two rows together; their constants disagree
        S = make_schema(
            "SC", ["a", "b"], [("f", "a", "b"), ("g", "a", "b")],
            [("v", "b", "string")],
        )
        T = make_schema(
            "TC", ["a", "b"], [("f", "a", "b")], [("v", "b", "string")],
        )
        F = Mapping(
            source=S, target=T, nodes={"a": "a", "b": "b"},
            edges={("a", "f"): Path("a", ("f",)), ("a", "g"): Path("a", ("f",))},
            attrs={("b", "v"): Path("b", (), "v")},
        )
        validate_mapping(F)
        I = Instance(
            S,
            {"a": ["x"], "b": ["y", "z"]},
            {("a", "f"): {"x": "y"}, ("a", "g"): {"x": "z"}},
            {("b", "v"): {"y": "red", "z": "blue"}},
        )
        with pytest.raises(InconsistencyError):
            sigma(F, I)

    def test_clash_message_independent_of_hash_seed(self):
        # two attributes clash; the error names the first in sorted order
        assert messages_under_hash_seeds(TWO_ATTRIBUTE_CLASH) == {
            "sigma: attribute 'v' on class 'a:x:a.f' forced to both 'red' and 'blue'\n"
        }

    def test_clash_names_the_class_with_the_least_member(self):
        # both classes clash on both attributes; the error names v, the first
        # attribute in sorted order, and class A, whose least member is
        # first, though B's clash comes first in row order
        assert messages_under_hash_seeds(TWO_CLASS_CLASH) == {
            "sigma: attribute 'v' on class 'a:x1:a.f' forced to both 'red' and 'blue'\n"
        }

    def test_refuses_unsaturated_target(self):
        S = make_schema("S1", ["a"], [])
        T = make_schema("T1", ["a"], [("loop", "a", "a")])
        F = Mapping(source=S, target=T, nodes={"a": "a"})
        with pytest.raises(NotSaturated):
            sigma(F, Instance(S, {"a": ["x"]}, {}, {}))

    def test_output_validates_randomly(self):
        rng = random.Random(21)
        for _ in range(15):
            F, I, _J = rand_adjunction_triple(rng)
            validate_instance(sigma(F, I))


class TestPi:
    def test_identity(self):
        I = finite_two_node()
        assert iso_check(pi(identity_mapping(I.schema), I), I)

    def test_product_of_discrete_fibers(self):
        S = make_schema("SP", ["a1", "a2"], [])
        T = make_schema("TP", ["a"], [])
        F = Mapping(source=S, target=T, nodes={"a1": "a", "a2": "a"})
        I = Instance(S, {"a1": ["x", "y"], "a2": ["u", "v", "w"]}, {}, {})
        out = pi(F, I)
        assert len(out.node_rows("a")) == 6

    def test_empty_fiber_kills_product(self):
        S = make_schema("SP", ["a1", "a2"], [])
        T = make_schema("TP", ["a"], [])
        F = Mapping(source=S, target=T, nodes={"a1": "a", "a2": "a"})
        I = Instance(S, {"a1": ["x"], "a2": []}, {}, {})
        assert len(pi(F, I).node_rows("a")) == 0

    def test_uncovered_node_is_terminal(self):
        # nothing maps to t2, so the limit over the empty diagram is a point
        S = make_schema("SU", ["a"], [])
        T = make_schema("TU", ["t1", "t2"], [])
        F = Mapping(source=S, target=T, nodes={"a": "t1"})
        I = Instance(S, {"a": ["x", "y"]}, {}, {})
        out = pi(F, I)
        assert len(out.node_rows("t1")) == 2
        assert len(out.node_rows("t2")) == 1

    def test_output_validates_randomly(self):
        rng = random.Random(22)
        for _ in range(15):
            F, I, _J = rand_adjunction_triple(rng)
            validate_instance(pi(F, I))


def pi_oracle(F, I, drops, max_product=5000):
    """pi by brute force, or None when a node's product exceeds max_product.

    A node's families are the product of the source rows over its comma
    objects, filtered by the comma morphisms.  Then, until nothing changes,
    a family is dropped when its readings conflict, when an edge image is
    not kept, or when an attribute equation fails on it, evaluated through
    kept images only.  drops counts the rule that dropped each family.
    """
    S, T = F.source, F.target
    comma, slot, fams = {}, {}, {}
    for t in sorted(T.nodes):
        objs = [(s, q) for s in sorted(S.nodes) for q in enumerate_morphisms(T, t, F.nodes[s])]
        comma[t] = sorted(objs, key=lambda o: (o[0], len(o[1].steps), o[1].steps))
        slot[t] = {o: i for i, o in enumerate(comma[t])}
        if math.prod(len(I.rows[s]) for (s, _q) in comma[t]) > max_product:
            return None
    for t in sorted(T.nodes):
        links = []  # (slot i, edge e, slot j): the row at j is e of the row at i
        for (e, s, tgt) in sorted(S.edges):
            for i, (s2, q) in enumerate(comma[t]):
                if s2 == s:
                    q2 = normalize_path(T, path_compose(q, F.edges[(s, e)]))
                    links.append((i, I.edge(s, e), slot[t][(tgt, q2)]))
        product = itertools.product(*[I.rows[s] for (s, _q) in comma[t]])
        fams[t] = {f for f in product if all(fn[f[i]] == f[j] for (i, fn, j) in links)}

    readings = {
        (t, a): [(i, s, sa) for i, (s, q) in enumerate(comma[t])
                 for (sa, _ty) in S.node_attrs[s]
                 if isinstance(F.attrs[(s, sa)], Path)
                 and paths_equal(T, Path(t, (), a), path_compose(q, F.attrs[(s, sa)]))]
        for (a, t, _ty) in T.attributes
    }

    def read(t, fam, a):
        """("conflict",), or ("value", v) for the one value the readings
        give, None when nothing reads a."""
        vals = {I.attr(s, sa)[fam[i]] for (i, s, sa) in readings[(t, a)]}
        if len(vals) > 1:
            return ("conflict",)
        return ("value", vals.pop() if vals else None)

    def image(t, fam, g):
        t2 = T.edge_table[(t, g)]
        return t2, tuple(fam[slot[t][(s, normalize_path(T, Path(t, (g,) + q.steps)))]]
                         for (s, q) in comma[t2])

    def value(t, fam, p):
        if isinstance(p, ConstPath):
            return ("value", p.value)
        for g in p.steps:
            t, fam = image(t, fam, g)
            if fam not in fams[t]:
                return ("missing",)
        return read(t, fam, p.attr)

    def end(t, fam, p):
        """The (node, family, attribute) that p leads fam to."""
        for g in p.steps:
            t, fam = image(t, fam, g)
        return (t, fam, p.attr)

    def drop_rule(t, fam):
        if any(read(t, fam, a)[0] == "conflict" for (a, _ty) in T.node_attrs[t]):
            return "reading conflict"
        for (g, _t2) in T.out_edges[t]:
            t2, img = image(t, fam, g)
            if img not in fams[t2]:
                return "edge image"
        for eq in T.equations:
            if eq.lhs.source != t or not (eq.lhs.attr or isinstance(eq.rhs, ConstPath)
                                          or eq.rhs.attr):
                continue
            (lk, *lv), (rk, *rv) = value(t, fam, eq.lhs), value(t, fam, eq.rhs)
            if lk != "value" or rk != "value":
                return "equation side " + (lk if lk != "value" else rk)
            if None in lv + rv:
                if not (lv == rv and end(t, fam, eq.lhs) == end(t, fam, eq.rhs)):
                    return "null rule"
            elif lv != rv:
                return "equation value"
        return None

    changed = True
    while changed:
        changed = False
        for t in sorted(T.nodes):
            for fam in sorted(fams[t]):
                rule = drop_rule(t, fam)
                if rule:
                    fams[t].discard(fam)
                    drops[rule] += 1
                    changed = True

    ids = {(t, fam): f"pi{i}_{t}" for t in T.nodes for i, fam in enumerate(sorted(fams[t]))}
    rows = {t: [ids[(t, fam)] for fam in fams[t]] for t in T.nodes}
    edge_fn = {(t, g): {ids[(t, fam)]: ids[image(t, fam, g)] for fam in fams[t]}
               for (g, t, _t2) in T.edges}
    attr_fn = {}
    for (a, t, _ty) in T.attributes:
        attr_fn[(t, a)] = {}
        for fam in fams[t]:
            v = read(t, fam, a)[1]
            rid = ids[(t, fam)]
            attr_fn[(t, a)][rid] = LabelledNull(f"pi!{t}!{a}!{rid}") if v is None else v
    return Instance(T, rows, edge_fn, attr_fn)


class TestPiAgainstOracle:
    def test_attributed_triples(self):
        rng = random.Random(41)
        drops = Counter()
        compared = 0
        for _ in range(320):
            F, I, _J = rand_attributed_triple(rng)
            want = pi_oracle(F, I, drops)
            if want is None:
                continue
            got = pi(F, I)
            assert (got.rows, got.edge_fn, got.attr_fn) == (want.rows, want.edge_fn, want.attr_fn)
            compared += 1
        assert compared >= 300
        rules = ["reading conflict", "edge image", "equation side conflict",
                 "null rule", "equation value"]
        assert all(drops[rule] >= 10 for rule in rules), drops


def sigma_reference(F, I):
    """sigma generator by generator, as its docstring states it.

    A generator (s, x, p) is a row x of a source node s with a path p out of
    F(s); (x, F(e).p) and (e(x), p) are one class for each source edge e.
    Listed by source node, row and path key, the generators give the classes
    in order of their least member, which names the class and gives its edge
    images.  An attribute takes the first constant that the members' readings
    carry, in member order and then reader order, else the first labelled
    null, else sk!<node>!<attribute>!<row id>.  Two distinct constants raise,
    for the first attribute in sorted order and its first class in order,
    naming that class's first two constants.
    """
    S, T = F.source, F.target
    paths = {s: all_morphisms_from(T, F.nodes[s]) for s in sorted(S.nodes)}
    listing = [(s, x, p) for s in sorted(S.nodes) for x in I.rows[s]
               for ps in paths[s].values() for p in ps]
    linked = {g: [] for g in listing}
    for (e, s, s2) in S.edges:
        for x in I.rows[s]:
            for ps in paths[s2].values():
                for p in ps:
                    a = (s, x, normalize_path(T, path_compose(F.edges[(s, e)], p)))
                    b = (s2, I.edge(s, e)[x], p)
                    linked[a].append(b)
                    linked[b].append(a)
    least = {}  # generator -> the least member of its class
    for g in listing:
        if g not in least:
            least[g], todo = g, [g]
            while todo:
                for h in linked[todo.pop()]:
                    if h not in least:
                        least[h] = g
                        todo.append(h)
    members = {}  # least member -> the class's members, in listing order
    for g in listing:
        members.setdefault(least[g], []).append(g)
    name = {g: f"{g[0]}:{g[1]}:{g[2]}" for g in members}
    at = {t: [g for g in members if path_target(T, g[2]) == ("node", t)] for t in T.nodes}
    rows = {t: [name[g] for g in gs] for t, gs in at.items()}
    edge_fn = {}
    for (e, t, _t2) in T.edges:
        edge_fn[(t, e)] = {}
        for (s, x, p) in at[t]:
            image = (s, x, normalize_path(T, path_compose(p, Path(t, (e,)))))
            edge_fn[(t, e)][name[(s, x, p)]] = name[least[image]]
    attr_fn = {}
    for (a, t, _ty) in sorted(T.attributes):
        attr_fn[(t, a)] = {}
        for g in at[t]:
            values = [I.attr(s, sa)[x] for (s, x, p) in members[g]
                      for (sa, _saty) in S.node_attrs[s]
                      if isinstance(F.attrs[(s, sa)], Path)
                      and paths_equal(T, F.attrs[(s, sa)], Path(p.source, p.steps, a))]
            constants = []
            for v in values:
                if not isinstance(v, LabelledNull) and v not in constants:
                    constants.append(v)
            if len(constants) > 1:
                raise InconsistencyError(
                    f"sigma: attribute {a!r} on class {name[g]!r} forced to both "
                    f"{constants[0]!r} and {constants[1]!r}")
            default = LabelledNull(f"sk!{t}!{a}!{name[g]}")
            attr_fn[(t, a)][name[g]] = (constants or values or [default])[0]
    return Instance(T, rows, edge_fn, attr_fn)


def with_nulls(rng, I):
    """I with about a third of its attribute values replaced by labelled
    nulls of two labels, so one class can read equal and different nulls."""
    attr_fn = {key: {r: LabelledNull(rng.choice("pq")) if rng.random() < 0.3 else v
                     for r, v in col.items()}
               for key, col in I.attr_fn.items()}
    return Instance(I.schema, I.rows, I.edge_fn, attr_fn)


def outcome(fn, *args):
    """fn's output as (rows, edge tables, attribute tables), or its error's
    type and message."""
    try:
        out = fn(*args)
    except CatqlError as exc:
        return type(exc), str(exc)
    return out if out is None else (out.rows, out.edge_fn, out.attr_fn)


class TestAgainstReference:
    """sigma and pi against per-row references, sigma_reference and
    pi_oracle, on 1,200 triples of three generators.  About half of the
    triples get labelled nulls among the values of their attributed
    instances; errors are compared by type and message."""

    def test_sigma_and_pi(self):
        seen = Counter()
        for gen, n in ((rand_adjunction_triple, 450), (rand_presented_triple, 100),
                       (rand_attributed_triple, 650)):
            rng = random.Random(f"reference/{gen.__name__}")
            for case in range(n):
                F, I, _J = gen(rng)
                if rng.random() < 0.5:
                    I = with_nulls(rng, I)
                    seen["nulls"] += 1
                got, want = outcome(sigma, F, I), outcome(sigma_reference, F, I)
                assert got == want, (gen.__name__, case)
                seen["sigma clash" if got[0] is InconsistencyError else "sigma"] += 1
                want = outcome(pi_oracle, F, I, Counter())
                if want is not None:
                    assert outcome(pi, F, I) == want, (gen.__name__, case)
                    seen["pi"] += 1
        print(dict(seen))
        assert seen["sigma"] + seen["sigma clash"] == 1200
        assert seen["sigma clash"] >= 50 and seen["pi"] >= 1000 and seen["nulls"] >= 500


def without_edges(F, I):
    """F and I with the source's edges, and so its equations, dropped."""
    S = F.source
    S2 = make_schema(S.name, S.nodes, [], S.attributes)
    return Mapping(S2, F.target, F.nodes, {}, F.attrs), Instance(S2, I.rows, {}, I.attr_fn)


def without_edge_rows(I):
    """I with no rows at a node that a source edge starts from."""
    starts = {src for (_e, src, _tgt) in I.schema.edges}
    return Instance(I.schema, {n: [] if n in starts else rs for n, rs in I.rows.items()},
                    {key: {} for key in I.edge_fn},
                    {key: {} if key[0] in starts else fn for key, fn in I.attr_fn.items()})


def with_twins(rng, F, I):
    """F and I with a twin of each source attribute, of the same image, so
    each class that the attribute reads is read twice.  A twin's value is
    the original's, a labelled null, or another constant."""
    S = F.source
    twins = [(f"{a}_twin", s, ty, a) for (a, s, ty) in sorted(S.attributes)]
    S2 = make_schema(S.name, S.nodes, S.edges, [*S.attributes, *(t[:3] for t in twins)], S.equations)
    other = {"string": "other", "integer": 7}
    attr_fn = dict(I.attr_fn)
    for (twin, s, ty, a) in twins:
        attr_fn[(s, twin)] = {r: rng.choice([v, v, LabelledNull("t"), other[ty]])
                              for r, v in I.attr(s, a).items()}
    attrs = {**F.attrs, **{(s, twin): F.attrs[(s, a)] for (twin, s, _ty, a) in twins}}
    return Mapping(S2, F.target, F.nodes, F.edges, attrs), Instance(S2, I.rows, I.edge_fn, attr_fn)


def reading_each_family(rng, F, I):
    """F and I without the source's edges, its attributes replaced by one
    per family (s, p) and attribute a at p's end, read along p.a, with
    values from VALUE_POOLS and a labelled null: so each class of sigma is
    read once, unless two such paths are equal in the target."""
    S, T = F.source, F.target
    attrs, images, attr_fn = [], {}, {}
    for s in sorted(S.nodes):
        for t, ps in all_morphisms_from(T, F.nodes[s]).items():
            for p, (a, ty) in itertools.product(ps, T.node_attrs[t]):
                name = f"read{len(attrs)}"
                attrs.append((name, s, ty))
                images[(s, name)] = Path(p.source, p.steps, a)
                attr_fn[(s, name)] = {r: rng.choice([*VALUE_POOLS[ty], LabelledNull("n")]) for r in I.rows[s]}
    S2 = make_schema(S.name, S.nodes, [], attrs)
    return Mapping(S2, T, F.nodes, {}, images), Instance(S2, I.rows, {}, attr_fn)


def read_counts(F, I):
    """(target node, attribute) -> per family (s, p) of a source node with
    rows, the number of source attributes of s that read p.attribute."""
    S, T = F.source, F.target
    counts = {(t, a): [] for (a, t, _ty) in T.attributes}
    for s in sorted(S.nodes):
        for t, ps in all_morphisms_from(T, F.nodes[s]).items() if I.rows[s] else ():
            for p, (a, _ty) in itertools.product(ps, T.node_attrs[t]):
                counts[(t, a)].append(sum(
                    isinstance(F.attrs[(s, sa)], Path)
                    and paths_equal(T, F.attrs[(s, sa)], Path(p.source, p.steps, a))
                    for (sa, _saty) in S.node_attrs[s]))
    return counts


class TestSigmaWithoutEdgeRows:
    """With no source edge from a node with rows, sigma makes no union-find,
    and its output, or its clash's class and message, is sigma_reference's:
    on edge-free sources, such as a compiled query's C -> R, on sources
    whose edges all start at nodes without rows, and on edge-free sources
    whose attributes each have a twin or read each family once.  The cases
    counted are the ones that decide how an attribute is filled: every
    class read once (a column copy), also over several families of one
    source node; a class read twice; a class that nothing reads; and a
    labelled null read."""

    def test_against_reference(self, monkeypatch):
        made = []
        union_find = catql.migration._UnionFind
        monkeypatch.setattr(catql.migration, "_UnionFind",
                            lambda *a: made.append(1) or union_find(*a))
        seen = Counter()
        value_rng = random.Random("no edge rows/twins")
        for gen, n in ((rand_attributed_triple, 500), (rand_adjunction_triple, 100)):
            rng = random.Random(f"no edge rows/{gen.__name__}")
            for _ in range(n):
                F, I, _J = gen(rng)
                if rng.random() < 0.5:
                    I = with_nulls(rng, I)
                G, K = without_edges(F, I)
                for G, K in ((G, K), (F, without_edge_rows(I)), with_twins(value_rng, G, K),
                             reading_each_family(value_rng, F, I)):
                    got, want = outcome(sigma, G, K), outcome(sigma_reference, G, K)
                    assert got == want
                    if got[0] is InconsistencyError:
                        seen["clash"] += 1
                        continue
                    seen["rows"] += 1
                    counts = read_counts(G, K)
                    several = {t for s in G.source.nodes if K.rows[s]
                               for t, ps in all_morphisms_from(G.target, G.nodes[s]).items() if len(ps) > 1}
                    once = [t for (t, _a), cs in counts.items() if cs and set(cs) == {1}]
                    seen["read once"] += bool(once)
                    seen["read once, several families of a node"] += not several.isdisjoint(once)
                    seen["read twice"] += any(max(cs, default=0) > 1 for cs in counts.values())
                    seen["unread"] += any(0 in cs for cs in counts.values())
                    seen["null read"] += any(isinstance(v, LabelledNull) and not v.label.startswith("sk!")
                                             for col in got[2].values() for v in col.values())
        for q, I in disjunctive_corpus(31, 40):
            for G, K in sigma_inputs(q, I):
                assert outcome(sigma, G, K) == outcome(sigma_reference, G, K)
                seen["query"] += 1
        print(dict(seen))
        assert made == []
        assert seen["rows"] >= 1500 and seen["query"] >= 80, seen
        assert min(seen[k] for k in ("clash", "read once", "read twice", "unread", "null read")) >= 100, seen
        assert seen["read once, several families of a node"] >= 20, seen


class TestPiNullRule:
    def test_two_paths_to_one_unread_attribute(self):
        """T has two edges e1, e2: n0 -> n2 and the equation n0.e2.a =
        n0.e1.a, and nothing reads a.  A family at n0 whose two slots hold
        the same row reaches one family at n2 along both edges, so both
        sides are the same labelled null and the family is kept; a family
        with two different rows reaches two families, and is dropped.  Two
        paths of different lengths, n0.e.a = n0.f.g.a, keep the same
        diagonal."""
        cases = [
            (["n0", "n2"], [("e1", "n0", "n2"), ("e2", "n0", "n2")],
             Path("n0", ("e2",), "a"), Path("n0", ("e1",), "a")),
            (["n0", "n1", "n2"], [("e", "n0", "n2"), ("f", "n0", "n1"), ("g", "n1", "n2")],
             Path("n0", ("e",), "a"), Path("n0", ("f", "g"), "a")),
        ]
        for nodes, edges, lhs, rhs in cases:
            T = make_schema("T", nodes, edges, [("a", "n2", "string")], [PathEquation(lhs, rhs)])
            S = make_schema("S", ["s"], [], [])
            F = Mapping(S, T, {"s": "n2"}, {}, {})
            I = Instance(S, {"s": ["x", "y"]}, {}, {})
            out = pi(F, I)
            validate_instance(out)
            assert len(out.rows["n0"]) == 2 and len(out.rows["n2"]) == 2
            ends = set()
            for r in out.rows["n0"]:
                end = eval_path(out, Path("n0", lhs.steps), r)
                assert end == eval_path(out, Path("n0", rhs.steps), r)
                ends.add(end)
                value = eval_path(out, lhs, r)
                assert isinstance(value, LabelledNull)
                assert value == eval_path(out, rhs, r)
            assert ends == set(out.rows["n2"])


class TestAdjunctionsSmoke:
    """Small deterministic spot checks; the bulk runs in the acceptance suite."""

    def test_sigma_left_adjoint(self):
        rng = random.Random(31)
        for _ in range(10):
            F, I, J = rand_adjunction_triple(rng)
            assert enumerate_homs(sigma(F, I), J) == enumerate_homs(I, delta(F, J))

    def test_pi_right_adjoint(self):
        rng = random.Random(32)
        for _ in range(10):
            F, I, J = rand_adjunction_triple(rng)
            assert enumerate_homs(delta(F, J), I) == enumerate_homs(J, pi(F, I))

    def test_laws_on_presented_schemas(self):
        """Both hom-count laws on attribute-free triples over random
        presentations with cycles and up to three equations, whose
        completion converges and whose hom-sets are finite."""
        rng = random.Random(34)
        extended = set()
        for case in range(300):
            F, I, J = rand_presented_triple(rng)
            assert enumerate_homs(sigma(F, I), J) == enumerate_homs(I, delta(F, J)), case
            assert enumerate_homs(delta(F, J), I) == enumerate_homs(J, pi(F, I)), case
            extended |= {s for s in (F.source, F.target)
                         if sum(map(len, s.rewrite_rules.values())) > len(s.equations)}
        print(f"adjunction laws: {len(extended)} schemas extended by completion")
        assert len(extended) >= 10

    def test_delta_functorial(self):
        rng = random.Random(33)
        from catql.core import compose_mappings
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
            I = rand_instance(rng, U)
            assert iso_check(delta(compose_mappings(F, G), I), delta(F, delta(G, I)))
            done += 1
