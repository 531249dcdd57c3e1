"""Schemas, paths, normalization, morphism enumeration, mappings."""

import copy
import dataclasses
import gc
import pickle
import random
import time
import weakref

import pytest

from catql import core
from catql.core import (
    ConstPath,
    Mapping,
    Path,
    PathEquation,
    all_morphisms_from,
    apply_mapping,
    compose_mappings,
    enumerate_morphisms,
    identity_mapping,
    identity_path,
    make_schema,
    nodes_along,
    normalize_path,
    path_compose,
    paths_equal,
    validate_mapping,
    validate_schema,
)
from catql.errors import NormalizationInconclusive, NotSaturated, SchemaError, ValidationError

from conftest import rand_adjunction_triple, rand_presented_schema
from test_migration import messages_under_hash_seeds


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


class TestPathHash:
    def test_equal_paths_hash_equal_and_dedupe(self):
        """Equal paths, raw, attribute-ended or built by path_compose, hash
        equal, with the hash kept on each, and are one set member and one
        dict key."""
        m = Path("M", ("parent",))
        pairs = [
            (Path("M", ("parent", "name")), Path("M", ("parent",) + ("name",))),
            (Path("M", ("parent",), "name"), path_compose(m, Path("M", (), "name"))),
            (Path("M", ("parent", "parent")), path_compose(m, m)),
            (Path("M"), path_compose(identity_path("M"), Path("M"))),
        ]
        for p, q in pairs:
            assert p == q and p is not q
            assert hash(p) == hash(q) == hash((q.source, q.steps, q.attr)) == vars(q)["_hash"]
            assert len({p, q}) == 1
            assert {p: 1, q: 2} == {p: 2}
        assert len({p for pair in pairs for p in pair}) == len(pairs)

    def test_fields_repr_and_copies_unchanged(self):
        p = Path("M", ("parent",), "name")
        assert [f.name for f in dataclasses.fields(p)] == ["source", "steps", "attr"]
        assert repr(p) == "Path(source='M', steps=('parent',), attr='name')"
        assert p != Path("M", ("parent", "name")) and p != Path("M", ("parent",))
        assert dataclasses.replace(p, attr=None) == Path("M", ("parent",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.attr = "x"
        # a pickle carries the fields alone: a str's hash differs between processes
        assert p.__reduce__() == (Path, ("M", ("parent",), "name"))
        assert pickle.loads(pickle.dumps(p)) == p and copy.deepcopy(p) == p


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

    @pytest.mark.parametrize("lhs, rhs", [
        (ConstPath("cm"), Path("a", (), "code")),
        (ConstPath("cm"), ConstPath("mm")),
    ])
    def test_constant_left_side(self, lhs, rhs):
        with pytest.raises(SchemaError, match="left side must be a path"):
            make_schema("K", ["a"], [], [("code", "a", "string")], [PathEquation(lhs, rhs)])


def shortcut_schema():
    """X -a-> Y -b-> Z -d-> W with shortcuts c: X -> Z and e: Y -> W, and
    a.b = c, b.d = e.  Then X.c.d = X.a.b.d = X.a.e, which only the
    critical pair a.b.d shows."""
    return make_schema(
        "SC", ["X", "Y", "Z", "W"],
        [("a", "X", "Y"), ("b", "Y", "Z"), ("d", "Z", "W"), ("c", "X", "Z"), ("e", "Y", "W")],
        [],
        [PathEquation(Path("X", ("a", "b")), Path("X", ("c",))),
         PathEquation(Path("Y", ("b", "d")), Path("Y", ("e",)))],
    )


def two_loops():
    return make_schema("LL", ["a"], [("f", "a", "a"), ("g", "a", "a")])


def braid():
    """The positive braid monoid on three strands, whose completion under
    the length-lex order never ends."""
    return make_schema(
        "BR", ["n"], [("a", "n", "n"), ("b", "n", "n")], [],
        [PathEquation(Path("n", ("a", "b", "a")), Path("n", ("b", "a", "b")))],
    )


class TestCompletion:
    def test_critical_pair_decides_shortcuts(self):
        s = shortcut_schema()
        assert paths_equal(s, Path("X", ("c", "d")), Path("X", ("a", "e")))
        assert enumerate_morphisms(s, "X", "W") == (Path("X", ("a", "e")),)

    def test_cyclic_finite_presentation(self):
        s = loop_schema(
            [PathEquation(Path("Material", ("parent",) * 3), Path("Material", ("parent",)))]
        )
        assert enumerate_morphisms(s, "Material", "Material") == (
            Path("Material"), Path("Material", ("parent",)), Path("Material", ("parent",) * 2))

    def test_free_loops_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(NotSaturated, match=r"the normal form a\.f ends twice in a "):
            enumerate_morphisms(two_loops(), "a", "a")
        assert time.perf_counter() - start < 0.1

    def test_repeated_state_names_its_last_steps(self):
        # g.f -> f.g leaves the words f^i.g^j; the state holds one step
        s = make_schema("C", ["a"], [("f", "a", "a"), ("g", "a", "a")], [],
                        [PathEquation(Path("a", ("g", "f")), Path("a", ("f", "g")))])
        with pytest.raises(NotSaturated, match=r"normal form a\.f\.f ends twice in a\.f "):
            enumerate_morphisms(s, "a", "a")

    def test_four_loops_refused_at_once(self):
        # completion gives 9 rules, and the paths out of n grow in number
        # so fast with their length that the cycle must be found before any
        # is listed
        s = make_schema("L4", ["n"], [(f"e{i}", "n", "n") for i in range(4)], [], [
            PathEquation(Path("n", ("e1", "e2", "e2")), Path("n", ("e0",))),
            PathEquation(Path("n", ("e3", "e3")), Path("n", ("e2", "e0", "e1"))),
        ])
        start = time.perf_counter()
        with pytest.raises(NotSaturated):
            all_morphisms_from(s, "n")
        assert time.perf_counter() - start < 1.0
        assert sum(map(len, s.rewrite_rules.values())) == 9

    def test_settled_nodes_skip_the_search(self):
        """A node in settle_order reaches no cycle, so all_morphisms_from
        lists its paths without the cycle search.  On random presented
        schemas, every node gives the dict or the error that the search
        gives on a copy of the schema whose settle_order is empty."""

        def outcome(s, a):
            try:
                return all_morphisms_from(s, a)
            except (NotSaturated, NormalizationInconclusive) as exc:
                return type(exc), str(exc)

        rng = random.Random(25)
        settled = cyclic = 0
        for _ in range(200):
            s = rand_presented_schema(rng, "P", with_attrs=rng.random() < 0.5)
            searched = dataclasses.replace(s)  # its tables not built yet
            searched.__dict__["settle_order"] = ()
            for a in sorted(s.nodes):
                settled += a in s.settle_order
                cyclic += a not in s.settle_order
                assert outcome(s, a) == outcome(searched, a)
        assert settled > 100 and cyclic > 200

    def test_braid_runs_out_of_work(self):
        start = time.perf_counter()
        with pytest.raises(NormalizationInconclusive,
                           match=r"rules made, \d+ critical pairs checked") as err:
            normalize_path(braid(), Path("n", ("a",)))
        assert time.perf_counter() - start < 1.0
        assert err.value.rules > 0 and err.value.pairs > 0

    def test_inconclusive_completion_runs_once(self, monkeypatch):
        runs = []
        complete = core._complete
        monkeypatch.setattr(core, "_complete", lambda s: runs.append(s) or complete(s))
        s = braid()
        raised = []
        for call in (lambda: normalize_path(s, Path("n", ("a",))),
                     lambda: all_morphisms_from(s, "n"),
                     lambda: normalize_path(s, Path("n", ("b", "a")))):
            with pytest.raises(NormalizationInconclusive) as err:
                call()
            e = err.value
            raised.append((str(e), e.rules, e.pairs, e.letters))
        assert len(runs) == 1
        assert raised[0] == raised[1] == raised[2]

    def test_two_constants_are_no_rule(self):
        # X.f.A is forced to both "cm" and "mm"; the schema still builds, and
        # the path normalizes to the constant of the equation on Y, whose
        # left side lies inside the other's
        for eqs in ([(("f",), "X", "cm"), ((), "Y", "mm")], [((), "Y", "mm"), (("f",), "X", "cm")]):
            s = make_schema("K", ["X", "Y"], [("f", "X", "Y")], [("A", "Y", "string")],
                            [PathEquation(Path(n, st, "A"), ConstPath(c)) for (st, n, c) in eqs])
            assert normalize_path(s, Path("X", ("f",), "A")) == ConstPath("mm")


def _word(p):
    """A path as (source, letters): its steps, then its attribute."""
    return (p.source, p.steps + ((p.attr,) if p.attr else ()))


def _nodes(s, w):
    """The node at each position of a word, None after an attribute."""
    nodes = [w[0]]
    for x in w[1]:
        nodes.append(s.edge_table.get((nodes[-1], x)))
    return nodes


def _normal_word(s, w):
    """normalize_path on a word, or a constant as it is."""
    if isinstance(w, ConstPath):
        return w
    src, letters = w
    if _nodes(s, w)[-1] is None:
        nf = normalize_path(s, Path(src, letters[:-1], letters[-1]))
    else:
        nf = normalize_path(s, Path(src, letters))
    return nf if isinstance(nf, ConstPath) else _word(nf)


def _equation_sides(s):
    """Each equation both ways (a constant side only as the result), as
    (source, left letters, right letters or constant)."""
    out = []
    for eq in s.equations:
        sides = [(eq.lhs, eq.rhs)] + ([(eq.rhs, eq.lhs)] if isinstance(eq.rhs, Path) else [])
        out += [(l.source, _word(l)[1], r if isinstance(r, ConstPath) else _word(r)[1])
                for (l, r) in sides]
    return out


def _equation_steps(s, sides, w):
    """The words and constants that one equation side takes the word to,
    at any place where it matches."""
    src, letters = w
    nodes = _nodes(s, w)
    n_steps = len(letters) - (nodes[-1] is None)
    out = []
    for (a, ls, r) in sides:
        n = len(ls)
        for pos in range(min(len(letters) - n, n_steps) + 1):
            if nodes[pos] == a and letters[pos:pos + n] == ls:
                out.append(r if isinstance(r, ConstPath) else (src, letters[:pos] + r + letters[pos + n:]))
    return out


def _all_words(s, length):
    """Every path of at most `length` letters, as a word."""
    words, frontier = [], [(n, ()) for n in sorted(s.nodes)]
    for depth in range(length + 1):
        words += frontier
        nxt = []
        for w in frontier:
            end = _nodes(s, w)[-1]
            if depth < length:
                words += [(w[0], w[1] + (a,)) for (a, _ty) in s.node_attrs[end]]
            nxt += [(w[0], w[1] + (e,)) for (e, _t) in s.out_edges[end]]
        frontier = nxt
    return words


def _joined(s, sides, u, v, budget=20_000):
    """Whether equation steps join the word u to v: searched breadth first
    from both ends (from u alone when v is a constant), through words of at
    most 6, 8, 10 and then 12 letters, until more than `budget` words were
    seen in one search."""
    return any(_joined_within(s, sides, u, v, length, budget) for length in (6, 8, 10, 12))


def _joined_within(s, sides, u, v, length, budget):
    seen = [{u}, {v}]
    frontiers = [[u], [] if isinstance(v, ConstPath) else [v]]
    while not seen[0] & seen[1]:
        side = 0 if not frontiers[1] or frontiers[0] and len(seen[0]) <= len(seen[1]) else 1
        if not frontiers[side]:
            return False
        nxt = []
        for w in frontiers[side]:
            for x in _equation_steps(s, sides, w):
                if x not in seen[side] and (isinstance(x, ConstPath) or len(x[1]) <= length):
                    seen[side].add(x)
                    if not isinstance(x, ConstPath):
                        nxt.append(x)
        frontiers[side] = nxt
        if len(seen[0]) + len(seen[1]) > budget:
            return None
    return True


class TestNormalFormsAgainstBruteForce:
    def test_random_presentations(self):
        """Normal forms against the congruence classes of all paths of at
        most 4 letters (steps, then an attribute), found by brute force:
        equation steps between such paths, either way, joined by a
        union-find with the constants.  A path and any path one equation
        step away have one normal form.  A class's normal form is the
        least member of its own class, or its constant; when that lies in
        another class (the proof runs through longer paths), a search
        through paths of at most 12 letters joins the two.  Schemas whose
        classes hold two constants, which no rule equates, are set aside."""
        rng = random.Random(2024)
        checked = extended = cyclic_finite = searched = 0
        for i in range(360):
            s = rand_presented_schema(rng, "P", with_attrs=rng.random() < 0.5, max_edges=3)
            if i == 0:
                s = shortcut_schema()
            try:
                rules = s.rewrite_rules
            except NormalizationInconclusive:
                continue
            parent = {}

            def find(x):
                while parent.setdefault(x, x) != x:
                    x = parent[x]
                return x

            sides = _equation_sides(s)
            steps = [(w, x) for w in _all_words(s, 4) for x in [w, *_equation_steps(s, sides, w)]]
            for (w, x) in steps:
                if isinstance(x, ConstPath) or len(x[1]) <= 4:
                    parent[find(w)] = find(x)
            classes = {}
            for x in sorted(parent, key=lambda x: isinstance(x, ConstPath)):
                classes.setdefault(find(x), []).append(x)
            nf = {w: _normal_word(s, w) for (w, _x) in steps}
            consts = [(c[0], {x for x in c if isinstance(x, ConstPath)}) for c in classes.values()]
            if any(len(cs) > 1 or cs and isinstance(nf[w], ConstPath) and nf[w] not in cs
                   and _joined(s, sides, w, nf[w]) for (w, cs) in consts):
                continue
            for (w, x) in steps:
                assert _normal_word(s, x) == nf[w], (s, w, x)
            checked += 1
            extended += sum(map(len, rules.values())) > len(s.equations)
            if len(s.settle_order) < len(s.nodes):
                try:
                    for node in s.nodes:
                        all_morphisms_from(s, node)
                    cyclic_finite += 1
                except NotSaturated:
                    pass
            for members in classes.values():
                rep = members[0]
                n = nf[rep]
                if not isinstance(n, ConstPath):
                    assert n == min((x for x in classes[find(n)] if not isinstance(x, ConstPath)),
                                    key=lambda x: (len(x[1]), x[1])), (s, rep, n)
                if find(n) != find(rep):
                    searched += 1
                    assert _joined(s, sides, rep, n), (s, rep, n)
        print(f"normal forms: {checked} schemas checked, {extended} extended by completion, "
              f"{cyclic_finite} cyclic with finite hom-sets, {searched} classes joined by search")
        assert checked >= 300 and extended >= 10 and cyclic_finite >= 10


# faults of each kind at three names or nodes, whose order in a set follows
# the hash seed
THREE_FAULTS = """
from catql.core import Mapping, Path, make_schema, validate_mapping
from catql.errors import CatqlError
from catql.instances import Instance, validate_instance
from catql.parsing import parse_script
from catql.scripts import run_script

text = '''schema S { nodes a, b, c, d; edge f : a -> b; edge g : a -> c; edge h : a -> d;
  attribute u : b -> string; attribute v : c -> string; attribute w : a -> string; }
instance I : S { node a { x; } }'''
S = make_schema("S", "abcd", [("f", "a", "b"), ("g", "a", "c"), ("h", "a", "d")],
                [("w", "a", "string"), ("v", "c", "string"), ("u", "b", "string")])
F = {n: n for n in S.nodes}
edges = {(src, e): {"x": "y"} for (e, src, _tgt) in S.edges}
cases = [
    lambda: run_script(parse_script(text)),
    lambda: make_schema("S", ["a"], [("f", "a", "b"), ("g", "a", "c"), ("h", "a", "d")]),
    lambda: make_schema("S", ["a"], [], [("u", "b", "string"), ("v", "c", "string")]),
    lambda: make_schema("S", "ab", [("f", "a", "a"), ("g", "a", "a"), ("f", "a", "b"), ("g", "a", "b")]),
    lambda: validate_mapping(Mapping(S, S, {})),
    lambda: validate_mapping(Mapping(S, S, F)),
    lambda: validate_mapping(Mapping(S, S, F, {k: Path(k[0], (k[1],)) for k in S.edge_table})),
    lambda: validate_instance(Instance(S, {n: ["x", "x"] for n in "bcd"}, {}, {})),
    lambda: validate_instance(Instance(S, {"a": ["x"], "b": ["y"], "c": ["y"], "d": ["y"]}, edges, {})),
]
for case in cases:
    try:
        case()
    except CatqlError as exc:
        print(exc)
"""


def test_validation_names_the_first_fault_in_sorted_order():
    """validate_schema, validate_mapping and validate_instance look for each
    kind of fault in sorted order, so under any hash seed the error names
    the first, as does `catql run`."""
    assert messages_under_hash_seeds(THREE_FAULTS) == {
        "edge 'f' on 'a' is not total on the declared row set (statement at line 3)\n"
        "edge 'f': endpoint not a node of 'S'\n"
        "attribute 'u': source not a node of 'S'\n"
        "duplicate edge/attribute name 'f' on node 'a'\n"
        "node 'a' has no valid image under mapping\n"
        "edge 'f' on 'a' has no image\n"
        "attribute 'w' on 'a' has no image\n"
        "row 'x' is listed more than once at node 'b'\n"
        "attribute 'w' on 'a' is not total on the declared row set\n"
    }
