"""Shared test helpers: random schema/mapping/instance generators, a random
.catql script generator and data file access.  Random schemas are DAGs so
every hom-set is finite, which the left/right Kan migrations require."""

import importlib.resources as ir
import random

import pytest

from catql.core import (
    ConstPath,
    Mapping,
    Path,
    PathEquation,
    Schema,
    all_morphisms_from,
    enumerate_morphisms,
    make_schema,
    validate_mapping,
)
from catql.errors import CatqlError
from catql.instances import Instance, validate_instance
from catql.parsing import KEYWORDS
from catql.queries import Clause, Group, Query, SelectItem
from catql.scripts import (
    INSTANCE_ITEMS, LET_OPS, MAPPING_ITEMS, NAMES, SCHEMA_ITEMS, STATEMENTS, ExportStmt,
    InstanceDecl, LetStmt, MappingDecl, QueryDecl, SchemaDecl, Script, ShowStmt,
)


DATA = ir.files("catql") / "data"

# attribute values of random instances, and the constants random schemas
# and mappings use
VALUE_POOLS = {"string": ["red", "blue", "green"], "integer": [0, 1, 7]}


def read_data(name: str) -> str:
    return (DATA / name).read_text()


def rand_dag_schema(rng: random.Random, name, max_nodes=3, max_edges=4,
                    with_attrs=False, try_equation=False) -> Schema:
    n = rng.randint(1, max_nodes)
    nodes = [f"{name}_n{i}" for i in range(n)]
    edges = []
    n_edges = rng.randint(0, max_edges)
    for i in range(n_edges):
        # edges only go from lower to higher index: acyclic, finite hom-sets
        if n < 2:
            break
        a, b = sorted(rng.sample(range(n), 2))
        edges.append((f"{name}_e{i}", nodes[a], nodes[b]))
    attrs = []
    if with_attrs:
        for i, node in enumerate(nodes):
            for j in range(rng.randint(1, 2)):
                ty = rng.choice(["string", "integer"])
                attrs.append((f"{name}_a{i}_{j}", node, ty))
    s = make_schema(name, nodes, edges, attrs)
    if try_equation:
        eqs = _find_equation(rng, s)
        if eqs:
            s = make_schema(name, nodes, edges, attrs, eqs)
    return s


def _rand_walk(rng: random.Random, s: Schema, a, steps):
    """A path of up to `steps` random edges from a, and the node it ends at."""
    path, end = [], a
    for _ in range(steps):
        if not s.out_edges[end]:
            break
        e, end = rng.choice(s.out_edges[end])
        path.append(e)
    return Path(a, tuple(path)), end


def rand_presented_schema(rng: random.Random, name, with_attrs=False, max_edges=4,
                          max_equations=3) -> Schema:
    """A random schema on up to three nodes whose edges may form cycles and
    loops, with up to max_equations equations between random paths of at
    most three steps out of one node.  An equation sets two paths with one
    end equal (one may be an identity, so cyclic presentations can be
    finite), or, with attributes, an attribute at the end of a path equal
    to a constant or to another such attribute of its type.  Hom-sets may
    be infinite."""
    nodes = [f"{name}_n{i}" for i in range(rng.randint(1, 3))]
    edges = [(f"{name}_e{i}", rng.choice(nodes), rng.choice(nodes))
             for i in range(rng.randint(1, max_edges))]
    attrs = [(f"{name}_a{i}", n, rng.choice(["string", "integer"]))
             for i, n in enumerate(nodes) if with_attrs and rng.random() < 0.8]
    s = make_schema(name, nodes, edges, attrs)
    eqs = []
    for _ in range(rng.randint(0, max_equations)):
        a = rng.choice(nodes)
        p, end = _rand_walk(rng, s, a, rng.randint(1, 3))
        if with_attrs and s.node_attrs[end] and rng.random() < 0.5:
            attr, ty = s.node_attrs[end][0]
            p = Path(a, p.steps, attr)
            if rng.random() < 0.5:
                eqs.append(PathEquation(p, ConstPath(rng.choice(VALUE_POOLS[ty]))))
                continue
            for _try in range(10):
                q, qend = _rand_walk(rng, s, a, rng.randint(0, 3))
                qattrs = [x for (x, xty) in s.node_attrs[qend] if xty == ty]
                if qattrs and Path(a, q.steps, qattrs[0]) != p:
                    eqs.append(PathEquation(p, Path(a, q.steps, qattrs[0])))
                    break
            continue
        for _try in range(10):
            q, qend = _rand_walk(rng, s, a, rng.randint(0, 3))
            if qend == end and q != p:
                eqs.append(PathEquation(p, q))
                break
    return make_schema(name, nodes, edges, attrs, eqs)


def _find_equation(rng, s):
    """One equation between two distinct parallel node-valued paths, if any."""
    nodes = sorted(s.nodes)
    rng.shuffle(nodes)
    for a in nodes:
        for b in nodes:
            try:
                ps = enumerate_morphisms(s, a, b)
            except CatqlError:
                continue
            nontrivial = [p for p in ps if p.steps]
            if len(ps) >= 2 and nontrivial:
                q = rng.choice(nontrivial)
                p = rng.choice([x for x in ps if x != q])
                return [PathEquation(q, p)]
    return []


def _attr_paths(s: Schema, node):
    """(attribute-valued path, base type) for each path class out of node
    followed by an attribute at its end.  Sorted by str: the key order of
    all_morphisms_from's result follows hash(None), which differs between
    processes on Python 3.11 even under a fixed PYTHONHASHSEED."""
    by_target = all_morphisms_from(s, node)
    found = [(Path(node, p.steps, a), ty)
             for end, ps in by_target.items() for p in ps
             for (a, ty) in s.node_attrs[end]]
    return sorted(found, key=lambda pt: str(pt[0]))


def rand_mapping(rng: random.Random, S: Schema, T: Schema, tries=30):
    """A random functor S -> T, or None when the shapes don't allow one.
    Each attribute goes to an attribute path of its type, or to a constant
    (always when T has no such path)."""
    s_nodes = sorted(S.nodes)
    t_nodes = sorted(T.nodes)
    for _ in range(tries):
        nm = {n: rng.choice(t_nodes) for n in s_nodes}
        em = {}
        ok = True
        for (ename, src, tgt) in sorted(S.edges):
            try:
                choices = enumerate_morphisms(T, nm[src], nm[tgt])
            except CatqlError:
                ok = False
                break
            if not choices:
                ok = False
                break
            em[(src, ename)] = rng.choice(choices)
        if not ok:
            continue
        am = {}
        for (aname, src, ty) in sorted(S.attributes):
            choices = [p for (p, pty) in _attr_paths(T, nm[src]) if pty == ty]
            if not choices or rng.random() < 0.2:
                am[(src, aname)] = ConstPath(rng.choice(VALUE_POOLS[ty]))
            else:
                am[(src, aname)] = rng.choice(choices)
        F = Mapping(source=S, target=T, nodes=nm, edges=em, attrs=am)
        try:
            validate_mapping(F)
        except CatqlError:
            continue
        return F
    return None


def rand_instance(rng: random.Random, s: Schema, max_rows=3, allow_empty=True,
                  tries=50) -> Instance:
    """A random valid instance; retries edge functions until equations hold."""
    lo = 0 if allow_empty else 1
    for attempt in range(tries):
        rows = {n: [f"r{i}" for i in range(rng.randint(lo, max_rows))]
                for n in sorted(s.nodes)}
        edge_fn = {}
        ok = True
        for (ename, src, tgt) in sorted(s.edges):
            if rows[src] and not rows[tgt]:
                ok = False
                break
            edge_fn[(src, ename)] = {r: rng.choice(rows[tgt]) for r in rows[src]}
        if not ok:
            continue
        attr_fn = {}
        for (aname, src, ty) in sorted(s.attributes):
            pool = VALUE_POOLS[ty]
            attr_fn[(src, aname)] = {r: rng.choice(pool) for r in rows[src]}
        inst = Instance(s, rows, edge_fn, attr_fn)
        try:
            validate_instance(inst)
        except CatqlError:
            continue
        return inst
    # fall back to the empty instance, which always validates
    return Instance(s, {n: [] for n in s.nodes}, {}, {})


def disjoint_union_many(instances) -> Instance:
    """The disjoint union of instances on one schema: row r of the i-th
    becomes "<i>.r", so no tag is ever nested."""
    s = instances[0].schema
    tagged = list(enumerate(instances))
    return Instance(
        s,
        {n: [f"{i}.{r}" for (i, I) in tagged for r in I.rows[n]] for n in s.nodes},
        {(src, e): {f"{i}.{r}": f"{i}.{v}" for (i, I) in tagged for r, v in I.edge(src, e).items()}
         for (e, src, _tgt) in s.edges},
        {(src, a): {f"{i}.{r}": v for (i, I) in tagged for r, v in I.attr(src, a).items()}
         for (a, src, _ty) in s.attributes},
    )


def rand_adjunction_triple(rng: random.Random):
    """(F: S->T, I on S, J on T), attribute-free, all finite hom-sets."""
    while True:
        T = rand_dag_schema(rng, "T", try_equation=rng.random() < 0.4)
        S = rand_dag_schema(rng, "S", try_equation=rng.random() < 0.4)
        F = rand_mapping(rng, S, T)
        if F is None:
            continue
        I = rand_instance(rng, S)
        J = rand_instance(rng, T)
        return F, I, J


def rand_presented_triple(rng: random.Random):
    """(F: S->T, I on S, J on T), attribute-free, on rand_presented_schema
    schemas whose completion converges and whose hom-sets are finite."""

    def schema(name):
        while True:
            s = rand_presented_schema(rng, name)
            try:
                for n in s.nodes:
                    all_morphisms_from(s, n)
            except CatqlError:
                continue
            return s

    while True:
        T, S = schema("T"), schema("S")
        F = rand_mapping(rng, S, T)
        if F is not None:
            return F, rand_instance(rng, S), rand_instance(rng, T)


def _attr_equations(rng: random.Random, s: Schema, k):
    """Up to k attribute equations on s, whose every node has an attribute.
    Each starts at a random node and sets an attribute path equal to a
    constant or to another path of its type."""
    eqs = []
    for _ in range(k):
        node = rng.choice(sorted(s.nodes))
        paths = _attr_paths(s, node)
        p, ty = rng.choice(paths)
        if rng.random() < 0.5:
            eqs.append(PathEquation(p, ConstPath(rng.choice(VALUE_POOLS[ty]))))
            continue
        others = [q for (q, qty) in paths if qty == ty and q != p]
        if others:
            eqs.append(PathEquation(p, rng.choice(others)))
    return eqs


def rand_attributed_triple(rng: random.Random):
    """(F: S->T, I on S, J on T) with attributes on S and T.  T carries
    attribute equations, constant and path, and F sends each attribute to
    an attribute path of T or to a constant."""
    while True:
        T = rand_dag_schema(rng, "T", with_attrs=True, try_equation=rng.random() < 0.4)
        eqs = _attr_equations(rng, T, rng.randint(1, 2))
        T = make_schema(T.name, T.nodes, T.edges, T.attributes, T.equations + tuple(eqs))
        S = rand_dag_schema(rng, "S", with_attrs=True, try_equation=rng.random() < 0.4)
        F = rand_mapping(rng, S, T)
        if F is None:
            continue
        return F, rand_instance(rng, S), rand_instance(rng, T)


# string constants and file names are drawn from these pieces
TEXT_PIECES = ['"', "\\", "--", "#", "\n", "a", " ", "é", ";", "}", "x.y", ".node.", "a.and.b", "row"]


class ScriptGen:
    """A seeded generator of .catql scripts of every form, each drawn from
    the syntax tables of `scripts`: schema, instance and mapping
    declarations, one let of each LET_OPS operation, a show and an export;
    and query declarations, their bodies from `random_query_corpus` or
    `rand_disjunctive_query`.  `roles` lists the role of each name it draws
    or passes on, a query's names included, in turn.  When `reserved_at`
    is k, the k-th of them is a reserved word, kept in `reserved` with its
    role."""

    def __init__(self, seed: int, reserved_at: int = 0):
        self.rng = random.Random(seed)
        self.roles, self.reserved_at, self.reserved = [], reserved_at, None

    def ident(self) -> str:
        rng = self.rng
        return rng.choice(["a", "Z", "é", "_", "node_"]) + str(rng.randrange(40))

    def name(self, role: str, word=None) -> str:
        """A new name for a field of `role`, or `word` when given."""
        self.roles.append(role)
        if len(self.roles) != self.reserved_at:
            return word or self.ident()
        word = self.rng.choice(sorted(KEYWORDS))
        self.reserved = (role, word)
        return word

    def text(self) -> str:
        return "".join(self.rng.choice(TEXT_PIECES) for _ in range(self.rng.randint(0, 6)))

    def path(self, role: str, p=None) -> Path:
        """A new path for a field of `role`, or p with its names passed to `name`."""
        if isinstance(p, ConstPath):  # a constant, its text drawn anew
            return ConstPath(self.literal())
        words = (p.source, *p.steps) if p else [None] * self.rng.randint(1, 4)
        source, *steps = (self.name(role, w) for w in words)
        return Path(source, tuple(steps))

    def literal(self):
        rng = self.rng
        return self.text() if rng.random() < 0.6 else rng.randint(-10**6, 10**6)

    def value(self, want):
        rng = self.rng
        if isinstance(want, tuple):  # a block's entries, each a value if it holds one
            entries = [self.values(want) for _ in range(rng.randint(0, 3))]
            return [x for (x,) in entries] if sum(map(str.isupper, want)) == 1 else entries
        if want in NAMES:
            return self.name(want.lower())
        if want == "NODES":
            return [self.name("node") for _ in range(rng.randint(1, 3))]
        if want == "ROW":
            return self.name("row") if rng.random() < 0.6 else str(rng.randint(-10**6, 10**6))
        if want == "VALUE":
            return self.literal()
        if want == "FORMAT":
            return rng.choice(["ascii", "csv", "json"]) if rng.random() < 0.5 else self.name("format")
        if want == "PATH" or (want == "TERM" and rng.random() < 0.5):
            return self.path(want.lower())
        if want == "TERM":
            return ConstPath(self.literal())
        if want == "TYPE":
            return rng.choice(["string", "integer"])
        if want == "DEPTH":
            return rng.randint(-3, 30)
        assert want == "FILE", want
        return self.text()

    def values(self, syntax) -> tuple:
        return tuple(self.value(want) for want in syntax if isinstance(want, tuple) or want.isupper())

    def items(self, table: dict) -> list:
        return [[self.values(syntax) for _ in range(self.rng.randint(0, 3))]
                for syntax in table.values()]

    def query(self) -> Query:
        """A query body of the test_queries generators, its names passed to `name`."""
        from test_queries import rand_disjunctive_query, random_query_corpus

        rng, q = self.rng, None
        while q is None:
            if rng.random() < 0.5:
                [(q, _I)] = random_query_corpus(rng.randrange(10**6), 1)
            else:
                q = rand_disjunctive_query(rng, rand_dag_schema(rng, "Q", with_attrs=True))
        return Query(
            tuple((self.name("variable", v), self.name("table", n)) for (v, n) in q.bindings),
            tuple(Group(tuple(Clause(self.path("term", c.lhs), self.path("term", c.rhs))
                              for c in g.alternatives)) for g in q.where),
            tuple(SelectItem(self.name("alias", s.alias), self.path("path", s.expr)) for s in q.selects),
        )

    def script(self) -> Script:
        rng = self.rng
        stmts = []
        for _ in range(rng.randint(1, 3)):
            stmts.append(SchemaDecl(*self.values(STATEMENTS["schema"]), *self.items(SCHEMA_ITEMS)))
        for _ in range(rng.randint(1, 2)):
            stmts.append(InstanceDecl(*self.values(STATEMENTS["instance"]), *self.items(INSTANCE_ITEMS)))
        for _ in range(rng.randint(1, 2)):
            stmts.append(MappingDecl(*self.values(STATEMENTS["mapping"]), *self.items(MAPPING_ITEMS)))
        for _ in range(rng.randint(0, 2)):
            stmts.append(QueryDecl(*self.values(STATEMENTS["query"]), self.query()))
        for op, (_fn, syntax) in LET_OPS.items():
            (name,) = self.values(STATEMENTS["let"])
            stmts.append(LetStmt(name, (op, *self.values(syntax))))
        stmts.append(ShowStmt(*self.values(STATEMENTS["show"])))
        stmts.append(ExportStmt(*self.values(STATEMENTS["export"])))
        rng.shuffle(stmts)
        return Script(tuple(stmts))


@pytest.fixture(scope="session")
def portal():
    from catql.sqlbridge import import_sql

    schema, inst = import_sql(read_data("portal_a.sql"))
    return schema, inst
