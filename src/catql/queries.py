"""select/from/where queries: typechecking, direct evaluation by joins, and
desugaring into a sigma . pi . delta migration.

Direct evaluation resolves each term once per query to a path function, a
chain of dict lookups (`instances.path_fn`), hands the tables and where-groups
to the join planner (`instances.join`), then projects and relationalizes (set
semantics).  Desugaring only accepts conjunctive queries; disjunction is
handled by splitting into conjunctive subqueries and unioning their results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

from .core import (
    ConstPath,
    Mapping,
    Path,
    PathEquation,
    Schema,
    make_schema,
    _walk_path,
)
from .errors import DesugarError, SchemaError, TypecheckError
from .instances import Instance, _UnionFind, join, path_fn, relationalize, union
from .migration import delta, pi, sigma


# A term is a raw path, its first name the variable and an attribute its last
# step, or a constant.
Term = Union[Path, ConstPath]


@dataclass(frozen=True)
class Clause:
    lhs: Term
    rhs: Term

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class Group:
    """A disjunction of clauses; a singleton group is a plain conjunct."""

    alternatives: tuple[Clause, ...]

    def __str__(self):
        if len(self.alternatives) == 1:
            return str(self.alternatives[0])
        return "(" + " or ".join(str(c) for c in self.alternatives) + ")"


@dataclass(frozen=True)
class SelectItem:
    alias: str
    expr: Path


@dataclass(frozen=True)
class Query:
    bindings: tuple[tuple[str, str], ...]  # (variable, node)
    where: tuple[Group, ...]
    selects: tuple[SelectItem, ...]

    def is_conjunctive(self):
        return all(len(g.alternatives) == 1 for g in self.where)


@dataclass
class Resolution:
    """Typechecking result: sort of every term occurrence."""

    expr_sort: dict  # raw Path -> ("row", node, Path) | ("attr", Path, base type)
    select_types: list  # [(alias, base type)] in select order


def _resolve_expr(s: Schema, bindings: dict, e: Path):
    if e.source not in bindings:
        raise TypecheckError(f"unbound variable {e.source!r}")
    source = bindings[e.source]
    try:
        nodes, attr = _walk_path(s, source, e.steps, e)
    except SchemaError as exc:
        raise TypecheckError(str(exc)) from None
    if attr is None:
        return ("row", nodes[-1], Path(source, e.steps))
    return ("attr", Path(source, e.steps[:-1], attr), s.attr_table[(nodes[-1], attr)])


def typecheck_query(q: Query, s: Schema) -> Resolution:
    bindings = {}
    for (var, node) in q.bindings:
        if var in bindings:
            raise TypecheckError(f"variable {var!r} bound more than once")
        if node not in s.nodes:
            raise TypecheckError(f"unknown table {node!r}")
        bindings[var] = node
    expr_sort = {}

    def sort_of(term):
        if isinstance(term, ConstPath):
            return ("const", "string" if isinstance(term.value, str) else "integer")
        r = _resolve_expr(s, bindings, term)
        expr_sort[term] = r
        return r

    for g in q.where:
        for c in g.alternatives:
            ls, rs = sort_of(c.lhs), sort_of(c.rhs)
            if ls[0] == "const" and rs[0] == "const":
                raise TypecheckError(f"clause {c} relates two constants")
            if "row" in (ls[0], rs[0]):
                if ls[0] != "row" or rs[0] != "row":
                    raise TypecheckError(f"clause {c} mixes rows and values")
                if ls[1] != rs[1]:
                    raise TypecheckError(
                        f"clause {c} equates rows of different nodes {ls[1]!r}, {rs[1]!r}"
                    )
            else:
                lt = ls[1] if ls[0] == "const" else ls[2]
                rt = rs[1] if rs[0] == "const" else rs[2]
                if lt != rt:
                    raise TypecheckError(f"clause {c} compares {lt} with {rt}")
    aliases = set()
    select_types = []
    for item in q.selects:
        if item.alias in aliases:
            raise TypecheckError(f"duplicate alias {item.alias!r}")
        aliases.add(item.alias)
        r = sort_of(item.expr)
        if r[0] != "attr":
            raise TypecheckError(f"select item {item.expr} is not attribute-valued")
        select_types.append((item.alias, r[2]))
    return Resolution(expr_sort, select_types)


def result_schema(select_types) -> Schema:
    """Single-node schema of a query result: one attribute per alias."""
    return make_schema(
        "result",
        ["row"],
        [],
        [(alias, "row", ty) for (alias, ty) in select_types],
    )


def eval_query_direct(q: Query, I: Instance) -> Instance:
    """Join the bindings' tables, project, relationalize (set semantics).

    Each term is resolved to a path function once, and the where-groups and
    tables go to `instances.join`, which picks the binding order and the
    hash joins.  Result row q<i> is the i-th assignment in join order.
    """
    res = typecheck_query(q, I.schema)
    var_index = {var: i for i, (var, _node) in enumerate(q.bindings)}

    def compiled(term):
        """The term as a join term: its variable and a function of its row."""
        if isinstance(term, ConstPath):
            return term.value
        sort = res.expr_sort[term]
        return (var_index[term.source], path_fn(I, sort[1] if sort[0] == "attr" else sort[2]))

    assignments = join(
        [I.rows[node] for (_var, node) in q.bindings],
        [[(compiled(c.lhs), compiled(c.rhs)) for c in g.alternatives] for g in q.where],
    )
    rows = [f"q{i}" for i in range(len(assignments))]
    attr_fn = {}
    for item, (alias, _ty) in zip(q.selects, res.select_types):
        i, f = compiled(item.expr)
        attr_fn[("row", alias)] = {r: f(a[i]) for r, a in zip(rows, assignments)}
    out = Instance(result_schema(res.select_types), {"row": rows}, {}, attr_fn)
    return relationalize(out)


@dataclass
class Desugared:
    """The query as a migration: sigma(f_sigma, pi(f_pi, delta(f_delta, I)))."""

    f_delta: Mapping  # B -> S
    f_pi: Mapping  # B -> C
    f_sigma: Mapping  # C -> R


def desugar_query(q: Query, s: Schema) -> Desugared:
    """Construct the three mappings realizing a conjunctive query.

    B has one node per binding plus one shared node per joined row-expression
    class; C is a single node carrying one attribute per select alias and per
    where-side occurrence, with the where clauses as attribute equations.
    """
    if not q.is_conjunctive():
        raise DesugarError("query has disjunctive where-clauses; not desugarable "
                           "(use direct evaluation or split into subqueries)")
    res = typecheck_query(q, s)
    bindings = dict(q.bindings)

    row_clauses = []
    attr_clauses = []
    for g in q.where:
        c = g.alternatives[0]
        ls = res.expr_sort.get(c.lhs)
        if ls is not None and ls[0] == "row":
            row_clauses.append(c)
        else:
            attr_clauses.append(c)

    def bnode(var):
        return f"b_{var}"

    nodes = [bnode(var) for (var, _n) in q.bindings]
    edges = []
    attrs = []
    fd_nodes = {bnode(var): node for (var, node) in q.bindings}
    fd_edges = {}
    fd_attrs = {}

    # joined row-expression classes -> shared target nodes
    uf = _UnionFind()
    for c in row_clauses:
        uf.union(c.lhs, c.rhs)
    classes: dict = {}
    for e in uf.parent:
        classes.setdefault(uf.find(e), []).append(e)
    eidx = 0
    for k, (rep, members) in enumerate(sorted(classes.items(), key=lambda kv: str(kv[0]))):
        jnode = f"j{k}"
        target = res.expr_sort[rep][1]
        nodes.append(jnode)
        fd_nodes[jnode] = target
        for e in sorted(members, key=str):
            ename = f"e{eidx}"
            eidx += 1
            edges.append((ename, bnode(e.source), jnode))
            fd_edges[(bnode(e.source), ename)] = res.expr_sort[e][2]

    # attributes: one per select item and per where-side occurrence
    c_attrs = []
    fp_attrs = {}
    fs_attr_images = {}
    for i, (item, (alias, ty)) in enumerate(zip(q.selects, res.select_types)):
        aname = f"sel{i}"
        attrs.append((aname, bnode(item.expr.source), ty))
        fd_attrs[(bnode(item.expr.source), aname)] = res.expr_sort[item.expr][1]
        c_attrs.append((alias, "r", ty))
        fp_attrs[(bnode(item.expr.source), aname)] = Path("r", (), alias)
        fs_attr_images[alias] = Path("row", (), alias)

    c_equations = []
    wuf = _UnionFind()  # classes of where attributes and constants, for f_sigma images
    widx = 0

    def add_where_attr(term):
        nonlocal widx
        if isinstance(term, ConstPath):
            return term
        sort = res.expr_sort[term]
        aname = f"w{widx}"
        cname = f"_w{widx}"
        widx += 1
        attrs.append((aname, bnode(term.source), sort[2]))
        fd_attrs[(bnode(term.source), aname)] = sort[1]
        c_attrs.append((cname, "r", sort[2]))
        fp_attrs[(bnode(term.source), aname)] = Path("r", (), cname)
        return Path("r", (), cname)

    for c in attr_clauses:
        lp = add_where_attr(c.lhs)
        rp = add_where_attr(c.rhs)
        if isinstance(lp, ConstPath):
            lp, rp = rp, lp
        assert isinstance(lp, Path)
        c_equations.append(PathEquation(lp, rp))
        lk = lp.attr
        rk = rp.value if isinstance(rp, ConstPath) else rp.attr
        wuf.union(("a", lk), ("c", rk) if isinstance(rp, ConstPath) else ("a", rk))

    B = make_schema("B_query", nodes, edges, attrs, [])
    C = make_schema("C_query", ["r"], [], c_attrs, c_equations)
    R = result_schema(res.select_types)

    f_delta = Mapping(source=B, target=s, nodes=fd_nodes, edges=fd_edges, attrs=fd_attrs)
    f_pi = Mapping(
        source=B,
        target=C,
        nodes={n: "r" for n in nodes},
        edges={k: Path("r") for k in fd_edges},
        attrs=fp_attrs,
    )

    # f_sigma: aliases map to themselves; where attributes map to the constant
    # of their class, or to a dummy constant of the right type (never read back)
    wclass_const = {}
    for x in list(wuf.parent):
        r = wuf.find(x)
        if x[0] == "c":
            wclass_const[r] = x[1]
    fs_attrs = {}
    cat = {name: ty for (name, _n, ty) in c_attrs}
    for (name, _n, ty) in c_attrs:
        if name in fs_attr_images:
            fs_attrs[("r", name)] = fs_attr_images[name]
        else:
            key = ("a", name)
            wuf.add(key)
            root = wuf.find(key)
            if root in wclass_const:
                fs_attrs[("r", name)] = ConstPath(wclass_const[root])
            else:
                fs_attrs[("r", name)] = ConstPath("" if cat[name] == "string" else 0)
    f_sigma = Mapping(
        source=C,
        target=R,
        nodes={"r": "row"},
        edges={},
        attrs=fs_attrs,
    )
    return Desugared(f_delta, f_pi, f_sigma)


def split_disjuncts(q: Query):
    """All conjunctive subqueries obtained by choosing one alternative per group."""
    choices = [g.alternatives for g in q.where]
    out = []
    for combo in itertools.product(*choices):
        out.append(
            Query(
                bindings=q.bindings,
                where=tuple(Group((c,)) for c in combo),
                selects=q.selects,
            )
        )
    return out


def eval_query_via_migration(q: Query, I: Instance) -> Instance:
    """Evaluate through sigma . pi . delta; disjunction becomes a union of
    conjunctive subqueries.  Relationalized to match set semantics: a union
    is relationalized already, so only a single part is relationalized."""
    parts = split_disjuncts(q) if not q.is_conjunctive() else [q]
    result = None
    for part in parts:
        d = desugar_query(part, I.schema)
        out = sigma(d.f_sigma, pi(d.f_pi, delta(d.f_delta, I)))
        result = out if result is None else union(result, out)
    return relationalize(result) if len(parts) == 1 else result
