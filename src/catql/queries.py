"""select/from/where queries: typechecking, direct evaluation by joins, and
compilation into sigma . pi . delta migrations.

Direct evaluation resolves each term once per query to a path function, a
chain of dict lookups (`instances.path_fn`), hands the tables and where-groups
to the join planner (`instances.join`), then projects and relationalizes (set
semantics).  Compilation typechecks once and gives one migration per
conjunctive part of the where-clauses.  The parts that choose the same row
clauses share one binding schema, delta run and pi plan, and the parts'
results are unioned.  `desugar_query` is its conjunctive case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Union

from .core import (
    ConstPath,
    Mapping,
    Path,
    PathEquation,
    Schema,
    _walk_path,
)
from .errors import DesugarError, SchemaError, TypecheckError
from .instances import Instance, _UnionFind, join, path_fn, relationalize, union
from .migration import _PiPlan, delta, sigma


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


def _schema(name, nodes, edges=(), attributes=(), equations=()) -> Schema:
    """make_schema without validate_schema, for a schema well formed by construction."""
    return Schema(name, frozenset(nodes), frozenset(edges), frozenset(attributes), tuple(equations))


def result_schema(select_types) -> Schema:
    """Single-node schema of a query result: one attribute per alias."""
    return _schema("result", ["row"], (), [(alias, "row", ty) for (alias, ty) in select_types])


def eval_query_direct(q: Query, I: Instance) -> Instance:
    """Join the bindings' tables, project, relationalize (set semantics).

    Each distinct term is resolved to a path function once, so the
    alternatives that compare one term with constants share one term object,
    which `instances.join` tests in one frozenset pass.  The where-groups and
    tables go to join, which picks the binding order and the hash joins.
    Result row q<i> is the i-th assignment in join order.
    """
    res = typecheck_query(q, I.schema)
    var_index = {var: i for i, (var, _node) in enumerate(q.bindings)}
    terms: dict = {}  # raw path -> its join term

    def compiled(term):
        """The term as a join term: its variable and a function of its row."""
        if isinstance(term, ConstPath):
            return term.value
        if term not in terms:
            sort = res.expr_sort[term]
            terms[term] = (var_index[term.source], path_fn(I, sort[1] if sort[0] == "attr" else sort[2]))
        return terms[term]

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
    """A conjunctive query as a migration: sigma(f_sigma, pi(f_pi, delta(f_delta, I)))."""

    f_delta: Mapping  # B -> S
    f_pi: Mapping  # B -> C
    f_sigma: Mapping  # C -> R


def compile_query(q: Query, s: Schema) -> list[Desugared]:
    """The query typechecked once, as one Desugared per conjunctive part, in
    split_disjuncts order.  B has a node per binding, a node per class of
    the row-expressions that the part's row clauses join, and an attribute
    per select item and per where-side path occurrence of every
    alternative, so the parts that choose the same row clauses share one
    f_delta object.  A part's C is one node with an attribute per select
    alias and per where-side occurrence ("#<k>", which no alias can be),
    and the part's attribute clauses as equations.  B, C and R are well
    formed by construction and built without validation (tests validate).
    f_sigma sends a where attribute to its clause's constant, else to a dummy
    "" or 0 that sigma drops unread; a check would refuse query1, whose part 0
    sends #2 and #4 to "" and holds "Sinker EDM" and other values there."""
    res = typecheck_query(q, s)
    b_attrs, c_attrs, fd_attrs, fp_attrs, fs_attrs = [], [], {}, {}, {}

    def attribute(var, bname, path, ty, cname, image):
        """B's bname on var's node, read along path; f_pi's image cname; f_sigma's image."""
        key = (f"b_{var}", bname)
        b_attrs.append((bname, key[0], ty))
        fd_attrs[key], fp_attrs[key] = path, Path("r", (), cname)
        c_attrs.append((cname, "r", ty))
        fs_attrs[("r", cname)] = image

    for i, (item, (alias, ty)) in enumerate(zip(q.selects, res.select_types)):
        attribute(item.expr.source, f"sel{i}", res.expr_sort[item.expr][1], ty, alias,
                  Path("row", (), alias))

    def occurrence(term):
        """A where-side term as a C path, or the constant it is."""
        if isinstance(term, ConstPath):
            return term
        _kind, path, ty = res.expr_sort[term]
        k = len(c_attrs) - len(q.selects)
        attribute(term.source, f"w{k}", path, ty, f"#{k}", ConstPath("" if ty == "string" else 0))
        return Path("r", (), f"#{k}")

    def equation(c):
        lp, rp = occurrence(c.lhs), occurrence(c.rhs)
        return PathEquation(rp, lp) if isinstance(lp, ConstPath) else PathEquation(lp, rp)

    # each group's alternatives: (row clause, None) or (None, C equation)
    alternatives = [[(c, None) if res.expr_sort.get(c.lhs, ("const",))[0] == "row"
                     else (None, equation(c)) for c in g.alternatives] for g in q.where]

    def binding_schema(row_clauses):
        """f_delta, and f_pi's node and edge images, for one choice of row clauses."""
        nodes = [f"b_{var}" for (var, _n) in q.bindings]
        edges = []
        fd_nodes = {f"b_{var}": node for (var, node) in q.bindings}
        fd_edges = {}
        # joined row-expression classes -> shared target nodes
        uf = _UnionFind()
        for c in row_clauses:
            uf.union(c.lhs, c.rhs)
        classes: dict = {}
        for e in uf.parent:
            classes.setdefault(uf.find(e), []).append(e)
        for k, (rep, members) in enumerate(sorted(classes.items(), key=lambda kv: str(kv[0]))):
            nodes.append(f"j{k}")
            fd_nodes[f"j{k}"] = res.expr_sort[rep][1]
            for e in sorted(members, key=str):
                ename = f"e{len(edges)}"
                edges.append((ename, f"b_{e.source}", f"j{k}"))
                fd_edges[(f"b_{e.source}", ename)] = res.expr_sort[e][2]
        B = _schema("B_query", nodes, edges, b_attrs)
        f_delta = Mapping(source=B, target=s, nodes=fd_nodes, edges=fd_edges, attrs=fd_attrs)
        return f_delta, {n: "r" for n in nodes}, {k: Path("r") for k in fd_edges}

    R = result_schema(res.select_types)
    shared = {}  # chosen row clauses -> binding_schema's result
    parts = []
    for choice in itertools.product(*alternatives):
        rows = tuple(c for (c, _eq) in choice if c is not None)
        if rows not in shared:
            shared[rows] = binding_schema(rows)
        f_delta, fp_nodes, fp_edges = shared[rows]
        eqs = [eq for (_c, eq) in choice if eq is not None]
        C = _schema("C_query", ["r"], (), c_attrs, eqs)
        constants = {("r", eq.lhs.attr): eq.rhs for eq in eqs if isinstance(eq.rhs, ConstPath)}
        parts.append(Desugared(f_delta, Mapping(f_delta.source, C, fp_nodes, fp_edges, fp_attrs),
                               Mapping(C, R, {"r": "row"}, {}, {**fs_attrs, **constants})))
    return parts


def desugar_query(q: Query, s: Schema) -> Desugared:
    """A conjunctive query's migration: compile_query's one part.  A
    disjunction raises DesugarError; compile_query gives its parts."""
    if not q.is_conjunctive():
        raise DesugarError("query has disjunctive where-clauses; not desugarable "
                           "(use direct evaluation or split into subqueries)")
    return compile_query(q, s)[0]


def split_disjuncts(q: Query):
    """All conjunctive subqueries obtained by choosing one alternative per group."""
    return [Query(q.bindings, tuple(Group((c,)) for c in combo), q.selects)
            for combo in itertools.product(*(g.alternatives for g in q.where))]


def eval_query_via_migration(q: Query, I: Instance) -> Instance:
    """Evaluate through sigma . pi . delta, the query compiled once.

    Parts that share a binding schema B share one delta run and one pi plan,
    made on C without equations and run with each part's own equations; they
    are unioned in split_disjuncts order.  Relationalized to match set
    semantics (a union is already, so only a lone part is)."""
    parts = compile_query(q, I.schema)
    shared = {}  # id of a shared f_delta -> delta(f_delta, I), pi's plan
    result = None
    for d in parts:
        if id(d.f_delta) not in shared:
            plan = _PiPlan(replace(d.f_pi, target=replace(d.f_pi.target, equations=())))
            shared[id(d.f_delta)] = (delta(d.f_delta, I), plan)
        J, plan = shared[id(d.f_delta)]
        out = sigma(d.f_sigma, plan.run(J, d.f_pi.target.equations, d.f_pi.target))
        result = out if result is None else union(result, out)
    return relationalize(result) if len(parts) == 1 else result
