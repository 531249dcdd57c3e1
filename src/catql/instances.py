"""Instances as set-valued functors with typed attributes.

Rows are opaque string ids scoped to one node of one instance.  Attribute
values are strings, integers, or labelled nulls (equal only to the same
label).  Union is disjoint union followed by relationalization, the quotient
by observational equivalence.

One join planner (`join`) enumerates the row tuples that satisfy a set of
equalities; direct queries, pi's families, relation composition and
enrichment all run through it.  One partition refinement (`_refine`) colors
the rows of one or more instances jointly; relationalize quotients by it and
iso_check compares the color classes of two instances.  One iterative
backtracking search (`_homs`) enumerates natural transformations with an
explicit stack: enumerate_homs counts them over attribute-tuple buckets, and
iso_check looks for an injective one over color classes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Union

from .core import ConstPath, Schema
from .errors import LimitExceeded, SchemaError, ValidationError


@dataclass(frozen=True)
class LabelledNull:
    """A Skolem value; compares equal only to a null with the same label."""

    label: str

    def __str__(self):
        return f"?{self.label}"


Value = Union[str, int, LabelledNull]


def value_type(v: Value) -> str:
    if isinstance(v, str):
        return "string"
    if isinstance(v, bool):
        raise ValidationError("boolean is not an attribute value")
    if isinstance(v, int):
        return "integer"
    raise ValidationError(f"not an attribute value: {v!r}")


class Instance:
    """A set-valued functor: row sets per node, total functions per edge/attribute.

    Treated as immutable after construction.
    """

    def __init__(self, schema: Schema, rows, edge_fn, attr_fn):
        self.schema = schema
        self.rows = {n: tuple(sorted(rows.get(n, ()))) for n in schema.nodes}
        self.edge_fn = {k: dict(v) for k, v in edge_fn.items()}
        self.attr_fn = {k: dict(v) for k, v in attr_fn.items()}

    def node_rows(self, node):
        return self.rows[node]

    def edge(self, node, name):
        return self.edge_fn.get((node, name), {})

    def attr(self, node, name):
        return self.attr_fn.get((node, name), {})

    def attr_tuple(self, node, row):
        return tuple(self.attr(node, name)[row] for (name, _ty) in self.schema.node_attrs[node])

    def total_rows(self):
        return sum(len(r) for r in self.rows.values())


def empty_instance(schema: Schema) -> Instance:
    return Instance(schema, {}, {}, {})


def path_fn(I: Instance, p):
    """The row -> value function of path p on I.

    The edge and attribute dicts along p are fetched once, here, so applying
    the result to a row is a chain of dict lookups.  A ConstPath gives its
    value for every row.
    """
    if isinstance(p, ConstPath):
        value = p.value
        return lambda _r: value
    et = I.schema.edge_table
    node = p.source
    chain = []
    for step in p.steps:
        chain.append(I.edge(node, step))
        node = et[(node, step)]
    if p.attr is not None:
        chain.append(I.attr(node, p.attr))
    if len(chain) == 1:
        return chain[0].__getitem__
    if len(chain) == 2:
        f, g = chain
        return lambda r: g[f[r]]

    def walk(r):
        for fn in chain:
            r = fn[r]
        return r

    return walk


def eval_path(I: Instance, p, r):
    """Apply the edge/attribute functions along a path starting from row r."""
    return path_fn(I, p)(r)


def _all_of(tests):
    """The conjunction of predicates, or None when there are none."""
    if len(tests) <= 1:
        return tests[0] if tests else None
    return lambda x: all(t(x) for t in tests)


def join(domains, groups) -> list[tuple]:
    """Every choice of one row per domain that satisfies every group.

    domains holds one row sequence per variable, and variables are their
    indices.  A group is a sequence of alternatives (lhs, rhs), each an
    equality between two terms, and holds when one of them does.  A term is
    (var, fn), the value fn(row) of var's row, or a constant: any value that
    is not a tuple.

    Variables are bound in ascending order of domain size, ties in declared
    order.  Groups on the variable being bound alone filter its rows at the
    scan.  The first single-alternative group relating it to a variable bound
    earlier becomes a hash join, and every other group is checked on each
    extended assignment once its variables are bound.  Each satisfying
    assignment is returned once, as a tuple of rows in declared variable
    order; the list is ordered by the rows' positions in their domains, taken
    in binding order.
    """
    order = sorted(range(len(domains)), key=lambda v: (len(domains[v]), v))
    pos = {v: i for i, v in enumerate(order)}

    def var_of(term):
        return term[0] if isinstance(term, tuple) else None

    def on_row(term):
        """The term as a function of its variable's row."""
        if isinstance(term, tuple):
            return term[1]
        return lambda _r: term

    def on_asg(term):
        """The term as a function of an assignment in binding order."""
        if not isinstance(term, tuple):
            return lambda _a: term
        i, f = pos[term[0]], term[1]
        return lambda a: f(a[i])

    def test(group, compile_term):
        sides = [(compile_term(lhs), compile_term(rhs)) for (lhs, rhs) in group]
        if len(sides) == 1:
            ((lhs, rhs),) = sides
            return lambda x: lhs(x) == rhs(x)
        return lambda x: any(lhs(x) == rhs(x) for (lhs, rhs) in sides)

    pending = []
    for g in groups:
        vs = {var_of(t) for alt in g for t in alt} - {None}
        if vs:
            pending.append((g, vs))
        elif not test(g, on_asg)(()):  # a group on constants alone holds always or never
            return []
    assignments = [()]
    bound: set[int] = set()
    for v in order:
        bound.add(v)
        ready = [(g, vs) for (g, vs) in pending if vs <= bound]
        pending = [(g, vs) for (g, vs) in pending if not vs <= bound]
        # every ready group is on v; as a term has one variable, a
        # single-alternative group on v and another variable can be hashed
        joined = [g for (g, vs) in ready if len(vs) > 1]
        hashed = next((g for g in joined if len(g) == 1), None)
        keep = _all_of([test(g, on_row) for (g, vs) in ready if len(vs) == 1])
        check = _all_of([test(g, on_asg) for g in joined if g is not hashed])
        # filtering keeps the rows' order, so the assignments keep theirs
        rows = domains[v] if keep is None else list(filter(keep, domains[v]))
        if hashed is None:
            extended = (a + (r,) for a in assignments for r in rows)
        else:
            ((lhs, rhs),) = hashed
            if var_of(lhs) != v:
                lhs, rhs = rhs, lhs
            key, probe = on_row(lhs), on_asg(rhs)
            index: dict = {}
            for r in rows:
                index.setdefault(key(r), []).append(r)
            extended = (a + (r,) for a in assignments for r in index.get(probe(a), ()))
        assignments = list(extended if check is None else filter(check, extended))
    if order != sorted(order):
        declared = itemgetter(*(pos[v] for v in range(len(order))))
        assignments = [declared(a) for a in assignments]
    return assignments


def validate_instance(I: Instance):
    """Distinct row ids, totality of edge/attribute functions, typing, and
    pointwise equations."""
    s = I.schema
    for n, rs in I.rows.items():
        for r, nxt in zip(rs, rs[1:]):  # rows are sorted, so a repeat is adjacent
            if r == nxt:
                raise ValidationError(f"row {r!r} is listed more than once at node {n!r}")
    for (name, src, tgt) in s.edges:
        fn = I.edge(src, name)
        if set(fn) != set(I.rows[src]):
            raise ValidationError(
                f"edge {name!r} on {src!r} is not total on the declared row set"
            )
        targets = set(I.rows[tgt])
        for r, v in fn.items():
            if v not in targets:
                raise ValidationError(
                    f"edge {name!r} sends row {r!r} to dangling target {v!r}"
                )
    for (name, src, ty) in s.attributes:
        fn = I.attr(src, name)
        if set(fn) != set(I.rows[src]):
            raise ValidationError(
                f"attribute {name!r} on {src!r} is not total on the declared row set"
            )
        for r, v in fn.items():
            if not isinstance(v, LabelledNull) and value_type(v) != ty:
                raise ValidationError(
                    f"attribute {name!r}: row {r!r} has {value_type(v)} value, expected {ty}"
                )
    for eq in s.equations:
        lhs, rhs = path_fn(I, eq.lhs), path_fn(I, eq.rhs)
        for r in I.rows[eq.lhs.source]:
            lv = lhs(r)
            rv = rhs(r)
            if lv != rv:
                raise ValidationError(
                    f"equation {eq} violated at node {eq.lhs.source!r}, row {r!r}: "
                    f"{lv!r} != {rv!r}"
                )


def disjoint_union(I: Instance, J: Instance) -> Instance:
    """Rows of I tagged "L.", rows of J tagged "R."."""
    return _tagged_union([("L", I), ("R", J)])


def disjoint_union_many(instances) -> Instance:
    """n-ary disjoint union with flat index tags "<i>." (avoids nested re-tagging)."""
    instances = list(instances)
    if not instances:
        raise SchemaError("disjoint_union_many needs at least one instance")
    return _tagged_union([(str(i), inst) for i, inst in enumerate(instances)])


def _tagged_union(tagged) -> Instance:
    """Disjoint union of (tag, instance) pairs: row r becomes "<tag>.r"."""
    s = tagged[0][1].schema
    if any(inst.schema != s for (_tag, inst) in tagged):
        raise SchemaError("disjoint_union requires instances on the same schema")
    rows = {n: [f"{t}.{r}" for (t, inst) in tagged for r in inst.rows[n]] for n in s.nodes}
    edge_fn = {
        (src, name): {
            f"{t}.{r}": f"{t}.{v}"
            for (t, inst) in tagged
            for r, v in inst.edge(src, name).items()
        }
        for (name, src, _tgt) in s.edges
    }
    attr_fn = {
        (src, name): {
            f"{t}.{r}": v for (t, inst) in tagged for r, v in inst.attr(src, name).items()
        }
        for (name, src, _ty) in s.attributes
    }
    return Instance(s, rows, edge_fn, attr_fn)


def _refine(instances) -> list[dict]:
    """Joint partition refinement of the rows of instances on one schema.

    Initial colors key on (node, direct attribute tuple); each round splits
    colors by the vector of edge-target colors, until the number of colors
    stops growing.  Returns one {(node, row): color} dict per instance.  Two
    rows, of the same or of different instances, share a color iff every
    attribute-valued path agrees on them.
    """
    s = instances[0].schema
    nodes = sorted(s.nodes)
    colors: dict = {}
    coloring = [
        {(n, r): colors.setdefault((n, inst.attr_tuple(n, r)), len(colors))
         for n in nodes for r in inst.rows[n]}
        for inst in instances
    ]
    count = 0
    while len(colors) > count:
        count = len(colors)
        colors = {}
        refined = []
        for inst, c in zip(instances, coloring):
            new = {}
            for n in nodes:
                out = [(inst.edge(n, e), tgt) for (e, tgt) in s.out_edges[n]]
                for r in inst.rows[n]:
                    k = (c[(n, r)], tuple(c[(tgt, fn[r])] for (fn, tgt) in out))
                    new[(n, r)] = colors.setdefault(k, len(colors))
            refined.append(new)
        coloring = refined
    return coloring


def relationalize(I: Instance) -> Instance:
    """Quotient by observational equivalence (partition refinement to fixpoint).

    Rows merge iff every attribute-valued path agrees on them; each class is
    represented by its smallest row id.
    """
    s = I.schema
    color = _refine([I])[0]
    rep: dict[int, str] = {}
    for (_n, r), c in color.items():
        if c not in rep or r < rep[c]:
            rep[c] = r
    new_id = {key: rep[c] for key, c in color.items()}
    rows = {n: sorted({new_id[(n, r)] for r in I.rows[n]}) for n in s.nodes}
    edge_fn = {}
    for (name, src, tgt) in s.edges:
        edge_fn[(src, name)] = {
            new_id[(src, r)]: new_id[(tgt, I.edge(src, name)[r])] for r in I.rows[src]
        }
    attr_fn = {}
    for (name, src, _ty) in s.attributes:
        attr_fn[(src, name)] = {
            new_id[(src, r)]: I.attr(src, name)[r] for r in I.rows[src]
        }
    return Instance(s, rows, edge_fn, attr_fn)


def union(I: Instance, J: Instance) -> Instance:
    """Disjoint union followed by relationalization."""
    return relationalize(disjoint_union(I, J))


def _homs(I: Instance, J: Instance, candidates, injective: bool = False):
    """Yield every natural transformation I -> J as a {(node, row): row} dict.

    Rows of I are assigned in a fixed order by backtracking over an explicit
    stack; candidates(node, row) lists the rows of J a row may map to, and
    must already respect attributes.  After each assignment every edge
    constraint whose two ends are assigned is checked, the row's own loops
    included.  With injective, no two rows of a node share an image.  The
    yielded dict is live: copy it to keep it.
    """
    s = I.schema
    order = [(n, r) for n in sorted(s.nodes) for r in I.rows[n]]
    out = {n: [] for n in s.nodes}  # node -> [(I edge, target node, J edge)]
    inc = {n: [] for n in s.nodes}  # node -> [(source node, I preimages, J edge)]
    for (e, src, tgt) in s.edges:
        fI, fJ = I.edge(src, e), J.edge(src, e)
        out[src].append((fI, tgt, fJ))
        pre: dict[str, list[str]] = {}
        for r, v in fI.items():
            pre.setdefault(v, []).append(r)
        inc[tgt].append((src, pre, fJ))
    asg: dict[tuple[str, str], str] = {}
    used: set[tuple[str, str]] = set()
    if not order:
        yield asg
        return
    stack = [iter(candidates(*order[0]))]
    while stack:
        n, r = order[len(stack) - 1]
        prev = asg.pop((n, r), None)  # undo this level's previous choice
        used.discard((n, prev))
        for t in stack[-1]:
            if injective and (n, t) in used:
                continue
            asg[(n, r)] = t
            if all(asg.get((tgt, fI[r]), fJ[t]) == fJ[t] for (fI, tgt, fJ) in out[n]) and all(
                fJ[asg[(src, r2)]] == t
                for (src, pre, fJ) in inc[n]
                for r2 in pre.get(r, ())
                if (src, r2) in asg
            ):
                break
            del asg[(n, r)]
        else:
            stack.pop()
            continue
        if injective:
            used.add((n, t))
        if len(stack) == len(order):
            yield asg
        else:
            stack.append(iter(candidates(*order[len(stack)])))


def iso_check(I: Instance, J: Instance) -> bool:
    """True iff a schema-preserving bijective natural transformation exists.

    Searched as an injective hom whose candidates are the joint color classes
    of partition refinement; equal row counts per node make it bijective.
    """
    if I.schema != J.schema:
        return False
    s = I.schema
    if any(len(I.rows[n]) != len(J.rows[n]) for n in s.nodes):
        return False
    cI, cJ = _refine([I, J])
    if Counter(cI.values()) != Counter(cJ.values()):
        return False
    classes: dict[int, list[str]] = {}
    for (_n, t), c in cJ.items():
        classes.setdefault(c, []).append(t)
    found = _homs(I, J, lambda n, r: classes[cI[(n, r)]], injective=True)
    return next(found, None) is not None


def enumerate_homs(I: Instance, J: Instance, limit: int = 1_000_000) -> int:
    """Number of natural transformations I -> J (exact attribute preservation)."""
    if I.schema != J.schema:
        raise SchemaError("enumerate_homs requires instances on the same schema")
    buckets: dict[tuple, list[str]] = {}
    for n in J.schema.nodes:
        for t in J.rows[n]:
            buckets.setdefault((n, J.attr_tuple(n, t)), []).append(t)
    count = 0
    for _ in _homs(I, J, lambda n, r: buckets.get((n, I.attr_tuple(n, r)), ())):
        count += 1
        if count > limit:
            raise LimitExceeded(f"more than {limit} homomorphisms")
    return count
