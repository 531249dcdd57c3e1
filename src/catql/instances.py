"""Instances as set-valued functors with typed attributes.

Rows are opaque string ids scoped to one node of one instance.  Attribute
values are strings, integers, or labelled nulls (equal only to the same
label).  Union is disjoint union followed by relationalization, the quotient
by observational equivalence; `union` takes that quotient of the two
instances' rows directly, without building the disjoint union.

One join planner (`join`) enumerates the row tuples that satisfy a set of
equalities; direct queries, pi's families, relation composition and
enrichment all run through it.  It decides each alternative on one variable
by C-level column passes over that variable's rows, and a disjunction across
variables by a bitmask per row, once per pair of row classes at a product;
it splits a disjunction into joins only for an alternative on two variables
that no clause connects.  One partition refinement (`_refine`) colors
the rows of one or more instances jointly, in two phases.  The rows of the
nodes that no cycle reaches (`Schema.settle_order`) are colored in one
bottom-up pass, each by its attribute tuple and the colors of its edge
images.  The other rows start from their attribute tuple and the colors of
their images in those nodes, and a Hopcroft-style worklist over integer row
indices refines them along the edges between them: it splits only the
blocks that a splitter's preimage hits, so it runs in O(m log n) for m edge
entries over n rows.  On a schema without cycles that worklist is empty.
One quotient (`_quotient`) reads relationalize and union off the colors,
from one representative row per class, and iso_check compares the color
classes of two instances.  When one side of a union extends the other, only
that side is refined, and it adds only its own rows to the quotient; an
enrichment step builds such an extension with `extend`, which copies only
the functions that gain entries and validates only the new rows.  One
forced-image search (`_homs`) enumerates natural transformations: an
assignment fixes the images of its row's edge targets, which are followed
along the edges and undone from a trail, and the search branches only on
rows that no assignment reaches.  enumerate_homs counts the
transformations that keep each row's attribute tuple on each connected
component of I, found by the one union-find (`_UnionFind`), and multiplies
the counts; its limit bounds one component's count.  iso_check answers
True at once when the row counts agree and J extends I by union's check
(`_extends`), since then J is I; a reimport that keeps every row id is such
a pair.  Any other pair is refined, and its colors are searched all at once
for an injective hom that keeps each row's color, since injectivity links
the components.  _refine, enumerate_homs and iso_check read the tables that
an instance builds once, on first use (`row_start`, `row_keys`,
`row_images`).  No instance is edited once it is built, so outputs share
their inputs' dicts: relationalize returns its input when no two rows
merge, and `migration.delta` passes through the dict of an edge or
attribute whose image is one step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, groupby, islice, repeat
from operator import eq, itemgetter, or_, truth
from typing import Union

from .core import ConstPath, Schema, _table
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

    It keeps the edge and attribute dicts it is given, without a copy, and
    is never edited.  Its tables number its rows by node in
    `Schema.topo_order`, then in row order, and are built on first use.
    """

    def __init__(self, schema: Schema, rows, edge_fn, attr_fn):
        self.schema = schema
        self.rows = {n: tuple(sorted(rows.get(n, ()))) for n in schema.nodes}
        self.edge_fn = edge_fn
        self.attr_fn = attr_fn

    @_table
    def row_start(self) -> dict[str, int]:
        """node -> the index of its first row."""
        start, k = {}, 0
        for n in self.schema.topo_order:
            start[n] = k
            k += len(self.rows[n])
        return start

    @_table
    def row_keys(self) -> list[tuple]:
        """Per row index, the row's (node, attribute tuple)."""
        rows, node_attrs = self.rows, self.schema.node_attrs
        keys: list[tuple] = []
        for n in self.schema.topo_order:
            if node_attrs[n]:
                cols = [map(self.attr(n, a).__getitem__, rows[n]) for (a, _ty) in node_attrs[n]]
                keys.extend(zip(repeat(n), zip(*cols)))
            else:
                keys += [(n, ())] * len(rows[n])
        return keys

    @_table
    def row_images(self) -> list[tuple[int, ...]]:
        """Per row index, the indices of the row's images under its node's
        out-edges, in `Schema.out_edges` order."""
        rows, out, start = self.rows, self.schema.out_edges, self.row_start
        at = {}  # edge target node -> {row: row index}
        images: list[tuple[int, ...]] = []
        for n in start:
            cols = []
            for (e, tgt) in out[n]:
                if tgt not in at:
                    at[tgt] = dict(zip(rows[tgt], count(start[tgt])))
                cols.append(map(at[tgt].__getitem__, map(self.edge(n, e).__getitem__, rows[n])))
            images.extend(zip(*cols) if cols else repeat((), len(rows[n])))
        return images

    def node_rows(self, node):
        return self.rows[node]

    def edge(self, node, name):
        return self.edge_fn.get((node, name), {})

    def attr(self, node, name):
        return self.attr_fn.get((node, name), {})

    def total_rows(self):
        return sum(len(r) for r in self.rows.values())


def empty_instance(schema: Schema) -> Instance:
    return Instance(schema, {}, {}, {})


def same_row(r):
    """The term function of a row's own id: `path_fn` of a path with no
    steps and no attribute."""
    return r


def path_fn(I: Instance, p):
    """The row -> value function of path p on I.

    The edge and attribute dicts along p are fetched once, here, so applying
    the result to a row is a chain of dict lookups.  A ConstPath gives its
    value for every row, and a path with no steps and no attribute is
    `same_row`.
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
    if not chain:
        return same_row
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


def _holds(alternatives, rows):
    """Whether some alternative holds, per row of a sequence of one
    variable's rows, lazily.  An alternative is (term, other), the term on
    that variable and other a constant or another term on it.  Each
    alternative between two terms is one column pass, and the constants
    compared with one term function are one frozenset pass."""
    cols, constants = [], {}
    for ((_v, f), other) in alternatives:
        if isinstance(other, tuple):
            cols.append(map(eq, map(f, rows), map(other[1], rows)))
        else:
            constants.setdefault(f, []).append(other)
    for f, cs in constants.items():
        cols.append(map(frozenset(cs).__contains__, map(f, rows)))
    return cols[0] if len(cols) == 1 else map(any, zip(*cols))


def join(domains, groups) -> list[tuple]:
    """Every choice of one row per domain that satisfies every group.

    domains holds one sequence of distinct rows per variable, and variables
    are their indices.  A group is a sequence of alternatives (lhs, rhs),
    each an equality between two terms, and holds when one of them does.  A
    term is (var, fn), the value fn(row) of var's row, or a constant: any
    value that is not a tuple.  An alternative on constants alone holds
    always or never, so it drops its group or itself.

    Every alternative on one variable is decided by column passes over that
    variable's rows (`_holds`): one C-level pass per alternative between
    two terms, and one frozenset pass per term function for the constants
    that it is compared with.  So a group on one variable alone filters its
    rows at the scan.
    A hash clause, a group of one alternative on two variables, links them.
    Every group on two or more variables gets a bit, and each row of a
    variable gets a mask: the bits of the groups whose alternatives on that
    variable hold on it.  The plan binds next an
    unbound variable linked to a bound one, preferring one with a scan
    filter, then the fewest rows left by the scan, then declared order; only
    when no unbound variable is linked does it take the one with the fewest
    rows, so it never builds a product that a clause could have joined.
    The first hash clause to a bound variable becomes a hash join, which
    indexes only the new rows whose key is probed.  Every other group is decided
    at the step that binds its last variable: it holds on an assignment iff
    one of its alternatives on two variables holds, each one column pass
    over the assignments, or the OR of its rows' masks has its bit.  Where
    that step is a product, the assignments are grouped by the bits of the
    groups that hold on them already and the new rows by their masks (their
    classes), each pair of classes is decided once, and only the pairs that
    hold are expanded: the step costs its assignments, classes x classes
    and its output, never a product filtered row by row.

    A group with an alternative on two variables that no hash clause
    connects, directly or through others, would be decided after a product
    of them, so it is split: the result is the union of one join per such
    alternative, which takes the group's place as a hash clause, and one
    join with the group's other alternatives in its place, if any.  An
    alternative on two connected variables is checked on the assignments.
    Each hash branch connects two parts of the link graph, so a path of
    splits takes at most n - 1 of them for n variables, and k split groups
    of at most a such alternatives make at most (a*k + 1)^(n - 1) joins:
    polynomial in the groups, exponential only in the variables.

    Each satisfying assignment is returned once, as a tuple of rows in
    declared variable order.  The list is ordered by the rows' positions in
    their domains, taken in ascending order of domain size, ties in declared
    order; it is sorted only when the plan binds in another order, or after
    a union.
    """
    n = len(domains)
    documented = sorted(range(n), key=lambda v: (len(domains[v]), v))

    def in_documented_order(assignments: list):
        ranks = [({r: i for i, r in enumerate(domains[v])}, v) for v in documented]
        assignments.sort(key=lambda a: [rank[a[v]] for (rank, v) in ranks])
        return assignments

    # per group: its index, its alternatives on one variable by that
    # variable (the term on it first), and its alternatives on two
    by_arity, mixed = [], False
    for k, g in enumerate(groups):
        one: dict[int, list] = {}
        two = []
        for (lhs, rhs) in g:
            lv = lhs[0] if isinstance(lhs, tuple) else None
            rv = rhs[0] if isinstance(rhs, tuple) else None
            if lv is None and rv is None:
                if lhs == rhs:
                    break  # the group holds always
            elif lv is None:
                one.setdefault(rv, []).append((rhs, lhs))
            elif rv is None or lv == rv:
                one.setdefault(lv, []).append((lhs, rhs))
            else:
                two.append((lhs, rhs))
        else:
            if not one and not two:
                return []
            by_arity.append((k, one, two))
            if two and (one or len(two) > 1):  # an alternative on two variables, in no hash clause
                mixed = True
    if mixed:
        linked = _UnionFind(range(n))
        for (_k, one, two) in by_arity:
            if not one and len(two) == 1:
                ((lhs, rhs),) = two
                linked.union(lhs[0], rhs[0])
        for (k, one, two) in by_arity:
            apart, rest = [], [alt for alts in one.values() for alt in alts]
            for (lhs, rhs) in two:
                (apart if linked.find(lhs[0]) != linked.find(rhs[0]) else rest).append((lhs, rhs))
            if apart:
                branches = [[alt] for alt in apart] + ([rest] if rest else [])
                found = {a: None for alts in branches
                         for a in join(domains, [*groups[:k], alts, *groups[k + 1:]])}
                return in_documented_order(list(found))

    scan: dict[int, list] = {}  # variable -> the groups on it alone
    on_var: dict[int, list] = {}  # variable -> (bit, its alternatives on it) per other group
    links = [set() for _ in range(n)]  # per variable, the variables it hashes to
    pending = []  # per other group: (its variables, bit, alternatives on two variables, is a hash clause)
    for (_k, one, two) in by_arity:
        if not two and len(one) == 1:
            ((v, alts),) = one.items()
            scan.setdefault(v, []).append(alts)
            continue
        bit = 1 << len(pending)
        for v, alts in one.items():
            on_var.setdefault(v, []).append((bit, alts))
        vs = set(one)
        for (lhs, rhs) in two:
            vs |= {lhs[0], rhs[0]}
        clause = not one and len(two) == 1
        pending.append((vs, bit, two, clause))
        if clause:  # a term has one variable, so vs is a pair
            v, w = vs
            links[v].add(w)
            links[w].add(v)
    rows = list(domains)
    for v, filters in scan.items():
        for alts in filters:  # each filter keeps the rows' order
            rows[v] = list(compress(rows[v], _holds(alts, rows[v])))
    mask: dict[int, dict] = {}  # variable -> {row: its mask}
    carries = [0] * n  # per variable, the bits that its masks may hold
    for v, entries in on_var.items():
        col = [0] * len(rows[v])
        for bit, alts in entries:
            col = list(map(or_, col, map(bit.__mul__, _holds(alts, rows[v]))))
            carries[v] |= bit
        mask[v] = dict(zip(rows[v], col))

    order: list[int] = []
    pos: dict[int, int] = {}  # variable -> its position in binding order

    def column(term, assignments):
        """The term's value on each assignment, lazily."""
        return map(term[1], map(itemgetter(pos[term[0]]), assignments))

    def group_holds(group, assignments, bound):
        """Per assignment, whether the group holds on its rows of the bound
        variables, lazily: by its alternatives on two of them, and by the
        bit in those rows' masks."""
        _vs, bit, two, _clause = group
        cols = [map(eq, column(lhs, assignments), column(rhs, assignments)) for (lhs, rhs) in two]
        cols += [map(bit.__and__, column((u, mask[u].__getitem__), assignments))
                 for u in bound if carries[u] & bit]
        return cols[0] if len(cols) == 1 else map(any, zip(*cols))

    assignments = [()]
    while len(order) < n:
        unbound = [v for v in range(n) if v not in pos]
        connected = [v for v in unbound if not links[v].isdisjoint(pos)]
        if connected:
            v = min(connected, key=lambda v: (v not in scan, len(rows[v]), v))
        else:
            v = min(unbound, key=lambda v: (len(rows[v]), v))
        pos[v] = len(order)
        order.append(v)
        ready = [p for p in pending if p[0].issubset(pos)]
        pending = [p for p in pending if not p[0].issubset(pos)]
        # every ready group is on v and a bound variable; the first hash
        # clause joins, and the others are checked
        hashed = next((p for p in ready if p[3]), None)
        checks = [p for p in ready if p is not hashed]
        if hashed is not None:
            ((lhs, rhs),) = hashed[2]
            if lhs[0] != v:
                lhs, rhs = rhs, lhs
            # only the rows whose key is probed are indexed
            probes = list(column(rhs, assignments))
            index: dict = {p: [] for p in probes}
            keys = list(map(lhs[1], rows[v]))
            hit = list(map(index.__contains__, keys))
            for r, key in zip(compress(rows[v], hit), compress(keys, hit)):
                index[key].append(r)
            assignments = [a + (r,) for a, p in zip(assignments, probes) for r in index[p]]
            if checks:
                cols = [group_holds(p, assignments, order) for p in checks]
                assignments = list(compress(assignments, cols[0] if len(cols) == 1 else map(all, zip(*cols))))
        elif checks:
            # a product: no ready group has an alternative on v and a bound
            # variable, since no clause connects them, so each has its bit
            # in v's masks; an assignment's class is the bits of the groups
            # that hold on it already
            bits, need = [0] * len(assignments), 0
            for p in checks:
                held = map(truth, group_holds(p, assignments, order[:-1]))
                bits = list(map(or_, bits, map(p[1].__mul__, held)))
                need |= p[1]
            rv = rows[v]
            classes: dict[int, list[int]] = {}  # bits -> the positions of v's rows with them
            for i, b in enumerate(map(need.__and__, map(mask[v].__getitem__, rv))):
                classes.setdefault(b, []).append(i)
            fits = {}  # an assignment class -> the rows of v that complete it, in row order
            for b in dict.fromkeys(bits):
                parts = [i for c, i in classes.items() if b | c == need]
                fits[b] = rv if len(parts) == len(classes) else list(
                    map(rv.__getitem__, sorted(chain.from_iterable(parts))))
            assignments = [a + (r,) for a, b in zip(assignments, bits) for r in fits[b]]
        else:
            assignments = [a + (r,) for a in assignments for r in rows[v]]
        if not assignments:
            return []
    if order != sorted(order):
        assignments = list(map(itemgetter(*(pos[v] for v in range(n))), assignments))
    # assignments come out ordered by the rows' positions taken in binding order
    return assignments if order == documented else in_documented_order(assignments)


# the classes whose values an attribute of each base type accepts outright
_VALUE_CLASSES = {
    "string": frozenset({str, LabelledNull}),
    "integer": frozenset({int, LabelledNull}),
}


def validate_instance(I: Instance):
    """Distinct row ids, totality of edge/attribute functions, typing, and
    pointwise equations."""
    _check_rows(I, I.rows, I.edge_fn, I.attr_fn)


def _check_rows(I: Instance, rows, edge_fn, attr_fn):
    """validate_instance's checks on some rows of I, {node: sorted ids}, with
    their edge and attribute entries, {(node, name): {row: value}}; the other
    rows of I must be valid already."""
    s = I.schema
    # in the schema's sorted table order: the error names the first fault, whatever the hash seed
    for n in s.out_edges:  # its keys are the nodes, sorted
        rs = I.rows[n]
        if rows.get(n) and len(set(rs)) != len(rs):
            for r, nxt in zip(rs, rs[1:]):  # rows are sorted, so a repeat is adjacent
                if r == nxt:
                    raise ValidationError(f"row {r!r} is listed more than once at node {n!r}")
    # each column is checked whole; only a column that fails is walked row by
    # row, to name its first bad entry
    for src, name, tgt in ((src, name, tgt) for src, out in s.out_edges.items() for name, tgt in out):
        fn = edge_fn.get((src, name), {})
        if fn.keys() != set(rows.get(src, ())):
            raise ValidationError(
                f"edge {name!r} on {src!r} is not total on the declared row set"
            )
        targets = set(I.rows[tgt])
        if targets.issuperset(fn.values()):
            continue
        for r, v in fn.items():
            if v not in targets:
                raise ValidationError(
                    f"edge {name!r} sends row {r!r} to dangling target {v!r}"
                )
    for src, name, ty in ((src, name, ty) for src, attrs in s.node_attrs.items() for name, ty in attrs):
        fn = attr_fn.get((src, name), {})
        if fn.keys() != set(rows.get(src, ())):
            raise ValidationError(
                f"attribute {name!r} on {src!r} is not total on the declared row set"
            )
        if _VALUE_CLASSES.get(ty, frozenset()).issuperset(map(type, fn.values())):
            continue
        for r, v in fn.items():
            if not isinstance(v, LabelledNull) and value_type(v) != ty:
                raise ValidationError(
                    f"attribute {name!r}: row {r!r} has {value_type(v)} value, expected {ty}"
                )
    for eq in s.equations:
        lhs, rhs = path_fn(I, eq.lhs), path_fn(I, eq.rhs)
        for r in rows.get(eq.lhs.source, ()):
            lv = lhs(r)
            rv = rhs(r)
            if lv != rv:
                raise ValidationError(
                    f"equation {eq} violated at node {eq.lhs.source!r}, row {r!r}: "
                    f"{lv!r} != {rv!r}"
                )


def extend(I: Instance, rows, edge_fn, attr_fn) -> Instance:
    """I with new rows, {node: ids}, and their edge and attribute entries,
    {(node, name): {row: value}}.  I is not edited: each function that gains
    entries is a fresh copy of I's, and the others are shared.

    Only the new rows are validated, as validate_instance validates all: an
    id already used at its node is listed twice, and the equations are
    checked on the new rows alone, since I is closed under its edges.
    """
    s = I.schema
    merged = [{**old, **{key: {**old.get(key, {}), **entries} for key, entries in new.items()}}
              for old, new in ((I.edge_fn, edge_fn), (I.attr_fn, attr_fn))]
    out = Instance(s, {n: I.rows[n] + tuple(rows.get(n, ())) for n in s.nodes}, *merged)
    _check_rows(out, {n: sorted(rs) for n, rs in rows.items()}, edge_fn, attr_fn)
    return out


def disjoint_union(I: Instance, J: Instance) -> Instance:
    """Rows of I tagged "L.", rows of J tagged "R."."""
    s = I.schema
    if J.schema != s:
        raise SchemaError("disjoint_union requires instances on the same schema")
    tagged = [("L", I), ("R", J)]
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


def _refine(instances) -> list[int]:
    """Joint coarsest stable partition of the rows of instances on one schema.

    The rows are numbered consecutively: by instance, then as each instance
    numbers its own (`Instance.row_start`).  Returns the color of each row
    index, an integer.  Two rows, of the same or of different instances,
    share a color iff every attribute-valued path agrees on them.

    The coloring has two phases.  First, the rows of the nodes that no cycle
    reaches are colored in one pass in `Schema.settle_order`: a row's color
    labels its (node, attribute values, colors of its edge images), and those
    images are colored already.  This is the well-founded case of Dovier,
    Piazza and Policriti (2004), and no block of these rows is ever split.
    Every other row starts in the block of its (node, attribute tuple,
    colors of its images in settled nodes).  Second, a worklist refinement in
    the manner of Hopcroft (1971) and Paige-Tarjan (1987) splits these blocks
    by the preimage of a splitter block under each edge between two unsettled
    nodes: only the blocks that the preimage hits are touched, and of each
    split the smaller half gets a new block and is queued.  At the start
    every block but the largest of each node is queued.  On a schema without
    cycles the worklist is empty.
    """
    s = instances[0].schema
    settled = set(s.settle_order)
    loose = [n for n in s.topo_order if n not in settled]
    bases = list(accumulate((inst.total_rows() for inst in instances), initial=0))
    color = [0] * bases.pop()  # each instance's rows follow the earlier instances' rows
    initial: dict = {}  # (node, *attribute values, *settled image colors) -> color
    labels = count()  # a key's color is the label drawn with its first row
    led_to = {tgt for (_e, _src, tgt) in s.edges}
    for inst, base in zip(instances, bases):
        color_of = {}  # settled edge target -> {row: color}
        for n in (*s.settle_order, *loose):
            rows = inst.rows[n]
            if not rows:  # then no row has an edge into n
                continue
            cols = [map(inst.attr(n, a).__getitem__, rows) for (a, _ty) in s.node_attrs[n]]
            cols += [map(color_of[tgt].__getitem__, map(inst.edge(n, e).__getitem__, rows))
                     for (e, tgt) in s.out_edges[n] if tgt in settled]
            seg = list(map(initial.setdefault, zip(repeat(n, len(rows)), *cols), labels))
            lo = base + inst.row_start[n]
            color[lo:lo + len(rows)] = seg
            if n in settled and n in led_to:
                color_of[n] = dict(zip(rows, seg))
    into: dict[str, list[dict]] = {n: [] for n in loose}  # preimage tables of edges into n
    for (e, src, tgt) in sorted(s.edges):
        if tgt in settled:  # then src is settled or its key holds the image colors
            continue
        j = s.out_edges[src].index((e, tgt))
        pre: dict[int, list[int]] = {}
        for inst, base in zip(instances, bases):
            lo, images = inst.row_start[src], inst.row_images
            for x in range(lo, lo + len(inst.rows[src])):
                pre.setdefault(base + images[x][j], []).append(base + x)
        into[tgt].append(pre)
    if not any(into.values()):  # no edge joins two unsettled nodes, so no block splits
        return color
    dense = dict(zip(initial.values(), count()))  # renumbered 0, 1, ... in key order
    color = list(map(dense.__getitem__, color))
    by_color = sorted(range(len(color)), key=color.__getitem__)
    members = [set(xs) for _c, xs in groupby(by_color, color.__getitem__)]
    node_of = [key[0] for key in initial]  # per initial block
    preimages = [into.get(n, ()) for n in node_of]  # per block, those into its node
    largest: dict[str, int] = {}
    for c, n in enumerate(node_of):
        if len(members[c]) > len(members[largest.setdefault(n, c)]):
            largest[n] = c
    work = [c for c, n in enumerate(node_of) if preimages[c] and largest[n] != c]
    while work:
        b = work.pop()
        splitter = tuple(members[b])
        for pre in preimages[b]:
            touched: dict[int, list[int]] = {}
            for t in splitter:
                for x in pre.get(t, ()):
                    touched.setdefault(color[x], []).append(x)
            for c, xs in touched.items():
                block = members[c]
                if len(xs) == len(block):
                    continue
                if 2 * len(xs) > len(block):
                    xs = block.difference(xs)
                block.difference_update(xs)
                # the moved half is queued: it is the smaller, and if c is
                # still queued both halves are
                new = len(members)
                members.append(set(xs))
                preimages.append(preimages[c])
                for x in xs:
                    color[x] = new
                work.append(new)
    return color


def _quotient(instances, parts, color) -> Instance:
    """One row per class of color, `_refine(instances)`, named from parts.

    A part is (k, prefix, node -> sorted rows of instances[k]).  A class is
    named prefix + r by the first part that holds one of its rows, r its
    least row there, and that row represents it: edges and attributes are
    read from the representatives alone.  So a part needs to list no row
    whose class an earlier part holds.  The instance and its tables are
    new, even where no two rows merge.
    """
    s = instances[0].schema
    color = iter(color)  # in _refine's numbering
    # zip stops at a node's last row, before it takes a color of the next
    colors = [{n: dict(zip(inst.rows[n], color)) for n in s.topo_order} for inst in instances]
    name: dict[int, str] = {}  # color -> the row id of its class
    rows_out: dict[str, list[str]] = {n: [] for n in s.nodes}
    reps = []  # (instance, its node -> {row: color}, node, representatives, their ids)
    for i, (k, prefix, rows_of) in enumerate(parts):
        inst, color_of = instances[k], colors[k]
        for n in s.topo_order:
            rows = rows_of[n]
            if not rows:
                continue
            least: dict = {}  # color -> its least row here, in row order
            deque(map(least.setdefault, map(color_of[n].__getitem__, rows), rows), 0)
            if i:  # the first part names every class it holds
                least = {c: r for c, r in least.items() if c not in name}
            firsts = list(least.values())
            ids = list(map(prefix.__add__, firsts))
            name.update(zip(least, ids))
            rows_out[n] += ids
            reps.append((inst, color_of, n, firsts, ids))
    edge_fn: dict = {(src, e): {} for (e, src, _tgt) in s.edges}
    attr_fn: dict = {(src, a): {} for (a, src, _ty) in s.attributes}
    for (inst, color_of, n, firsts, ids) in reps:
        for (e, tgt) in s.out_edges[n]:
            images = map(color_of[tgt].__getitem__, map(inst.edge(n, e).__getitem__, firsts))
            edge_fn[(n, e)].update(zip(ids, map(name.__getitem__, images)))
        for (a, _ty) in s.node_attrs[n]:
            attr_fn[(n, a)].update(zip(ids, map(inst.attr(n, a).__getitem__, firsts)))
    return Instance(s, rows_out, edge_fn, attr_fn)


def relationalize(I: Instance) -> Instance:
    """Quotient by observational equivalence.

    Rows merge iff every attribute-valued path agrees on them, which is when
    `_refine` gives them one color; each class keeps its smallest row id.
    When every row has its own color, each class is one row and keeps its
    id, so the quotient is I itself, and I is returned: its tables are
    shared, never copied.
    """
    color = _refine([I])
    if len(set(color)) == len(color):
        return I
    return _quotient([I], [(0, "", I.rows)], color)


def _extends(J: Instance, I: Instance) -> bool:
    """Whether J extends I: I's rows are rows of J, and J's edges and
    attributes agree with I's on them.  A node with an edge or attribute is
    compared by its functions, whose keys are its rows; a node without, by
    its rows.  union reads which side is the larger; iso_check calls it
    with equal row counts per node, where J extends I iff J is I."""
    s = I.schema
    for n in s.nodes:
        fns = [(I.edge(n, e), J.edge(n, e)) for (e, _tgt) in s.out_edges[n]]
        fns += [(I.attr(n, a), J.attr(n, a)) for (a, _ty) in s.node_attrs[n]]
        if not fns:
            if not set(J.rows[n]).issuperset(I.rows[n]):
                return False
        elif not all(fJ.items() >= fI.items() for (fI, fJ) in fns):
            return False
    return True


def union(I: Instance, J: Instance) -> Instance:
    """The disjoint union of I and J, relationalized, in one quotient: a
    class keeps its least id among its rows "L.r" of I and "R.r" of J.

    When one side extends the other, only that larger side is refined.
    Observational equivalence is intrinsic and the smaller side is closed
    under its edges, so each of its rows takes the color of its namesake,
    and the partition is the same.  Then every class that holds a row of I
    is named by it, and the J side lists only the rows of J outside I.
    """
    if J.schema != I.schema:
        raise SchemaError("union requires instances on the same schema")
    big = J if _extends(J, I) else I if _extends(I, J) else None
    if big is None:
        return _quotient([I, J], [(0, "L.", I.rows), (1, "R.", J.rows)], _refine([I, J]))
    # a node where J has no more rows than I has none outside I
    outside = {n: sorted(set(J.rows[n]).difference(I.rows[n]))
               if len(J.rows[n]) > len(I.rows[n]) else () for n in I.schema.nodes}
    return _quotient([big], [(0, "L.", I.rows), (0, "R.", outside)], _refine([big]))


class _UnionFind:
    """Disjoint sets over hashable items; union keeps the first argument's root."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        self.parent.setdefault(x, x)
        self.parent.setdefault(y, y)
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _candidates(key_J) -> dict:
    """key -> the indices of the rows with that key, in ascending order."""
    candidates: dict = {}
    for t, k in enumerate(key_J):
        candidates.setdefault(k, []).append(t)
    return candidates


def _homs(key_I, key_J, succ_I, succ_J, candidates, injective: bool = False):
    """The search for natural transformations I -> J.

    Rows are numbered on each side as `Instance.row_start` numbers them.
    key_I and key_J hold one key per row, never shared by rows of two
    nodes, and succ_I and succ_J the rows' edge images.  A row may map only
    to the rows of J that have its key, its candidates (from
    `_candidates(key_J)`), and every row of I has one.  search(rows), for
    ascending I row indices closed under I's edges, yields each assignment
    of those rows in one list of J row indices over all I rows.

    The search is a forced-image backtracking search without recursion.
    Assigning row a to t forces each out-edge image e(a) to e(t); a worklist
    follows these forced images and records every assignment on a trail.  A
    forced image fails when its row already has another image, when its key
    differs from the row's, or, with injective, when another row already has
    it.  The search takes the lowest-numbered given row that no assignment
    has reached; so the rows an edge leads to come after the rows that force
    them.  A row with one candidate is assigned it outright, and any other
    opens a level that branches over its candidates.  Backtracking pops the
    trail back to the level's mark.  Each call first undoes the last one's
    assignments.  The yielded list is live: copy it to keep it.
    """
    img = [-1] * len(key_I)  # I row index -> J row index, -1 while unassigned
    used = [False] * len(key_J)  # with injective: J rows that are some row's image
    trail: list[int] = []  # the assigned I rows, in assignment order

    def undo(mark):
        """Unassign the rows assigned since the trail had length mark."""
        for b in trail[mark:]:
            used[img[b]] = False
            img[b] = -1
        del trail[mark:]

    def place(a, t):
        """Assign a to t and follow the images that forces; on a conflict,
        undo them all and return False."""
        mark = len(trail)
        work = [(a, t)]
        while work:
            a, t = work.pop()
            u = img[a]
            if u < 0 and key_I[a] == key_J[t] and not used[t]:
                img[a] = t
                trail.append(a)
                if injective:
                    used[t] = True
                work.extend(zip(succ_I[a], succ_J[t]))
            elif u != t:
                undo(mark)
                return False
        return True

    def search(rows):
        undo(0)
        stack = []  # per level: (position in rows, candidate iterator, trail mark)
        p, end = 0, len(rows)
        while True:
            while p < end and img[rows[p]] >= 0:
                p += 1
            if p == end:
                yield img
            else:
                ts = candidates[key_I[rows[p]]]
                if len(ts) > 1:
                    stack.append((p, iter(ts), len(trail)))
                elif place(rows[p], ts[0]):  # a row with one candidate is forced to it
                    continue
            while stack:
                p, ts, mark = stack[-1]
                undo(mark)
                for t in ts:
                    if place(rows[p], t):
                        break
                else:
                    stack.pop()
                    continue
                break
            else:
                return

    return search


def iso_check(I: Instance, J: Instance) -> bool:
    """True iff a schema-preserving bijective natural transformation exists.

    With the schema and each node's row count equal, J extending I
    (`_extends`) means that J is I, so the identity is an isomorphism, and
    the answer is True before any refinement.  Otherwise the joint colors of
    partition refinement must agree in count, and a search decides: an
    injective hom keyed by the colors, over all rows at once, since
    injectivity links the components; equal row counts per node make it
    bijective.
    """
    if I.schema != J.schema:
        return False
    if any(len(I.rows[n]) != len(J.rows[n]) for n in I.schema.nodes):
        return False
    if _extends(J, I):
        return True
    color = _refine([I, J])
    split = I.total_rows()  # I's rows are numbered first
    cI, cJ = color[:split], color[split:]
    if sorted(cI) != sorted(cJ):
        return False
    search = _homs(cI, cJ, I.row_images, J.row_images, _candidates(cJ), injective=True)
    return next(search(list(range(split))), None) is not None


def enumerate_homs(I: Instance, J: Instance, limit: int = 1_000_000) -> int:
    """Number of natural transformations I -> J (exact attribute preservation).

    The product of the counts of I's connected components, found by one
    union-find over its edges; a row without edges counts its candidates,
    and any other component is searched over its rows alone.  LimitExceeded
    means some component has more than limit homs and none has none; a
    negative limit raises ValueError.
    """
    if limit < 0:
        raise ValueError(f"enumerate_homs: limit must be 0 or more, not {limit}")
    if I.schema != J.schema:
        raise SchemaError("enumerate_homs requires instances on the same schema")
    key_I, key_J = I.row_keys, J.row_keys
    candidates = _candidates(key_J)
    if not candidates.keys() >= set(key_I):
        return 0  # some row has no candidate
    succ_I, search = I.row_images, None
    uf = _UnionFind(range(len(key_I)))
    for a, bs in enumerate(succ_I):
        for b in bs:
            uf.union(a, b)
    parts: dict[int, list[int]] = {}
    for a in range(len(key_I)):
        parts.setdefault(uf.find(a), []).append(a)
    total, exceeded = 1, False
    for rows in parts.values():
        if len(rows) == 1 and not succ_I[rows[0]]:
            count = len(candidates[key_I[rows[0]]])
        else:  # once a component is over the limit, the others need only one hom
            search = search or _homs(key_I, key_J, succ_I, J.row_images, candidates)
            count = sum(1 for _ in islice(search(rows), 1 if exceeded else limit + 1))
        if count == 0:
            return 0
        total *= count
        exceeded |= count > limit
    if exceeded:
        raise LimitExceeded(f"more than {limit} homomorphisms on one connected component")
    return total
