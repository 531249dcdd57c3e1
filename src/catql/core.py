"""Schemas as finitely presented categories: paths, equations, mappings.

A schema is a directed multigraph (nodes, edges) with typed attributes and
equations between paths.  Path equality is decided by Knuth-Bendix
completion, once per schema: the equations, oriented longer side to shorter
side (ties broken lexicographically), are completed to a convergent
rewriting system, so each path rewrites to the one least path of its class.

The tables derived from a schema (edge and attribute lookups, each node's
sorted out-edges and attributes, the node order of instance row numbering,
the completed rewrite rules, the morphism enumerations) are owned by the
schema object: each is built on first use, once, and freed with the schema.
There is no global cache.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import NormalizationInconclusive, NotSaturated, SchemaError, ValidationError

BASE_TYPES = ("string", "integer")

DEFAULT_BOUND = 4096  # completion's work limit: rules made, critical pairs checked, letters rewritten


class _table:
    """A table derived from an object, built on first read and kept in the
    object's __dict__: functools.cached_property without the lock that
    Python 3.11 takes on each first read, which costs as much as building a
    small table."""

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        table = obj.__dict__[self.name] = self.build(obj)
        return table


@dataclass(frozen=True)
class Path:
    """A node-valued or attribute-valued path: edge steps, optional attribute terminal.

    The parser's paths are raw: every step is in `steps` and `attr` is None,
    since only a schema tells whether the last step is an attribute
    (`scripts.resolve_path`).  A query term is a raw path whose source is a
    variable.
    """

    source: str
    steps: tuple[str, ...] = ()
    attr: Optional[str] = None

    def __init__(self, source, steps=(), attr=None):
        """The fields, set without object.__setattr__, and the hash, kept: paths key dicts."""
        d = self.__dict__
        d["source"], d["steps"], d["attr"], d["_hash"] = source, steps, attr, hash((source, steps, attr))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # a str hash differs from process to process
        return Path, (self.source, self.steps, self.attr)

    def is_node_valued(self):
        return self.attr is None

    def __str__(self):
        parts = [self.source, *self.steps]
        if self.attr is not None:
            parts.append(self.attr)
        return ".".join(parts)


@dataclass(frozen=True)
class ConstPath:
    """A constant attribute path: evaluates to the same literal on every row."""

    value: Union[str, int]

    def __str__(self):
        if isinstance(self.value, str):
            return '"%s"' % self.value.replace("\\", "\\\\").replace('"', '\\"')
        return str(self.value)


PathLike = Union[Path, ConstPath]


@dataclass(frozen=True)
class PathEquation:
    lhs: Path
    rhs: PathLike

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class Schema:
    """A finitely presented category with typed attributes.

    edges: set of (name, source node, target node).
    attributes: set of (name, source node, base type).

    The derived tables below are built lazily, once per schema object; they
    are not fields, so they take no part in ==, hash or repr.
    """

    name: str
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str, str]]
    attributes: frozenset[tuple[str, str, str]] = frozenset()
    equations: tuple[PathEquation, ...] = ()
    # all_morphisms_from results, keyed by node
    _morphisms: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @_table
    def edge_table(self) -> dict[tuple[str, str], str]:
        """(source node, edge name) -> target node."""
        return {(src, name): tgt for (name, src, tgt) in self.edges}

    @_table
    def attr_table(self) -> dict[tuple[str, str], str]:
        """(source node, attribute name) -> base type."""
        return {(src, name): ty for (name, src, ty) in self.attributes}

    @_table
    def out_edges(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """node -> sorted (edge name, target) pairs out of it; nodes sorted."""
        return _by_source(self.nodes, self.edges)

    @_table
    def topo_order(self) -> tuple[str, ...]:
        """Nodes in topological order over the non-loop edges, ties broken by
        name, then, sorted, the nodes that a cycle keeps out of that order.

        `instances` numbers rows in this order, and the hom search branches
        on the lowest-numbered row that nothing reaches, so the rows an edge
        leads to come after the rows whose images force theirs.
        """
        indegree = dict.fromkeys(self.nodes, 0)
        for (_name, src, tgt) in self.edges:
            if src != tgt:
                indegree[tgt] += 1
        ready = sorted(n for n, d in indegree.items() if d == 0)  # a sorted list is a heap
        order = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for (_name, tgt) in self.out_edges[n]:
                if tgt != n:
                    indegree[tgt] -= 1
                    if not indegree[tgt]:
                        heapq.heappush(ready, tgt)
        return (*order, *sorted(self.nodes.difference(order)))

    @_table
    def settle_order(self) -> tuple[str, ...]:
        """The nodes that no cycle reaches (a self-loop is a cycle), each
        after the targets of its edges, ties broken by name.

        A node settles once every target of its edges has settled, so the
        list grows to a fixpoint from the nodes without out-edges.
        `instances._refine` colors the rows of these nodes in this order, in
        one pass.  The tail of `topo_order` is sorted by name, so its reverse
        is not such an order.
        """
        waiting = {n: {tgt for (_name, tgt) in self.out_edges[n]} for n in self.nodes}
        sources: dict[str, set[str]] = {n: set() for n in self.nodes}
        for (_name, src, tgt) in self.edges:
            sources[tgt].add(src)
        ready = sorted(n for n, ts in waiting.items() if not ts)  # a sorted list is a heap
        order = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for src in sources[n]:
                waiting[src].discard(n)
                if not waiting[src]:
                    heapq.heappush(ready, src)
        return tuple(order)

    @_table
    def node_attrs(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """node -> sorted (attribute name, base type) pairs on it; nodes sorted."""
        return _by_source(self.nodes, self.attributes)

    @_table
    def _completion(self):
        """`_complete`'s rules, or the NormalizationInconclusive it raised."""
        try:
            return _complete(self)
        except NormalizationInconclusive as exc:
            return exc

    @property
    def rewrite_rules(self) -> dict[str, list]:
        """The equations completed to a convergent rewriting system, as
        last letter -> [(source node, left word, right word or ConstPath)].

        A word is a path's steps, with its attribute last when it has one
        (see `_complete`).  Raises NormalizationInconclusive when completion
        runs out of work, the same one each time: completion runs once.
        """
        rules = self._completion
        if isinstance(rules, NormalizationInconclusive):
            raise rules.with_traceback(None)
        return rules


def _by_source(nodes, triples):
    by = {n: [] for n in sorted(nodes)}
    for (name, src, x) in sorted(triples):  # so each node's pairs are sorted; a source not a node is dropped
        by.get(src, []).append((name, x))
    return {n: tuple(pairs) for n, pairs in by.items()}


def make_schema(name, nodes, edges, attributes=(), equations=()) -> Schema:
    s = Schema(
        name=name,
        nodes=frozenset(nodes),
        edges=frozenset(tuple(e) for e in edges),
        attributes=frozenset(tuple(a) for a in attributes),
        equations=tuple(equations),
    )
    validate_schema(s)
    return s


def identity_path(node: str) -> Path:
    return Path(node)


def _walk_path(s: Schema, source: str, steps, where) -> tuple[list[str], Optional[str]]:
    """Follow dotted steps from source against the schema's tables.

    Returns the node at each position reached by edge steps, and the
    attribute the last step names when it is not an edge (else None).  Any
    other unknown step raises SchemaError naming the path `where`.
    """
    et = s.edge_table
    nodes = [source]
    for i, step in enumerate(steps):
        key = (nodes[-1], step)
        if key in et:
            nodes.append(et[key])
        elif key in s.attr_table and i == len(steps) - 1:
            return nodes, step
        else:
            raise SchemaError(
                f"unknown edge or attribute {step!r} on node {nodes[-1]!r} in {where}"
            )
    return nodes, None


def nodes_along(s: Schema, p: Path) -> list[str]:
    """Node at each position of the path, including source and final node."""
    nodes, attr = _walk_path(s, p.source, p.steps, p)
    if attr is not None:
        raise SchemaError(f"step {attr!r} of path {p} is an attribute, not an edge")
    return nodes


def path_target(s: Schema, p: PathLike):
    """('node', n) for node-valued paths, ('attr', base type) for attribute-valued."""
    if isinstance(p, ConstPath):
        return ("attr", "string" if isinstance(p.value, str) else "integer")
    if p.source not in s.nodes:
        raise SchemaError(f"path source {p.source!r} is not a node of {s.name!r}")
    end = nodes_along(s, p)[-1]
    if p.attr is None:
        return ("node", end)
    key = (end, p.attr)
    if key not in s.attr_table:
        raise SchemaError(f"no attribute {p.attr!r} on node {end!r} in path {p}")
    return ("attr", s.attr_table[key])


def path_compose(p: Path, q: PathLike) -> PathLike:
    """Concatenate paths.  p must be node-valued; identities are units."""
    if not isinstance(p, Path) or not p.is_node_valued():
        raise SchemaError(f"cannot compose out of attribute-valued path {p}")
    if isinstance(q, ConstPath):
        return q
    return Path(p.source, p.steps + q.steps, q.attr)


def _letters(p: Path) -> tuple[str, ...]:
    """p as a word: its steps, then its attribute when it has one."""
    return p.steps if p.attr is None else (*p.steps, p.attr)


def _completed(rules, w, nodes):
    """The rule whose left side the word's last letter completes, if any."""
    for r in rules.get(w[-1], ()):
        n = len(r[1])
        if n <= len(w) and nodes[-1 - n] == r[0] and tuple(w[-n:]) == r[1]:
            return r
    return None


def _rewrite(s: Schema, rules, src, w, read=None):
    """The normal form of a word, or the constant a rule sends it to.

    Letters move one at a time onto an irreducible prefix; when a move
    completes a left side (as a suffix, anchored at its node), the left side
    is replaced by the right one, whose letters are read next.  read, when
    given, is called for each letter read.
    """
    et = s.edge_table
    out, nodes = [], [src]
    todo = list(reversed(w))
    while todo:
        x = todo.pop()
        if read is not None:
            read()
        out.append(x)
        nodes.append(et.get((nodes[-1], x)))
        r = _completed(rules, out, nodes)
        if r is not None:
            if isinstance(r[2], ConstPath):
                return r[2]
            del out[-len(r[1]):], nodes[-len(r[1]):]
            todo.extend(reversed(r[2]))
    return tuple(out)


def _critical_pairs(s: Schema, r1, r2) -> list:
    """The pairs of words, or a word and a constant, that r1 and r2 rewrite
    a word to where a proper suffix of r1's left side is a proper prefix of
    r2's, at r2's node.  r1's right side is a word there: a constant's left
    side ends in an attribute, which nothing follows."""
    (src, l1, rhs1), (src2, l2, rhs2) = r1, r2
    nodes = _walk_path(s, src, l1, l1)[0]
    return [(rhs1 + l2[k:], rhs2 if isinstance(rhs2, ConstPath) else l1[:-k] + rhs2)
            for k in range(1, min(len(l1), len(l2)))
            if nodes[len(l1) - k] == src2 and l1[-k:] == l2[:k]]


def _complete(s: Schema) -> dict[str, list]:
    """Knuth-Bendix completion of the equations on node-anchored words,
    under the length-lex order.

    The equations, then the critical pairs (the two sides that two rules
    rewrite a word to where their left sides overlap), first in first out,
    are rewritten to normal forms, and two different ones become a rule
    from the larger to the smaller (a constant is the least).  Rules the
    new rule reduces are inter-reduced, so at most one rule completes at a
    letter.  Two different constants make no rule; their path normalizes to
    the one the rules reach.  Work is rules made, critical pairs checked and
    letters rewritten; past DEFAULT_BOUND, NormalizationInconclusive says
    how far it got.
    """
    rules: dict[str, list] = {}  # last letter -> [(source node, left word, right side)]
    work = {"rules": 0, "pairs": 0, "letters": 0}

    def spend(kind):
        work[kind] += 1
        if sum(work.values()) > DEFAULT_BOUND:
            raise NormalizationInconclusive(s.name, DEFAULT_BOUND, **work)

    def reduce(src, x):
        return x if isinstance(x, ConstPath) else _rewrite(s, rules, src, x, lambda: spend("letters"))

    pending = deque((eq.lhs.source, _letters(eq.lhs), eq.rhs if isinstance(eq.rhs, ConstPath)
                     else _letters(eq.rhs)) for eq in s.equations)
    while pending:
        src, u, v = pending.popleft()
        u, v = reduce(src, u), reduce(src, v)
        if u == v or isinstance(u, ConstPath) and isinstance(v, ConstPath):
            continue
        if isinstance(u, ConstPath) or not isinstance(v, ConstPath) and (len(u), u) < (len(v), v):
            u, v = v, u
        new = (src, u, v)
        spend("rules")
        rules.setdefault(u[-1], []).append(new)
        only_new = {u[-1]: [new]}
        for rs in rules.values():
            for i in reversed(range(len(rs))):
                a, lhs, rhs = rs[i]
                if rs[i] is new:
                    continue
                if _rewrite(s, only_new, a, lhs) != lhs:
                    pending.append(rs.pop(i))
                elif not isinstance(rhs, ConstPath) and _rewrite(s, only_new, a, rhs) != rhs:
                    rs[i] = (a, lhs, reduce(a, rhs))
        for r in [r for rs in rules.values() for r in rs]:
            for (a, pair) in [(src, p) for p in _critical_pairs(s, new, r)] + (
                    [(r[0], p) for p in _critical_pairs(s, r, new)] if r is not new else []):
                spend("pairs")
                pending.append((a, *pair))
    return rules


def normalize_path(s: Schema, p: PathLike) -> PathLike:
    """The length-lex least path in p's class, or the constant it equals."""
    if isinstance(p, ConstPath):
        return p
    path_target(s, p)  # well-formedness
    return _normal_form(s, p)


def _normal_form(s: Schema, p: Path) -> PathLike:
    """normalize_path of a path known to be well formed: no walk to check it."""
    rules, w = s.rewrite_rules, _letters(p)
    if rules.keys().isdisjoint(w):  # no letter ends a left side: nothing rewrites
        return p
    w = _rewrite(s, rules, p.source, w)
    if isinstance(w, ConstPath):
        return w
    return Path(p.source, w) if p.attr is None else Path(p.source, w[:-1], w[-1])


def paths_equal(s: Schema, p: PathLike, q: PathLike) -> bool:
    """Whether p and q are equal in the schema: equal normal forms."""
    return normalize_path(s, p) == normalize_path(s, q)


def all_morphisms_from(s: Schema, a: str) -> dict[str, tuple[Path, ...]]:
    """target -> the normal forms of the paths from a to it, length-lex.

    The irreducible paths are closed under prefixes: each extends by every
    edge that completes no left side.  That depends only on a path's last W
    steps and their node (W one less than the longest left side), so these
    states are searched first, depth first in out_edges order: an edge back
    to a state on the current path repeats without end, and raises
    NotSaturated.  Otherwise the paths are listed by length, until a length
    adds none.  A node in settle_order reaches no cycle, so it skips the
    search.  The result is kept on the schema.
    """
    found = s._morphisms.get(a)
    if found is not None:
        return found
    if a not in s.nodes:
        raise SchemaError(f"{a!r} is not a node of schema {s.name!r}")
    rules = s.rewrite_rules
    width = max((len(lhs) for rs in rules.values() for (_src, lhs, _rhs) in rs), default=1) - 1
    on_path = {(a, ()): None}  # the states along the current path -> the step into each
    seen = set(on_path)
    # a state's steps, their nodes, edges left
    stack = [] if not s.out_edges[a] or a in s.settle_order else [((), (a,), iter(s.out_edges[a]))]
    while stack:
        w, nodes, edges = stack[-1]
        for (e, tgt) in edges:
            w2, nodes2 = w + (e,), nodes + (tgt,)
            if _completed(rules, w2, nodes2):
                continue
            k = max(len(w2) - width, 0)
            state = (nodes2[k], w2[k:])
            if state in on_path:
                raise NotSaturated(s.name, a, Path(a, (*on_path.values(), e)[1:]), Path(*state))
            if state not in seen:
                seen.add(state)
                on_path[state] = e
                stack.append((state[1], nodes2[k:], iter(s.out_edges[tgt])))
                break
        else:
            stack.pop()
            on_path.popitem()
    by_target: dict[str, list[Path]] = {a: [Path(a)]}
    frontier = [((), (a,))]  # word, its nodes
    while frontier:
        longer = []
        for (w, nodes) in frontier:
            for (e, tgt) in s.out_edges[nodes[-1]]:
                w2, nodes2 = w + (e,), nodes + (tgt,)
                if not _completed(rules, w2, nodes2):
                    longer.append((w2, nodes2))
                    by_target.setdefault(tgt, []).append(Path(a, w2))
        frontier = longer
    found = s._morphisms[a] = {t: tuple(ps) for t, ps in by_target.items()}
    return found


def enumerate_morphisms(s: Schema, a: str, b: str) -> tuple[Path, ...]:
    """Normal forms of all paths a -> b; raises NotSaturated when there are infinitely many."""
    if b not in s.nodes:
        raise SchemaError(f"{b!r} is not a node of schema {s.name!r}")
    return all_morphisms_from(s, a).get(b, ())


def validate_schema(s: Schema):
    # each kind of fault in sorted order: the error names the first, whatever the hash seed
    edges, attributes = sorted(s.edges), sorted(s.attributes)
    for (name, src, tgt) in edges:
        if src not in s.nodes or tgt not in s.nodes:
            raise SchemaError(f"edge {name!r}: endpoint not a node of {s.name!r}")
    for (name, src, ty) in attributes:
        if src not in s.nodes:
            raise SchemaError(f"attribute {name!r}: source not a node of {s.name!r}")
        if ty not in BASE_TYPES:
            raise SchemaError(f"attribute {name!r}: unknown base type {ty!r}")
    # edge and attribute names unique per source node
    seen: set[tuple[str, str]] = set()
    for (name, src, _) in edges + attributes:
        if (src, name) in seen:
            raise SchemaError(f"duplicate edge/attribute name {name!r} on node {src!r}")
        seen.add((src, name))
    for eq in s.equations:
        if not isinstance(eq.lhs, Path):
            raise SchemaError(f"equation left side must be a path: {eq}")
        lt = path_target(s, eq.lhs)
        rt = path_target(s, eq.rhs)
        if isinstance(eq.rhs, Path) and eq.lhs.source != eq.rhs.source:
            raise SchemaError(f"equation sides start at different nodes: {eq}")
        if lt != rt:
            raise SchemaError(f"equation sides have different targets: {eq}")


@dataclass
class Mapping:
    """A functor between schemas.

    edges: (source node, edge name) -> node-valued target path.
    attrs: (source node, attribute name) -> attribute-valued target path or constant.
    """

    source: Schema
    target: Schema
    nodes: dict[str, str]
    edges: dict[tuple[str, str], Path] = field(default_factory=dict)
    attrs: dict[tuple[str, str], PathLike] = field(default_factory=dict)


def apply_mapping(F: Mapping, p: PathLike) -> PathLike:
    """Translate a source-schema path to the target schema."""
    if isinstance(p, ConstPath):
        return p
    cur = p.source
    out = identity_path(F.nodes[cur])
    et = F.source.edge_table
    for step in p.steps:
        img = F.edges[(cur, step)]
        out = path_compose(out, img)
        cur = et[(cur, step)]
    if p.attr is not None:
        img = F.attrs[(cur, p.attr)]
        out = path_compose(out, img)
    return out


def validate_mapping(F: Mapping):
    """Check functoriality (endpoints, attribute types, equations) in sorted order."""
    s, t = F.source, F.target
    for n in s.out_edges:  # its keys are the nodes, sorted
        if F.nodes.get(n) not in t.nodes:
            raise ValidationError(f"node {n!r} has no valid image under mapping")
    for src, name, tgt in ((src, name, tgt) for src, out in s.out_edges.items() for name, tgt in out):
        img = F.edges.get((src, name))
        if img is None:
            raise ValidationError(f"edge {name!r} on {src!r} has no image")
        kind, end = path_target(t, img)
        if kind != "node" or img.source != F.nodes[src] or end != F.nodes[tgt]:
            raise ValidationError(
                f"edge {name!r}: image {img} does not run {F.nodes[src]!r} -> {F.nodes[tgt]!r}"
            )
    for src, name, ty in ((src, name, ty) for src, attrs in s.node_attrs.items() for name, ty in attrs):
        img = F.attrs.get((src, name))
        if img is None:
            raise ValidationError(f"attribute {name!r} on {src!r} has no image")
        kind, ity = path_target(t, img)
        if kind != "attr" or ity != ty:
            raise ValidationError(
                f"attribute {name!r}: image {img} is not {ty}-valued from {F.nodes[src]!r}"
            )
        if isinstance(img, Path) and img.source != F.nodes[src]:
            raise ValidationError(f"attribute {name!r}: image starts at wrong node")
    for eq in s.equations:
        li = apply_mapping(F, eq.lhs)
        ri = apply_mapping(F, eq.rhs)
        if not paths_equal(t, li, ri):
            raise ValidationError(f"equation not preserved by mapping: {eq}")


def identity_mapping(s: Schema) -> Mapping:
    return Mapping(
        source=s,
        target=s,
        nodes={n: n for n in s.nodes},
        edges={(src, name): Path(src, (name,)) for (name, src, _t) in s.edges},
        attrs={(src, name): Path(src, (), name) for (name, src, _ty) in s.attributes},
    )


def compose_mappings(F: Mapping, G: Mapping) -> Mapping:
    """Pointwise composite G . F of mappings F: S->T and G: T->U."""
    if F.target != G.source:
        raise SchemaError("mappings do not compose: target/source schema mismatch")
    return Mapping(
        source=F.source,
        target=G.target,
        nodes={n: G.nodes[m] for n, m in F.nodes.items()},
        edges={k: apply_mapping(G, p) for k, p in F.edges.items()},
        attrs={k: apply_mapping(G, p) for k, p in F.attrs.items()},
    )
