"""Schemas as finitely presented categories: paths, equations, mappings.

A schema is a directed multigraph (nodes, edges) with typed attributes and
equations between paths.  Path equality is decided by oriented rewriting
(longer side to shorter side, ties broken lexicographically) explored to a
fixpoint within a configurable step bound.

The tables derived from a schema (edge and attribute lookups, each node's
sorted out-edges and attributes, the node order of instance row numbering,
the oriented rewrite rules, the morphism enumerations) are owned by the
schema object: each is built on first use, once, and freed with the schema.
There is no global cache.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .errors import NormalizationInconclusive, NotSaturated, SchemaError, ValidationError

BASE_TYPES = ("string", "integer")

DEFAULT_BOUND = 512


@dataclass(frozen=True)
class Path:
    """A node-valued or attribute-valued path: edge steps, optional attribute terminal."""

    source: str
    steps: tuple[str, ...] = ()
    attr: Optional[str] = None

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
            return '"%s"' % self.value
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
    # all_morphisms_from results, keyed by (node, bound)
    _morphisms: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def edge_table(self) -> dict[tuple[str, str], str]:
        """(source node, edge name) -> target node."""
        return {(src, name): tgt for (name, src, tgt) in self.edges}

    @cached_property
    def attr_table(self) -> dict[tuple[str, str], str]:
        """(source node, attribute name) -> base type."""
        return {(src, name): ty for (name, src, ty) in self.attributes}

    @cached_property
    def out_edges(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """node -> sorted (edge name, target) pairs out of it."""
        return _by_source(self.nodes, self.edges)

    @cached_property
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

    @cached_property
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

    @cached_property
    def node_attrs(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """node -> sorted (attribute name, base type) pairs on it."""
        return _by_source(self.nodes, self.attributes)

    @cached_property
    def rewrite_rules(self):
        """Equations oriented larger -> smaller under the length-lex order.

        Each rule is (source node, lhs steps, lhs attr, rhs) where rhs is a
        Path or ConstPath starting at the same node.
        """
        rules = []
        for eq in self.equations:
            lhs, rhs = eq.lhs, eq.rhs
            kl, kr = _path_key(lhs), _path_key(rhs)
            if kl == kr:
                continue
            if kl < kr:
                if isinstance(rhs, ConstPath):
                    raise SchemaError(
                        f"constant equation must have the constant as smaller side: {eq}"
                    )
                lhs, rhs = rhs, lhs
            rules.append((lhs.source, lhs.steps, lhs.attr, rhs))
        return tuple(rules)


def _by_source(nodes, triples):
    return {n: tuple(sorted((name, x) for (name, src, x) in triples if src == n)) for n in nodes}


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


def _word_key(steps, attr):
    return (1, len(steps) + (attr is not None), steps, attr or "")


def _path_key(p: PathLike):
    if isinstance(p, ConstPath):
        kind = "string" if isinstance(p.value, str) else "integer"
        return (0, 0, (kind, str(p.value)), "")
    return _word_key(p.steps, p.attr)


def _one_step_reducts(s: Schema, p: Path, rules):
    nodes = nodes_along(s, p)
    out = []
    for (src, lsteps, lattr, rhs) in rules:
        n = len(lsteps)
        if lattr is not None:
            # attribute-valued rule: matches only the suffix ending in the attribute
            if p.attr != lattr or len(p.steps) < n:
                continue
            pos = len(p.steps) - n
            if nodes[pos] != src or p.steps[pos:] != lsteps:
                continue
            if isinstance(rhs, ConstPath):
                out.append(rhs)
            else:
                out.append(Path(p.source, p.steps[:pos] + rhs.steps, rhs.attr))
        else:
            for pos in range(len(p.steps) - n + 1):
                if nodes[pos] == src and p.steps[pos : pos + n] == lsteps:
                    assert isinstance(rhs, Path)
                    out.append(
                        Path(p.source, p.steps[:pos] + rhs.steps + p.steps[pos + n :], p.attr)
                    )
    return out


def normalize_path(s: Schema, p: PathLike, bound: int = DEFAULT_BOUND) -> PathLike:
    """Length-lex least path reachable by oriented rewriting, or the constant it reduces to."""
    if isinstance(p, ConstPath):
        return p
    path_target(s, p)  # well-formedness
    rules = s.rewrite_rules
    if not rules:
        return p
    steps_used = 0
    normal_forms = []
    memo: dict[PathLike, None] = {}
    stack = [p]
    while stack:
        cur = stack.pop()
        if cur in memo:
            continue
        memo[cur] = None
        if isinstance(cur, ConstPath):
            normal_forms.append(cur)
            continue
        reducts = _one_step_reducts(s, cur, rules)
        if not reducts:
            normal_forms.append(cur)
            continue
        steps_used += len(reducts)
        if steps_used > bound:
            raise NormalizationInconclusive(p, bound)
        stack.extend(reducts)
    return min(normal_forms, key=_path_key)


def paths_equal(s: Schema, p: PathLike, q: PathLike, bound: int = DEFAULT_BOUND) -> bool:
    """Sound path-equality test: equal normal forms.  Complete when rewriting converges."""
    return normalize_path(s, p, bound) == normalize_path(s, q, bound)


def all_morphisms_from(s: Schema, a: str, bound: int = DEFAULT_BOUND):
    """All node-valued path classes out of a, as (dict target -> tuple of normal forms, saturated).

    BFS over path length; a length adds a class when its normal form is new.
    Saturated iff the last two lengths added nothing.  The result is kept on
    the schema, per (a, bound).
    """
    found = s._morphisms.get((a, bound))
    if found is not None:
        return found
    if a not in s.nodes:
        raise SchemaError(f"{a!r} is not a node of schema {s.name!r}")
    start = normalize_path(s, identity_path(a), bound)
    assert isinstance(start, Path)
    seen = {start}
    frontier = [start]
    zero_rounds = 0
    saturated = False
    for _ in range(bound):
        new = []
        for p in frontier:
            end = nodes_along(s, p)[-1]
            for (ename, _tgt) in s.out_edges[end]:
                q = normalize_path(s, Path(a, p.steps + (ename,)), bound)
                if isinstance(q, Path) and q not in seen:
                    seen.add(q)
                    new.append(q)
        zero_rounds = zero_rounds + 1 if not new else 0
        frontier = new
        if zero_rounds >= 2:
            saturated = True
            break
    by_target: dict[str, list[Path]] = {}
    for p in seen:
        by_target.setdefault(nodes_along(s, p)[-1], []).append(p)
    found = s._morphisms[(a, bound)] = (
        {t: tuple(sorted(ps, key=_path_key)) for t, ps in by_target.items()},
        saturated,
    )
    return found


def enumerate_morphisms(s: Schema, a: str, b: str, bound: int = DEFAULT_BOUND) -> tuple[Path, ...]:
    """Normal forms of all paths a -> b; raises NotSaturated on (potentially) infinite hom-sets."""
    if b not in s.nodes:
        raise SchemaError(f"{b!r} is not a node of schema {s.name!r}")
    by_target, saturated = all_morphisms_from(s, a, bound)
    if not saturated:
        raise NotSaturated(s.name, a, bound)
    return by_target.get(b, ())


def validate_schema(s: Schema):
    for (name, src, tgt) in s.edges:
        if src not in s.nodes or tgt not in s.nodes:
            raise SchemaError(f"edge {name!r}: endpoint not a node of {s.name!r}")
    for (name, src, ty) in s.attributes:
        if src not in s.nodes:
            raise SchemaError(f"attribute {name!r}: source not a node of {s.name!r}")
        if ty not in BASE_TYPES:
            raise SchemaError(f"attribute {name!r}: unknown base type {ty!r}")
    # edge and attribute names unique per source node
    seen: set[tuple[str, str]] = set()
    for (name, src, _) in list(s.edges) + list(s.attributes):
        if (src, name) in seen:
            raise SchemaError(f"duplicate edge/attribute name {name!r} on node {src!r}")
        seen.add((src, name))
    for eq in s.equations:
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


def validate_mapping(F: Mapping, bound: int = DEFAULT_BOUND):
    """Check functoriality: endpoints, attribute types, and equation preservation."""
    s, t = F.source, F.target
    for n in s.nodes:
        if F.nodes.get(n) not in t.nodes:
            raise ValidationError(f"node {n!r} has no valid image under mapping")
    for (name, src, tgt) in s.edges:
        img = F.edges.get((src, name))
        if img is None:
            raise ValidationError(f"edge {name!r} on {src!r} has no image")
        kind, end = path_target(t, img)
        if kind != "node" or img.source != F.nodes[src] or end != F.nodes[tgt]:
            raise ValidationError(
                f"edge {name!r}: image {img} does not run {F.nodes[src]!r} -> {F.nodes[tgt]!r}"
            )
    at = s.attr_table
    for (name, src, ty) in s.attributes:
        img = F.attrs.get((src, name))
        if img is None:
            raise ValidationError(f"attribute {name!r} on {src!r} has no image")
        kind, ity = path_target(t, img)
        if kind != "attr" or ity != at[(src, name)]:
            raise ValidationError(
                f"attribute {name!r}: image {img} is not {ty}-valued from {F.nodes[src]!r}"
            )
        if isinstance(img, Path) and img.source != F.nodes[src]:
            raise ValidationError(f"attribute {name!r}: image starts at wrong node")
    for eq in s.equations:
        li = apply_mapping(F, eq.lhs)
        ri = apply_mapping(F, eq.rhs)
        if not paths_equal(t, li, ri, bound):
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
