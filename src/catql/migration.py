"""The three adjoint data migrations: delta (pullback), sigma (left Kan
extension by chase/congruence closure), pi (right Kan extension by limits
over comma categories).

sigma and pi require the relevant hom-sets of the target schema to be
finite; enumeration refuses (raises) when it cannot certify that.
"""

from __future__ import annotations

from .core import (
    DEFAULT_BOUND,
    ConstPath,
    Mapping,
    Path,
    all_morphisms_from,
    normalize_path,
    path_compose,
    paths_equal,
    _path_key,
)
from .errors import InconsistencyError, NotSaturated, SchemaError, ValidationError
from .instances import Instance, LabelledNull, join, path_fn


def delta(F: Mapping, I: Instance) -> Instance:
    """Pullback migration: compose the instance with the mapping."""
    if I.schema != F.target:
        raise SchemaError("delta: instance is not on the mapping's target schema")
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
    return Instance(s, rows, edge_fn, attr_fn)


def _paths_between(T, a, bound):
    """target node -> tuple of normal-form paths from a; raises when not saturated."""
    by_target, saturated = all_morphisms_from(T, a, bound)
    if not saturated:
        raise NotSaturated(T.name, a, bound)
    return by_target


class _UnionFind:
    """Disjoint sets over hashable items; union keeps the first argument's root."""

    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        self.add(x)
        self.add(y)
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _gen_key(g):
    s, x, p = g
    return (s, x, _path_key(p))


def sigma(F: Mapping, I: Instance, bound: int = DEFAULT_BOUND) -> Instance:
    """Left Kan extension via a term model quotiented by congruence closure.

    Generators at target node t are (source node s, row x, path F(s) -> t).
    The congruence identifies (x, F(e);p) with (e(x), p) for each source edge e.
    Attributes take a constant carried by some generator, else a labelled null.
    """
    if I.schema != F.source:
        raise SchemaError("sigma: instance is not on the mapping's source schema")
    S, T = F.source, F.target
    paths_from = {n: _paths_between(T, F.nodes[n], bound) for n in sorted(S.nodes)}

    # generator universe, per target node
    gens: dict[str, list] = {t: [] for t in T.nodes}
    uf = _UnionFind()
    for s_node in sorted(S.nodes):
        for t, ps in paths_from[s_node].items():
            for p in ps:
                for x in I.rows[s_node]:
                    g = (s_node, x, p)
                    gens[t].append(g)
                    uf.add(g)

    for (ename, src, tgt) in sorted(S.edges):
        e_img = F.edges[(src, ename)]  # path F(src) -> F(tgt)
        fn = I.edge(src, ename)
        for _t, ps in paths_from[tgt].items():
            for p in ps:
                pre = normalize_path(T, path_compose(e_img, p), bound)
                for x in I.rows[src]:
                    g1 = (src, x, pre)
                    if g1 not in uf.parent:
                        raise ValidationError(
                            f"sigma: composite path {pre} left the enumerated path universe"
                        )
                    uf.union(g1, (tgt, fn[x], p))

    # classes per target node: (row id, members), ordered by the least member,
    # which names the class
    class_of = {}
    classes: dict[str, list] = {}
    for t in sorted(T.nodes):
        groups: dict = {}
        for g in gens[t]:
            groups.setdefault(uf.find(g), []).append(g)
        members_sorted = (sorted(ms, key=_gen_key) for ms in groups.values())
        classes[t] = [(_row_id(ms[0]), ms)
                      for ms in sorted(members_sorted, key=lambda ms: _gen_key(ms[0]))]
        for rid, members in classes[t]:
            for m in members:
                class_of[m] = rid

    rows = {t: [rid for rid, _ms in classes[t]] for t in T.nodes}

    edge_fn = {}
    for (gname, src, tgt) in sorted(T.edges):
        m = {}
        then_g: dict = {}  # p -> normal form of p.g
        for rid, members in classes[src]:
            images = set()
            for (s_node, x, p) in members:
                if p not in then_g:
                    then_g[p] = normalize_path(T, Path(p.source, p.steps + (gname,)), bound)
                q = then_g[p]
                img = class_of.get((s_node, x, q))
                if img is None:
                    raise ValidationError(
                        f"sigma: edge image {q} left the enumerated path universe"
                    )
                images.add(img)
            if len(images) != 1:
                raise ValidationError(
                    f"sigma: edge {gname!r} action is not well-defined "
                    f"(non-confluent target equations?)"
                )
            m[rid] = images.pop()
        edge_fn[(src, gname)] = m

    attr_fn = {}
    for (aname, src, _ty) in sorted(T.attributes):
        m = {}
        readers: dict = {}  # (s_node, p) -> source attribute dicts a with F(a) == p.aname
        for rid, members in classes[src]:
            candidates = []
            for (s_node, x, p) in members:
                if (s_node, p) not in readers:
                    composite = Path(p.source, p.steps, aname)
                    readers[(s_node, p)] = [
                        I.attr(s_node, sa)
                        for (sa, _saty) in S.node_attrs[s_node]
                        if not isinstance(F.attrs[(s_node, sa)], ConstPath)
                        and paths_equal(T, composite, F.attrs[(s_node, sa)], bound)
                    ]
                candidates.extend(fn[x] for fn in readers[(s_node, p)])
            distinct = []
            for c in candidates:
                if c not in distinct:
                    distinct.append(c)
            constants = [c for c in distinct if not isinstance(c, LabelledNull)]
            if len(constants) > 1:
                raise InconsistencyError(
                    f"sigma: attribute {aname!r} on class {rid!r} forced to both "
                    f"{constants[0]!r} and {constants[1]!r}"
                )
            if constants:
                m[rid] = constants[0]
            elif distinct:
                m[rid] = distinct[0]
            else:
                m[rid] = LabelledNull(f"sk!{src}!{aname}!{rid}")
        attr_fn[(src, aname)] = m

    return Instance(T, rows, edge_fn, attr_fn)


def _row_id(gen):
    s, x, p = gen
    return f"{s}:{x}:{p}"


def _same_row(r):
    return r


def pi(F: Mapping, I: Instance, bound: int = DEFAULT_BOUND) -> Instance:
    """Right Kan extension: rows at t are edge-compatible families over the
    comma category (t down F), one row per comma object.  The families are
    joined by `instances.join`, one equality per comma morphism.  Each joined
    family is then checked once: its attribute readings must agree and each
    attribute-valued equation of T must hold on it.  Last, a family with an
    edge image that was not kept is dropped, until nothing changes, which
    leaves the greatest set of checked families closed under edge images."""
    if I.schema != F.source:
        raise SchemaError("pi: instance is not on the mapping's source schema")
    S, T = F.source, F.target
    paths_from_t = {t: _paths_between(T, t, bound) for t in sorted(T.nodes)}

    # comma objects per target node: ordered list of (source node, path t -> F(s))
    comma: dict[str, list] = {}
    for t in sorted(T.nodes):
        objs = []
        for s_node in sorted(S.nodes):
            for q in paths_from_t[t].get(F.nodes[s_node], ()):
                objs.append((s_node, q))
        comma[t] = sorted(objs, key=lambda o: (o[0], _path_key(o[1])))

    def comma_constraints(t):
        """One join group per comma morphism induced by a source edge e:
        the row at (src, q) must reach the row at (tgt, q.F(e)) along e."""
        index = {o: i for i, o in enumerate(comma[t])}
        groups = []
        for (ename, src, tgt) in sorted(S.edges):
            e_img = F.edges[(src, ename)]
            fn = I.edge(src, ename).__getitem__
            for (s_node, q) in comma[t]:
                if s_node != src:
                    continue
                q2 = normalize_path(T, path_compose(q, e_img), bound)
                o2 = (tgt, q2)
                if o2 not in index:
                    raise ValidationError(
                        f"pi: comma path {q2} left the enumerated path universe"
                    )
                groups.append([((index[(s_node, q)], fn), (index[o2], _same_row))])
        return groups

    fam_sets = {
        t: set(join([I.rows[s_node] for (s_node, _q) in comma[t]], comma_constraints(t)))
        for t in sorted(T.nodes)
    }

    # attribute readings: for T-attribute A on t, via comma object (s, q) and
    # source attribute a with F(a) == q.A
    readings: dict[tuple[str, str], list] = {}
    for (aname, t, _ty) in T.attributes:
        target_attr = Path(t, (), aname)
        rds = []
        for i, (s_node, q) in enumerate(comma[t]):
            for (sa, _saty) in S.node_attrs[s_node]:
                img = F.attrs[(s_node, sa)]
                if isinstance(img, ConstPath):
                    continue
                if paths_equal(T, target_attr, path_compose(q, img), bound):
                    rds.append((i, s_node, sa))
        readings[(t, aname)] = rds

    def read_attr(t, fam, aname):
        """(ok, value or None): common reading, or conflict flag."""
        vals = []
        for (i, s_node, sa) in readings[(t, aname)]:
            v = I.attr(s_node, sa)[fam[i]]
            if v not in vals:
                vals.append(v)
        if len(vals) > 1:
            return False, None
        return True, (vals[0] if vals else None)

    t_et = T.edge_table

    image_slots: dict = {}  # (t, g) -> (target of g, slot of t per slot of the target)

    def edge_image(t, fam, gname):
        """Family at target of g obtained by precomposition with g."""
        if (t, gname) not in image_slots:
            t2 = t_et[(t, gname)]
            index_t = {o: i for i, o in enumerate(comma[t])}
            slots = []
            for (s_node, q2) in comma[t2]:
                q = normalize_path(T, Path(t, (gname,) + q2.steps), bound)
                j = index_t.get((s_node, q))
                if j is None:
                    raise ValidationError("pi: precomposed path left the path universe")
                slots.append(j)
            image_slots[(t, gname)] = (t2, slots)
        t2, slots = image_slots[(t, gname)]
        return t2, tuple([fam[j] for j in slots])

    # attribute-valued equations by start node; the sides of an equation
    # have one target, so it is attribute-valued when its lhs is
    attr_eqs: dict[str, list] = {t: [] for t in T.nodes}
    for eq in T.equations:
        if eq.lhs.attr is not None:
            attr_eqs[eq.lhs.source].append(eq)

    def attr_value(t, fam, p):
        """read_attr of the family that p's edges lead fam to, or p's constant."""
        if isinstance(p, ConstPath):
            return True, p.value
        for step in p.steps:
            t, fam = edge_image(t, fam, step)
        return read_attr(t, fam, p.attr)

    def holds(t, fam):
        """The readings on t agree and each attribute equation from t holds.
        Unread attributes become per-family nulls, so a null side matches
        only the same unread-null side."""
        if not all(read_attr(t, fam, aname)[0] for (aname, _ty) in T.node_attrs[t]):
            return False
        for eq in attr_eqs[t]:
            lok, lval = attr_value(t, fam, eq.lhs)
            rok, rval = attr_value(t, fam, eq.rhs)
            if not (lok and rok):
                return False
            if lval is None or rval is None:
                if not (lval is None and rval is None and eq.lhs == eq.rhs):
                    return False
            elif lval != rval:
                return False
        return True

    def images_kept(t, fam):
        """Whether every edge image of fam is a kept family."""
        for (gname, _tgt) in T.out_edges[t]:
            t2, img = edge_image(t, fam, gname)
            if img not in fam_sets[t2]:
                return False
        return True

    # check each family once, then drop families with an edge image not kept
    for t in sorted(T.nodes):
        fam_sets[t] = {fam for fam in fam_sets[t] if holds(t, fam)}
    changed = True
    while changed:
        changed = False
        for t in sorted(T.nodes):
            drop = {fam for fam in fam_sets[t] if not images_kept(t, fam)}
            if drop:
                fam_sets[t] -= drop
                changed = True

    # materialize
    fam_list = {t: sorted(fam_sets[t]) for t in T.nodes}
    fam_id = {}
    for t in sorted(T.nodes):
        for i, fam in enumerate(fam_list[t]):
            fam_id[(t, fam)] = f"pi{i}_{t}"
    rows = {t: [fam_id[(t, fam)] for fam in fam_list[t]] for t in T.nodes}
    edge_fn = {}
    for (gname, src, _tgt) in T.edges:
        edge_fn[(src, gname)] = {}
        for fam in fam_list[src]:
            t2, img = edge_image(src, fam, gname)
            edge_fn[(src, gname)][fam_id[(src, fam)]] = fam_id[(t2, img)]
    attr_fn = {}
    for (aname, src, _ty) in T.attributes:
        attr_fn[(src, aname)] = {}
        for fam in fam_list[src]:
            rid = fam_id[(src, fam)]
            _ok, v = read_attr(src, fam, aname)
            if v is None:
                v = LabelledNull(f"pi!{src}!{aname}!{rid}")
            attr_fn[(src, aname)][rid] = v
    return Instance(T, rows, edge_fn, attr_fn)
