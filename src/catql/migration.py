"""The three adjoint data migrations: delta (pullback), sigma (left Kan
extension by chase/congruence closure), pi (right Kan extension by limits
over comma categories).

sigma and pi require the relevant hom-sets of the target schema to be
finite; enumeration raises NotSaturated when one is infinite.
"""

from __future__ import annotations

from .core import (
    ConstPath,
    Mapping,
    Path,
    all_morphisms_from,
    nodes_along,
    normalize_path,
    path_compose,
)
from .errors import InconsistencyError, SchemaError
from .instances import Instance, LabelledNull, _UnionFind, join, path_fn


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


def sigma(F: Mapping, I: Instance) -> Instance:
    """Left Kan extension via a term model quotiented by congruence closure.

    A generator at target node t is a row x of a source node s with a path
    p: F(s) -> t, and (s, p) is its family.  Generators are numbered family
    by family, so generator k of family f is the integer first[f] + k for
    the row x at index k of s.  The congruence identifies (x, F(e);p) with
    (e(x), p) for each source edge e; it is closed by one union-find over
    the integers.  Listed by source node, then row, then path key, the
    generators give the classes in least-member order, each with its members
    sorted, and the least member names the class.  The congruence respects
    the edges of T, so a class's edge images are those of its least member.
    Attributes take a constant carried by some generator, else a labelled
    null.
    """
    if I.schema != F.source:
        raise SchemaError("sigma: instance is not on the mapping's source schema")
    S, T = F.source, F.target
    paths_from = {n: all_morphisms_from(T, F.nodes[n]) for n in sorted(S.nodes)}

    # families, numbered source node by source node; the generators of
    # family f are first[f] .. first[f] + len(rows of its source node) - 1
    fams: list[tuple[str, Path]] = []
    fam_at: dict = {}  # (s_node, p) -> family
    first: list[int] = []
    gen_fam: list[int] = []  # generator -> its family
    at_target: dict[str, dict] = {t: {} for t in T.nodes}  # t -> s_node -> families, sorted
    for s_node in sorted(S.nodes):
        n_rows = len(I.rows[s_node])
        for t, ps in paths_from[s_node].items():
            for p in ps:  # in path-key order
                f = len(fams)
                fam_at[(s_node, p)] = f
                at_target[t].setdefault(s_node, []).append(f)
                fams.append((s_node, p))
                first.append(len(gen_fam))
                gen_fam.extend([f] * n_rows)
    fam_str = [str(p) for (_s, p) in fams]
    uf = _UnionFind(range(len(gen_fam)))

    for (ename, src, tgt) in sorted(S.edges):
        e_img = F.edges[(src, ename)]  # path F(src) -> F(tgt)
        index = {r: k for k, r in enumerate(I.rows[tgt])}
        targets = [index[y] for y in map(I.edge(src, ename).__getitem__, I.rows[src])]
        for _t, ps in paths_from[tgt].items():
            for p in ps:
                pre = normalize_path(T, path_compose(e_img, p))
                a, b = first[fam_at[(src, pre)]], first[fam_at[(tgt, p)]]
                for k, k2 in enumerate(targets):
                    uf.union(a + k, b + k2)

    # classes per target node: (row id, members), ordered by the least member
    class_of: list = [None] * len(gen_fam)  # generator -> row id of its class
    classes: dict[str, list] = {}
    for t in sorted(T.nodes):
        groups: dict = {}
        for s_node, fs in at_target[t].items():
            for k in range(len(I.rows[s_node])):
                for f in fs:
                    g = first[f] + k
                    groups.setdefault(uf.find(g), []).append(g)
        classes[t] = []
        for members in groups.values():
            f = gen_fam[members[0]]
            s_node = fams[f][0]
            rid = f"{s_node}:{I.rows[s_node][members[0] - first[f]]}:{fam_str[f]}"
            classes[t].append((rid, members))
            for g in members:
                class_of[g] = rid

    rows = {t: [rid for rid, _ms in classes[t]] for t in T.nodes}

    edge_fn = {}
    for (gname, src, tgt) in sorted(T.edges):
        m = edge_fn[(src, gname)] = {}
        for rid, members in classes[src]:
            g = members[0]
            f = gen_fam[g]
            s_node, p = fams[f]
            f2 = fam_at[(s_node, normalize_path(T, Path(p.source, p.steps + (gname,))))]
            m[rid] = class_of[first[f2] + g - first[f]]

    # (s_node, source attribute) -> normal form of its image
    image_nf = {key: normalize_path(T, img) for key, img in F.attrs.items()}

    attr_fn = {}
    for (aname, src, _ty) in sorted(T.attributes):
        m = {}
        readers: dict = {}  # family (s, p) -> (rows of s, attribute dicts a with F(a) == p.aname)
        for rid, members in classes[src]:
            distinct = []  # the members' values, first occurrences in member order
            for g in members:
                f = gen_fam[g]
                if f not in readers:
                    s_node, p = fams[f]
                    names = [sa for (sa, _saty) in S.node_attrs[s_node]
                             if not isinstance(F.attrs[(s_node, sa)], ConstPath)]
                    if names:
                        nf = normalize_path(T, Path(p.source, p.steps, aname))
                        names = [sa for sa in names if image_nf[(s_node, sa)] == nf]
                    readers[f] = (I.rows[s_node], [I.attr(s_node, sa) for sa in names])
                fam_rows, cols = readers[f]
                for col in cols:
                    v = col[fam_rows[g - first[f]]]
                    if v not in distinct:
                        distinct.append(v)
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


def _same_row(r):
    return r


def pi(F: Mapping, I: Instance) -> Instance:
    """Right Kan extension: rows at t are edge-compatible families over the
    comma category (t down F), one row per comma object, computed as one
    select-project-join per target node.

    A family at t has one slot per comma object (s, q) of t.  A path p from
    t ends at a node whose slots are slots of t: its (s, q) is t's (s, p.q).
    A T-attribute A on t is read at comma object (s, q) by each source
    attribute a with q.F(a) and t.A of one normal form; a reading is a join
    term on a slot.  `instances.join` gets one equality per comma morphism,
    one per extra reading of an attribute (all readings must agree), and
    every attribute equation from t, its sides read on t's slots along their
    paths: a read attribute against a constant filters each reading slot at
    the scan, and two read attributes join a reading of each.  An unread
    attribute is pi's null, named by its end (node, family, attribute), so
    two unread sides agree when they end at one attribute and their families
    are equal row for row, a row equality between the image slots; every
    other equation never holds.  Last, a family with an edge image that was
    not kept is dropped, until nothing changes, which leaves the greatest
    set of joined families closed under edge images; a family whose path
    leaves the joined families is dropped there."""
    if I.schema != F.source:
        raise SchemaError("pi: instance is not on the mapping's source schema")
    S, T = F.source, F.target
    paths_from_t = {t: all_morphisms_from(T, t) for t in sorted(T.nodes)}

    # comma objects per target node: ordered list of (source node, path t -> F(s))
    comma: dict[str, list] = {}
    for t in sorted(T.nodes):
        objs = []
        for s_node in sorted(S.nodes):
            for q in paths_from_t[t].get(F.nodes[s_node], ()):
                objs.append((s_node, q))
        comma[t] = sorted(objs, key=lambda o: (o[0], len(o[1].steps), o[1].steps))
    slot = {t: {o: i for i, o in enumerate(objs)} for t, objs in comma.items()}

    ends: dict = {}  # (t, steps) -> (end node, slot of t per slot of the end node)

    def along(t, steps):
        """The node that steps lead to from t, and the slot of t holding
        each of its slots."""
        if (t, steps) not in ends:
            t2 = nodes_along(T, Path(t, steps))[-1]
            slots = range(len(comma[t]))  # no steps: t's own slots
            if steps:
                slots = [slot[t][(s_node, normalize_path(T, Path(t, steps + q.steps)))]
                         for (s_node, q) in comma[t2]]
            ends[(t, steps)] = (t2, slots)
        return ends[(t, steps)]

    def comma_constraints(t):
        """One join group per comma morphism induced by a source edge e:
        the row at (src, q) must reach the row at (tgt, q.F(e)) along e."""
        groups = []
        for (ename, src, tgt) in sorted(S.edges):
            e_img = F.edges[(src, ename)]
            fn = I.edge(src, ename).__getitem__
            for (s_node, q) in comma[t]:
                if s_node != src:
                    continue
                q2 = normalize_path(T, path_compose(q, e_img))
                groups.append([((slot[t][(s_node, q)], fn), (slot[t][(tgt, q2)], _same_row))])
        return groups

    groups = {t: comma_constraints(t) for t in sorted(T.nodes)}

    # readings per (t, A), as join terms: the images q.F(a) of a node's
    # slots, grouped by normal form, looked up by the normal form of t.A; the
    # join makes them agree
    readings: dict[tuple[str, str], list] = {}
    for t in sorted(T.nodes):
        if not T.node_attrs[t]:
            continue
        by_nf: dict = {}
        for i, (s_node, q) in enumerate(comma[t]):
            for (sa, _saty) in S.node_attrs[s_node]:
                img = F.attrs[(s_node, sa)]
                if not isinstance(img, ConstPath):
                    nf = normalize_path(T, path_compose(q, img))
                    by_nf.setdefault(nf, []).append((i, I.attr(s_node, sa).__getitem__))
        for (aname, _ty) in T.node_attrs[t]:
            rds = readings[(t, aname)] = by_nf.get(normalize_path(T, Path(t, (), aname)), [])
            groups[t] += [[(rds[0], rd)] for rd in rds[1:]]

    def side(t, p):
        """p's readings on t's slots, and for an unread attribute its end
        (node, attribute, slot of t per slot of the node)."""
        t2, slots = along(t, p.steps)
        rds = readings[(t2, p.attr)]
        return [(slots[j], fn) for (j, fn) in rds], (None if rds else (t2, p.attr, slots))

    never = [(0, 1)]  # a join group that no family satisfies
    for eq in T.equations:
        lhs, rhs, t = eq.lhs, eq.rhs, eq.lhs.source
        if lhs.attr is None:  # the sides of an equation have one target
            continue
        lrds, lend = side(t, lhs)
        if isinstance(rhs, ConstPath):
            groups[t] += [[(rd, rhs.value)] for rd in lrds] or [never]
            continue
        rrds, rend = side(t, rhs)
        if lrds and rrds:
            groups[t].append([(lrds[0], rrds[0])])
        elif lend and rend and lend[:2] == rend[:2]:
            groups[t] += [[((i, _same_row), (j, _same_row))]
                          for i, j in zip(lend[2], rend[2]) if i != j]
        else:
            groups[t].append(never)

    def edge_image(t, fam, gname):
        """Family at target of g obtained by precomposition with g."""
        t2, slots = along(t, (gname,))
        return t2, tuple([fam[j] for j in slots])

    def images_kept(t, fam):
        """Whether every edge image of fam is a kept family."""
        for (gname, _tgt) in T.out_edges[t]:
            t2, img = edge_image(t, fam, gname)
            if img not in fam_sets[t2]:
                return False
        return True

    # join each node's families, then drop families with an edge image not kept
    fam_sets = {t: set(join([I.rows[s_node] for (s_node, _q) in comma[t]], groups[t]))
                for t in sorted(T.nodes)}
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
        m = attr_fn[(src, aname)] = {}
        rds = readings[(src, aname)]
        for fam in fam_list[src]:
            rid = fam_id[(src, fam)]
            if rds:  # the first reading
                i, fn = rds[0]
                m[rid] = fn(fam[i])
            else:
                m[rid] = LabelledNull(f"pi!{src}!{aname}!{rid}")
    return Instance(T, rows, edge_fn, attr_fn)
