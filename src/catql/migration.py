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

    A T-attribute A on t is read at comma object (s, q) by each source
    attribute a with q.F(a) and t.A of one normal form; a reading is (slot,
    column).  `instances.join` gets one equality per comma morphism, one per
    extra reading of an attribute (all readings must agree), and each
    attribute equation of t without steps whose attributes are read: against
    a constant it filters every reading slot at the scan, between two
    attributes it joins a reading of each.  Each joined family's attribute
    values are read once.  The equations left are checked on each family,
    where an unread attribute is a null named by its end (node, family,
    attribute), and a family whose path leaves the joined families fails.
    Last, a family with an edge image that was not kept is dropped, until
    nothing changes, which leaves the greatest set of checked families
    closed under edge images."""
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
                q2 = normalize_path(T, path_compose(q, e_img))
                groups.append([((index[(s_node, q)], fn), (index[(tgt, q2)], _same_row))])
        return groups

    groups = {t: comma_constraints(t) for t in sorted(T.nodes)}

    def term(reading):
        i, col = reading
        return (i, col.__getitem__)

    # readings per (t, A): the images q.F(a) of a node's slots, grouped by
    # normal form, looked up by the normal form of t.A; the join makes them agree
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
                    by_nf.setdefault(nf, []).append((i, I.attr(s_node, sa)))
        for (aname, _ty) in T.node_attrs[t]:
            rds = by_nf.get(normalize_path(T, Path(t, (), aname)), [])
            readings[(t, aname)] = rds
            groups[t] += [[(term(rds[0]), term(rd))] for rd in rds[1:]]

    # push the step-free equations on read attributes into the join; the
    # other attribute-valued equations are checked on the joined families
    checked: dict[str, list] = {t: [] for t in T.nodes}
    for eq in T.equations:
        lhs, rhs, t = eq.lhs, eq.rhs, eq.lhs.source
        if lhs.attr is None:  # the sides of an equation have one target
            continue
        lrds = readings[(t, lhs.attr)] if not lhs.steps else ()
        if lrds and isinstance(rhs, ConstPath):
            groups[t] += [[(term(rd), rhs.value)] for rd in lrds]
        elif lrds and not rhs.steps and readings[(t, rhs.attr)]:
            groups[t].append([(term(lrds[0]), term(readings[(t, rhs.attr)][0]))])
        else:
            checked[t].append(eq)

    # joined families per node, each with its attribute values in node_attrs
    # order, None for an unread attribute
    fam_vals: dict[str, dict] = {}
    attr_slot: dict = {}  # (t, A) -> position of A in t's values
    for t in sorted(T.nodes):
        first_reads = []
        for k, (aname, _ty) in enumerate(T.node_attrs[t]):
            attr_slot[(t, aname)] = k
            rds = readings[(t, aname)]
            first_reads.append(rds[0] if rds else None)
        fams = join([I.rows[s_node] for (s_node, _q) in comma[t]], groups[t])
        fam_vals[t] = {
            fam: tuple([None if rd is None else rd[1][fam[rd[0]]] for rd in first_reads])
            for fam in fams
        }

    t_et = T.edge_table

    image_slots: dict = {}  # (t, g) -> (target of g, slot of t per slot of the target)

    def edge_image(t, fam, gname):
        """Family at target of g obtained by precomposition with g."""
        if (t, gname) not in image_slots:
            t2 = t_et[(t, gname)]
            index_t = {o: i for i, o in enumerate(comma[t])}
            slots = [index_t[(s_node, normalize_path(T, Path(t, (gname,) + q2.steps)))]
                     for (s_node, q2) in comma[t2]]
            image_slots[(t, gname)] = (t2, slots)
        t2, slots = image_slots[(t, gname)]
        return t2, tuple([fam[j] for j in slots])

    def attr_value(t, fam, p):
        """p's constant, or the value of the family p's edges lead fam to:
        its reading, or for an unread attribute its end (node, family,
        attribute), which names pi's null there.  None when a family on the
        way was not joined, so fam cannot be kept."""
        if isinstance(p, ConstPath):
            return p.value
        for step in p.steps:
            t, fam = edge_image(t, fam, step)
            if fam not in fam_vals[t]:
                return None
        v = fam_vals[t][fam][attr_slot[(t, p.attr)]]
        return (t, fam, p.attr) if v is None else v

    def holds(t, fam):
        """Each attribute equation from t left after the join holds on fam."""
        for eq in checked[t]:
            lval = attr_value(t, fam, eq.lhs)
            if lval is None or lval != attr_value(t, fam, eq.rhs):
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
    fam_sets = {t: {fam for fam in fam_vals[t] if holds(t, fam)} for t in sorted(T.nodes)}
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
        k = attr_slot[(src, aname)]
        for fam in fam_list[src]:
            rid = fam_id[(src, fam)]
            v = fam_vals[src][fam][k]
            if v is None:
                v = LabelledNull(f"pi!{src}!{aname}!{rid}")
            attr_fn[(src, aname)][rid] = v
    return Instance(T, rows, edge_fn, attr_fn)
