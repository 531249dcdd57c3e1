"""The three adjoint data migrations: delta (pullback), sigma (left Kan
extension by chase/congruence closure), pi (right Kan extension by limits
over comma categories).

sigma and pi require the relevant hom-sets of the target schema to be
finite; enumeration raises NotSaturated when one is infinite.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, compress, count, repeat
from operator import itemgetter, not_

from .core import (
    ConstPath,
    Mapping,
    Path,
    _normal_form,
    all_morphisms_from,
    nodes_along,
    normalize_path,
    path_compose,
    path_target,
)
from .errors import InconsistencyError, SchemaError
from .instances import Instance, LabelledNull, _UnionFind, join, path_fn, same_row


def delta(F: Mapping, I: Instance) -> Instance:
    """Pullback migration: compose the instance with the mapping.

    A source edge or attribute whose image is one edge, or one attribute, of
    its node's image gets I's own dict, which is total on exactly that
    node's rows and is never edited, so the result shares it; every other
    table is built.
    """
    if I.schema is not F.target and I.schema != F.target:
        raise SchemaError("delta: instance is not on the mapping's target schema")
    s = F.source
    rows = {n: I.rows[F.nodes[n]] for n in s.nodes}

    def table(src, p, own):
        if isinstance(p, Path) and p.source == F.nodes[src] and len(p.steps) + (p.attr is not None) == 1:
            fn = own.get((p.source, p.steps[0] if p.steps else p.attr))
            if fn is not None:
                return fn
        f = path_fn(I, p)
        return {r: f(r) for r in rows[src]}

    edge_fn = {(src, e): table(src, F.edges[(src, e)], I.edge_fn) for (e, src, _tgt) in s.edges}
    attr_fn = {(src, a): table(src, F.attrs[(src, a)], I.attr_fn) for (a, src, _ty) in s.attributes}
    return Instance(s, rows, edge_fn, attr_fn)


def _normalizer(T, img, start, end=None):
    """How to normalize the paths composed with img, an image that should run
    from node start to node end (to an attribute when end is None): once img
    does, `core._normal_form`; else normalize_path, whose walk of each path
    raises where and as it always has."""
    try:
        target = isinstance(img, Path) and img.source == start and path_target(T, img)
    except SchemaError:
        target = None
    ok = target == ("node", end) if end is not None else bool(target) and target[0] == "attr"
    return _normal_form if ok else normalize_path


def _interleave(cols):
    """The entries of equally long columns row by row: cols[0][0], cols[1][0], ..."""
    return cols[0] if len(cols) == 1 else chain.from_iterable(zip(*cols))


def sigma(F: Mapping, I: Instance) -> Instance:
    """Left Kan extension via a term model quotiented by congruence closure.

    A generator at target node t is a row x of a source node s with a path
    p: F(s) -> t, and (s, p) is its family.  Generators are numbered in
    listing order (target node, source node, row, path key), so generator k
    of family f is first[f] + k * step[f].  The congruence identifies
    (x, F(e);p) with (e(x), p) for each source edge e, in one union-find
    over the integers, made only when a source edge has rows.  In that
    order the generators give the classes by least member, which names each
    class and gives its edge images.  When no source edge has rows (a
    compiled query's C -> R has no edge), each generator is its own class:
    the row ids are written per source node and family block, in listing
    order, and a generator's class is its number.  Each table is built in
    column passes.  An attribute takes the first constant that its class's
    readings carry, in listing order (generator, then reader column), else
    the first labelled null, else a fresh one; two different constants
    raise.  When every class has one reading, which needs no union-find and
    one reader per family, the attribute's column is the readings' column.
    """
    if I.schema is not F.source and I.schema != F.source:
        raise SchemaError("sigma: instance is not on the mapping's source schema")
    S, T = F.source, F.target
    paths_from = {n: all_morphisms_from(T, F.nodes[n]) for n in sorted(S.nodes)}

    # families (s_node, p) of the source nodes with rows, by target node
    fams: list[tuple[str, Path]] = []
    at_target: dict[str, dict] = {t: {} for t in T.nodes}  # t -> s_node -> families
    for s_node, by_target in paths_from.items():
        if I.rows[s_node]:
            for t, ps in by_target.items():
                at_target[t][s_node] = range(len(fams), len(fams) + len(ps))
                fams += zip(repeat(s_node), ps)

    # generators in listing order: family f's are first[f] + k * step[f],
    # and those at t are bounds[t]
    first, step, gen_fam, bounds = [0] * len(fams), [0] * len(fams), [], {}
    for t in sorted(T.nodes):
        lo = len(gen_fam)
        for s_node, fs in at_target[t].items():
            first[fs.start:fs.stop] = range(len(gen_fam), len(gen_fam) + len(fs))
            step[fs.start:fs.stop] = [len(fs)] * len(fs)
            gen_fam += list(fs) * len(I.rows[s_node])
        bounds[t] = (lo, len(gen_fam))
    fam_at = dict(zip(fams, count()))  # (s_node, p) -> family
    fam_tail = [f":{p!s}" for (_s, p) in fams]  # the end of a row id: ":" and the family's path
    uf = None  # made at the first source edge with rows

    for (ename, src, tgt) in sorted(S.edges):
        if not I.rows[src]:
            continue
        if uf is None:
            uf = _UnionFind(range(len(gen_fam)))
        e_img = F.edges[(src, ename)]  # path F(src) -> F(tgt)
        normal = _normalizer(T, e_img, F.nodes[src], F.nodes[tgt])
        index = dict(zip(I.rows[tgt], count()))
        targets = list(map(index.__getitem__, map(I.edge(src, ename).__getitem__, I.rows[src])))
        for _t, ps in paths_from[tgt].items():
            for p in ps:
                fa = fam_at[(src, normal(T, path_compose(e_img, p)))]
                fb = fam_at[(tgt, p)]
                a, da, b, db = first[fa], step[fa], first[fb], step[fb]
                images = map(b.__add__, map(db.__mul__, targets))
                deque(map(uf.union, range(a, a + len(targets) * da, da), images), 0)

    # classes in order of their least members, which name them; those at t are span[t]
    if uf is None:  # each generator is its own class
        root = roots = least = range(len(gen_fam))
        least_fam, span = gen_fam, {t: slice(lo, hi) for t, (lo, hi) in bounds.items()}
        ids = []
        for t in sorted(T.nodes):
            for s_node, fs in at_target[t].items():
                head = f"{s_node}:"
                ids += _interleave([[f"{head}{x}{tail}" for x in I.rows[s_node]]
                                    for tail in fam_tail[fs.start:fs.stop]])
        name = ids  # generator -> row id of its class
    else:
        root = list(map(uf.find, range(len(gen_fam))))
        firsts: dict = {}  # root -> its least member
        span = {}
        for t, (lo, hi) in bounds.items():
            n = len(firsts)
            deque(map(firsts.setdefault, root[lo:hi], range(lo, hi)), 0)
            span[t] = slice(n, len(firsts))
        roots, least = list(firsts), list(firsts.values())
        least_fam = list(map(gen_fam.__getitem__, least))
        ids = [f"{fams[f][0]}:{I.rows[fams[f][0]][(g - first[f]) // step[f]]}{fam_tail[f]}"
               for g, f in zip(least, least_fam)]
        name = dict(zip(roots, ids))  # root -> row id of its class
    rows = {t: ids[sp] for t, sp in span.items()}

    edge_fn = {}
    for (gname, src, tgt) in sorted(T.edges):
        gs, fs = least[span[src]], least_fam[span[src]]
        ahead = {}  # family -> the family one step further along gname
        for f in set(fs):
            s_node, p = fams[f]
            ahead[f] = fam_at[(s_node, _normal_form(T, Path(p.source, p.steps + (gname,))))]
        images = [name[root[first[f2] + (g - first[f]) // step[f] * step[f2]]]
                  for g, f, f2 in zip(gs, fs, map(ahead.__getitem__, fs))]
        edge_fn[(src, gname)] = dict(zip(rows[src], images))

    # (s_node, source attribute) -> normal form of its image, when that is a path
    image_nf = {key: normalize_path(T, img) for key, img in F.attrs.items()
                if I.rows[key[0]] and not isinstance(img, ConstPath)}

    attr_fn = {}
    for (aname, src, _ty) in sorted(T.attributes):
        reads, once = [], uf is None  # once: each class has exactly one reading
        for s_node, fs in at_target[src].items():
            names = [sa for (sa, _saty) in S.node_attrs[s_node] if (s_node, sa) in image_nf]
            rd = []  # (family, reader) per family, then reader
            for f in fs if names else ():
                p = fams[f][1]
                nf = _normal_form(T, Path(p.source, p.steps, aname))
                rd += [(f, sa) for sa in names if image_nf[(s_node, sa)] == nf]
            once = once and [f for (f, _sa) in rd] == list(fs)
            reads.append((s_node, rd))
        vals = []  # the readings in listing order
        for s_node, rd in reads:
            vals += _interleave([map(I.attr(s_node, sa).__getitem__, I.rows[s_node]) for (_f, sa) in rd])
        if once:
            attr_fn[(src, aname)] = dict(zip(rows[src], vals))
            continue
        cls = []  # the class root of each reading
        for s_node, rd in reads:
            n = len(I.rows[s_node])
            cls += _interleave([root[first[f]:first[f] + step[f] * n:step[f]] for (f, _sa) in rd])
        got: dict = {}  # class root -> its first value, then its first constant
        deque(map(got.setdefault, cls, vals), 0)
        if len(got) < len(cls):  # some class has two readings: a constant wins, two clash
            keep = list(map(not_, map(isinstance, vals, repeat(LabelledNull))))
            cls, vals = list(compress(cls, keep)), list(compress(vals, keep))
            const: dict = {}  # class root -> its first constant
            deque(map(const.setdefault, cls, vals), 0)
            if list(map(const.__getitem__, cls)) != vals:  # name the first class that clashes
                second: dict = {}  # class root -> its first constant other than its first
                for c, v in zip(cls, vals):
                    if v != const[c]:
                        second.setdefault(c, v)
                r = next(filter(second.__contains__, roots[span[src]]))
                raise InconsistencyError(f"sigma: attribute {aname!r} on class {name[r]!r} forced "
                                         f"to both {const[r]!r} and {second[r]!r}")
            got.update(const)
        classes = roots[span[src]]
        if len(got) < len(classes):  # a class that nothing reads takes a fresh null
            got.update((r, LabelledNull(f"sk!{src}!{aname}!{name[r]}"))
                       for r in classes if r not in got)
        attr_fn[(src, aname)] = dict(zip(rows[src], map(got.__getitem__, classes)))

    return Instance(T, rows, edge_fn, attr_fn)


class _PiPlan:
    """What pi(F, -) computes from F alone: each target node's comma slots,
    links (slot i, source edge, slot j), one per comma morphism, readings
    (slot, source attribute), and `along`; `run` binds them to an instance."""

    def __init__(self, F: Mapping):
        S, T = F.source, F.target
        self.T, self.nodes, self.ends = T, sorted(T.nodes), {}
        self.comma: dict[str, list] = {}  # t -> its comma objects, by source node, then path key
        for t in self.nodes:
            paths = all_morphisms_from(T, t)
            self.comma[t] = sorted([(s_node, q) for s_node in S.nodes for q in paths.get(F.nodes[s_node], ())],
                                   key=lambda o: (o[0], len(o[1].steps), o[1].steps))
        self.slot = slot = {t: {o: i for i, o in enumerate(objs)} for t, objs in self.comma.items()}
        # each image checked once; the paths composed with it are normalized by `normal`
        s_edges = [(src, ename, tgt, img, _normalizer(T, img, F.nodes[src], F.nodes[tgt]))
                   for (ename, src, tgt) in sorted(S.edges) for img in (F.edges[(src, ename)],)]
        self.links = {t: [(slot[t][(src, q)], (src, ename), slot[t][(tgt, normal(T, path_compose(q, img)))])
                          for (src, ename, tgt, img, normal) in s_edges
                          for (s_node, q) in self.comma[t] if s_node == src]
                      for t in self.nodes}
        self.readings: dict[tuple[str, str], list] = {}
        attr_nf = {(src, a): _normalizer(T, F.attrs.get((src, a)), F.nodes[src])
                   for (a, src, _ty) in S.attributes}
        for t in self.nodes:
            if not T.node_attrs[t]:
                continue
            by_nf: dict = {}
            for i, (s_node, q) in enumerate(self.comma[t]):
                for (sa, _saty) in S.node_attrs[s_node]:
                    img = F.attrs[(s_node, sa)]
                    if not isinstance(img, ConstPath):
                        nf = attr_nf[(s_node, sa)](T, path_compose(q, img))
                        by_nf.setdefault(nf, []).append((i, (s_node, sa)))
            for (aname, _ty) in T.node_attrs[t]:
                self.readings[(t, aname)] = by_nf.get(_normal_form(T, Path(t, (), aname)), [])

    def along(self, t, steps):
        """The node that steps lead to from t, and the slot of t holding
        each of its slots."""
        end = self.ends.get((t, steps))
        if end is None:
            t2 = nodes_along(self.T, Path(t, steps))[-1]
            slots = range(len(self.comma[t]))  # no steps: t's own slots
            if steps:
                slots = [self.slot[t][(s_node, _normal_form(self.T, Path(t, steps + q.steps)))]
                         for (s_node, q) in self.comma[t2]]
            end = self.ends[(t, steps)] = (t2, slots)
        return end

    def _images(self, t, fams, gname):
        """The images along edge gname of fams, families at t: their rows at its slots."""
        slots = self.along(t, (gname,))[1]
        if len(slots) > 1:
            return map(itemgetter(*slots), fams)
        return zip(map(itemgetter(*slots), fams)) if slots else repeat((), len(fams))

    def run(self, I, equations, schema):
        """pi(F, I) on schema, F's target up to its attribute equations,
        which are the given ones (see pi)."""
        edge = I.edge_fn.get
        groups = {t: [[((i, edge(e, {}).__getitem__), (j, same_row))] for (i, e, j) in links]
                  for t, links in self.links.items()}
        for (t, _aname), rds in self.readings.items():
            terms = [(i, I.attr(*a).__getitem__) for (i, a) in rds]
            groups[t] += [[(terms[0], rd)] for rd in terms[1:]]

        def side(t, p):
            """p's readings as join terms, and for an unread attribute its
            end (node, attribute, slot of t per slot of the node)."""
            t2, slots = self.along(t, p.steps)
            rds = self.readings[(t2, p.attr)]
            return ([(slots[j], I.attr(*a).__getitem__) for (j, a) in rds],
                    None if rds else (t2, p.attr, slots))

        never = [(0, 1)]  # a join group that no family satisfies
        for eq in equations:
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
                groups[t] += [[((i, same_row), (j, same_row))] for i, j in zip(lend[2], rend[2]) if i != j]
            else:
                groups[t].append(never)

        fam_list = {t: sorted(join([I.rows[s_node] for (s_node, _q) in self.comma[t]], groups[t]))
                    for t in self.nodes}
        kept: dict = {}  # edge target -> its families
        changed = True
        while changed:
            changed = False
            for t, out in self.T.out_edges.items():
                fams = fam_list[t]
                for (gname, t2) in out:
                    if t2 not in kept:
                        kept[t2] = set(fam_list[t2])
                    fams = list(compress(fams, map(kept[t2].__contains__, self._images(t, fams, gname))))
                if len(fams) < len(fam_list[t]):
                    fam_list[t] = fams
                    kept.pop(t, None)
                    changed = True

        rows = {t: [f"pi{i}_{t}" for i in range(len(fams))] for t, fams in fam_list.items()}
        edge_fn = {}
        for (gname, src, tgt) in self.T.edges:
            fam_id = dict(zip(fam_list[tgt], rows[tgt]))
            imgs = self._images(src, fam_list[src], gname)
            edge_fn[(src, gname)] = dict(zip(rows[src], map(fam_id.__getitem__, imgs)))
        attr_fn = {}
        for (aname, src, _ty) in self.T.attributes:
            ids, rds = rows[src], self.readings[(src, aname)]
            if rds:
                i, a = rds[0]
                fn = I.attr(*a).__getitem__
                attr_fn[(src, aname)] = dict(zip(ids, map(fn, map(itemgetter(i), fam_list[src]))))
            else:
                attr_fn[(src, aname)] = {rid: LabelledNull(f"pi!{src}!{aname}!{rid}") for rid in ids}
        return Instance(schema, rows, edge_fn, attr_fn)


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
    every attribute equation of T, its sides read on t's slots along their
    paths: a read attribute against a constant filters each reading slot at
    the scan, and two read attributes join a reading of each.  An unread
    attribute is pi's null, named by its end (node, family, attribute), so
    two unread sides agree when they end at one attribute and their families
    are equal row for row, a row equality between the image slots; every
    other equation never holds.  Last, a family with an edge image that was
    not kept is dropped, until nothing changes, which leaves the greatest
    set of joined families closed under edge images.  The families of t are
    sorted once, row pi<i>_<t> being the i-th, and each table is a column
    pass over them: an edge image picks a family's rows at the edge's slots,
    and an attribute takes its first reading."""
    if I.schema is not F.source and I.schema != F.source:
        raise SchemaError("pi: instance is not on the mapping's source schema")
    return _PiPlan(F).run(I, F.target.equations, F.target)
