"""The semantic-enrichment scenario: the reflexive transitive closure of a
parenthood function (the union of its pullbacks along the F_n mapping family)
or of a relation, both by one semi-naive walk; relation algebra over the span
schema; synonym translation; and schema-driven enrichment of imported data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Mapping, Path, Schema, make_schema
from .errors import SchemaError
from .instances import Instance, LabelledNull, extend, join, path_fn


def function_schema() -> Schema:
    """One node with a parenthood loop and a name attribute."""
    return make_schema(
        "S",
        ["Material"],
        [("parent", "Material", "Material")],
        [("name", "Material", "string")],
    )


def relation_schema() -> Schema:
    """The span encoding of a binary relation over named elements."""
    return make_schema(
        "T",
        ["isa", "Material"],
        [("left", "isa", "Material"), ("right", "isa", "Material")],
        [("name", "Material", "string")],
    )


def function_shape(s: Schema):
    """(node, loop edge, name attribute) when s is a one-node function schema."""
    if len(s.nodes) != 1 or len(s.edges) != 1 or len(s.attributes) != 1:
        return None
    node = next(iter(s.nodes))
    (ename, src, tgt) = next(iter(s.edges))
    (aname, asrc, ty) = next(iter(s.attributes))
    if src == tgt == node and asrc == node and ty == "string":
        return (node, ename, aname)
    return None


def relation_shape(s: Schema):
    """(relation node, left, right, element node, name attr) for span schemas."""
    if len(s.nodes) != 2 or len(s.edges) != 2 or len(s.attributes) != 1:
        return None
    (aname, asrc, ty) = next(iter(s.attributes))
    if ty != "string":
        return None
    elem = asrc
    rels = [e for e in s.edges if e[2] == elem and e[1] != elem]
    if len(rels) != 2 or rels[0][1] != rels[1][1]:
        return None
    rnode = rels[0][1]
    names = sorted(e[0] for e in rels)
    return (rnode, names[0], names[1], elem, aname)


def build_fn(n: int, source: Schema = None, target: Schema = None) -> Mapping:
    """F_n: relation schema -> function schema; right becomes the n-fold parent path."""
    _check_depth(n)
    T = source or relation_schema()
    S = target or function_schema()
    rt = relation_shape(T)
    ft = function_shape(S)
    if rt is None or ft is None:
        raise SchemaError("build_fn requires a span schema and a function schema")
    (rnode, left, right, elem, rname) = rt
    (fnode, parent, fname) = ft
    return Mapping(
        source=T,
        target=S,
        nodes={rnode: fnode, elem: fnode},
        edges={
            (rnode, left): Path(fnode),
            (rnode, right): Path(fnode, (parent,) * n),
        },
        attrs={(elem, rname): Path(fnode, (), fname)},
    )


def _reach(succ: dict, n: int) -> dict:
    """For each row of succ ({row: its successors}), {row: the least depth
    <= n at which it is reached}.  Semi-naive (Bancilhon and Ramakrishnan,
    1986): each round expands only the rows first reached in the round
    before, so each (start, row) pair is expanded once, and a start stops as
    soon as its frontier is empty.
    """
    out = {}
    for x in succ:
        out[x] = depth = {x: 0}
        frontier = [x]
        for d in range(1, n + 1):
            frontier = {y: d for r in frontier for y in succ[r] if y not in depth}
            if not frontier:
                break
            depth.update(frontier)
    return out


def _span(ids: dict, pairs: dict) -> Instance:
    """The relation with one Material row ids[name] per name and the isa rows
    {id: (left name, right name)}."""
    left, right = ({r: ids[p[i]] for r, p in pairs.items()} for i in (0, 1))
    return Instance(
        relation_schema(),
        {"Material": ids.values(), "isa": pairs},
        {("isa", "left"): left, ("isa", "right"): right},
        {("Material", "name"): {m: a for a, m in ids.items()}},
    )


def transitive_closure(parent_inst: Instance, n: int) -> Instance:
    """The union of the pullbacks along F_k for k = 0..n, relationalized: the
    reflexive transitive closure of the parenthood function once n is large
    enough, and the diagonal at n = 0.  One semi-naive walk up each row's
    parents gives it.  A Material row stands for all rows with its name and is
    keyed "0.<least row>"; an isa row is keyed "<k>.<row>" by the least
    (depth k, start row), k compared as a number, that gives its pair of names.
    """
    _check_depth(n)
    shape = function_shape(parent_inst.schema)
    if shape is None:
        raise SchemaError("transitive_closure expects an instance on a function schema")
    (fnode, parent, fname) = shape
    pfn = parent_inst.edge(fnode, parent)
    name = parent_inst.attr(fnode, fname)
    rows = parent_inst.node_rows(fnode)
    # name -> "0.<its least row>": in reversed row order the least row comes last
    mat = {name[x]: f"0.{x}" for x in reversed(rows)}
    isa = {}  # (left, right name) -> least (depth, start row); starts run in row order
    for x, depth in _reach({r: (pfn[r],) for r in rows}, n).items():
        for y, d in depth.items():
            key = (name[x], name[y])
            if key not in isa or d < isa[key][0]:
                isa[key] = (d, x)
    return _span(mat, {f"{d}.{x}": key for key, (d, x) in isa.items()})


def _legs(R: Instance):
    """(relation rows, row -> left name, row -> right name) of a relation instance."""
    shape = relation_shape(R.schema)
    if shape is None:
        raise SchemaError("not a relation instance")
    (rnode, left, right, _elem, aname) = shape
    return (R.rows[rnode], *(path_fn(R, Path(rnode, (e,), aname)) for e in (left, right)))


def relation_pairs(R: Instance) -> set:
    """The relation as a set of (left name, right name) pairs."""
    rows, left, right = _legs(R)
    return set(zip(map(left, rows), map(right, rows)))


def relation_from_pairs(pairs) -> Instance:
    """Build a relation instance on the canonical span schema from name pairs:
    each name is its own Material id; the sorted pairs are p0, p1, ..."""
    names = {x for p in pairs for x in p}
    nulls = sorted(str(x) for x in names if isinstance(x, LabelledNull))
    if nulls:
        raise SchemaError(f"relation element {nulls[0]} is a labelled null, not a name")
    return _span({x: x for x in names}, {f"p{i}": p for i, p in enumerate(sorted(pairs))})


def op_relation(R: Instance) -> Instance:
    """Swap the left and right legs."""
    shape = relation_shape(R.schema)
    if shape is None:
        raise SchemaError("not a relation instance")
    (rnode, left, right, _elem, _aname) = shape
    edge_fn = dict(R.edge_fn)
    edge_fn[(rnode, left)], edge_fn[(rnode, right)] = (
        R.edge(rnode, right),
        R.edge(rnode, left),
    )
    return Instance(R.schema, R.rows, edge_fn, R.attr_fn)


def compose_relations(R1: Instance, R2: Instance) -> Instance:
    """Relation composition: the pairs (a.left, b.right) of the rows a of R1
    and b of R2 joined on a.right.name = b.left.name."""
    (rows1, left1, right1), (rows2, left2, right2) = _legs(R1), _legs(R2)
    joined = join([rows1, rows2], [[((0, right1), (1, left2))]])
    return relation_from_pairs({(left1(a), right2(b)) for (a, b) in joined})


def _check_depth(n: int):
    if n < 0:
        raise SchemaError(f"closure depth must be nonnegative, got {n}")


def closure_relation(R: Instance, n: int) -> Instance:
    """Reflexive transitive closure of a relation up to n steps: one
    semi-naive walk over the name graph from each element name of R, so
    depth 0 gives the diagonal of every element and depth 1 adds R."""
    _check_depth(n)
    pairs = relation_pairs(R)
    (_rnode, _left, _right, elem, aname) = relation_shape(R.schema)
    succ = {x: [] for x in R.attr(elem, aname).values()}
    for (a, b) in pairs:
        succ[a].append(b)
    reach = _reach(succ, n)
    return relation_from_pairs({(a, b) for a, depth in reach.items() for b in depth})


def closure_auto(I: Instance, n: int) -> Instance:
    if function_shape(I.schema) is not None:
        return transitive_closure(I, n)
    if relation_shape(I.schema) is not None:
        return closure_relation(I, n)
    raise SchemaError("closure expects a function-shaped or relation-shaped instance")


def translate_isa(isa: Instance, syn: Instance, n: int) -> Instance:
    """op(syn) ; isa ; syn, then the reflexive transitive closure of the result."""
    isa2 = compose_relations(compose_relations(op_relation(syn), isa), syn)
    return closure_relation(isa2, n)


@dataclass
class ScenarioConfig:
    closure_n: int = 3
    target_node: str = "material"
    name_attr: str = "material_Material_Name"


# the names under which `enrich` binds the instance and the is-a relation
PORTAL_NAME = "portal"
RELATION_NAME = "isa_prime"


def enrichment_script(s: Schema, target_node: str, name_attr: str):
    """The let statements that enrich an instance along every edge into
    target_node, numbered from line 2, below `generate_enrichment`'s comment.

    Each incoming edge contributes an enrich step (a join of the instance with
    the is-a relation on names) whose new rows are unioned with the running
    instance; with no incoming edges, the script degenerates to the identity
    union.
    """
    from .scripts import LetStmt, Script

    if (target_node, name_attr) not in s.attr_table:
        raise SchemaError(
            f"target node {target_node!r} has no attribute {name_attr!r}"
        )
    incoming = sorted(
        (src, ename) for (ename, src, tgt) in s.edges if tgt == target_node
    )
    steps, prev = [], PORTAL_NAME  # (name, expr) in turn
    for i, (src, ename) in enumerate(incoming):
        out_name = "enriched" if i == len(incoming) - 1 else f"enriched_{i}"
        steps.append((f"new_{i}", ("enrich", prev, src, ename, RELATION_NAME, name_attr)))
        steps.append((out_name, ("union", prev, f"new_{i}")))
        prev = out_name
    steps = steps or [("enriched", ("union", prev, prev))]
    return Script(tuple(LetStmt(name, expr, line) for line, (name, expr) in enumerate(steps, 2)))


def generate_enrichment(s: Schema, target_node: str, name_attr: str) -> str:
    """The text of `enrichment_script`, under a comment line."""
    from .scripts import format_script

    script = enrichment_script(s, target_node, name_attr)
    return (f"# enrichment generated for schema {s.name}: "
            f"retarget edges into {target_node} along the is-a relation\n{format_script(script)}")


def enrich_edge(I: Instance, node: str, edge: str, rel: Instance, name_attr: str) -> Instance:
    """Rows of `node` copied with `edge` retargeted along the is-a relation.

    The matching (row, new target name) pairs come from joining the rows of
    `node` with the relation's rows on the old target's name; missing target
    rows are created, copying attributes from the old target where possible.
    Returns the instance extended with the new rows (`instances.extend`),
    which validates only them: I is taken to be valid.  A new row whose id
    is already used at its node (a `mat!<name>` row named otherwise) raises
    ValidationError, and an `enr!` row that exists already is skipped.
    """
    s = I.schema
    et = s.edge_table
    if (node, edge) not in et:
        raise SchemaError(f"no edge {edge!r} on node {node!r}")
    target = et[(node, edge)]
    if s.attr_table.get((target, name_attr)) != "string":
        raise SchemaError(f"target node {target!r} has no string attribute {name_attr!r}")
    if relation_shape(rel.schema) is None:
        raise SchemaError("enrich needs a relation instance")
    rel_rows, left_name, right_name = _legs(rel)
    joined = join(
        [I.rows[node], rel_rows],
        [[((0, path_fn(I, Path(node, (edge,), name_attr))), (1, left_name))]],
    )
    pairs = {(x, right_name(p)) for (x, p) in joined}
    # a labelled-null new name names no target row
    matches = sorted((x, b) for (x, b) in pairs if not isinstance(b, LabelledNull))

    # name -> its least row: in reversed row order the least row comes last;
    # a labelled-null name equals no new name
    target_rows = I.node_rows(target)
    name_index = dict(zip(map(I.attr(target, name_attr).__getitem__, reversed(target_rows)),
                          reversed(target_rows)))
    old = I.edge(node, edge)
    created = {}  # a name no target row has -> the old target of its first match
    for (x, b) in matches:
        if b not in name_index:
            created.setdefault(b, old[x])
    mat = [f"mat!{b}" for b in created]
    name_index.update(zip(created, mat))
    fresh = {}  # new row of `node` -> (its row of I, its new target), by its first match
    for (x, b) in matches:
        fresh.setdefault(f"enr!{x}!{b}", (x, name_index[b]))
    for rid in [r for r in fresh if r in old]:  # an enr! row that exists already is skipped
        del fresh[rid]

    # the new rows and their entries; `node` may be `target`
    rows: dict = {}
    edge_fn: dict = {}
    attr_fn: dict = {}

    def add(fns, key, ids, values):
        fns.setdefault(key, {}).update(zip(ids, values))

    rows.setdefault(target, []).extend(mat)
    sources = list(created.values())
    for (a, _ty) in s.node_attrs[target]:
        if a == name_attr:
            add(attr_fn, (target, a), mat, created)
        else:  # copied from the old target where possible; null otherwise
            col = I.attr(target, a)
            add(attr_fn, (target, a), mat,
                [v if (v := col.get(r)) is not None else LabelledNull(f"en!{target}!{a}!{rid}")
                 for r, rid in zip(sources, mat)])
    for (e, _tgt) in s.out_edges[target]:
        add(edge_fn, (target, e), mat, map(I.edge(target, e).__getitem__, sources))
    rows.setdefault(node, []).extend(fresh)
    xs, ts = zip(*fresh.values()) if fresh else ((), ())
    for (e, _tgt) in s.out_edges[node]:
        add(edge_fn, (node, e), fresh, ts if e == edge else map(I.edge(node, e).__getitem__, xs))
    for (a, _ty) in s.node_attrs[node]:
        add(attr_fn, (node, a), fresh, map(I.attr(node, a).__getitem__, xs))
    return extend(I, rows, edge_fn, attr_fn)


def enrich(I: Instance, isa_prime: Instance, cfg: ScenarioConfig) -> Instance:
    """Run the enrichment script against the instance and relation."""
    from .scripts import Environment, run_script

    env = Environment()
    env.define(PORTAL_NAME, "instance", I, 0)
    env.define(RELATION_NAME, "instance", isa_prime, 0)
    env, _outputs = run_script(enrichment_script(I.schema, cfg.target_node, cfg.name_attr), env)
    return env.lookup("enriched", "instance", 0)
