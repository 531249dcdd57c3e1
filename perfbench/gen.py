"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` (or sizes only) and returns plain
inputs: SQL text, ``.catql`` script text, query text, or small in-memory
schemas and instances.  Nothing here imports the test suite, so test edits
cannot change benchmark inputs.
"""

from __future__ import annotations

import importlib.resources as ir

from catql.core import Mapping, PathEquation, enumerate_morphisms, make_schema, validate_mapping
from catql.errors import CatqlError
from catql.instances import Instance, validate_instance

DATA = ir.files("catql") / "data"

UNITS = ["EA", "Thousands", "Inch", "mm", "cm"]
BUNDLED_MATERIALS = [
    "Pre-hardened Stainless Steel",
    "17-4 Stainless Steel",
    "Aluminum",
    "420 Stainless Steel",
]
BUNDLED_CATEGORIES = ["Sinker EDM", "Ram EDM", "Wire EDM", "CNC Milling"]
# The bundled ontology chain and its synonyms, kept in every generated
# ontology so the bundled query keeps finding enrichment rows.
BUNDLED_WORDS = [
    ("m17", "ferrous-17-4PH", "mph"),
    ("m420", "ferrous-420", "mph"),
    ("mph", "ferrous-PH-stainless", "mss"),
    ("mss", "ferrous-stainless", "mal"),
    ("mal", "ferrous-alloy", "matter"),
    ("matter", "matter", "matter"),
]
BUNDLED_SYNONYMS = [
    ("ferrous-17-4PH", "17-4 Stainless Steel"),
    ("ferrous-420", "420 Stainless Steel"),
    ("ferrous-PH-stainless", "Pre-hardened Stainless Steel"),
]


def bundled(name: str) -> str:
    return (DATA / name).read_text()


def _sql_table(name, columns):
    return f"CREATE TABLE {name} (\n  " + ",\n  ".join(columns) + "\n);"


def _sql_insert(name, tuples):
    body = ",\n".join("(" + ", ".join(t) + ")" for t in tuples)
    return f"INSERT INTO {name} VALUES\n{body};"


def _q(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def _names(rng, n, first, pool, share):
    """``n`` names: ``first`` then ``pool`` once each, then a fixed ``share``
    of repeats from ``first`` and the rest from ``pool``, in seeded order."""
    head = (first + pool)[:n]
    rest = n - len(head)
    k = round(share * rest)
    tail = [first[i % len(first)] for i in range(k)] + [pool[i % len(pool)] for i in range(rest - k)]
    rng.shuffle(tail)
    return head + tail


def portal_sql(rng, scale: int, extra_materials: int) -> str:
    """A portal database shaped like the bundled one, ``scale`` times its size.

    Material names are the bundled four plus ``mat-<j>`` for j below
    ``extra_materials``, so a synonym relation can reach them.  Beyond the
    first rows a fixed small share of materials and categories repeat bundled
    names, so the bundled query finds rows without its cross products growing
    with the seed.
    """
    mats = [f"mat-{j}" for j in range(extra_materials)]
    cats = [f"cat-{j}" for j in range(2 * scale)]
    n_mat, n_cat, n_cap = 4 * scale, 4 * scale, 6 * scale
    material = _names(rng, n_mat, BUNDLED_MATERIALS, mats, 0.03)
    category = _names(rng, n_cat, BUNDLED_CATEGORIES, cats, 0.06)
    capability = [[str(i + 1), _q(f"cap-{i}"), str(rng.randint(5, 500)),
                   str(rng.randint(1, 5))] for i in range(n_cap)]
    capmat = [[str(i + 1), str(rng.randint(1, n_cap)), str(rng.randint(1, n_mat))]
              for i in range(n_cap)]
    capcat = [[str(i + 1), str(rng.randint(1, n_cap)), str(rng.randint(1, n_cat))]
              for i in range(n_cap)]
    parts = [
        _sql_table("unitcode", ["id INT PRIMARY KEY", "unitcode_Code VARCHAR(255)"]),
        _sql_table("material", ["id INT PRIMARY KEY", "material_Material_Name VARCHAR(255)"]),
        _sql_table("productorservicecategory",
                   ["id INT PRIMARY KEY", "productorservicecategory_Category_Name VARCHAR(255)"]),
        _sql_table("capability", [
            "id INT PRIMARY KEY", "capability_Capability_Name VARCHAR(255)",
            "capability_Max_Length INT", "capability_Max_Length_Unit INT REFERENCES unitcode"]),
        _sql_table("capabilitymaterials", [
            "id INT PRIMARY KEY",
            "capabilitymaterials_Capability_id INT REFERENCES capability",
            "capabilitymaterials_Material_id INT REFERENCES material"]),
        _sql_table("capabilitycategories", [
            "id INT PRIMARY KEY",
            "capabilitycategories_Capability_id INT REFERENCES capability",
            "capabilitycategories_ProductOrServiceCategory_id INT REFERENCES productorservicecategory"]),
        _sql_insert("unitcode", [[str(i + 1), _q(u)] for i, u in enumerate(UNITS)]),
        _sql_insert("material", [[str(i + 1), _q(v)] for i, v in enumerate(material)]),
        _sql_insert("productorservicecategory", [[str(i + 1), _q(v)] for i, v in enumerate(category)]),
        _sql_insert("capability", capability),
        _sql_insert("capabilitymaterials", capmat),
        _sql_insert("capabilitycategories", capcat),
    ]
    return "\n\n".join(parts) + "\n"


def _catql_str(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def ontology_catql(rng, words: int) -> tuple[str, list[str]]:
    """A parenthood function on the bundled chain plus ``words`` random words
    hanging below it; returns (script text, names of the random words)."""
    ids = [w for (w, _n, _p) in BUNDLED_WORDS]
    names = {w: n for (w, n, _p) in BUNDLED_WORDS}
    parent = {w: p for (w, _n, p) in BUNDLED_WORDS}
    for i in range(words):
        w = f"o{i}"
        parent[w] = rng.choice(ids)
        names[w] = f"onto-{i}"
        ids.append(w)
    lines = [
        "schema S {", "  nodes Material;", "  edge parent : Material -> Material;",
        "  attribute name : Material -> string;", "}", "", "instance parent : S {",
        "  node Material { " + " ".join(f"{w};" for w in ids) + " }",
        "  edge Material.parent {",
        *(f"    {w} -> {parent[w]};" for w in ids),
        "  }", "  attribute Material.name {",
        *(f"    {w} = {_catql_str(names[w])};" for w in ids),
        "  }", "}",
    ]
    return "\n".join(lines) + "\n", [names[w] for w in ids[len(BUNDLED_WORDS):]]


def synonyms_catql(rng, onto_words: list[str], portal_names: list[str], pairs: int) -> str:
    """The bundled synonyms plus ``pairs`` random one-to-one pairs from
    ontology words onto portal material names."""
    k = min(pairs, len(onto_words), len(portal_names))
    chosen = list(zip(rng.sample(onto_words, k), rng.sample(portal_names, k)))
    all_pairs = BUNDLED_SYNONYMS + chosen
    left = {a: f"l{i}" for i, a in enumerate(dict.fromkeys(a for a, _ in all_pairs))}
    right = {b: f"r{i}" for i, b in enumerate(dict.fromkeys(b for _, b in all_pairs))}
    lines = [
        "schema T {", "  nodes isa, Material;", "  edge left : isa -> Material;",
        "  edge right : isa -> Material;", "  attribute name : Material -> string;", "}", "",
        "instance syn : T {",
        "  node isa { " + " ".join(f"p{i};" for i in range(len(all_pairs))) + " }",
        "  node Material { " + " ".join(f"{v};" for v in [*left.values(), *right.values()]) + " }",
        "  edge isa.left { " + " ".join(f"p{i} -> {left[a]};" for i, (a, _) in enumerate(all_pairs)) + " }",
        "  edge isa.right { " + " ".join(f"p{i} -> {right[b]};" for i, (_, b) in enumerate(all_pairs)) + " }",
        "  attribute Material.name {",
        *(f"    {v} = {_catql_str(a)};" for a, v in left.items()),
        *(f"    {v} = {_catql_str(b)};" for b, v in right.items()),
        "  }", "}",
    ]
    return "\n".join(lines) + "\n"


def dag_schema(rng, name: str, max_nodes=3, max_edges=4, equation=False):
    """A random schema whose edges run from lower to higher node index, so
    every hom-set is finite; optionally with one equation between two
    distinct parallel paths."""
    n = rng.randint(1, max_nodes)
    nodes = [f"{name}{i}" for i in range(n)]
    edges = []
    if n >= 2:
        for i in range(rng.randint(0, max_edges)):
            a, b = sorted(rng.sample(range(n), 2))
            edges.append((f"{name}e{i}", nodes[a], nodes[b]))
    s = make_schema(name, nodes, edges)
    if not equation:
        return s
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    for a in shuffled:
        for b in nodes:
            paths = enumerate_morphisms(s, a, b)
            longer = [p for p in paths if p.steps]
            if len(paths) >= 2 and longer:
                lhs = rng.choice(longer)
                rhs = rng.choice([p for p in paths if p != lhs])
                return make_schema(name, nodes, edges, (), [PathEquation(lhs, rhs)])
    return s


def random_mapping(rng, S, T, tries=30):
    """A random functor S -> T, or None when none was found in ``tries``."""
    t_nodes = sorted(T.nodes)
    for _ in range(tries):
        nodes = {n: rng.choice(t_nodes) for n in sorted(S.nodes)}
        edges = {}
        for (ename, src, tgt) in sorted(S.edges):
            choices = enumerate_morphisms(T, nodes[src], nodes[tgt])
            if not choices:
                break
            edges[(src, ename)] = rng.choice(choices)
        else:
            F = Mapping(source=S, target=T, nodes=nodes, edges=edges, attrs={})
            try:
                validate_mapping(F)
            except CatqlError:
                continue
            return F
    return None


def random_instance(rng, s, max_rows=3, tries=50):
    """A random attribute-free instance satisfying the equations, or the empty
    instance when ``tries`` draws all violate them."""
    for _ in range(tries):
        rows = {n: [f"r{i}" for i in range(rng.randint(0, max_rows))] for n in sorted(s.nodes)}
        if any(rows[src] and not rows[tgt] for (_e, src, tgt) in s.edges):
            continue
        edge_fn = {(src, e): {r: rng.choice(rows[tgt]) for r in rows[src]}
                   for (e, src, tgt) in sorted(s.edges)}
        inst = Instance(s, rows, edge_fn, {})
        try:
            validate_instance(inst)
        except CatqlError:
            continue
        return inst
    return Instance(s, {}, {}, {})


def adjunction_triple(rng, prefix=""):
    """(F: S -> T, I on S, J on T) on small attribute-free DAG schemas."""
    while True:
        T = dag_schema(rng, prefix + "T", equation=rng.random() < 0.4)
        S = dag_schema(rng, prefix + "S", equation=rng.random() < 0.4)
        F = random_mapping(rng, S, T)
        if F is not None:
            return F, random_instance(rng, S), random_instance(rng, T)


def search_space(A, B) -> int:
    """Naive size of the hom search A -> B: the product over nodes of
    |B_n| ** |A_n|."""
    out = 1
    for n in A.schema.nodes:
        out *= len(B.rows[n]) ** len(A.rows[n])
    return out


def pi_families(F, I) -> int:
    """Naive size of pi(F, I)'s search: for each target node t, the product
    over source nodes s of |I_s| ** |hom(t, F(s))|, summed over t.  It bounds
    the number of rows pi can produce."""
    total = 0
    for t in F.target.nodes:
        prod = 1
        for s in F.source.nodes:
            prod *= len(I.rows[s]) ** len(enumerate_morphisms(F.target, t, F.nodes[s]))
        total += prod
    return total
