"""The four workloads.  Each builds one pass of ops from a seeded RNG; an op
is a label, a call into catql's public functions (the timed part) and a
check of its output (untimed).

Calls go through module attributes (``sqlbridge.import_sql``), so the traced
run's wrappers see them.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import gen
from catql import instances, migration, parsing, queries, scenario, scripts, sqlbridge


class CheckFailed(Exception):
    """An op returned a wrong answer."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def result_rows(table):
    """A query result as a set of attribute tuples in alias order."""
    aliases = sorted(a for (a, _n, _t) in table.schema.attributes)
    return {tuple(table.attr("row", a)[r] for a in aliases) for r in table.node_rows("row")}


def _log_spaced(lo, hi, n):
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


# ---- enrich ------------------------------------------------------------------

# Portal scale factors of one pass (1 = the bundled corpus's size); the first
# op of every pass runs the bundled corpus itself.
ENRICH_SCALES = _log_spaced(1, 100, 25)


def enrich_sizes(scale):
    """(extra material names, ontology words, synonym pairs) for a scale."""
    return 4 + scale, min(300, 20 + 3 * scale), min(60, 3 + scale // 2)


def _enrich_pipeline(sql, parent_text, syn_text, query_text):
    """What ``catql enrich`` does, plus the bundled query before and after and
    the export of the result."""
    _schema, portal = sqlbridge.import_sql(sql)
    parent_env, _ = scripts.run_script(parsing.parse_script(parent_text), scripts.Environment())
    syn_env, _ = scripts.run_script(parsing.parse_script(syn_text), scripts.Environment())
    parent = parent_env.lookup("parent", "instance", 0)
    syn = syn_env.lookup("syn", "instance", 0)
    q = parsing.parse_query(query_text)
    cfg = scenario.ScenarioConfig()
    before = queries.eval_query_direct(q, portal)
    isa = scenario.closure_auto(parent, cfg.closure_n)
    isa_prime = scenario.translate_isa(isa, syn, cfg.closure_n)
    enriched = scenario.enrich(portal, isa_prime, cfg)
    after = queries.eval_query_direct(q, enriched)
    return before, after, sqlbridge.export_sql(enriched.schema, enriched)


def _enrich_op(label, texts, exact=None):
    def check(out):
        before, after, sql_out = out
        pre, post = result_rows(before), result_rows(after)
        _expect(pre <= post, f"{label}: pre-enrichment rows missing after enrichment")
        _expect(sql_out.startswith("CREATE TABLE"), f"{label}: empty export")
        if exact is not None:
            _expect((len(pre), len(post)) == exact,
                    f"{label}: {len(pre)} -> {len(post)} rows, expected {exact}")

    return Op(label, lambda: _enrich_pipeline(*texts), check)


def enrich_pass(rng, scales):
    query = gen.bundled("query1.txt")
    ops = []
    for i, scale in enumerate(scales):
        if i == 0 and scale == 1:
            texts = (gen.bundled("portal_a.sql"), gen.bundled("parent.catql"),
                     gen.bundled("syn.catql"), query)
            ops.append(_enrich_op("bundled", texts, exact=(2, 5)))
            continue
        extra, words, pairs = enrich_sizes(scale)
        parent_text, onto = gen.ontology_catql(rng, words)
        syn_text = gen.synonyms_catql(rng, onto, [f"mat-{j}" for j in range(extra)], pairs)
        texts = (gen.portal_sql(rng, scale, extra), parent_text, syn_text, query)
        ops.append(_enrich_op(f"x{scale}", texts))
    return ops


# ---- migrate -----------------------------------------------------------------

Q2 = ("select c.capability_Capability_Name as n, u.unitcode_Code as k "
      "from capability as c, unitcode as u where u = c.capability_Max_Length_Unit")
Q3 = ("select c.capability_Capability_Name as n, m.material_Material_Name as mn "
      "from capabilitymaterials as x, capability as c, material as m "
      "where c = x.capabilitymaterials_Capability_id and m = x.capabilitymaterials_Material_id")
Q4 = ("select c.capability_Capability_Name as n, m.material_Material_Name as mn, "
      "u.unitcode_Code as k "
      "from capabilitymaterials as x, capability as c, material as m, unitcode as u "
      "where c = x.capabilitymaterials_Capability_id and m = x.capabilitymaterials_Material_id "
      "and u = c.capability_Max_Length_Unit")

# (query name, portal scale) pairs of one pass; scale 0 is the bundled portal.
MIGRATE_MIX = (
    [("query1", 0), ("query1", 1)]
    + [("join3", s) for s in (1, 2, 3, 4, 5)]
    + [("join4", s) for s in (1, 2, 3, 4)]
    + [("join2", s) for s in _log_spaced(5, 170, 14)]
)


def migrate_pass(rng, mix):
    texts = {"query1": gen.bundled("query1.txt"), "join2": Q2, "join3": Q3, "join4": Q4}
    ops = []
    for (qname, scale) in mix:
        sql = gen.bundled("portal_a.sql") if scale == 0 else gen.portal_sql(rng, scale, 4 + scale)
        _schema, inst = sqlbridge.import_sql(sql)
        q = parsing.parse_query(texts[qname])
        expected = result_rows(queries.eval_query_direct(q, inst))
        label = f"{qname}@x{scale}"

        def check(out, expected=expected, label=label):
            _expect(result_rows(out) == expected, f"{label}: differs from direct evaluation")

        ops.append(Op(label, lambda q=q, inst=inst: queries.eval_query_via_migration(q, inst),
                      check))
    return ops


# ---- adjunction --------------------------------------------------------------

# Triples are rejected before they become ops when the naive hom search
# space of any of the four counts exceeds ADJ_CAP, or when pi(F, I)'s naive
# family count exceeds ADJ_PI_MAX.  Both are input properties; they keep
# single ops under about a quarter second, so a run holds enough of the
# heaviest ops for its totals to be steady.
ADJ_CAP = 2_000
ADJ_PI_MAX = 300
# Ops per pass by stratum, close to the generator's natural proportions:
# "big" is J -> pi(F, I) with at least ADJ_BIG_PI target rows; the numbered
# strata are floor(log10) of the largest search space of the four counts.
ADJ_BIG_PI = 50
ADJ_QUOTA = {"big": 1, 0: 216, 1: 57, 2: 24, 3: 2}


def _adjunction_counts(F, I, J):
    return (
        instances.enumerate_homs(migration.sigma(F, I), J),
        instances.enumerate_homs(I, migration.delta(F, J)),
        instances.enumerate_homs(migration.delta(F, J), I),
        instances.enumerate_homs(J, migration.pi(F, I)),
    )


def _adjunction_check(label):
    def check(out):
        a, b, c, d = out
        _expect(a == b, f"{label}: sigma adjunction {a} != {b}")
        _expect(c == d, f"{label}: pi adjunction {c} != {d}")
    return check


def adjunction_pass(rng, quota, stats, prefix=""):
    """Draw triples until every stratum's quota is met; ``stats`` counts
    triples rejected by the caps and triples drawn for full strata."""
    need = dict(quota)
    ops = []
    while any(need.values()):
        F, I, J = gen.adjunction_triple(rng, prefix)
        space = max(gen.search_space(migration.sigma(F, I), J),
                    gen.search_space(I, migration.delta(F, J)),
                    gen.search_space(migration.delta(F, J), I))
        if space > ADJ_CAP or gen.pi_families(F, I) > ADJ_PI_MAX:
            stats["rejected"] += 1
            continue
        pi_FI = migration.pi(F, I)
        space = max(space, gen.search_space(J, pi_FI))
        if space > ADJ_CAP:
            stats["rejected"] += 1
            continue
        stratum = "big" if pi_FI.total_rows() >= ADJ_BIG_PI else (
            int(math.log10(space)) if space >= 1 else 0)
        if not need.get(stratum):
            stats["surplus"] += 1
            continue
        need[stratum] -= 1
        stats["kept"] += 1
        label = f"s{stratum}"
        ops.append(Op(label, lambda F=F, I=I, J=J: _adjunction_counts(F, I, J),
                      _adjunction_check(label)))
    rng.shuffle(ops)
    return ops


# ---- roundtrip ---------------------------------------------------------------

# Portal scales of one pass: 213 to 889 rows.  iso_check recurses once per
# row and raises RecursionError a little below 1000 rows, so larger sizes
# are exercised by the per-pass probe instead of as ops.
ROUNDTRIP_SCALES = [8 + round(26 * i / 24) for i in range(25)]
PROBE_SCALE = 85  # 2215 rows


def _roundtrip(sql):
    schema, inst = sqlbridge.import_sql(sql)
    _schema2, again = sqlbridge.import_sql(sqlbridge.export_sql(schema, inst))
    return instances.iso_check(inst, again)


def roundtrip_pass(rng, scales):
    ops = []
    for scale in scales:
        sql = gen.portal_sql(rng, scale, 4 + scale)
        label = f"x{scale}"

        def check(out, label=label):
            _expect(out is True, f"{label}: reimported instance is not isomorphic")

        ops.append(Op(label, lambda sql=sql: _roundtrip(sql), check))
    return ops


class Workload:
    """One workload under one seed: how to build a pass of ops, the warm-up
    mix, and an optional untimed step after each pass."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.stats = Counter()
        self.after_pass = None
        if name == "enrich":
            self.build = lambda rng: enrich_pass(rng, ENRICH_SCALES)
            self.warm = lambda rng: enrich_pass(rng, [2, 3, 5, 8, 13, 20])
            self.mix = {"portal_scales": ENRICH_SCALES,
                        "sizes": {s: enrich_sizes(s) for s in ENRICH_SCALES}}
        elif name == "migrate":
            self.build = lambda rng: migrate_pass(rng, MIGRATE_MIX)
            self.warm = lambda rng: migrate_pass(
                rng, [("join2", 10), ("join2", 20), ("join3", 2), ("join3", 3), ("join4", 2)])
            self.mix = {"query_at_portal_scale": [f"{q}@x{s}" for (q, s) in MIGRATE_MIX]}
        elif name == "adjunction":
            self.build = lambda rng: adjunction_pass(rng, ADJ_QUOTA, self.stats)
            # "w" names the warm-up schemas apart, so no core cache entry
            # made during warm-up can serve a timed op.
            self.warm = lambda rng: adjunction_pass(rng, {0: 80, 1: 30, 2: 12}, Counter(), "w")
            self.mix = {"quota_per_stratum": {str(k): v for k, v in ADJ_QUOTA.items()},
                        "search_space_cap": ADJ_CAP, "big_pi_rows": ADJ_BIG_PI,
                        "pi_families_cap": ADJ_PI_MAX}
        elif name == "roundtrip":
            self.build = lambda rng: roundtrip_pass(rng, ROUNDTRIP_SCALES)
            self.warm = lambda rng: roundtrip_pass(rng, [4, 6, 8, 10])
            schema, inst = sqlbridge.import_sql(gen.portal_sql(self.rng("probe"), PROBE_SCALE, 4))
            _s, again = sqlbridge.import_sql(sqlbridge.export_sql(schema, inst))
            self._probe = (inst, again)
            self.mix = {"portal_scales": ROUNDTRIP_SCALES, "probe_rows": inst.total_rows()}
            self.after_pass = self._run_probe
        else:
            raise ValueError(f"unknown workload {name!r}")

    def rng(self, tag):
        return random.Random(f"{self.seed}/{self.name}/{tag}")

    def _run_probe(self):
        """iso_check on an instance above its recursion depth; counts the
        outcome and returns False only on a wrong answer."""
        try:
            outcome = str(instances.iso_check(*self._probe))
        except RecursionError:
            outcome = "RecursionError"
        self.stats[f"probe_{outcome}"] += 1
        return outcome != "False"
