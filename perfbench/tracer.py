"""Spans around the public functions of each catql layer, installed from
outside the package.

``install`` replaces each traced function, in every loaded module that holds
it, by a wrapper that records a span (name, start, end, parent span, op id)
and adds the span's duration minus its child spans to the layer's self time.
``uninstall`` puts the original functions back, so untraced passes run the
program unchanged.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs whose spans and counters the traced run reports.
TRACED = [
    ("core", "normalize_path"),
    ("core", "all_morphisms_from"),
    ("instances", "relationalize"),
    ("instances", "union"),
    ("instances", "validate_instance"),
    ("instances", "enumerate_homs"),
    ("instances", "iso_check"),
    ("migration", "delta"),
    ("migration", "sigma"),
    ("migration", "pi"),
    ("queries", "eval_query_direct"),
    ("queries", "desugar_query"),
    ("queries", "eval_query_via_migration"),
    ("sqlbridge", "import_sql"),
    ("sqlbridge", "export_sql"),
    ("scenario", "closure_auto"),
    ("scenario", "translate_isa"),
    ("scenario", "compose_relations"),
    ("scenario", "enrich"),
    ("parsing", "parse_script"),
    ("parsing", "parse_query"),
    ("scripts", "run_script"),
]

# Spans kept for the JSON dump; calls beyond this are aggregated but not kept.
MAX_SPANS = 200_000


def _new_rows(before, after):
    return sum(len(set(after.rows[n]) - set(before.rows[n])) for n in after.schema.nodes)


# Per-function counters: name -> f(args, result) -> {counter: amount}.
COUNTERS = {
    "instances.relationalize": lambda a, out: {
        "rows_in": a[0].total_rows(), "rows_out": out.total_rows()},
    "instances.enumerate_homs": lambda a, out: {"homs": out},
    "migration.sigma": lambda a, out: {"rows_out": out.total_rows()},
    "migration.pi": lambda a, out: {"rows_out": out.total_rows()},
    "queries.eval_query_direct": lambda a, out: {"rows_out": out.total_rows()},
    "sqlbridge.import_sql": lambda a, out: {"bytes_in": len(a[0])},
    "sqlbridge.export_sql": lambda a, out: {"bytes_out": len(out)},
    "scenario.enrich": lambda a, out: {"rows_added": _new_rows(a[0], out)},
}


class Tracer:
    """Spans and per-function totals of one run, kept in memory."""

    def __init__(self):
        self.op_id = None
        self.spans = []
        self.dropped = 0
        self.totals = defaultdict(float)  # "layer.fn.metric" -> sum
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._originals = {}  # (module name, attribute) -> original

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name)
        totals = self.totals

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                totals[name + ".failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                totals[name + ".calls"] += 1
                totals[name + ".self_s"] += dur - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((name, start, end, parent, sid, self.op_id))
                else:
                    self.dropped += 1
            if counters is not None:
                for k, v in counters(args, out).items():
                    totals[f"{name}.{k}"] += v
            return out

        return traced

    def install(self):
        """Wrap every traced function wherever a catql module holds a
        reference to it; the benchmark itself calls through module attributes."""
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "catql" or n.startswith("catql."))]
        for (mod, fn_name) in TRACED:
            module = sys.modules[f"catql.{mod}"]
            original = getattr(module, fn_name)
            wrapper = self._wrap(f"{mod}.{fn_name}", original)
            for holder in holders:
                if getattr(holder, fn_name, None) is original:
                    self._originals[(holder.__name__, fn_name)] = original
                    setattr(holder, fn_name, wrapper)

    def uninstall(self):
        for (holder, fn_name), original in self._originals.items():
            setattr(sys.modules[holder], fn_name, original)
        self._originals.clear()

    def dump(self):
        """Spans as JSON-ready records, start and end relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": p, "id": i, "op": op}
                for (n, s, e, p, i, op) in self.spans
            ],
            "dropped": self.dropped,
        }
