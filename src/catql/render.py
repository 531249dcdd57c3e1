"""Table rendering for instances: aligned ASCII, CSV (RFC 4180), and JSON."""

from __future__ import annotations

import csv
import io
import json

from .instances import Instance, LabelledNull


def _node_header(schema, node):
    cols = ["id"]
    cols += [name for (name, _ty) in schema.node_attrs[node]]
    cols += [name for (name, _tgt) in schema.out_edges[node]]
    return cols


def _node_cells(I: Instance, node, row):
    cells = [row]
    for (name, _ty) in I.schema.node_attrs[node]:
        cells.append(I.attr(node, name)[row])
    for (name, _tgt) in I.schema.out_edges[node]:
        cells.append(I.edge(node, name)[row])
    return cells


def render_ascii(I: Instance) -> str:
    out = []
    for node in sorted(I.schema.nodes):
        header = _node_header(I.schema, node)
        rows = [list(map(str, _node_cells(I, node, r))) for r in I.node_rows(node)]
        widths = [
            max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(header)
        ]
        out.append(f"{node} ({len(rows)} rows)")
        out.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
        out.append("-+-".join("-" * w for w in widths))
        for r in rows:
            out.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
        out.append("")
    return "\n".join(out)


def render_csv(I: Instance) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    multi = len(I.schema.nodes) > 1
    for node in sorted(I.schema.nodes):
        header = _node_header(I.schema, node)
        if multi:
            writer.writerow([f"#table:{node}"])
        writer.writerow(header)
        for r in I.node_rows(node):
            writer.writerow(map(str, _node_cells(I, node, r)))
    return buf.getvalue()


def _json_cell(v):
    if isinstance(v, LabelledNull):
        return {"null": v.label}
    return v


def render_json(I: Instance) -> str:
    doc = {}
    for node in sorted(I.schema.nodes):
        header = _node_header(I.schema, node)
        doc[node] = [dict(zip(header, map(_json_cell, _node_cells(I, node, r))))
                     for r in I.node_rows(node)]
    if len(doc) == 1:
        doc = next(iter(doc.values()))
    return json.dumps(doc, indent=2)


FORMATS = {"ascii": render_ascii, "csv": render_csv, "json": render_json}


def render_instance(I: Instance, fmt: str = "ascii") -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (expected one of {sorted(FORMATS)})")
    return FORMATS[fmt](I)
