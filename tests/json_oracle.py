"""Reference serializers: the report writers as they were first written.

``canonical_json`` makes one recursive call per value, one ``json.dumps``
call per key and per string, and chooses each list's layout by scanning its
finished parts.  ``report_to_csv`` formats every cell through one helper and
writes each row with ``csv.writer``.  ``per_point`` builds the per-point
table of a JSON report from the records, one field at a time.
``test_json_oracle.py`` requires the production writers in ``gcrkit.cli`` to
return the same bytes (the same table), or to raise the same exception type.
"""

import csv
import io
import json
import math

import numpy as np

from gcrkit.gcr import STRUCTURAL_KEYS, SurfaceReport


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x}")
    return f"{x:.17g}"


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {canonical_json(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        parts = [canonical_json(v, indent + 1) for v in value]
        if all(len(p) <= 24 and "\n" not in p for p in parts):
            return "[" + ", ".join(parts) + "]"
        inner = ",\n".join(f"{pad}  {p}" for p in parts)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def report_to_csv(report: SurfaceReport, echo: dict, include_structural: bool) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    variables = echo["variables"]
    n = report.n
    header = (
        list(variables)
        + ["mu", "theta"]
        + [f"k{i + 1}" for i in range(n)]
        + [f"H{i + 1}" for i in range(n)]
        + ["distinct_count", "degenerate", "gcr_primary", "gcr_secondary", "delta2"]
    )
    if include_structural:
        header += STRUCTURAL_KEYS
    writer.writerow(header)

    def fmt(x) -> str:
        if x is None:
            return ""
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (float, np.floating)):
            return _format_float(float(x))
        return str(x)

    for r in report.records:
        row = (
            [fmt(v) for v in r.point]
            + [fmt(r.mu), fmt(r.theta)]
            + [fmt(v) for v in r.curvatures]
            + [fmt(v) for v in r.means]
            + [fmt(r.distinct_count), fmt(r.degenerate), fmt(r.gcr_primary),
               fmt(r.gcr_secondary), fmt(r.delta2)]
        )
        if include_structural:
            s = r.structural
            row += [fmt(getattr(s, c)) if s is not None else "" for c in STRUCTURAL_KEYS]
        writer.writerow(row)
    return out.getvalue()


def _structural_dict(s) -> dict | None:
    if s is None:
        return None
    doc = {key: getattr(s, key) for key in STRUCTURAL_KEYS}
    return {**doc, "details": dict(s.details), "skipped": list(s.skipped)}


def per_point(report: SurfaceReport) -> list[dict]:
    """The ``per_point`` table of ``report_to_dict``, one dict per record."""
    return [
        {"point": list(r.point), "degenerate": r.degenerate, "mu": r.mu, "theta": r.theta,
         "k": list(r.curvatures), "H": list(r.means), "distinct_count": r.distinct_count,
         "gcr_primary": r.gcr_primary, "gcr_secondary": r.gcr_secondary, "delta2": r.delta2,
         "structural": _structural_dict(r.structural), "structural_note": r.structural_note}
        for r in report.records
    ]
