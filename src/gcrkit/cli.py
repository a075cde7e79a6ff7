"""Command-line front end: surface specs in, classification reports out.

Three verbs: ``check`` sweeps a grid and writes a JSON/CSV report, ``eval``
dumps the full geometry of a single chart point, ``families`` lists the
built-in surface catalog.  Reports are canonical: fixed key order, floats
printed with 17 significant digits, no timestamps — identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from collections.abc import Sequence
from importlib import resources

import numpy as np

from .catalog import FAMILY_TAGS, CatalogError, family_catalog, make_family
from .expr import ExprError
from .geometry import (
    GeometryError,
    Immersion,
    OutOfDomainError,
    SingularPointError,
    curvature_invariants,
    point_geometry,
    principal_data,
)
from .gcr import (
    STRUCTURAL_KEYS,
    DegeneratePointError,
    EmptyReportError,
    GridSpec,
    SurfaceReport,
    Tolerances,
    classify_surface,
    gcr_residual,
    position_angles,
)

__all__ = ["main", "canonical_json", "load_spec", "build_surface"]

SCHEMA_VERSION = 2
EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SINGULAR = 3

_DEFAULT_GRID = 5
_MAX_GRID_POINTS = 1_000_000  # a sweep of minutes already; GridSpec.points holds them all


class SpecError(ValueError):
    """Malformed surface spec file."""


# -- canonical serialization -------------------------------------------------------------


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


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gcrkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- spec files --------------------------------------------------------------------------


def _resolve_spec_path(path: str) -> str:
    if os.path.exists(path):
        return path
    bundled = resources.files("gcrkit").joinpath("specs", os.path.basename(path))
    if bundled.is_file():
        return str(bundled)
    raise SpecError(f"spec file not found: {path}")


def load_spec(path: str) -> dict:
    resolved = _resolve_spec_path(path)
    try:
        with open(resolved, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec file must contain a JSON object")
    return doc


def _domain_list(domain: dict, var_names: tuple[str, ...]) -> list[list[float]]:
    if not isinstance(domain, dict):
        raise SpecError("domain must map variable names to [lo, hi] intervals")
    unknown = set(domain) - set(var_names)
    if unknown:
        raise SpecError(f"domain mentions unknown variables: {sorted(unknown)}")
    missing = set(var_names) - set(domain)
    if missing:
        raise SpecError(f"domain is missing variables: {sorted(missing)}")
    out = []
    for name in var_names:
        iv = domain[name]
        if not (isinstance(iv, (list, tuple)) and len(iv) == 2):
            raise SpecError(f"domain[{name!r}] must be a [lo, hi] pair")
        lo, hi = map(_number, iv)
        if not math.isfinite(hi - lo):
            raise SpecError(f"domain[{name!r}] must be two numbers a finite width apart, got {iv!r}")
        if not lo < hi:
            raise SpecError(f"domain[{name!r}] is empty: [{lo}, {hi}]")
        out.append([lo, hi])
    return out


def build_surface(spec: dict) -> tuple[Immersion, dict]:
    """Construct the Immersion described by a spec document.

    Returns the surface and an echo dict (fully resolved name, construction,
    variables, domain) for embedding in reports.
    """
    known = {
        "schema_version", "name", "family", "parameters",
        "components", "variables", "domain", "grid", "tolerances",
    }
    unknown = set(spec) - known
    if unknown:
        raise SpecError(f"unknown spec fields: {sorted(unknown)}")

    has_family = "family" in spec
    has_raw = "components" in spec
    if has_family == has_raw:
        raise SpecError("spec needs exactly one of 'family' or 'components'")

    try:
        if has_family:
            tag = spec["family"]
            if tag not in FAMILY_TAGS:
                raise SpecError(
                    f"unknown family {tag!r}; valid tags: {', '.join(FAMILY_TAGS)}"
                )
            params = spec.get("parameters", {})
            if not isinstance(params, dict):
                raise SpecError("parameters must be an object")
            if "variables" in spec:
                raise SpecError("family surfaces have fixed variable names")
            call_params = dict(params)
            if "domain" in spec:
                info_vars = next(
                    f["variables"] for f in family_catalog() if f["tag"] == tag
                )
                call_params["domain"] = _domain_list(spec["domain"], tuple(info_vars))
            m = make_family(tag, **call_params)
            construction = {"family": tag, "parameters": params}
        else:
            components = spec["components"]
            variables = spec.get("variables")
            if variables is None:
                raise SpecError("raw-component surfaces must declare variables")
            if not _strings(variables) or len(variables) not in (2, 3):
                raise SpecError("variables must be a list of 2 or 3 chart variable names")
            variables = tuple(variables)
            if not _strings(components) or len(components) != len(variables) + 1:
                raise SpecError(
                    f"need {len(variables) + 1} component strings for {len(variables)} variables"
                )
            if "domain" not in spec:
                raise SpecError("raw-component surfaces must declare a domain")
            domain = _domain_list(spec["domain"], variables)
            name = spec.get("name", "surface")
            m = Immersion.from_exprs(str(name), components, variables, domain)
            construction = {"components": [str(c) for c in components]}
    except (CatalogError, ExprError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(str(exc)) from exc

    echo = {"name": str(spec.get("name", m.name))}
    echo.update(construction)
    echo["variables"] = list(m.var_names)
    echo["domain"] = {v: [lo, hi] for v, (lo, hi) in zip(m.var_names, m.domain)}
    return m, echo


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _grid_from_spec(spec: dict, m: Immersion, override: int | None) -> GridSpec:
    grid = spec.get("grid")
    if override is not None:
        if override < 2:
            raise SpecError("--grid must be at least 2")
        counts = [override] * m.n
    elif grid is None:
        counts = [_DEFAULT_GRID] * m.n
    elif not isinstance(grid, dict):
        raise SpecError("grid must map variable names to sample counts")
    else:
        counts = [grid.get(name, _DEFAULT_GRID) for name in m.var_names]
        for name, count in zip(m.var_names, counts):
            if not isinstance(count, int) or count < 2:
                raise SpecError(f"grid[{name!r}] must be an integer >= 2")
        unknown = set(grid) - set(m.var_names)
        if unknown:
            raise SpecError(f"grid mentions unknown variables: {sorted(unknown)}")
    if math.prod(counts) > _MAX_GRID_POINTS:
        raise SpecError(
            f"grid {'x'.join(map(str, counts))} exceeds {_MAX_GRID_POINTS} points"
        )
    return GridSpec(tuple(counts))


def _tolerances_from_spec(spec: dict, tol_gcr: float | None) -> Tolerances:
    doc = spec.get("tolerances", {})
    if not isinstance(doc, dict):
        raise SpecError("tolerances must be an object")
    defaults = Tolerances()
    allowed = defaults.as_dict()
    unknown = set(doc) - set(allowed)
    if unknown:
        raise SpecError(f"unknown tolerance fields: {sorted(unknown)}")
    merged = {**allowed, **doc}
    if tol_gcr is not None:
        merged["tol_gcr"] = tol_gcr
    return Tolerances(**{k: _tolerance(k, v) for k, v in merged.items()})


def _tolerance(name: str, value) -> float:
    x = _number(value)
    if not (math.isfinite(x) and x >= 0.0):
        raise SpecError(f"tolerance {name!r} must be a finite number >= 0, got {value!r}")
    return x


def _number(value) -> float:
    """``value`` as a float, NaN if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


# -- report assembly ----------------------------------------------------------------------


def _structural_dict(record) -> dict | None:
    s = record.structural
    if s is None:
        return None
    doc = {key: getattr(s, key) for key in STRUCTURAL_KEYS}
    return {**doc, "details": dict(s.details), "skipped": list(s.skipped)}


def _point_dict(record) -> dict:
    return {
        "point": list(record.point),
        "degenerate": record.degenerate,
        "mu": record.mu,
        "theta": record.theta,
        "k": list(record.curvatures),
        "H": list(record.means),
        "distinct_count": record.distinct_count,
        "gcr_primary": record.gcr_primary,
        "gcr_secondary": record.gcr_secondary,
        "delta2": record.delta2,
        "structural": _structural_dict(record),
        "structural_note": record.structural_note,
    }


def report_to_dict(
    report: SurfaceReport, echo: dict, include_points: bool
) -> dict:
    records = report.records
    k_matrix = np.array([r.curvatures for r in records])
    h_matrix = np.array([r.means for r in records])
    grid_doc = {v: c for v, c in zip(echo["variables"], report.grid.counts)}
    summary = {
        "points_total": len(records) + len(report.skipped),
        "points_regular": len(records),
        "points_degenerate": sum(1 for r in records if r.degenerate),
        "points_skipped": len(report.skipped),
        "max_gcr_primary": report.max_gcr_primary,
        "max_gcr_secondary": report.max_gcr_secondary,
        "k_min": [float(v) for v in k_matrix.min(axis=0)],
        "k_max": [float(v) for v in k_matrix.max(axis=0)],
        "h1_range": [float(h_matrix[:, 0].min()), float(h_matrix[:, 0].max())],
        "max_abs_top_mean": float(np.max(np.abs(h_matrix[:, -1]))),
        "distinct_curvature_count": report.distinct_curvature_count,
        "structural_max": dict(report.structural_max),
        "flags": {
            "is_gcr": report.is_gcr,
            "is_isoparametric": report.is_isoparametric,
            "is_cmc": report.is_cmc,
            "is_3_minimal": report.is_3_minimal,
            "is_delta2_ideal": report.is_delta2_ideal,
        },
    }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "surface": echo,
        "grid": grid_doc,
        "tolerances": report.tolerances.as_dict(),
        "engine": {"jet_order": report.jet_order},
        "summary": summary,
        "skipped": [
            {"point": list(point), "reason": reason} for point, reason in report.skipped
        ],
    }
    if include_points:
        doc["per_point"] = [_point_dict(r) for r in records]
    return doc


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


# -- verbs --------------------------------------------------------------------------------


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, inside main
    else:
        _atomic_write(out_path, text if text.endswith("\n") else text + "\n")


def cmd_check(args) -> int:
    spec = load_spec(args.spec)
    m, echo = build_surface(spec)
    grid = _grid_from_spec(spec, m, args.grid)
    tols = _tolerances_from_spec(spec, args.tol_gcr)
    try:
        report = classify_surface(m, grid, tols, include_structural=args.full)
    except EmptyReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    if args.format == "csv":
        text = report_to_csv(report, echo, include_structural=args.full)
    else:
        text = canonical_json(report_to_dict(report, echo, include_points=args.full))
    _emit(text, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    spec = load_spec(args.spec)
    m, echo = build_surface(spec)
    try:
        point = [float(v) for v in args.point.split(",")]
    except ValueError as exc:
        raise SpecError(f"cannot parse --point: {exc}") from exc
    if len(point) != m.n:
        raise SpecError(f"--point needs {m.n} coordinates for this surface")
    if not m.contains(point):
        print(f"error: point {point} outside domain box", file=sys.stderr)
        return EXIT_SPEC
    try:
        pg = point_geometry(m, point)
        pd = principal_data(pg)
    except SingularPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    ci = curvature_invariants(pd.curvatures)
    pa = position_angles(pg)
    if pa.degenerate:
        primary = secondary = None
    else:
        res = gcr_residual(pa, pd, pg)
        primary, secondary = res.primary, res.secondary
    doc = {
        "surface": echo["name"],
        "point": point,
        "position": [float(v) for v in pg.position],
        "metric": [[float(v) for v in row] for row in pg.metric],
        "normal": [float(v) for v in pg.normal],
        "second_form": [[float(v) for v in row] for row in pg.second_form],
        "k": [float(v) for v in pd.curvatures],
        "H": [float(v) for v in ci.mean],
        "mu": pa.mu,
        "theta": pa.theta,
        "degenerate": pa.degenerate,
        "gcr_primary": primary,
        "gcr_secondary": secondary,
    }
    _emit(canonical_json(doc), None)
    return EXIT_OK


def cmd_families(args) -> int:
    catalog = family_catalog()
    if args.json:
        _emit(canonical_json(catalog), None)
        return EXIT_OK
    for info in catalog:
        print(f"{info['tag']}")
        print(f"    {info['description']}")
        print(f"    variables: {', '.join(info['variables'])}")
        if info["parameters"]:
            for pname, doc in info["parameters"].items():
                print(f"    {pname}: {doc}")
        else:
            print("    no parameters")
        print()
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcrkit",
        description="Curvature and position-principality analysis of parametrized hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="classify a surface over a grid")
    check.add_argument("spec", help="spec file path (or the name of a bundled spec)")
    check.add_argument("--grid", type=int, default=None, help="override all grid counts")
    check.add_argument("--tol-gcr", type=float, default=None, dest="tol_gcr")
    check.add_argument("--full", action="store_true",
                       help="per-point records and structural residuals")
    check.add_argument("--out", default=None, help="write report to a file (atomic)")
    check.add_argument("--format", choices=("json", "csv"), default="json")
    check.set_defaults(func=cmd_check)

    ev = sub.add_parser("eval", help="dump geometry at a single chart point")
    ev.add_argument("spec", help="spec file path (or the name of a bundled spec)")
    ev.add_argument("--point", required=True, help="comma-separated chart coordinates")
    ev.set_defaults(func=cmd_eval)

    fam = sub.add_parser("families", help="list built-in surface families")
    fam.add_argument("--json", action="store_true")
    fam.set_defaults(func=cmd_families)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="raise", under="ignore"):  # no silent inf or NaN
            return args.func(args)
    except BrokenPipeError:
        # reader gone (`| head`): no traceback; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SpecError, CatalogError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OutOfDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (GeometryError, DegeneratePointError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
