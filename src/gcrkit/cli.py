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

from .catalog import FAMILY_TAGS, CatalogError, _finite, family_catalog, make_family
from .expr import ExprError
from .geometry import GeometryError, Immersion, OutOfDomainError
from .gcr import (
    STRUCTURAL_KEYS,
    DegeneratePointError,
    EmptyReportError,
    GridSpec,
    SurfaceReport,
    Tolerances,
    _classify_block,
    classify_surface,
)

__all__ = ["main", "canonical_json", "load_spec", "build_surface"]

SCHEMA_VERSION = 2
EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SINGULAR = 3

_DEFAULT_GRID = 5
# a sweep of minutes already; GridSpec.points holds them all, and a plain check
# peaks about 290 bytes a point higher (torus_so2_x_so2, measured 10^3 to 40^3)
_MAX_GRID_POINTS = 1_000_000


class SpecError(ValueError):
    """Malformed surface spec file."""


# -- canonical serialization -------------------------------------------------------------


_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str
_INF = math.inf


def canonical_json(value) -> str:
    """Deterministic JSON text: equal documents give equal bytes.

    Keys keep insertion order, one per line, indented two spaces per level.
    A list goes on one line, items joined by ", ", if every item's text is at
    most 24 characters and has no newline, else one item per line.  Floats
    are written at ``%.17g``, NaN and +-inf raise ValueError.  Strings and
    keys are ASCII-escaped as by ``json.dumps``.  Numpy scalars count as the
    values they hold; any other type raises TypeError.
    """
    return _encode(value, "", {})


def _encode(value, pad: str, keys: dict) -> str:
    """``value`` at indentation ``pad``.  ``keys`` maps a dict's indentation
    and key names to its quoted line prefixes, so each is quoted once."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        names = (inner, *map(str, value))
        prefixes = keys.get(names)
        if prefixes is None:
            prefixes = keys[names] = [inner + _quote(k) + ": " for k in names[1:]]
        lines = [p + ("%.17g" % v if type(v) is float and -_INF < v < _INF
                      else _encode(v, inner, keys)) for p, v in zip(prefixes, value.values())]
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        inner = pad + "  "
        parts = ["%.17g" % v if type(v) is float and -_INF < v < _INF else _encode(v, inner, keys)
                 for v in value]
        if max(map(len, parts), default=0) <= 24 and "\n" not in (line := ", ".join(parts)):
            return "[" + line + "]"
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    return _scalar(value)


def _scalar(value) -> str:
    """A float, bool, None, integer or string as JSON text."""
    if type(value) is float and -_INF < value < _INF:
        return "%.17g" % value
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isfinite(x):
            return "%.17g" % x
        raise ValueError(f"non-finite value in report: {x}")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return _quote(value)
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
    # also not UTF-8, an integer past the digit limit or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
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
    # every spec so far is version 1; a bool, float or string is no version
    version = spec.get("schema_version", 1)
    if type(version) is not int or version != 1:
        raise SpecError(f"schema_version must be the integer 1, got {version!r}")
    if not isinstance(spec.get("name", ""), str):
        raise SpecError(f"name must be a string, got {spec['name']!r}")

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
            m = Immersion.from_exprs(spec.get("name", "surface"), components, variables, domain)
            construction = {"components": [str(c) for c in components]}
    except (CatalogError, ExprError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(str(exc)) from exc

    echo = {"name": spec.get("name", m.name)}
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
    try:
        return Tolerances(**merged)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def _number(value) -> float:
    """``value`` as a float, NaN unless it is a number in the float range
    (not a bool or a numeric string)."""
    return float(value) if _finite(value) else math.nan


# -- report assembly ----------------------------------------------------------------------


def report_to_dict(
    report: SurfaceReport, echo: dict, include_points: bool
) -> dict:
    columns = report.columns
    k, means = columns["curvatures"], columns["means"]
    grid_doc = {v: c for v, c in zip(echo["variables"], report.grid.counts)}
    summary = {
        "points_total": len(k) + len(report.skipped),
        "points_regular": len(k),
        "points_degenerate": int(np.count_nonzero(columns["degenerate"])),
        "points_skipped": len(report.skipped),
        "max_gcr_primary": report.max_gcr_primary,
        "max_gcr_secondary": report.max_gcr_secondary,
        "k_min": k.min(axis=0).tolist(),
        "k_max": k.max(axis=0).tolist(),
        "h1_range": [float(means[:, 0].min()), float(means[:, 0].max())],
        "max_abs_top_mean": float(np.max(np.abs(means[:, -1]))),
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
        doc["per_point"] = [
            {"point": p, "degenerate": deg, "mu": mu, "theta": th, "k": kk, "H": hh,
             "distinct_count": d, "gcr_primary": p1, "gcr_secondary": p2, "delta2": d2,
             "structural": None if s is None else {**vars(s), "skipped": list(s.skipped)},
             "structural_note": note}
            for p, mu, th, kk, hh, d, deg, p1, p2, d2, s, note in report._rows(report.columns)
        ]
    return doc


def report_to_csv(report: SurfaceReport, echo: dict, include_structural: bool) -> str:
    n = report.n
    header = [*echo["variables"], "mu", "theta", *[f"k{i + 1}" for i in range(n)],
              *[f"H{i + 1}" for i in range(n)], "distinct_count", "degenerate",
              "gcr_primary", "gcr_secondary", "delta2"]
    if include_structural:
        header += STRUCTURAL_KEYS
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(header)
    # formatted cells hold no comma, quote or newline, so rows need no quoting
    lines = [out.getvalue()]
    for p, mu, th, k, h, d, deg, p1, p2, d2, s, _ in report._rows(report.columns):
        row = [*p, mu, th, *k, *h, d, deg, p1, p2, d2]
        if include_structural:
            row += [None if s is None else getattr(s, c) for c in STRUCTURAL_KEYS]
        lines.append(",".join(["" if x is None else _scalar(x) for x in row]) + "\n")
    return "".join(lines)


# -- verbs --------------------------------------------------------------------------------


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, inside main
    else:
        try:
            _atomic_write(out_path, text if text.endswith("\n") else text + "\n")
        except OSError as exc:  # the temp file's name is not the user's
            raise SpecError(f"cannot write report to {out_path}: {exc.strerror or exc}") from exc


def cmd_check(args) -> int:
    spec = load_spec(args.spec)
    m, echo = build_surface(spec)
    grid = _grid_from_spec(spec, m, args.grid)
    tols = _tolerances_from_spec(spec, args.tol_gcr)
    report = classify_surface(m, grid, tols, include_structural=args.full)
    if args.format == "csv":
        text = report_to_csv(report, echo, include_structural=args.full)
    else:
        text = canonical_json(report_to_dict(report, echo, include_points=args.full))
    _emit(text, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    """``check`` at one point, a one-row block: a point it skips fails with its reason."""
    spec = load_spec(args.spec)
    m, echo = build_surface(spec)
    tols = _tolerances_from_spec(spec, None)
    try:
        point = [float(v) for v in args.point.split(",")]
    except ValueError as exc:
        raise SpecError(f"cannot parse --point: {exc}") from exc
    if len(point) != m.n:
        raise SpecError(f"--point needs {m.n} coordinates for this surface")
    if not m.contains(point):
        raise OutOfDomainError(point, m.domain)
    pg, columns, (why,) = _classify_block(m, np.array([point]), 2, tols, False)
    if why is not None:
        raise GeometryError(why)
    [(_, mu, theta, k, h, _, degenerate, primary, secondary, *_)] = SurfaceReport._rows(columns)
    doc = {
        "surface": echo["name"],
        "point": point,
        "position": pg.position[0].tolist(),
        "metric": pg.metric[0].tolist(),
        "normal": pg.normal[0].tolist(),
        "second_form": pg.second_form[0].tolist(),
        "k": k,
        "H": h,
        "mu": mu,
        "theta": theta,
        "degenerate": degenerate,
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
    except (SpecError, CatalogError, ExprError, OutOfDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (GeometryError, DegeneratePointError, FloatingPointError, EmptyReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
