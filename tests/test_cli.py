"""Exit codes, report schema, determinism, and spec-file validation."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrkit.catalog import FAMILY_TAGS, CatalogError, build_normal_frame, family_catalog
from gcrkit.cli import (
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_SPEC,
    build_surface,
    canonical_json,
    load_spec,
    main,
    report_to_csv,
    report_to_dict,
)
from gcrkit import gcr
from gcrkit.gcr import GridSpec, classify_surface
from test_gcr import _marked_saddle


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SADDLE = {
    "name": "saddle",
    "components": ["s", "t", "s^2 - t^2"],
    "variables": ["s", "t"],
    "domain": {"s": [-1.0, 1.0], "t": [-1.0, 1.0]},
    "grid": {"s": 4, "t": 5},
}


# -- canonical serialization ------------------------------------------------------------------


def test_canonical_json_formatting():
    doc = {"b": 1.5, "a": [True, None, 3], "c": "x\"y", "d": {}, "e": 0.1}
    text = canonical_json(doc)
    parsed = json.loads(text)
    assert parsed == doc
    # insertion order preserved, floats at 17 significant digits
    assert text.index('"b"') < text.index('"a"') < text.index('"c"')
    assert "0.10000000000000001" in text
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


# -- check ------------------------------------------------------------------------------------


def test_check_bundled_spec(capsys):
    assert main(["check", "special_sqrt2.json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 2
    assert doc["surface"]["family"] == "special_sqrt2"
    assert doc["summary"]["flags"]["is_gcr"] is True
    assert doc["summary"]["flags"]["is_3_minimal"] is True
    assert doc["engine"] == {"jet_order": 2}
    assert "step_rel" not in doc["tolerances"]
    assert "per_point" not in doc


def test_check_full_records_order3_engine(capsys):
    assert main(["check", "special_sqrt2.json", "--grid", "2", "--full"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["engine"] == {"jet_order": 3}
    details = doc["per_point"][0]["structural"]["details"]
    assert set(details) == {
        "k1-flat-2", "k1-flat-3", "k2-transport", "k3-transport",
        "frame-twist", "k3-cross", "k2-cross",
    }


def test_check_full_report_and_grid_override(tmp_path, capsys):
    spec = write_spec(tmp_path, "saddle.json", SADDLE)
    assert main(["check", spec, "--grid", "3", "--full"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["grid"] == {"s": 3, "t": 3}
    assert len(doc["per_point"]) == 9
    rec = doc["per_point"][0]
    assert set(rec) >= {"point", "mu", "theta", "k", "H", "gcr_primary", "delta2"}
    assert rec["delta2"] is None  # two-variable charts have no spectral split
    assert doc["engine"] == {"jet_order": 2}  # no transport system, no order-3 jets
    assert doc["summary"]["flags"]["is_gcr"] is False


def test_check_deterministic_across_runs_and_workers(tmp_path):
    spec = write_spec(tmp_path, "saddle.json", SADDLE)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["check", spec, "--full", "--out", str(out1)]) == EXIT_OK
    assert main(["check", spec, "--full", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_check_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, "saddle.json", SADDLE)
    assert main(["check", spec, "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:4] == ["s", "t", "mu", "theta"]
    assert len(lines) == 1 + 4 * 5
    assert "r_geodesic" not in lines[0]
    assert main(["check", spec, "--format", "csv", "--full"]) == EXIT_OK
    header = capsys.readouterr().out.splitlines()[0]
    assert "r_geodesic" in header and "r_codazzi_system" in header


def test_check_tolerance_override(tmp_path, capsys):
    spec = write_spec(tmp_path, "saddle.json", SADDLE)
    assert main(["check", spec, "--tol-gcr", "10"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["tolerances"]["tol_gcr"] == 10.0
    assert doc["summary"]["flags"]["is_gcr"] is True  # everything passes at 10


def test_check_singular_surface_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, "bad.json", {
        "components": ["s", "s", "0"],
        "variables": ["s", "t"],
        "domain": {"s": [0.0, 1.0], "t": [0.0, 1.0]},
    })
    assert main(["check", spec]) == EXIT_SINGULAR
    assert "no regular grid point" in capsys.readouterr().err


def test_check_family_with_parameters_and_domain(tmp_path, capsys):
    spec = write_spec(tmp_path, "cyl.json", {
        "name": "unit circle times plane",
        "family": "hypercylinder_rotational",
        "parameters": {"f": "1", "g": "s"},
        "domain": {"s": [-1.0, 1.0], "t": [0.0, 6.28], "u": [0.25, 1.25]},
        "grid": {"s": 3, "t": 4, "u": 3},
    })
    assert main(["check", spec]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["flags"]["is_gcr"] is True
    assert doc["summary"]["flags"]["is_isoparametric"] is True
    assert doc["summary"]["distinct_curvature_count"] == 2
    assert doc["surface"]["domain"]["u"] == [0.25, 1.25]


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"components": ["s", "t", "0"]}, "variables"),
        ({"components": ["s", "t", "0"], "variables": ["s", "t"]}, "domain"),
        ({"family": "nope"}, "unknown family"),
        ({"family": "special_sqrt2", "components": ["s"]}, "exactly one"),
        ({}, "exactly one"),
        ({"family": "special_sqrt2", "variables": ["a", "b", "c"]}, "fixed variable"),
        ({"family": "special_sqrt2", "wat": 1}, "unknown spec fields"),
        ({"family": "special_sqrt2", "grid": {"s": 1}}, ">= 2"),
        ({"family": "special_sqrt2", "tolerances": {"nope": 1.0}}, "tolerance"),
        ({"family": "special_sqrt2", "domain": {"s": [2.0, 1.0]}}, "missing variables"),
        (
            {"components": ["cos(s", "t", "0"], "variables": ["s", "t"],
             "domain": {"s": [0, 1], "t": [0, 1]}},
            "offset",
        ),
        (
            {"components": ["s", "t", "0"], "variables": ["s", "t"],
             "domain": {"s": [1.0, 0.0], "t": [0, 1]}},
            "empty",
        ),
        ({"family": "special_sqrt2", "tolerances": {"step_rel": 1e-4}}, "step_rel"),
        ({"family": "special_sqrt2", "tolerances": {"tol_gcr": "abc"}}, "'abc'"),
        ({"family": "special_sqrt2", "tolerances": {"tol_gap": float("nan")}}, "got nan"),
        ({"family": "special_sqrt2", "tolerances": {"eps_reg": -1}}, ">= 0, got -1"),
        # oversized work is refused before anything is allocated
        ({"family": "curve_tube", "parameters": {"samples": 1e9}}, "got 1000000000.0"),
        ({"family": "curve_tube", "parameters": {"samples": 10**9}}, "from 2 to 100000"),
        ({"family": "so2_x_so2", "parameters": {"kappa": "1", "step": 1e-300},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}}, "exceeds 1000000 steps"),
        ({"family": "so2_x_so2", "parameters": {"kappa": "1", "step": "abc"},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}}, "got 'abc'"),
        # a float-route overflow is an evaluation error, not a traceback
        ({"family": "tangent_cone",
          "parameters": {"y": ["exp(exp(exp(4)))", "0", "0", "0"]}}, "math range error"),
        # junk field types and non-finite bounds
        ({"components": ["s", "t", "0"], "variables": ["s", "t"],
          "domain": {"s": [None, 1], "t": [0, 1]}}, "a finite width apart, got [None, 1]"),
        ({"components": ["s", "t", "0"], "variables": ["s", "t"],
          "domain": {"s": [-math.inf, math.inf], "t": [0, 1]}}, "got [-inf, inf]"),
        ({"components": ["s", "t", "0"], "variables": 5,
          "domain": {"s": [0, 1], "t": [0, 1]}}, "variables must be a list"),
        ({"components": [1, 2, 3], "variables": ["s", "t"],
          "domain": {"s": [0, 1], "t": [0, 1]}}, "component strings"),
        # a grid too large to sweep is refused before any point is built
        ({"family": "special_sqrt2", "grid": {"s": 1000, "t": 1000, "u": 1000}},
         "exceeds 1000000 points"),
        # profile data the integrator cannot use
        ({"family": "so2_x_so2", "parameters": {"kappa": "1", "init": [float("nan"), 0, 0]},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}}, "init must be three finite"),
        ({"family": "so2_x_so2", "parameters": {"kappa": True},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}}, "got True"),
        # float arithmetic that gives NaN quietly
        ({"family": "so2_x_so2", "parameters": {"kappa": "0*(1e200*1e200)"},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}},
         "curvature 0.0*(1e+200*1e+200) is NaN"),
        ({"family": "curve_tube",
          "parameters": {"alpha": ["cos(w)+0*(1e200*1e200)", "sin(w)", "0", "0"]}},
         "curve must lie on the unit 3-sphere"),
        # components nested past the parser's depth limit, each of which once
        # overflowed Python's stack in the parser, the evaluator or the printer
        *(
            ({"components": ["s", "t", deep], "variables": ["s", "t"],
              "domain": {"s": [0.5, 1], "t": [0, 1]}}, f"nests deeper than 200 levels at {at}")
            for deep, at in [
                ("(" * 900 + "s" + ")" * 900, "offset 201"),
                ("-" * 900 + "s", "offset 201"),
                ("+".join(["s"] * 3000), "offset 401"),
                ("^".join(["s"] * 1000), "offset 402"),
            ]
        ),
        # a bool or a numeric string is not a number
        ({"family": "special_sqrt2", "tolerances": {"tol_gcr": True}}, "got True"),
        ({"components": ["s", "t", "0"], "variables": ["s", "t"],
          "domain": {"s": ["-1", "1"], "t": [0, 1]}}, "got ['-1', '1']"),
        # family numbers too: no bool, no numeric string, nothing non-finite
        ({"family": "conical_hypercylinder", "parameters": {"c1": True, "c2": "0.8"}},
         "c1 must be a finite number, got True"),
        ({"family": "conical_hypercylinder", "parameters": {"c2": "0.8"}},
         "c2 must be a finite number, got '0.8'"),
        ({"family": "conical_hypercylinder", "parameters": {"c1": math.inf}},
         "c1 must be a finite number, got inf"),
        ({"family": "so2_x_so2", "parameters": {"kappa": "1", "init": "123"},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}},
         "init must be three finite numbers (f0, g0, angle0), got '123'"),
        ({"family": "so2_x_so2", "parameters": {"kappa": "1", "init": ["1.5", "0.4", "0.1"]},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}},
         "got ['1.5', '0.4', '0.1']"),
        ({"family": "curve_tube", "parameters": {"c": "0.5"}},
         "c must be a finite number, got '0.5'"),
        ({"family": "tangent_cone", "parameters": {"c": False}},
         "c must be a finite number, got False"),
        ({"family": "tangent_cone", "parameters": {"c": math.nan}},
         "c must be a finite number, got nan"),
        # an expression list is a list, not a string split into characters,
        # and each expression is a string
        ({"family": "product_cylinder", "parameters": {"base": "stt"}},
         "base surface needs a list of 3 component expressions, got 'stt'"),
        ({"family": "tangent_cone", "parameters": {"y": "vwvw"}},
         "base surface needs a list of 4 component expressions, got 'vwvw'"),
        ({"family": "curve_tube", "parameters": {"alpha": "wwww"}},
         "spherical curve needs a list of 4 component expressions, got 'wwww'"),
        ({"family": "curve_tube", "parameters": {"alpha": {"w": 1}}},
         "spherical curve needs a list of 4 component expressions, got {'w': 1}"),
        ({"family": "so2_x_so2", "parameters": {"f": 5}},
         "profile expressions must be strings, got 5"),
        ({"family": "product_cylinder", "parameters": {"base": ["s", None, "t"]}},
         "base surface expressions must be strings, got None"),
        ({"family": "so2_x_so2", "parameters": {"kappa": ["1"]},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}},
         "curvature expressions must be strings, got ['1']"),
        # an integer beyond float range is no finite number either
        ({"family": "special_sqrt2", "tolerances": {"tol_gap": 10**400}},
         "tolerance 'tol_gap' must be a finite number >= 0, got 1000"),
        # nor anywhere else a spec takes a number
        ({"family": "tangent_cone", "parameters": {"c": 10**400}},
         "c must be a finite number, got 1000"),
        ({"family": "so2_x_so2", "parameters": {"kappa": "1", "step": 10**400},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}},
         "integration step must be a finite number > 0, got 1000"),
        ({"family": "so2_x_so2", "parameters": {"kappa": "1", "init": [0, 10**400, 0]},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}},
         "init must be three finite numbers (f0, g0, angle0), got [0, 1000"),
        ({"components": ["s", "t", "0"], "variables": ["s", "t"],
          "domain": {"s": [0, 10**400], "t": [0, 1]}},
         "domain['s'] must be two numbers a finite width apart, got [0, 1000"),
        ({"family": "so2_x_so2", "parameters": {"kappa": 10**400},
          "domain": {"s": [0.2, 1.2], "t": [0, 6], "u": [0, 6]}},
         "curvature must be a finite number or an expression in s, got 1000"),
        # a spec's schema_version, when given, is the integer 1
        ({"family": "special_sqrt2", "schema_version": 7},
         "schema_version must be the integer 1, got 7"),
        ({"family": "special_sqrt2", "schema_version": True},
         "schema_version must be the integer 1, got True"),
        ({"family": "special_sqrt2", "schema_version": 1.0},
         "schema_version must be the integer 1, got 1.0"),
        ({"family": "special_sqrt2", "schema_version": "1"},
         "schema_version must be the integer 1, got '1'"),
        ({"family": "special_sqrt2", "schema_version": None},
         "schema_version must be the integer 1, got None"),
        # a spec's name, when given, is a string
        ({"family": "special_sqrt2", "name": ["x"]}, "name must be a string, got ['x']"),
        ({"family": "special_sqrt2", "name": {"a": 1}}, "name must be a string, got {'a': 1}"),
        ({"components": ["s", "t", "0"], "variables": ["s", "t"], "name": 123,
          "domain": {"s": [0, 1], "t": [0, 1]}}, "name must be a string, got 123"),
        # a base or curve whose squared norm overflows, or is NaN, is off the sphere
        ({"family": "tangent_cone", "parameters": {"y": ["1e200*cos(v)", "sin(v)", "0", "0"]}},
         "base surface must lie on the unit 3-sphere"),
        ({"family": "tangent_cone", "parameters": {"y": [
            "cos(v)*cos(w)+0*(1e200*1e200)", "cos(v)*sin(w)", "sin(v)*cos(w)", "sin(v)*sin(w)"]}},
         "base surface must lie on the unit 3-sphere"),
        ({"family": "curve_tube", "parameters": {"alpha": ["1e200*cos(w)", "sin(w)", "0", "0"]}},
         "curve must lie on the unit 3-sphere"),
        # an integration that succeeds, and knot data h^2 kappa that overflows
        ({"family": "so2_x_so2", "parameters": {"kappa": "1e302", "step": 10000.0},
          "domain": {"s": [0, 1e5], "t": [0, 6], "u": [0, 6]}},
         "curvature 1e+302 gives knot data outside the float range"),
        # names a spec does not declare, or cannot declare
        ({"family": "special_sqrt2",
          "domain": {"s": [0, 1], "t": [0, 1], "u": [0, 1], "x": [0, 1]}},
         "domain mentions unknown variables: ['x']"),
        ({"family": "special_sqrt2", "grid": {"s": 3, "zz": 3}},
         "grid mentions unknown variables: ['zz']"),
        ({"family": "special_sqrt2", "tolerances": [1e-7]}, "tolerances must be an object"),
        ({"components": ["s", "1s", "0"], "variables": ["s", "1s"],
          "domain": {"s": [0, 1], "1s": [0, 1]}}, "invalid variable name '1s'"),
        # field types, characters and names that each parse or check refuses
        ({"family": "special_sqrt2", "parameters": []}, "error: parameters must be an object"),
        ({"family": "special_sqrt2", "grid": [3]},
         "error: grid must map variable names to sample counts"),
        ({"components": ["s$t", "t", "0"], "variables": ["s", "t"],
          "domain": {"s": [0, 1], "t": [0, 1]}}, "error: unexpected character '$' at offset 1"),
        ({"components": ["s", "s", "0"], "variables": ["s", "s"], "domain": {"s": [0, 1]}},
         "error: duplicate variable name 's'"),
        ({"components": ["s", "t", "0"], "variables": ["s", "t"], "domain": [[0, 1], [0, 1]]},
         "error: domain must map variable names to [lo, hi] intervals"),
        # literals that float() refuses, or reads as inf
        ({"components": ["s*²", "t", "0"], "variables": ["s", "t"],
          "domain": {"s": [0, 1], "t": [0, 1]}}, "error: unexpected character '²' at offset 2"),
        ({"components": ["s*1e400", "t", "0"], "variables": ["s", "t"],
          "domain": {"s": [0, 1], "t": [0, 1]}},
         "error: number '1e400' is outside the float range at offset 2"),
    ],
)
def test_check_spec_validation_errors(tmp_path, capsys, doc, fragment):
    spec = write_spec(tmp_path, "spec.json", doc)
    assert main(["check", spec]) == EXIT_SPEC
    err = capsys.readouterr().err
    assert fragment in err
    assert err.count("\n") == 1 and err.startswith("error: ")


# on the unit 3-sphere and regular, with alpha'' about 1e100: the frame's
# transport overflows
SHARP_TUBE = {"family": "curve_tube",
              "parameters": {"alpha": ["cos(w)", "sin(w)", "1e-300*sin(1e200*w)", "0"]}}
# regular with speed 1e200: the curve's rows overflow, and the regularity
# checks read them one by one
FAST_TUBE = {"family": "curve_tube",
             "parameters": {"alpha": ["cos(1e200*w)", "sin(1e200*w)", "0", "0"]}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_sharply_curved_tube_is_refused_whatever_the_error_state(tmp_path, capsys, state):
    for tube in (SHARP_TUBE, FAST_TUBE):
        spec = write_spec(tmp_path, "tube.json", tube)
        with np.errstate(all=state):
            assert main(["check", spec]) == EXIT_SPEC
            with pytest.raises(CatalogError) as err:
                build_normal_frame(tube["parameters"]["alpha"], (0.0, 1.0))
        assert capsys.readouterr().err == (
            "error: spherical curve gives frame knot data outside the float range "
            "on [-0.37699111843077515, 6.660176425610361]\n")
        assert str(err.value) == (
            "spherical curve gives frame knot data outside the float range on [0.0, 1.0]")


def test_check_grid_flag_capped(capsys):
    assert main(["check", "special_sqrt2.json", "--grid", "100000"]) == EXIT_SPEC
    err = capsys.readouterr().err
    assert err == "error: grid 100000x100000x100000 exceeds 1000000 points\n"
    assert main(["check", "special_sqrt2.json", "--grid", "1"]) == EXIT_SPEC
    assert capsys.readouterr().err == "error: --grid must be at least 2\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_components_skip_points_quietly(tmp_path, capfd):
    # 2^(1000 s) and its derivatives leave the float range inside [0, 1].  At
    # s = 0.5, g_ss = 5e306 is finite but d_s g_ss is not: order-2 geometry
    # never reads d_k g_ij, so a plain check classifies those points
    spec = write_spec(tmp_path, "overflow.json", {
        "components": ["s", "t", "2^(s*1000)"],
        "variables": ["s", "t"],
        "domain": {"s": [0, 1], "t": [0, 1]},
    })
    assert main(["check", spec]) == EXIT_OK
    out, err = capfd.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["summary"]["points_regular"] == 15
    reasons = {entry["point"][0]: entry["reason"] for entry in doc["skipped"]}
    assert sorted(reasons) == [0.75, 1.0]
    assert reasons[1.0] == "evaluation failed: jets or geometry not finite at [1.0, 1.0]"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_only_dmetric_overflowing_is_no_plain_skip_in_3d(tmp_path, capfd):
    # the 3-D companion: a plain check classifies the s = 0.5 points, and
    # --full, whose order-3 geometry reads d_k g_ij, still skips them
    spec = write_spec(tmp_path, "overflow3.json", {
        "components": ["s", "t", "u", "2^(s*1000)"],
        "variables": ["s", "t", "u"],
        "domain": {"s": [0, 1], "t": [0, 1], "u": [0, 1]},
    })
    for flags, regular, skipped in (([], 18, [1.0]), (["--full"], 9, [0.5, 1.0])):
        assert main(["check", spec, "--grid", "3", *flags]) == EXIT_OK
        out, err = capfd.readouterr()
        assert err == ""
        doc = json.loads(out)
        assert doc["summary"]["points_regular"] == regular
        reasons = {tuple(entry["point"]): entry["reason"] for entry in doc["skipped"]}
        assert sorted({p[0] for p in reasons}) == skipped
        assert len(reasons) == 9 * len(skipped)
        for p, reason in reasons.items():
            where = [float(v) for v in p]
            assert reason == f"evaluation failed: jets or geometry not finite at {where}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_full_on_the_deepest_power_tower_exits_cleanly(tmp_path, capfd):
    # s^s^...^s at the parser's depth cap: its order-3 derivative trees nest
    # far deeper still, and neither deriving nor compiling them may exhaust
    # Python's stack.  check --full exits 0, or 2 with one line, and never
    # prints a traceback; the tower overflows at s = 1.5, which skips
    spec = write_spec(tmp_path, "tower.json", {
        "components": ["s", "t", "u", "^".join(["s"] * 201)],
        "variables": ["s", "t", "u"],
        "domain": {"s": [0.5, 1.5], "t": [0, 1], "u": [0, 1]},
    })
    code = main(["check", spec, "--full", "--grid", "3"])
    out, err = capfd.readouterr()
    assert "Traceback" not in err
    assert (code, err.count("\n")) in ((EXIT_OK, 0), (EXIT_SPEC, 1))
    if code == EXIT_OK:
        doc = json.loads(out)
        assert doc["summary"]["points_regular"] + doc["summary"]["points_skipped"] == 27
        assert {entry["point"][0] for entry in doc["skipped"]} <= {1.5}


def test_only_christoffel_symbols_overflowing_is_no_plain_skip(tmp_path, capfd):
    # at s = 0, d_s g_ss = 1.6e308 is finite but the Christoffel numerator
    # 2 d_s g_ss is not: a plain check never computes Gamma and classifies the
    # points, --full needs it for the covariant derivative of h and skips them
    spec = write_spec(tmp_path, "gamma.json", {
        "components": ["s", "t", "u", "1e8*s+4e299*s^2"],
        "variables": ["s", "t", "u"],
        "domain": {"s": [0, 1], "t": [0.5, 1], "u": [0.5, 1]},
    })
    assert main(["check", spec, "--grid", "3"]) == EXIT_OK
    doc = json.loads(capfd.readouterr().out)
    assert doc["summary"]["points_regular"] == 9
    assert {entry["point"][0] for entry in doc["skipped"]} == {0.5, 1.0}
    assert main(["check", spec, "--grid", "3", "--full"]) == EXIT_SINGULAR
    assert capfd.readouterr().err == (
        "error: no regular grid point: first failure at [0.0, 0.5, 0.5] "
        "(evaluation failed: overflow encountered in multiply)\n"
    )


_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, 10**400]),
    st.lists(st.lists(st.integers(0, 2), max_size=2), max_size=2),
)
_EXPRS = st.sampled_from([
    "s", "t", "u", "0", "1", "2+cos(s)", "sin(s)", "s^2-t^2", "log(s)", "1/s", "sqrt(t)",
    "s^0.5", "abs(t)", "1e200*(s^2+t^2)", "exp(exp(exp(4)))", "2^(s*1000)", "1e999", "(",
])
_SPHERE = st.sampled_from([
    "cos(v)*cos(w)", "cos(v)*sin(w)", "sin(v)*cos(w)", "sin(v)*sin(w)", "cos(w)", "sin(w)",
    "0", "1", "exp(exp(exp(4)))", "w^0.5",
])
_PARAMETERS = {
    "f": _EXPRS, "g": _EXPRS, "kappa": st.one_of(_EXPRS, st.floats(-2, 2)),
    "init": st.lists(st.floats(-1, 1), min_size=3, max_size=3),
    "c": st.floats(-1, 1), "c1": st.floats(-1, 1), "c2": st.floats(-1, 1),
    "y": st.lists(_SPHERE, min_size=4, max_size=4),
    "alpha": st.lists(_SPHERE, min_size=4, max_size=4),
    "base": st.lists(_EXPRS, min_size=3, max_size=3),
    # profile steps and frame samples are cheap or refused before any work
    "step": st.sampled_from([0.1, 0.25, 1e-300, 0.0, -1.0]),
    "samples": st.sampled_from([2, 5, 9, 10**9, 1e9]),
}
_FAMILIES = {f["tag"]: f for f in family_catalog()}
_ONE_IN_TEN = st.sampled_from([False] * 9 + [True])


@st.composite
def _specs(draw):
    """Spec documents built from the real vocabulary; each field may instead
    be junk.  Grid counts stay at most 3 or go over the cap."""

    def value(good):
        return draw(_JUNK if draw(_ONE_IN_TEN) else good)

    doc = {}
    if draw(st.booleans()):
        tag = doc["family"] = value(st.sampled_from(FAMILY_TAGS))
        info = _FAMILIES.get(tag) if isinstance(tag, str) else None
        names = info["variables"] if info else ["s", "t", "u"]
        own = sorted(info["parameters"]) if info else []
        pool = sorted(_PARAMETERS) if not own or draw(_ONE_IN_TEN) else own
        keys = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        if tag == "curve_tube":
            keys.append("samples")  # the default frame costs 0.3 s per build
        if "kappa" in keys:
            keys.append("step")
        doc["parameters"] = value(st.just({k: value(_PARAMETERS[k]) for k in keys}))
    else:
        names = draw(st.sampled_from([["s", "t"], ["s", "t", "u"]]))
        doc["variables"] = value(st.just(names))
        doc["components"] = value(st.lists(_EXPRS, min_size=len(names) + 1,
                                           max_size=len(names) + 1))
    if draw(st.booleans()) or "variables" in doc:
        interval = st.lists(st.floats(-2, 7), min_size=2, max_size=2).map(sorted)
        doc["domain"] = value(st.just({v: value(interval) for v in names}))
    count = st.sampled_from([2, 3] * 5 + [10**7])
    doc["grid"] = value(st.just({v: value(count) for v in names}))
    if draw(st.booleans()):
        doc["tolerances"] = {
            k: value(st.floats(0, 1e-3)) for k in draw(st.lists(
                st.sampled_from(["tol_gcr", "tol_gap", "eps_reg", "nope"]), max_size=2))
        }
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(["name", "schema_version", "wat"]))] = draw(_JUNK)
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=_specs(), flags=st.sampled_from([[], ["--full"], ["--grid", "2"]]))
def test_check_any_spec_exits_cleanly(doc, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", path, *flags])
    assert code in (EXIT_OK, EXIT_SPEC, EXIT_SINGULAR)
    assert err.getvalue().count("\n") == (code != EXIT_OK)


def test_check_tol_gcr_flag_validated(capsys):
    assert main(["check", "special_sqrt2.json", "--tol-gcr", "nan"]) == EXIT_SPEC
    assert "finite" in capsys.readouterr().err


def test_skip_reasons_print_plain_floats(tmp_path, capsys):
    spec = write_spec(tmp_path, "log.json", {
        "components": ["s", "t", "log(s)"],
        "variables": ["s", "t"],
        "domain": {"s": [-1.0, 1.0], "t": [0.0, 1.0]},
        "grid": {"s": 3, "t": 2},
    })
    assert main(["check", spec]) == EXIT_OK
    skipped = json.loads(capsys.readouterr().out)["skipped"]
    assert len(skipped) == 4
    assert "failed at [-1.0, 0.0]" in skipped[0]["reason"]
    assert all("np." not in s["reason"] for s in skipped)


def _leaf_types(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return set().union(*map(_leaf_types, value))
    return {type(value)}


def test_full_report_leaves_are_exact_python_types():
    # grid points reach records and skips as Python floats, not numpy
    # scalars, like every other figure of the document
    skipping = {
        "components": ["s", "t", "u", "log(s)"],
        "variables": ["s", "t", "u"],
        "domain": {"s": [-1.0, 1.0], "t": [0.0, 1.0], "u": [0.0, 1.0]},
    }
    for spec in (load_spec("torus_so2_x_so2.json"), skipping):
        m, echo = build_surface(spec)
        report = classify_surface(m, GridSpec((3,) * m.n), include_structural=True)
        assert report.records and (report.skipped or spec is not skipping)
        doc = report_to_dict(report, echo, include_points=True)
        assert _leaf_types(doc) <= {float, int, str, bool, type(None)}


def _log_t():
    # log(t) fails at t <= 0: the first points of each grid row are skipped
    spec = {"components": ["s", "t", "s*s+log(t)"], "variables": ["s", "t"],
            "domain": {"s": [0.5, 1.5], "t": [-1, 1]}}
    m, echo = build_surface(spec)
    return m, echo, GridSpec((5, 5))


def _torus():
    m, echo = build_surface(load_spec("torus_so2_x_so2.json"))
    return m, echo, GridSpec((4, 4, 4))


def _saddle():
    # its block's figures fail and rerun one row at a time
    m, grid = _marked_saddle()
    return m, {"name": m.name, "variables": list(m.var_names)}, grid


@pytest.mark.parametrize("full", [False, True], ids=["plain", "full"])
@pytest.mark.parametrize("surface", [_torus, _log_t, _saddle], ids=lambda f: f.__name__[1:])
def test_the_write_path_builds_no_point_records(monkeypatch, surface, full):
    made = []

    class Counting(gcr.PointRecord):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(gcr, "PointRecord", Counting)
    m, echo, grid = surface()
    report = classify_surface(m, grid, include_structural=full)
    doc = report_to_dict(report, echo, include_points=full)
    canonical_json(doc)
    report_to_csv(report, echo, full)
    assert made == []
    # the records are built on access, one per classified point
    records = report.records
    assert made == records and len(records) == doc["summary"]["points_regular"] > 0
    assert report.skipped or m.n == 3


def test_check_exits_quietly_when_stdout_closes():
    # the report (about 400 kB) outgrows the pipe buffer, so the writer is
    # still writing when the reader goes away, as with `| head -c 10`
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gcrkit", "check", "torus_so2_x_so2.json", "--full"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "schem'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_check_missing_and_malformed_files(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == EXIT_SPEC
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == EXIT_SPEC
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["check", str(arr)]) == EXIT_SPEC
    capsys.readouterr()
    # a directory exists but is no file to read
    assert main(["check", str(tmp_path)]) == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read spec file: ")
    assert captured.err.count("\n") == 1
    # bytes that are not UTF-8, an integer past the digit limit in a domain
    # bound (refused as a bound where there is no limit) and arrays nested
    # past the recursion limit: one line each, no traceback
    undecodable = {
        "latin1.json": '{"family": "special_sqrt2", "name": "caf\xe9"}'.encode("latin-1"),
        "digits.json": ('{"components": ["s", "t", "0"], "variables": ["s", "t"], '
                        '"domain": {"s": [0, 1' + "0" * 5000 + '], "t": [0, 1]}}').encode(),
        "deep.json": b"[" * 100_000,
    }
    for name, data in undecodable.items():
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["check", str(path)]) == EXIT_SPEC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_check_out_to_an_unwritable_path(tmp_path, capsys, where):
    out = tmp_path / ("absent/x.json" if where == "missing" else "report")
    if where == "directory":
        out.mkdir()
    assert main(["check", "special_sqrt2.json", "--grid", "2", "--out", str(out)]) == EXIT_SPEC
    captured = capsys.readouterr()
    reason = "No such file or directory" if where == "missing" else "Is a directory"
    assert captured.err == f"error: cannot write report to {out}: {reason}\n"
    assert captured.out == ""
    # no temp file is left beside the report
    assert sorted(p.name for p in tmp_path.rglob("*")) == ([] if where == "missing" else ["report"])


# -- eval -------------------------------------------------------------------------------------


def test_eval_frozen_point(capsys):
    assert main(["eval", "special_sqrt2.json", "--point", "1.0,0.5,2.0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert math.isclose(doc["mu"], 2.0, rel_tol=1e-12)
    assert math.isclose(doc["theta"], math.pi / 2, rel_tol=1e-12)
    assert doc["degenerate"] is False
    assert doc["gcr_primary"] < 1e-12
    k = doc["k"]
    assert math.isclose(k[0], -0.5, abs_tol=1e-12) and math.isclose(k[2], 0.5, abs_tol=1e-12)
    assert abs(sum(v * v for v in doc["normal"]) - 1.0) < 1e-12


def test_eval_out_of_domain_and_bad_point(capsys):
    assert main(["eval", "special_sqrt2.json", "--point", "99,0,0"]) == EXIT_SPEC
    assert main(["eval", "special_sqrt2.json", "--point", "1,2"]) == EXIT_SPEC
    assert main(["eval", "special_sqrt2.json", "--point", "a,b,c"]) == EXIT_SPEC
    capsys.readouterr()


def test_eval_out_of_domain_line_names_the_box(capsys):
    assert main(["eval", "special_sqrt2.json", "--point", "99,0,0"]) == EXIT_SPEC
    assert capsys.readouterr().err == (
        "error: point [99.0, 0.0, 0.0] outside domain box "
        "((0.5, 2.5), (0.0, 6.283185307179586), (0.0, 6.283185307179586))\n")


def test_eval_singular_point(tmp_path, capsys):
    spec = write_spec(tmp_path, "pinch.json", {
        "components": ["s^2", "t", "0"],
        "variables": ["s", "t"],
        "domain": {"s": [-1.0, 1.0], "t": [0.0, 1.0]},
    })
    assert main(["eval", spec, "--point", "0,0.5"]) == EXIT_SINGULAR
    assert "singular" in capsys.readouterr().err.lower()


def test_eval_overflow_exits_cleanly(tmp_path, capsys):
    # finite geometry whose curvature product leaves the float range
    spec = write_spec(tmp_path, "steep.json", {
        "components": ["s", "t", "1e200*(s^2+t^2)"],
        "variables": ["s", "t"],
        "domain": {"s": [-1.0, 1.0], "t": [-1.0, 1.0]},
    })
    assert main(["eval", spec, "--point", "0,0"]) == EXIT_SINGULAR
    # the kernel skips the point with check's reason
    assert capsys.readouterr().err == "error: evaluation failed: overflow encountered in multiply\n"


def test_eval_degenerate_point(tmp_path, capsys):
    spec = write_spec(tmp_path, "sphere.json", {"family": "rotational"})
    assert main(["eval", spec, "--point", "0.2,1.2,2.0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is True
    assert doc["gcr_primary"] is None and doc["gcr_secondary"] is None


def test_eval_honours_spec_eps_tan_rel(tmp_path, capsys):
    # a tangential part shorter than 10 mu counts as vanishing: every point is
    # degenerate, for eval as for check
    spec = write_spec(tmp_path, "wide.json", {"family": "special_sqrt2",
                                              "tolerances": {"eps_tan_rel": 10}})
    assert main(["check", spec, "--grid", "2"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["points_degenerate"] == summary["points_total"] == 8
    assert main(["eval", spec, "--point", "1,1,1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is True
    assert doc["gcr_primary"] is None and doc["gcr_secondary"] is None


def test_eval_honours_spec_eps_reg(tmp_path, capsys):
    # det g = 16 at (1, 1, 1) is below eps_reg = 1e6
    spec = write_spec(tmp_path, "reg.json", {"family": "special_sqrt2",
                                             "tolerances": {"eps_reg": 1e6}})
    assert main(["eval", spec, "--point", "1,1,1"]) == EXIT_SINGULAR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: singular metric (det g = 1.600e+01)\n"


@pytest.mark.parametrize("tolerances", [{"eps_tan_rel": -1}, {"tol_huge": 1.0}])
def test_eval_refuses_tolerances_that_check_refuses(tmp_path, capsys, tolerances):
    spec = write_spec(tmp_path, "bad.json", {"family": "special_sqrt2",
                                             "tolerances": tolerances})
    assert main(["check", spec]) == EXIT_SPEC
    want = capsys.readouterr().err
    assert main(["eval", spec, "--point", "1,1,1"]) == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == want
    assert want.count("\n") == 1 and want.startswith("error: ")


_EVAL_KEYS = ("k", "H", "mu", "theta", "degenerate", "gcr_primary", "gcr_secondary")


@pytest.mark.parametrize("spec", sorted(
    p.name for p in resources.files("gcrkit").joinpath("specs").iterdir() if p.name.endswith(".json")))
def test_eval_prints_what_check_reports_at_each_point(spec, capsys):
    # eval is check at one point: the same text for every figure they share
    assert main(["check", spec, "--full", "--grid", "3"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["per_point"] and not doc["skipped"]  # every grid point is compared
    for entry in doc["per_point"]:
        assert main(["eval", spec, "--point=" + ",".join(map(repr, entry["point"]))]) == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert canonical_json({key: got[key] for key in _EVAL_KEYS}) == canonical_json(
            {key: entry[key] for key in _EVAL_KEYS}), entry["point"]


_SKIPPING_CHARTS = {
    # log(t) fails to evaluate at t <= 0
    "log_t": {"components": ["s", "t", "s*s+log(t)"], "variables": ["s", "t"],
              "domain": {"s": [0.5, 1.5], "t": [-1, 1]}},
    # the metric is singular along s = 0
    "pinched": {"components": ["s^2", "t", "0"], "variables": ["s", "t"],
                "domain": {"s": [-1.0, 1.0], "t": [0.0, 1.0]}},
    # test_gcr's marked saddle: singular at (-1, 1), and at (1, 1) the position
    # split overflows after the geometry assembled (a classification-stage skip)
    "marked_saddle": {"components": ["s*(1-t)/2", "t",
                                     "(s+1)^2*t/2+1e160*exp(-700*((s-1)^2+(t-1)^2))"],
                      "variables": ["s", "t"], "domain": {"s": [-1.0, 1.0], "t": [-1.0, 1.0]}},
}


@pytest.mark.parametrize("chart", sorted(_SKIPPING_CHARTS))
def test_eval_fails_with_checks_reason_at_each_skipped_point(tmp_path, capsys, chart):
    spec = write_spec(tmp_path, f"{chart}.json", _SKIPPING_CHARTS[chart])
    assert main(["check", spec, "--grid", "3"]) == EXIT_OK
    skipped = json.loads(capsys.readouterr().out)["skipped"]
    assert skipped
    for entry in skipped:
        assert main(["eval", spec, "--point=" + ",".join(map(repr, entry["point"]))]) == EXIT_SINGULAR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {entry['reason']}\n", entry["point"]


# -- families ---------------------------------------------------------------------------------


def test_families_listing(capsys):
    assert main(["families"]) == EXIT_OK
    out = capsys.readouterr().out
    for tag in FAMILY_TAGS:
        assert tag in out


def test_families_json(capsys):
    assert main(["families", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [f["tag"] for f in doc] == list(FAMILY_TAGS)
