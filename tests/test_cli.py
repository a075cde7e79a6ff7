"""Exit codes, report schema, determinism, and spec-file validation."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrkit.catalog import FAMILY_TAGS, family_catalog
from gcrkit.cli import EXIT_OK, EXIT_SINGULAR, EXIT_SPEC, canonical_json, main


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
    ],
)
def test_check_spec_validation_errors(tmp_path, capsys, doc, fragment):
    spec = write_spec(tmp_path, "spec.json", doc)
    assert main(["check", spec]) == EXIT_SPEC
    err = capsys.readouterr().err
    assert fragment in err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_check_grid_flag_capped(capsys):
    assert main(["check", "special_sqrt2.json", "--grid", "100000"]) == EXIT_SPEC
    err = capsys.readouterr().err
    assert err == "error: grid 100000x100000x100000 exceeds 1000000 points\n"


def test_overflowing_components_skip_points_quietly(tmp_path, capfd):
    # 2^(1000 s) and its derivatives leave the float range inside [0, 1]
    spec = write_spec(tmp_path, "overflow.json", {
        "components": ["s", "t", "2^(s*1000)"],
        "variables": ["s", "t"],
        "domain": {"s": [0, 1], "t": [0, 1]},
    })
    assert main(["check", spec]) == EXIT_OK
    out, err = capfd.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["summary"]["points_regular"] == 10
    reasons = {entry["point"][0]: entry["reason"] for entry in doc["skipped"]}
    assert sorted(reasons) == [0.5, 0.75, 1.0]
    assert reasons[1.0] == "evaluation failed: jets or geometry not finite at [1.0, 1.0]"


_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300]),
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
    assert capsys.readouterr().err == "error: overflow encountered in multiply\n"


def test_eval_degenerate_point(tmp_path, capsys):
    spec = write_spec(tmp_path, "sphere.json", {"family": "rotational"})
    assert main(["eval", spec, "--point", "0.2,1.2,2.0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is True
    assert doc["gcr_primary"] is None and doc["gcr_secondary"] is None


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
