"""Exit codes, report schema, determinism, and spec-file validation."""

import json
import math
import os
import subprocess
import sys

import pytest

from gcrkit.catalog import FAMILY_TAGS
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
    ],
)
def test_check_spec_validation_errors(tmp_path, capsys, doc, fragment):
    spec = write_spec(tmp_path, "spec.json", doc)
    assert main(["check", spec]) == EXIT_SPEC
    err = capsys.readouterr().err
    assert fragment in err
    assert err.count("\n") == 1 and err.startswith("error: ")


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
