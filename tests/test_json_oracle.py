"""Report writers against their reference implementations.

``json_oracle`` keeps the serializers as they were first written: one
recursive call per value and ``csv.writer`` for every row, and the per-point
table of a JSON report built field by field from the records.  The production
writers must return the same bytes (and table) for every document, or raise
the same exception.
"""

import math
import os
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import json_oracle
from gcrkit import cli
from gcrkit.catalog import family_catalog
from gcrkit.gcr import classify_surface

# -- canonical JSON ---------------------------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1e16, 1e17, 123456789012345678.0, 2.0 ** -1074 * 3]
EDGE_STRINGS = ['a"b', "back\\slash", "tab\there", "new\nline", "\x00\x1f\x7f", "café",
                "∂θ", "\U0001f600", "x" * 22, "x" * 23, "", "/"]

floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
integers = st.one_of(st.integers(-(2 ** 64), 2 ** 64), st.integers(-(10 ** 40), 10 ** 40),
                     st.sampled_from([2 ** 53 + 1, -(2 ** 53) - 1, 10 ** 17 + 3]))
numpy_scalars = st.one_of(
    floats.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
leaves = st.one_of(
    st.none(), st.booleans(), integers, floats, numpy_scalars,
    st.text(), st.sampled_from(EDGE_STRINGS),
)
keys = st.one_of(st.text(max_size=8), st.sampled_from(EDGE_STRINGS), st.integers(-3, 3),
                 st.booleans())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(keys, children, max_size=6),
    )


documents = st.recursive(leaves, _containers, max_leaves=40)


class Unknown:
    """A value neither serializer knows."""


def _outcome(encode, doc):
    try:
        return "ok", encode(doc)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(documents)
@example({"metric": [[4.0000000000000018, -2.8796048747082981e-17, 0.0],
                     [-2.8796048747082981e-17, 2.0000000000000004, 0.0],
                     [0.0, 0.0, 1.0]]})
@example([[1.0, 2.0], [3.0, 4.0], []])
@example({"a": {}, "b": [], "c": (), "d": ({},), "e": [[]]})
@example([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
@example({"a": [0.0, -0.0, 0.0], "b": {"c": -0.0, "d": 0.0}, "e": np.float64(-0.0)})
@example([2 ** 53 + 1, 10 ** 20, np.float64(0.1), np.int64(-7), np.bool_(True)])
@example({"s": 'q"uote\\ \x01 café', "nl": ["a\nb"]})
@example({"inline": ["x" * 22, 10 ** 23, -1.7976931348623157e308], "multi": ["x" * 23],
          "long_int": [10 ** 24]})
@example({1: "int key", "1": "str key"})
@example([{True: 1}, {1: 2}, {1.5: 3}])
@example({"x": [1.0, math.nan]})
@example({"x": [1.0, -math.inf]})
@example({"x": np.float64(math.inf)})
@example({"x": [1, Unknown()]})
@example(Unknown())
def test_canonical_json_matches_oracle(doc):
    assert _outcome(cli.canonical_json, doc) == _outcome(json_oracle.canonical_json, doc)


@settings(max_examples=100, deadline=None)
@given(documents, st.sampled_from([math.nan, math.inf, -math.inf, Unknown()]))
def test_canonical_json_refuses_like_oracle(doc, bad):
    """A non-finite float or an unknown object anywhere in a document."""
    for wrapped in ([doc, bad], {"a": doc, "b": [bad]}, (bad, doc)):
        new = _outcome(cli.canonical_json, wrapped)
        assert new == _outcome(json_oracle.canonical_json, wrapped)
        assert new[0] != "ok"


def test_families_listing_matches_oracle():
    catalog = family_catalog()
    assert cli.canonical_json(catalog) == json_oracle.canonical_json(catalog)


# -- reports ----------------------------------------------------------------------------------

BUNDLED = sorted(str(p) for p in resources.files("gcrkit").joinpath("specs").iterdir()
                 if p.name.endswith(".json"))
ODE_SPEC = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "specs",
                        "so2_x_so2_ode.json")


def _report(path, full):
    spec = cli.load_spec(path)
    m, echo = cli.build_surface(spec)
    grid = cli._grid_from_spec(spec, m, 3)
    tols = cli._tolerances_from_spec(spec, None)
    return classify_surface(m, grid, tols, include_structural=full), echo


@pytest.mark.parametrize("full", [False, True], ids=["plain", "full"])
@pytest.mark.parametrize("path", BUNDLED + [ODE_SPEC], ids=os.path.basename)
def test_reports_match_oracle(path, full):
    report, echo = _report(path, full)
    assert (cli.report_to_csv(report, echo, full)
            == json_oracle.report_to_csv(report, echo, full))
    doc = cli.report_to_dict(report, echo, include_points=full)
    assert cli.canonical_json(doc) == json_oracle.canonical_json(doc)
    # repr tells -0.0 from 0.0, an int from a float and a tuple from a list
    table = cli.report_to_dict(report, echo, include_points=True)["per_point"]
    assert repr(table) == repr(json_oracle.per_point(report))


def test_report_rows_cover_empty_cells():
    """Degenerate rows leave gcr_primary empty, and a row whose structural
    check was skipped leaves every structural cell empty."""
    by_name = {os.path.basename(p): p for p in BUNDLED}
    report, _ = _report(by_name["rotational_sphere.json"], True)
    assert any(r.gcr_primary is None for r in report.records)
    report, _ = _report(by_name["torus_hypercylinder.json"], True)
    assert any(r.structural is None for r in report.records)
    assert any(r.structural is not None for r in report.records)
