"""Fuzz the command-line surface: whatever the curves file holds, parsing
ends in a curve pair or a named error, and every command ends in one of
the documented exit codes (0/1/2/3) without an escaping exception."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diams.errors import ParseError, ValidationError
from diams.io_cli import parse_curves, run_cli

FUZZ = settings(max_examples=200, derandomize=True, deadline=None,
                database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(
                       st.sampled_from(["alpha", "beta", "alpha_offset",
                                        "beta_offset"]), inner)),
    max_leaves=10)

offsets = st.lists(st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3),
                   min_size=3, max_size=5)


@st.composite
def curve_docs(draw):
    """A curve pair at one scale from 1e-300 to 1e300: alpha runs along x
    at height 1, beta along y at height 0, each point moved by up to 0.4
    per coordinate.  Half of them carry one coordinate that is an integer
    past the float range or a boolean, which JSON readers confuse with
    numbers.  Each curve offset is absent, small, near the 2^52 index
    limit or past the int64 range."""
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    doc = {"alpha": [[(k + x) * scale, y * scale, (1.0 + z) * scale]
                     for k, (x, y, z) in enumerate(draw(offsets))],
           "beta": [[x * scale, (k + y) * scale, z * scale]
                    for k, (x, y, z) in enumerate(draw(offsets))]}
    for key in ("alpha_offset", "beta_offset"):
        if draw(st.booleans()):
            doc[key] = draw(st.integers(-5, 5)
                            | st.integers(-2 ** 53, 2 ** 53)
                            | st.integers(-10 ** 400, 10 ** 400))
    if draw(st.booleans()):
        points = doc[draw(st.sampled_from(["alpha", "beta"]))]
        point = points[draw(st.integers(0, len(points) - 1))]
        point[draw(st.integers(0, 2))] = draw(
            st.integers(-10 ** 400, 10 ** 400) | st.booleans())
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run_everything(data, workdir):
    try:
        parse_curves(data)
    except (ParseError, ValidationError):
        pass
    path = workdir / "curves.json"
    path.write_bytes(data)
    out = str(workdir / "out")
    for args in (["validate"], ["analyze", "--report", out],
                 ["mesh", "--out", out, "--subdiv", "1"]):
        code = run_cli([args[0], "--curves", str(path)] + args[1:])
        assert code in (0, 1, 2, 3)


@FUZZ
@given(data=st.binary(max_size=64))
def test_random_bytes_end_in_an_exit_code(data, workdir):
    _run_everything(data, workdir)


@FUZZ
@given(doc=json_values)
def test_random_json_ends_in_an_exit_code(doc, workdir):
    _run_everything(json.dumps(doc).encode(), workdir)


@FUZZ
@given(doc=curve_docs())
def test_curve_documents_end_in_an_exit_code(doc, workdir):
    _run_everything(json.dumps(doc).encode(), workdir)
