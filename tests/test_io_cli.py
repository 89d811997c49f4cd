import dataclasses
import json
import warnings

import numpy as np
import pytest

from diams import ConormalNet, PolyCurve, analyze_net
from diams.errors import ParseError, ValidationError
from diams.io_cli import (CurvePairFile, _dump, example_curve_pair,
                          parse_curves, report_from_analysis,
                          report_from_oracle, run_cli, write_curves,
                          write_report)
from diams.smooth_oracle import (builtin_pair, find_swallowtails,
                                 trace_singular_curve)

from _helpers import (example_net, parabolic_net, parabolic_points, parse_obj,
                      random_admissible_net, reference_dump,
                      reference_report_bytes)


def test_parse_curves_example_with_offsets():
    cpf = example_curve_pair(1.0)
    parsed = parse_curves(write_curves(cpf))
    assert parsed.alpha_offset == -1 and parsed.beta_offset == -1
    assert parsed.alpha.shape == (3, 3)
    net = parsed.to_net()
    assert net.domain.u_min == -1 and net.domain.v_max == 1


def test_parse_curves_defaults_offsets_to_zero():
    doc = {"alpha": [[0, 0, 1], [1, 0, 1], [2, 1, 1]],
           "beta": [[0, 0, 0], [1, 1, 0], [2, 0, 0]]}
    cpf = parse_curves(json.dumps(doc))
    assert cpf.alpha_offset == 0 and cpf.beta_offset == 0


@pytest.mark.parametrize("key", ["alpha_offset", "beta_offset"])
def test_boolean_offsets_are_rejected(key, tmp_path, capsys):
    # JSON true is a Python bool, which isinstance(..., int) accepts
    doc = {"alpha": [[0, 0, 1], [1, 0, 1], [2, 1, 1]],
           "beta": [[0, 0, 0], [1, 1, 0], [2, 0, 0]], key: True}
    with pytest.raises(ValidationError, match=key):
        parse_curves(json.dumps(doc))
    curves = tmp_path / "c.json"
    curves.write_text(json.dumps(doc))
    assert _run(["analyze", "--curves", curves,
                 "--report", tmp_path / "r.json"]) == 1
    assert key in capsys.readouterr().err


def test_parse_curves_errors_name_the_index():
    with pytest.raises(ParseError):
        parse_curves(b"{ not json")
    with pytest.raises(ParseError):
        parse_curves(b"[1, 2]")
    doc = {"alpha": [[0, 0, 1], [1, 0, 1]],
           "beta": [[0, 0, 0], [1, 1, 0], [2, 0, 0]]}
    with pytest.raises(ValidationError, match="at least 3"):
        parse_curves(json.dumps(doc))
    doc = {"alpha": [[0, 0, 1], [1, 0, 1], [1, 0, 1], [2, 0, 1]],
           "beta": [[0, 0, 0], [1, 1, 0], [2, 0, 0]]}
    with pytest.raises(ValidationError, match=r"alpha\[1\] and alpha\[2\]"):
        parse_curves(json.dumps(doc))
    doc = {"alpha": [[0, 0, 1], [1, 0, 1], [2, 0, 1]],
           "beta": [[0, 0, 0], [1, "x", 0], [2, 0, 0]]}
    with pytest.raises(ValidationError, match=r"beta\[1\]"):
        parse_curves(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"beta\[1\]"):
        parse_curves(json.dumps(doc).replace('"x"', "Infinity"))


def test_curve_roundtrip_identity(rng):
    pts = rng.normal(size=(5, 3))
    pts2 = rng.normal(size=(4, 3))
    cpf = CurvePairFile(alpha_offset=-2, beta_offset=3, alpha=pts, beta=pts2)
    back = parse_curves(write_curves(cpf))
    assert back.alpha_offset == -2 and back.beta_offset == 3
    assert np.array_equal(back.alpha, pts)
    assert np.array_equal(back.beta, pts2)
    assert write_curves(back) == write_curves(cpf)


def test_report_bytes_deterministic():
    analysis = analyze_net(example_net(1.0))
    r1 = write_report(report_from_analysis(analysis, 1e-9, 1e-9))
    analysis2 = analyze_net(example_net(1.0))
    r2 = write_report(report_from_analysis(analysis2, 1e-9, 1e-9))
    assert r1 == r2
    doc = json.loads(r1)
    assert doc["smooth"] is False
    centre = next(v for v in doc["vertices"] if v["vertex"] == [0, 0])
    assert centre["configuration"] == "C"
    assert centre["kind"] == "Swallowtail"
    # quads keyed by doubled integers
    keys = {tuple(e["quad"]) for e in doc["omega"]}
    assert keys == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    edges = {(e["axis"], tuple(e["base_vertex"])) for e in doc["singular_edges"]}
    assert edges == {("v", (0, 0)), ("u", (0, 0))}


def test_report_singular_edges_reference_opposite_sign_omegas():
    for y in (-0.5, -2.0, 1.0):
        analysis = analyze_net(example_net(y))
        doc = json.loads(write_report(report_from_analysis(analysis, 1e-9, 1e-9)))
        omega = {tuple(e["quad"]): e["value"] for e in doc["omega"]}
        for e in doc["singular_edges"]:
            u, v = e["base_vertex"]
            if e["axis"] == "v":
                pair = omega[(2 * (u - 1) + 1, 2 * v + 1)], omega[(2 * u + 1, 2 * v + 1)]
            else:
                pair = omega[(2 * u + 1, 2 * (v - 1) + 1)], omega[(2 * u + 1, 2 * v + 1)]
            assert pair[0] * pair[1] < 0


def test_report_non_finite_floats_become_null():
    from diams.io_cli import _dump
    assert _dump(float("nan")) == "null"
    assert _dump({"a": float("inf"), "b": 1.5}) == '{"a":null,"b":1.5}'


def test_dump_values():
    cases = [
        (True, "true"), (False, "false"), (1, "1"), (0, "0"), (None, "null"),
        (np.int64(-7), "-7"), (np.float64(0.1), "0.10000000000000001"),
        (np.float32(0.5), "0.5"), (float("-0.0"), "-0"), (-1e-300, "-1e-300"),
        (float("-inf"), "null"), (np.float64("nan"), "null"),
        (np.array([[1.0, np.nan], [2.5, -0.0]]), "[[1,null],[2.5,-0]]"),
        (np.arange(3), "[0,1,2]"),
        ((1, "a", (None,)), '[1,"a",[null]]'),
        ("a\"b\\\n\u00e9\u2603", json.dumps("a\"b\\\n\u00e9\u2603")),
        ({"\u00e9": {"b": True, "a": [1.5, None]}, "Z": 1},
         '{"Z":1,"\\u00e9":{"a":[1.5,null],"b":true}}'),
    ]
    for value, text in cases:
        assert _dump(value) == text, value
        assert reference_dump(value) == text, value
    # a bool is not serialized as the int it subclasses, nor 1 as true
    assert _dump([True, 1, 1.0]) == "[true,1,1]"
    with pytest.raises(TypeError):
        _dump({1, 2})
    with pytest.raises(TypeError):
        _dump({"a": [object()]})


def _offset_net(h, alpha_offset, beta_offset):
    a, b, _ = parabolic_points(h)
    return ConormalNet(PolyCurve(a, alpha_offset), PolyCurve(b, beta_offset))


def _strip_net(n_alpha, n_beta):
    # a 3-point curve against an N-point curve when one count is 3
    a, b, _ = parabolic_points(0.1)
    return ConormalNet(PolyCurve(a[8:8 + n_alpha], -1),
                       PolyCurve(b[:n_beta], 2))


def _with_values(analysis, values):
    metric = dataclasses.replace(analysis.metric, values=values)
    return dataclasses.replace(analysis, metric=metric)


def test_report_bytes_match_reference(rng):
    analyses = [analyze_net(example_net(y)) for y in (-0.5, -2.0, 1.0)]
    analyses += [analyze_net(parabolic_net(h)[0]) for h in (0.2, 0.05)]
    analyses += [analyze_net(_offset_net(0.2, ao, bo))
                 for ao, bo in ((-7, -12), (-3, 4), (5, 9))]
    analyses += [analyze_net(_strip_net(3, 17)), analyze_net(_strip_net(13, 3))]
    analyses += [analyze_net(random_admissible_net(rng)) for _ in range(20)]
    special = analyses[3]
    values = special.metric.values.copy()
    values[0, 0] = np.nan
    values[1, 2] = np.inf
    values[2, 1] = -np.inf
    values[3, 3] = -0.0
    values[4, :] = np.nan
    analyses.append(_with_values(special, values))
    analyses.append(dataclasses.replace(special, metric=None))
    assert any(a.edges for a in analyses)
    assert any(a.generic_violations for a in analyses)
    assert {a.net.domain.u_min < 0 for a in analyses[:-2]} == {True, False}
    for analysis in analyses:
        for tol, eps in ((1e-9, 1e-9), (0.0, 1e-12)):
            report = report_from_analysis(analysis, tol, eps)
            expected = reference_report_bytes(report, analysis.metric)
            assert write_report(report) == expected
    text = write_report(report_from_analysis(analyses[-2], 1e-9, 1e-9))
    omega = json.loads(text)["omega"]
    assert sum(e["value"] is None for e in omega) == 3 + values.shape[1]
    assert '"value":-0}' in text.decode()
    assert json.loads(write_report(
        report_from_analysis(analyses[-1], 1e-9, 1e-9)))["omega"] == []


@pytest.mark.parametrize("name", ["flat", "parabolic"])
def test_oracle_report_bytes_match_reference(name):
    pair = builtin_pair(name)
    chains = trace_singular_curve(pair, 101, 1e-10)
    points = [p for c in chains for p in find_swallowtails(pair, c)]
    report = report_from_oracle(name, 101, 1e-10, chains, points)
    assert bool(points) == (name == "parabolic")
    assert write_report(report) == reference_report_bytes(report, None)


def _run(args):
    return run_cli([str(a) for a in args])


def test_cli_example_analyze_swallowtail(tmp_path, capsys):
    curves = tmp_path / "c.json"
    report = tmp_path / "r.json"
    assert _run(["example", "--y", 1, "--du", 0.1, "--dv", 0.1,
                 "--out", curves]) == 0
    assert _run(["analyze", "--curves", curves, "--report", report]) == 0
    doc = json.loads(report.read_bytes())
    centre = next(v for v in doc["vertices"] if v["vertex"] == [0, 0])
    assert centre["kind"] == "Swallowtail"
    assert doc["validations"]["admissibility"] == []
    # double run is byte-identical
    report2 = tmp_path / "r2.json"
    assert _run(["analyze", "--curves", curves, "--report", report2]) == 0
    assert report.read_bytes() == report2.read_bytes()


def test_cli_analyze_reports_generic_position_violation(tmp_path, capsys):
    # the y = -1/2 sample has exactly collinear beta points, which violates
    # the four-distinct-planes hypothesis at the central vertex
    curves = tmp_path / "c.json"
    report = tmp_path / "r.json"
    assert _run(["example", "--y", -0.5, "--out", curves]) == 0
    assert _run(["analyze", "--curves", curves, "--report", report]) == 1
    doc = json.loads(report.read_bytes())
    assert doc["validations"]["generic_position"] == [
        {"vertex": [0, 0], "planes": ["beta+", "beta-"]}]
    centre = next(v for v in doc["vertices"] if v["vertex"] == [0, 0])
    assert centre["configuration"] == "A"
    assert centre["kind"] == "CuspidalEdge"


def test_cli_analyze_forbidden_configuration_exits_1(tmp_path, capsys):
    curves = tmp_path / "c.json"
    cpf = CurvePairFile(
        alpha_offset=-1, beta_offset=-1,
        alpha=np.array([[-0.1, -0.1, 1.1], [0.0, 0.0, 1.0], [0.1, 0.0, 1.0]]),
        beta=np.array([[0.1, 0.05, 0.0], [0.0, 0.0, 0.0], [0.2, 0.1, 0.0]]))
    curves.write_bytes(write_curves(cpf))
    report = tmp_path / "r.json"
    assert _run(["analyze", "--curves", curves, "--report", report]) == 1
    doc = json.loads(report.read_bytes())
    viol = doc["validations"]["admissibility"]
    assert viol and viol[0]["vertex"] == [0, 0]
    err = capsys.readouterr().err
    assert "(0, 0)" in err


def test_cli_analyze_degenerate_metric_exits_3(tmp_path, capsys):
    curves = tmp_path / "c.json"
    report = tmp_path / "r.json"
    assert _run(["example", "--y", -1.0, "--out", curves]) == 0
    assert _run(["analyze", "--curves", curves, "--report", report]) == 3
    err = capsys.readouterr().err
    assert "(-1, -1)" in err
    doc = json.loads(report.read_bytes())
    assert doc["validations"]["degenerate_quads"][0]["quad"] == [-1, -1]


def test_cli_validate(tmp_path, capsys):
    curves = tmp_path / "c.json"
    assert _run(["example", "--y", 1, "--out", curves]) == 0
    assert _run(["validate", "--curves", curves]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out and "2 singular edges" in out


def test_cli_mesh(tmp_path):
    curves = tmp_path / "c.json"
    obj = tmp_path / "m.obj"
    assert _run(["example", "--y", 1, "--out", curves]) == 0
    assert _run(["mesh", "--curves", curves, "--out", obj, "--subdiv", 8]) == 0
    vertices, faces, groups, lines = parse_obj(obj)
    assert len(faces) == 4 * 128
    assert len(lines) == 1
    assert _run(["mesh", "--curves", curves, "--out", obj, "--subdiv", 0]) == 2


def test_cli_mesh_overflowing_net_exits_1(tmp_path, capsys):
    # curves at 2^512 are finite, but the integrated net overflows; the
    # mesh must be refused instead of written with nan/inf vertices
    a, b, _ = parabolic_points(0.2)
    curves = tmp_path / "c.json"
    obj = tmp_path / "m.obj"
    curves.write_text(json.dumps({"alpha": (a * 2.0 ** 512).tolist(),
                                  "beta": (b * 2.0 ** 512).tolist()}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _run(["mesh", "--curves", curves, "--out", obj,
                     "--subdiv", 2, "--singular", "none"]) == 1
    assert "not finite" in capsys.readouterr().err
    assert not obj.exists()


@pytest.mark.parametrize("command", ["analyze", "validate", "mesh"])
@pytest.mark.parametrize(
    "scale", [2.0 ** 340, 2.0 ** 400, 2.0 ** 512, 2.0 ** 1000, 1e110, 1e200],
    ids=["2^340", "2^400", "2^512", "2^1000", "1e110", "1e200"])
def test_cli_huge_coordinates_end_in_a_named_error(command, scale, tmp_path,
                                                   capsys):
    # finite curves whose derived quantities overflow: a named error, no
    # traceback and no numpy warning (warnings are raised as errors here,
    # so one would escape run_cli)
    a, b, _ = parabolic_points(0.2)
    curves = tmp_path / "c.json"
    out = tmp_path / "out"
    curves.write_text(json.dumps({"alpha": (a * scale).tolist(),
                                  "beta": (b * scale).tolist()}))
    args = {"analyze": ["--report", out], "validate": [],
            "mesh": ["--out", out, "--subdiv", 2]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run([command, "--curves", curves] + args)
    err = capsys.readouterr().err
    assert code in (1, 3)
    assert err.startswith("error: ")
    if scale in (1e110, 1e200):
        assert code == 1 and "not finite" in err
    if command == "mesh":
        assert not out.exists()


def test_cli_missing_file_exits_2(tmp_path, capsys):
    assert _run(["analyze", "--curves", tmp_path / "none.json",
                 "--report", tmp_path / "r.json"]) == 2


def test_cli_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert _run(["analyze", "--curves", bad, "--report",
                 tmp_path / "r.json"]) == 2


def test_cli_short_curve_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha": [[0, 0, 1], [1, 0, 1]],
                               "beta": [[0, 0, 0], [1, 1, 0], [2, 0, 0]]}))
    assert _run(["analyze", "--curves", bad, "--report",
                 tmp_path / "r.json"]) == 1


def test_cli_usage_error_exits_2(capsys):
    assert _run(["analyze"]) == 2
    assert _run(["frobnicate"]) == 2


def test_cli_oracle_parabolic(tmp_path):
    report = tmp_path / "o.json"
    assert _run(["oracle", "--pair", "parabolic", "--grid", 101,
                 "--report", report]) == 0
    doc = json.loads(report.read_bytes())
    assert doc["smooth"] is True
    cands = [v for v in doc["vertices"] if v["kind"] == "SwallowtailCandidate"]
    assert len(cands) == 1
    assert abs(cands[0]["vertex"][0]) < 2 / 101
    assert abs(cands[0]["vertex"][1]) < 2 / 101
    assert cands[0]["lambda"] == pytest.approx(-1.0, abs=1e-6)
    assert len(doc["polylines"]) == 1
    # deterministic bytes
    report2 = tmp_path / "o2.json"
    assert _run(["oracle", "--pair", "parabolic", "--grid", 101,
                 "--report", report2]) == 0
    assert report.read_bytes() == report2.read_bytes()


def test_cli_oracle_symmetric_pair_exits_3(tmp_path, capsys):
    assert _run(["oracle", "--pair", "symmetric", "--grid", 33,
                 "--report", tmp_path / "o.json"]) == 3
