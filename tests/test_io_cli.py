import dataclasses
import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from diams import ConormalNet, PolyCurve, _kernels, analyze_net, io_cli
from diams.errors import DegenerateMetric, ParseError, ValidationError
from diams.io_cli import (CurvePairFile, _dump_float, example_curve_pair,
                          parse_curves, report_from_analysis,
                          report_from_oracle, run_cli, write_curves,
                          write_report)
from diams.singularity import NetAnalysis
from diams.smooth_oracle import (SmoothChain, SmoothSingularPoint,
                                 builtin_pair, find_swallowtails,
                                 trace_singular_curve)

from diams.net_core import float_grid_allocation, integrate_net
from diams.surface_mesh import export_obj, tessellate

from _helpers import (example_net, four_edge_net, parabolic_net,
                      parabolic_points, parse_obj, random_admissible_net,
                      reference_dump, reference_report_bytes,
                      round_off_net)


def test_parse_curves_example_with_offsets():
    cpf = example_curve_pair(1.0)
    parsed = parse_curves(write_curves(cpf))
    assert parsed.alpha.offset == -1 and parsed.beta.offset == -1
    assert parsed.alpha.points.shape == (3, 3)
    net = parsed.to_net()
    assert net.domain.u_min == -1 and net.domain.v_max == 1


def test_parse_curves_defaults_offsets_to_zero():
    doc = {"alpha": [[0, 0, 1], [1, 0, 1], [2, 1, 1]],
           "beta": [[0, 0, 0], [1, 1, 0], [2, 0, 0]]}
    cpf = parse_curves(json.dumps(doc))
    assert cpf.alpha.offset == 0 and cpf.beta.offset == 0


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


def test_poly_curve_indices_stay_below_2_pow_52():
    pts = np.array([[0.0, 0, 1], [1, 0, 1], [2, 1, 1]])
    for offset in (2 ** 52 - 3, -2 ** 52 + 1):
        assert PolyCurve(pts, offset).offset == offset
    for offset in (2 ** 52 - 2, -2 ** 52, 2 ** 60, -10 ** 400):
        with pytest.raises(ValidationError, match="^curve offset puts "
                                                  r"indices outside \|i\| "
                                                  r"< 2\^52$"):
            PolyCurve(pts, offset)


@pytest.mark.parametrize("offset", [10 ** 400, 2 ** 60])
@pytest.mark.parametrize("command", ["validate", "analyze", "mesh"])
def test_cli_offsets_past_2_pow_52_exit_1(command, offset, tmp_path, capsys):
    doc = json.loads(write_curves(example_curve_pair(1.0)))
    doc["alpha_offset"] = offset
    curves = tmp_path / "c.json"
    curves.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = {"analyze": ["--report", out], "validate": [],
            "mesh": ["--out", out, "--subdiv", 2]}[command]
    assert _run([command, "--curves", curves] + args) == 1
    assert capsys.readouterr().err == (
        "error: alpha: curve offset puts indices outside |i| < 2^52\n")
    assert not out.exists()


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
    with pytest.raises(ValidationError, match="^alpha: consecutive duplicate "
                                              "points at curve indices 1 and 2"):
        parse_curves(json.dumps(doc))
    doc = {"alpha": [[0, 0, 1], [1, 0, 1], [2, 0, 1]],
           "beta": [[0, 0, 0], [1, "x", 0], [2, 0, 0]]}
    with pytest.raises(ValidationError, match=r"beta\[1\]"):
        parse_curves(json.dumps(doc))
    with pytest.raises(ValidationError, match="^beta: non-finite coordinate "
                                              "at curve index 1$"):
        parse_curves(json.dumps(doc).replace('"x"', "Infinity"))


def test_curve_roundtrip_identity(rng):
    pts = rng.normal(size=(5, 3))
    pts2 = rng.normal(size=(4, 3))
    cpf = CurvePairFile(PolyCurve(pts, -2), PolyCurve(pts2, 3))
    back = parse_curves(write_curves(cpf))
    assert back.alpha.offset == -2 and back.beta.offset == 3
    assert np.array_equal(back.alpha.points, pts)
    assert np.array_equal(back.beta.points, pts2)
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
    nan, inf = float("nan"), float("inf")
    assert ([_dump_float(x) for x in (nan, inf, -inf, -0.0, 1.5, -1e-300)]
            == [[b"null"], [b"null"], [b"null"], [b"-0"], [b"1.5"],
                [b"-1e-300"]])
    analysis = analyze_net(example_net(1.0))
    text = write_report(report_from_analysis(analysis, nan, -inf))
    assert json.loads(text)["tolerances"] == {
        "degenerate_metric_eps": None, "scale": analysis.net.scale,
        "sign_tol": None}
    text = write_report(report_from_analysis(analysis, -0.0, inf))
    assert b'{"degenerate_metric_eps":null,' in text
    assert b',"sign_tol":-0},' in text
    text = write_report(report_from_oracle("custom", 33, nan, [], []))
    assert b'"tolerances":{"trace_tol":null},' in text


def test_dump_values():
    cases = [
        (True, "true"), (False, "false"), (1, "1"), (0, "0"), (None, "null"),
        (float("-0.0"), "-0"), (-1e-300, "-1e-300"), (float("-inf"), "null"),
        ((1, "a", (None,)), '[1,"a",[null]]'),
        ("a\"b\\\n\u00e9\u2603", json.dumps("a\"b\\\n\u00e9\u2603")),
        ({"\u00e9": {"b": True, "a": [1.5, None]}, "Z": 1},
         '{"Z":1,"\\u00e9":{"a":[1.5,null],"b":true}}'),
    ]
    numpy_cases = [
        (np.int64(-7), "-7"), (np.float64(0.1), "0.10000000000000001"),
        (np.float32(0.5), "0.5"), (np.float64("nan"), "null"),
        (np.array([[1.0, np.nan], [2.5, -0.0]]), "[[1,null],[2.5,-0]]"),
        (np.arange(3), "[0,1,2]"),
    ]
    for value, text in cases + numpy_cases:
        assert reference_dump(value) == text, value


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


def _float_leaves(obj):
    """The float leaves (numpy floats included) of a JSON-like object."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _float_leaves(v)]
    if isinstance(obj, (list, tuple)):
        return [x for v in obj for x in _float_leaves(v)]
    return [obj] if isinstance(obj, (float, np.floating)) else []


def test_report_bytes_match_reference(rng, monkeypatch):
    # every section handed to json's C encoder is float-free: the encoder
    # would print a float in repr digits, not %.17g
    encode = io_cli._encode
    encoded = []

    def float_free_encode(obj):
        assert _float_leaves(obj) == []
        encoded.append(obj)
        return encode(obj)

    monkeypatch.setattr(io_cli, "_encode", float_free_encode)
    analyses = [analyze_net(example_net(y)) for y in (-0.5, -2.0, 1.0)]
    analyses += [analyze_net(parabolic_net(h)[0]) for h in (0.2, 0.05)]
    analyses += [analyze_net(_offset_net(0.2, ao, bo))
                 for ao, bo in ((-7, -12), (-3, 4), (5, 9))]
    analyses += [analyze_net(_strip_net(3, 17)), analyze_net(_strip_net(13, 3))]
    analyses += [analyze_net(random_admissible_net(rng)) for _ in range(20)]
    analyses += [analyze_net(four_edge_net())]
    # the h = 0.05 net's 1,600 values span several u-rows: put every kind
    # of value g17_field leaves to %.17g or that is written as null into it
    big = analyses[4]
    values = big.metric.values.copy()
    values[0, :3] = (np.nan, np.inf, -np.inf)
    values[1, :4] = (0.0, -0.0, 5e-324, -1e300)
    values[2, :3] = (1000000000000000.25, 1e23, -9.999999999999999e-260)
    values[3, :] = np.nan
    analyses.append(_with_values(big, values))
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
    assert any(a.admissibility_violations for a in analyses)
    # the empty report analyze writes before it exits 3 on a degenerate
    # metric
    degenerate = _degenerate_report(example_net(-1.0), 1e-9, 1e-9)
    assert write_report(degenerate) == reference_report_bytes(degenerate, None)
    # two encoded sections, "smooth" and "validations", in each of the
    # reports built above; the singular set's are written from arrays
    assert len(encoded) == 2 * (2 * len(analyses) + 3)


def _degenerate_report(net, tol, eps):
    """The report analyze writes before it exits 3 on a degenerate
    metric."""
    with pytest.raises(DegenerateMetric) as info:
        analyze_net(net, tol=tol, eps_degenerate=eps)
    u, v = info.value.quad
    empty = NetAnalysis(net=net, metric=None, edges=[], vertices=[],
                        polylines=[], generic_violations=[],
                        admissibility_violations=[])
    return report_from_analysis(empty, tol, eps, degenerate_quads=[{
        "quad": [2 * u + 1, 2 * v + 1], "detail": str(info.value)}])


@pytest.mark.parametrize("block", [3, 1 << 14])
@pytest.mark.parametrize("offset", [0, 2 ** 52 - 8, 8 - 2 ** 52])
def test_write_curves_matches_reference(offset, block, monkeypatch):
    # values g17_field leaves to %.17g, near ties and 2^52, in blocks of
    # one point and of the whole curve
    monkeypatch.setattr(_kernels, "G17_BLOCK_VALUES", block)
    pts = np.array([[-0.0, 5e-324, 1e-300],
                    [-1e300, 1000000000000000.25, 1e23],
                    [0.1, 1 / 3, 2.0 ** 52],
                    [-9.999999999999999e-260, 0.0, 7]])
    cpf = CurvePairFile(PolyCurve(pts, offset), PolyCurve(pts[::-1], -offset))
    doc = {"alpha_offset": offset, "alpha": pts,
           "beta_offset": -offset, "beta": pts[::-1]}
    assert write_curves(cpf) == (reference_dump(doc) + "\n").encode("ascii")


@pytest.mark.parametrize("block", [1, 100, 1000, 10 ** 6])
def test_report_omega_section_is_the_same_in_any_block_size(block,
                                                            monkeypatch):
    # the h = 0.05 net has 40 values per u-row: blocks of one u-row (a
    # block of 1 value is less than a row), of two, of 25 and of the whole
    # grid, with non-finite values, a signed zero and a null last entry
    analysis = analyze_net(parabolic_net(0.05)[0])
    values = analysis.metric.values.copy()
    values[0, :3] = (np.nan, np.inf, -0.0)
    values[-1, -1] = np.nan
    analysis = _with_values(analysis, values)
    monkeypatch.setattr(_kernels, "G17_BLOCK_VALUES", block)
    report = report_from_analysis(analysis, 1e-9, 1e-9)
    assert write_report(report) == reference_report_bytes(report,
                                                          analysis.metric)


@pytest.mark.parametrize("name", ["flat", "parabolic"])
def test_oracle_report_bytes_match_reference(name):
    pair = builtin_pair(name)
    chains = trace_singular_curve(pair, 101, 1e-10)
    points = [p for c in chains for p in find_swallowtails(pair, c)]
    report = report_from_oracle(name, 101, 1e-10, chains, points)
    assert bool(points) == (name == "parabolic")
    assert write_report(report) == reference_report_bytes(report, None)


def test_oracle_report_edge_cases_match_reference():
    # hand-built points with non-finite and signed-zero values, a closed
    # chain and one holding nan, and the flat pair's empty report
    inf, nan = float("inf"), float("nan")
    points = [SmoothSingularPoint(0.5, -0.25, -1.0, inf, "CuspidalEdge"),
              SmoothSingularPoint(0.5, 0.25, 2.0, -inf, "CuspidalEdge"),
              SmoothSingularPoint(-0.0, 0.0, -0.0, nan,
                                  "SwallowtailCandidate"),
              SmoothSingularPoint(1e-300, nan, inf, -0.0, "CuspidalEdge"),
              SmoothSingularPoint(0.1, 1 / 3, np.float64(0.7), np.float64(3),
                                  "CuspidalEdge")]
    t = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
    loop = SmoothChain(np.stack([0.5 * np.cos(t), 0.5 * np.sin(t)], 1), True)
    arc = SmoothChain(np.array([[0.0, 1.0], [nan, 0.5], [inf, -0.0]]), False)
    cases = [([loop], points), ([loop, arc], points[:1]), ([], [])]
    for chains, pts in cases:
        report = report_from_oracle("custom", 33, 1e-10, chains, pts)
        text = write_report(report)
        assert text == reference_report_bytes(report, None)
    doc = json.loads(text)
    assert doc["vertices"] == doc["polylines"] == []
    doc = json.loads(write_report(
        report_from_oracle("custom", 33, 1e-10, [loop, arc], points)))
    assert [v["dvdu"] for v in doc["vertices"]] == [None, None, None, 0, 3]
    assert doc["vertices"][3]["vertex"] == [1e-300, None]
    assert [p["closed"] for p in doc["polylines"]] == [True, False]
    assert doc["polylines"][1]["vertices"][1:] == [[None, 0.5], [None, 0]]
    assert b'"dvdu":-0,' in write_report(
        report_from_oracle("custom", 33, 1e-10, [], points[3:4]))


@pytest.mark.parametrize("args, digest", [
    (["--grid", 41],
     "c6eb6dc22a5a82cc33b99248ecf6f8bbae4d7fe65dfe904e40fc453ad50f7ec8"),
    (["--grid", 401],
     "bcfd0a331037b0bf5b36e724fad93bc0215a16eb1e57ade13784c6ae7f3b10de"),
    (["--grid", 33],
     "22187d2b043923478a9b213c4d07d171ee019670eb003cf4f3b80b46f3cd8fa5"),
    # every bisection runs to an exact zero or the 200-round cap
    (["--grid", 101, "--tol", 0],
     "49dd2a2c132a62ee4fecc4f5c0001ecc47abff0a33c15f77f457dec912386597"),
], ids=["41", "401", "33", "101-tol0"])
def test_cli_oracle_parabolic_report_digest(args, digest, tmp_path):
    # drift in the evaluators, the kernel ratio, the trace or the writer
    # changes the bytes
    report = tmp_path / "o.json"
    assert _run(["oracle", "--pair", "parabolic", *args,
                 "--report", report]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_cli_oracle_flat_report_digest(tmp_path):
    report = tmp_path / "o.json"
    assert _run(["oracle", "--pair", "flat", "--grid", 101,
                 "--report", report]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "d3922008ea21c2b28690f7cd8fdb6a779ed7b6d14dbe8e162d0e05472b9a7a8f")


def _run(args):
    return run_cli([str(a) for a in args])


def test_cli_analyze_parabolic_report_digest(tmp_path):
    # h = 0.01: 40,000 Omega values, above g17_field's size cutoff, so the
    # report's Omega section comes from the array formatter; the digest
    # was recorded with the per-row %.17g templates
    curves = _curves_file(parabolic_net(0.01)[0], tmp_path)
    report = tmp_path / "r.json"
    assert _run(["analyze", "--curves", curves, "--report", report]) == 0
    data = report.read_bytes()
    assert len(data) == 2089226
    assert hashlib.sha256(data).hexdigest() == (
        "a6e0a82e10a74484a6a236bd9bbc172a91b71639deefc4423cbed77ea3123627")


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


@pytest.mark.parametrize("options,message", [
    (["--dv", 1e308], "non-finite coordinate"),
    (["--du", 0], "consecutive duplicate points")])
def test_cli_example_refuses_curves_it_cannot_write(options, message,
                                                    tmp_path, capsys):
    out = tmp_path / "c.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["example", "--y", 1, "--out", out] + options) == 1
    assert re.match(f"error: (alpha|beta): {message} at curve ind",
                    capsys.readouterr().err)
    assert not out.exists()


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


def _curves_file(net, tmp_path):
    curves = tmp_path / "c.json"
    curves.write_bytes(write_curves(CurvePairFile(net.alpha, net.beta)))
    return curves


def test_cli_files_hold_the_in_memory_bytes(tmp_path):
    # analyze at exits 0, 1 and 3, oracle and example hand their blocks to
    # the one file writer unjoined; the files hold the joined bytes
    out = tmp_path / "out"
    for net, code in ((parabolic_net(0.2)[0], 0), (four_edge_net(), 1),
                      (example_net(-1.0), 3)):
        curves = _curves_file(net, tmp_path)
        assert _run(["analyze", "--curves", curves, "--report", out]) == code
        report = (_degenerate_report(net, 1e-9, 1e-9) if code == 3 else
                  report_from_analysis(analyze_net(net), 1e-9, 1e-9))
        assert out.read_bytes() == write_report(report)
    assert _run(["oracle", "--pair", "parabolic", "--grid", 101, "--tol",
                 1e-10, "--report", out]) == 0
    pair = builtin_pair("parabolic")
    chains = trace_singular_curve(pair, 101, 1e-10)
    points = [p for c in chains for p in find_swallowtails(pair, c)]
    assert out.read_bytes() == write_report(
        report_from_oracle("parabolic", 101, 1e-10, chains, points))
    assert _run(["example", "--y", -2.0, "--du", 0.3, "--out", out]) == 0
    assert out.read_bytes() == write_curves(example_curve_pair(-2.0, 0.3))


def test_cli_analyze_forbidden_configuration_exits_1(tmp_path, capsys):
    curves = _curves_file(four_edge_net(), tmp_path)
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


@pytest.mark.parametrize("h", [0.005, 0.0025])
def test_cli_analyze_fine_parabolic_grids_at_default_tolerances(h, tmp_path,
                                                                capsys):
    # Omega shrinks like h^2 on the 401^2 and 801^2 nets, and so does its
    # dead zone: refining the grid leaves no quad degenerate
    a, b, _ = parabolic_points(h)
    curves = _curves_file(ConormalNet(PolyCurve(a), PolyCurve(b)), tmp_path)
    assert _run(["analyze", "--curves", curves,
                 "--report", tmp_path / "r.json"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_validate(tmp_path, capsys):
    curves = tmp_path / "c.json"
    assert _run(["example", "--y", 1, "--out", curves]) == 0
    assert _run(["validate", "--curves", curves]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out and "2 singular edges" in out


def test_cli_validate_reports_admissibility(tmp_path, capsys):
    curves = _curves_file(four_edge_net(), tmp_path)
    assert _run(["validate", "--curves", curves]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "generic position: planes beta+ and beta- coincide at vertex (0, 0)",
        "admissibility: vertex (0, 0): 4 incident singular edges"]
    # the round-off net passes at zero dead zones, where Omega of quad
    # (0, -1) is -4.7e-18, and is degenerate at the defaults
    curves = _curves_file(round_off_net(), tmp_path)
    assert _run(["validate", "--curves", curves,
                 "--tol", 0, "--metric-eps", 0]) == 0
    out, err = capsys.readouterr()
    assert out == "ok: 3x3 vertices, 2 singular edges\n" and err == ""
    assert _run(["validate", "--curves", curves]) == 3
    assert _run(["analyze", "--curves", curves, "--report",
                 tmp_path / "r.json", "--tol", 0, "--metric-eps", 0]) == 0


def test_cli_mesh_inadmissible_net(tmp_path, capsys):
    # --singular auto refuses the net; --singular none meshes it without
    # analysis or singular chains
    net = four_edge_net()
    curves = _curves_file(net, tmp_path)
    obj = tmp_path / "m.obj"
    assert _run(["mesh", "--curves", curves, "--out", obj,
                 "--subdiv", 2]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "generic position: planes beta+ and beta- coincide at vertex (0, 0)",
        "admissibility: vertex (0, 0): 4 incident singular edges at an "
        "interior vertex"]
    assert not obj.exists()
    assert _run(["mesh", "--curves", curves, "--out", obj, "--subdiv", 2,
                 "--singular", "none"]) == 0
    want = tmp_path / "want.obj"
    export_obj(tessellate(integrate_net(net), 2, []), want)
    assert obj.read_bytes() == want.read_bytes()


def test_cli_mesh(tmp_path):
    curves = tmp_path / "c.json"
    obj = tmp_path / "m.obj"
    assert _run(["example", "--y", 1, "--out", curves]) == 0
    assert _run(["mesh", "--curves", curves, "--out", obj, "--subdiv", 8]) == 0
    vertices, faces, groups, lines = parse_obj(obj)
    assert len(faces) == 4 * 128
    assert len(lines) == 1
    assert _run(["mesh", "--curves", curves, "--out", obj, "--subdiv", 0]) == 2


@pytest.mark.parametrize("h, args, size, digest", [
    (0.2, ["--subdiv", 3, "--singular", "auto"], 83588,
     "0637c8da3e799f6a8b7d9147f3641104d2e600b79dba240fdf6530d77ce5746b"),
    (0.2, ["--subdiv", 2, "--singular", "none"], 37308,
     "693c116db05d43388329793be6bf526c65fe0c201b549a06af8bf370cbc50344"),
    (0.025, ["--subdiv", 2, "--singular", "auto"], 2612023,
     "8dce134dbbe4d7d8d71688f0b88aedb897a315602a9f2050ba01c5ce3ec7a13c"),
], ids=["0.2-3-auto", "0.2-2-none", "0.025-2-auto"])
def test_cli_mesh_parabolic_obj_digest(h, args, size, digest, tmp_path):
    # the OBJ bytes themselves: a reordered, regrouped or reformatted line
    # changes the digest even where the geometry stays the same
    curves = _curves_file(parabolic_net(h)[0], tmp_path)
    obj = tmp_path / "m.obj"
    assert _run(["mesh", "--curves", curves, "--out", obj, *args]) == 0
    data = obj.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_cli_integrates_positions_only_for_the_mesh(tmp_path, monkeypatch):
    calls = []
    kernel = _kernels.integrate_positions

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "integrate_positions", counted)
    curves = tmp_path / "c.json"
    assert _run(["example", "--y", 1, "--out", curves]) == 0
    assert _run(["analyze", "--curves", curves,
                 "--report", tmp_path / "r.json"]) == 0
    assert calls == []
    for singular in ("auto", "none"):
        calls.clear()
        assert _run(["mesh", "--curves", curves, "--out", tmp_path / "m.obj",
                     "--subdiv", 2, "--singular", singular]) == 0
        assert len(calls) == 1


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
    # so one would escape run_cli); at 2^340 every command still fits in
    # range
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
    out_text, err = capsys.readouterr()
    if scale == 2.0 ** 340:
        # every sign is a 3rd power of the coordinates: 2^1020
        assert code == 0
        if command == "validate":
            assert out_text.startswith("ok: 11x11 vertices, "
                                       "17 singular edges")
        if command == "analyze":
            _, report = _analyze_scaled(0.2, 0, tmp_path)
            base = json.loads(report.read_bytes())
            doc = json.loads(out.read_bytes())
            for key in ("singular_edges", "vertices", "polylines",
                        "validations"):
                assert doc[key] == base[key], key
        return
    assert code in (1, 3)
    assert err.startswith("error: ")
    if scale in (1e110, 1e200):
        assert code == 1 and "not finite" in err
    if command == "mesh":
        assert not out.exists()


def _analyze_scaled(h, k, tmp_path):
    a, b, _ = parabolic_points(h)
    curves = tmp_path / f"c_{h}_{k}.json"
    report = tmp_path / f"r_{h}_{k}.json"
    curves.write_text(json.dumps({"alpha": (a * 2.0 ** k).tolist(),
                                  "beta": (b * 2.0 ** k).tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run(["analyze", "--curves", curves, "--report", report])
    return code, report


@pytest.mark.parametrize("h", [0.2, 0.1])
def test_cli_analyze_is_invariant_under_power_of_two_scaling(h, tmp_path):
    # every decision is a sign of a homogeneous expression, so scaling the
    # curves by 2^k changes no edge, vertex, polyline or validation while
    # the arithmetic stays in range
    code, report = _analyze_scaled(h, 0, tmp_path)
    assert code == 0
    base = json.loads(report.read_bytes())
    for k in (-300, -200, -140, 140, 200, 250, 340):
        code, report = _analyze_scaled(h, k, tmp_path)
        assert code == 0
        doc = json.loads(report.read_bytes())
        for key in ("singular_edges", "vertices", "polylines", "validations"):
            assert doc[key] == base[key], (k, key)


def test_cli_analyze_underflowing_omega_exits_3(tmp_path, capsys):
    # at 2^-340 Omega's magnitudes fall below the smallest normal float, so
    # its signs have lost their precision: a named error, and a report with
    # no singular set that names the quad
    code, report = _analyze_scaled(0.2, -340, tmp_path)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Omega underflows: magnitude ")
    assert err.rstrip().endswith(" at quad (0, 0)")
    doc = json.loads(report.read_bytes())
    assert doc["singular_edges"] == doc["vertices"] == []
    assert doc["validations"]["degenerate_quads"] == [
        {"detail": err[len("error: "):].strip(), "quad": [1, 1]}]


@pytest.mark.parametrize("command", ["analyze", "validate", "mesh"])
def test_cli_oversized_integer_coordinate_exits_1(command, tmp_path, capsys):
    # a JSON integer past the float range fails the conversion itself; the
    # error names the point instead of escaping as OverflowError
    doc = {"alpha": [[0, 0, 1], [1, 0, 1], [10 ** 400, 0, 1]],
           "beta": [[0, 0, 0], [1, 1, 0], [2, 0, 0]]}
    with pytest.raises(ValidationError, match=r"alpha\[2\]"):
        parse_curves(json.dumps(doc))
    curves = tmp_path / "c.json"
    out = tmp_path / "out"
    curves.write_text(json.dumps(doc))
    args = {"analyze": ["--report", out], "validate": [],
            "mesh": ["--out", out, "--subdiv", 2]}[command]
    assert _run([command, "--curves", curves] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alpha[2] ")
    assert not out.exists()


def test_cli_deeply_nested_json_exits_2(tmp_path, capsys):
    curves = tmp_path / "c.json"
    curves.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError, match="malformed JSON"):
        parse_curves(curves.read_bytes())
    assert _run(["validate", "--curves", curves]) == 2
    assert capsys.readouterr().err.startswith("error: malformed JSON: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,option", [
    ("analyze", "--tol"), ("analyze", "--metric-eps"),
    ("mesh", "--tol"), ("mesh", "--metric-eps"),
    ("validate", "--tol"), ("validate", "--metric-eps"),
    ("oracle", "--tol"),
    ("example", "--y"), ("example", "--du"), ("example", "--dv")])
def test_cli_non_finite_options_are_usage_errors(command, option, value,
                                                 tmp_path, capsys):
    curves = tmp_path / "c.json"
    curves.write_bytes(write_curves(example_curve_pair(1.0)))
    out = tmp_path / "out"
    args = {"analyze": ["--curves", curves, "--report", out],
            "mesh": ["--curves", curves, "--out", out, "--subdiv", 2],
            "validate": ["--curves", curves],
            "oracle": ["--pair", "parabolic", "--report", out],
            "example": ["--y", 1, "--out", out]}[command]
    assert _run([command] + args + [f"{option}={value}"]) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: '{value}' is not a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "-1e-300"])
@pytest.mark.parametrize("command,option", [
    ("analyze", "--tol"), ("analyze", "--metric-eps"),
    ("mesh", "--tol"), ("mesh", "--metric-eps"),
    ("validate", "--tol"), ("validate", "--metric-eps"),
    ("oracle", "--tol")])
def test_cli_negative_tolerances_are_usage_errors(command, option, value,
                                                  tmp_path, capsys):
    # a negative tolerance leaves no dead zone, so Omega = 0 would pass
    # the metric check; 0 itself stays a valid tolerance
    curves = tmp_path / "c.json"
    curves.write_bytes(write_curves(example_curve_pair(1.0)))
    out = tmp_path / "out"
    args = {"analyze": ["--curves", curves, "--report", out],
            "mesh": ["--curves", curves, "--out", out, "--subdiv", 2],
            "validate": ["--curves", curves],
            "oracle": ["--pair", "parabolic", "--report", out]}[command]
    assert _run([command] + args + [f"{option}={value}"]) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: '{value}' is negative; a tolerance must " \
        "be >= 0" in err
    assert not out.exists()
    assert _run([command] + args + [f"{option}=0"]) == 0


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_cli_overflowing_metric_floor_exits_3_without_warnings(
        command, tmp_path, capsys):
    # --metric-eps 1e308 times Omega's magnitude overflows to inf: every
    # Omega lies in the dead zone, and no numpy warning escapes (warnings
    # are raised as errors here)
    curves = tmp_path / "c.json"
    assert _run(["example", "--y", 1, "--du", 10, "--dv", 10,
                 "--out", curves]) == 0
    args = {"analyze": ["--report", tmp_path / "r.json"],
            "validate": []}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run([command, "--curves", curves, "--metric-eps", 1e308]
                    + args) == 3
    assert capsys.readouterr().err == (
        "error: |Omega| = 2.000e+02 <= inf at quad (-1, -1)\n")


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


def test_cli_non_triple_point_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha": [[0, 0, 1], [1, 0, 1], [2]],
                               "beta": [[0, 0, 0], [1, 1, 0], [2, 0, 0]]}))
    assert _run(["validate", "--curves", bad]) == 1
    assert ("alpha[2] is not an [x, y, z] triple"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["oracle", "mesh"])
@pytest.mark.parametrize("size", [10 ** 30, 2 ** 63], ids=["10^30", "2^63"])
def test_cli_unallocatable_grid_sizes_exit_1(command, size, tmp_path, capsys):
    # the float64 sample grid's byte count overflows np.intp, so the size
    # is rejected before anything is allocated (only such sizes are safe
    # to test: one that could be allocated may reach the OOM killer on a
    # machine that overcommits memory instead of raising MemoryError)
    out = tmp_path / "out"
    if command == "oracle":
        args = ["oracle", "--pair", "parabolic", "--grid", size,
                "--report", out]
    else:
        curves = tmp_path / "c.json"
        assert _run(["example", "--y", 1, "--out", curves]) == 0
        args = ["mesh", "--curves", curves, "--out", out, "--subdiv", size]
    assert _run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(size) in err
    assert "exceeds the largest array size" in err
    assert not out.exists()


def test_unallocatable_grid_sizes_raise_validation_error():
    with pytest.raises(ValidationError, match="grid_n = 1000000000000"):
        trace_singular_curve(builtin_pair("parabolic"), 10 ** 30, 1e-10)
    f = integrate_net(example_net(1.0))
    with pytest.raises(ValidationError, match="subdiv = 9223372036854775808"):
        tessellate(f, 2 ** 63)
    with pytest.raises(ValidationError, match="subdiv = 4611686018427387904"):
        tessellate(f, np.int64(2 ** 62))
    # an allocation that fails inside the guard is named with its size
    with pytest.raises(ValidationError, match=r"^cannot allocate a grid of "
                                              r"2 x 3 float64 values "
                                              r"\(48 bytes\)$"):
        with float_grid_allocation((2, 3), "a grid"):
            raise MemoryError


def test_unallocatable_omega_grid_exits_1(tmp_path, capsys, monkeypatch):
    # a net whose Omega grid cannot be allocated names its size: a kernel
    # that raises MemoryError stands in for a net too large
    def unallocatable(alpha, beta):
        raise MemoryError

    grid = r"the Omega grid of 20 x 20 float64 values \(3200 bytes\)"
    net = parabolic_net(0.1)[0]
    curves = _curves_file(net, tmp_path)
    monkeypatch.setattr(_kernels, "omega_grid", unallocatable)
    with pytest.raises(ValidationError, match=f"^cannot allocate {grid}$"):
        analyze_net(ConormalNet(net.alpha, net.beta))
    assert _run(["analyze", "--curves", curves,
                 "--report", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: cannot allocate {grid}\n", err)
    assert not (tmp_path / "r.json").exists()


def test_cli_usage_error_exits_2(capsys, tmp_path):
    assert _run(["analyze"]) == 2
    assert _run(["frobnicate"]) == 2
    capsys.readouterr()
    assert _run(["example", "--y", "abc", "--out", tmp_path / "c.json"]) == 2
    assert "invalid float value: 'abc'" in capsys.readouterr().err


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


def test_cli_oracle_tol_option(tmp_path):
    report = tmp_path / "o.json"
    assert _run(["oracle", "--pair", "parabolic", "--grid", 41,
                 "--tol", 1e-6, "--report", report]) == 0
    pair = builtin_pair("parabolic")
    chains = trace_singular_curve(pair, 41, 1e-6)
    points = [p for c in chains for p in find_swallowtails(pair, c)]
    assert report.read_bytes() == write_report(
        report_from_oracle("parabolic", 41, 1e-6, chains, points))
    assert json.loads(report.read_bytes())["tolerances"] == {"trace_tol": 1e-6}


def test_cli_oracle_symmetric_pair_exits_3(tmp_path, capsys):
    assert _run(["oracle", "--pair", "symmetric", "--grid", 33,
                 "--report", tmp_path / "o.json"]) == 3
