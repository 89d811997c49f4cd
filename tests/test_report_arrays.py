"""The singular set's report sections are written from int arrays.

`io_cli` writes the "singular_edges", "vertices" and "polylines" sections
from an analysis' SingularSet, VertexTable and Chains: one byte template
per outcome, cut from a sentinel record that json encodes, with the grid
keys laid out between its pieces.  `_helpers.reference_sections` encodes
the same sections from one record per edge, vertex and polyline, as the
reports were once written.  The two agree byte for byte; an analysis made
from records writes the report of the arrays they came from; and the
analyze command builds no record at all.
"""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

import diams
from diams import (ConormalNet, PolyCurve, analyze_net, sample_pair,
                   singularity)
from diams.errors import DegenerateMetric, DiamsError
from diams.io_cli import (CurvePairFile, report_from_analysis, run_cli,
                          write_curves, write_report)
from diams.singularity import (EdgeIndex, NetAnalysis, SingularEdge,
                               SingularPolyline, SingularVertex,
                               classify_vertex)

from _helpers import (circle_pair, corpus_candidates, example_net,
                      four_edge_net, island_net, parabolic_net,
                      reference_sections, round_off_net)

SECTIONS = ("singular_edges", "vertices", "polylines")


def _analyses():
    """(analysis, or the DegenerateMetric raised) of the corpus
    generator's candidates for seeds 1-5, the 401 x 401 parabolic net,
    the three worked examples, a sampled circle pair and an island (both
    loops), the round-off net at zero dead zones and an inadmissible
    net, and a parabolic net keyed far from 0 (u from -2^40, v from
    2^14)."""
    cases = [(net, 1e-9, 1e-9) for seed in range(1, 6)
             for net in corpus_candidates(seed, 30)]
    cases += [(parabolic_net(0.005)[0], 1e-9, 1e-12)]
    far = parabolic_net(0.1)[0]
    cases += [(ConormalNet(PolyCurve(far.alpha.points, -2 ** 40),
                           PolyCurve(far.beta.points, 2 ** 14)), 1e-9, 1e-9)]
    cases += [(example_net(y), 1e-9, 1e-9) for y in (-0.5, -2.0, 1.0)]
    alpha, beta, _, _ = sample_pair(circle_pair(), 0.05, 0.05)
    cases += [(ConormalNet(alpha, beta), 1e-9, 1e-9),
              (island_net(), 1e-9, 1e-9), (round_off_net(), 0.0, 0.0),
              (four_edge_net(), 1e-9, 1e-9)]
    for net, tol, eps in cases:
        try:
            yield analyze_net(net, tol, eps)
        except DegenerateMetric as exc:
            yield exc


def _as_records(analysis):
    """The same analysis made from its records, as a caller that builds
    them itself does."""
    return NetAnalysis(net=analysis.net, metric=analysis.metric,
                       edges=analysis.edges, vertices=analysis.vertices,
                       polylines=analysis.polylines,
                       generic_violations=analysis.generic_violations,
                       admissibility_violations=(
                           analysis.admissibility_violations))


def assert_sections_match(analysis):
    report = report_from_analysis(analysis, 1e-9, 1e-9)
    want = reference_sections(analysis)
    for key in SECTIONS:
        assert b"".join(report[key]) == want[key], key
    return report


def test_sections_match_the_records_reference():
    seen = {"loop": 0, "open": 0, "inadmissible": 0}
    for analysis in _analyses():
        if isinstance(analysis, DegenerateMetric):
            continue
        report = write_report(assert_sections_match(analysis))
        assert write_report(report_from_analysis(
            _as_records(analysis), 1e-9, 1e-9)) == report
        seen["inadmissible"] += bool(analysis.admissibility_violations)
        for pl in analysis.polylines:
            seen["loop" if pl.closed else "open"] += 1
    assert min(seen.values()) > 0


def test_degenerate_metric_report_matches_the_records_reference():
    # the empty analysis analyze writes before it exits 3
    with pytest.raises(DegenerateMetric):
        analyze_net(example_net(-1.0))
    empty = NetAnalysis(net=example_net(-1.0), metric=None, edges=[],
                        vertices=[], polylines=[], generic_violations=[],
                        admissibility_violations=[])
    report = assert_sections_match(empty)
    assert [b"".join(report[key]) for key in SECTIONS] == [b"[]"] * 3


def test_records_outside_the_sign_table_keep_their_text():
    # every pair of star edges at the centre of the worked examples: the
    # pairs that its cross signs do not make singular are classified by
    # the branch logic, with outcomes that the sign table lacks, and an
    # analysis made from such records writes them from new templates
    star = [EdgeIndex("u", 0, 0), EdgeIndex("u", -1, 0),
            EdgeIndex("v", 0, 0), EdgeIndex("v", 0, -1)]
    extra = 0
    for y in (-0.5, -2.0, 1.0):
        analysis = analyze_net(example_net(y))
        vertices = []
        for pair in itertools.combinations(star, 2):
            try:
                vertices.append(classify_vertex(
                    analysis.net, None, SingularVertex((0, 0),
                                                       frozenset(pair))))
            except DiamsError:
                pass
        made = NetAnalysis(net=analysis.net, metric=analysis.metric,
                           edges=analysis.edges, vertices=vertices,
                           polylines=analysis.polylines,
                           generic_violations=[], admissibility_violations=[])
        extra += len(made.table.outcomes) - len(singularity.OUTCOMES)
        assert_sections_match(made)
    assert extra > 0


def test_analyze_builds_no_record(tmp_path, monkeypatch):
    # the analyze command writes the three sections from arrays: no edge,
    # vertex or polyline record is made, nor an edge key
    made = []

    def counted(cls, make):
        def build(*args, **kwargs):
            made.append(cls.__name__)
            return make(*args, **kwargs)
        return build

    for cls in (SingularVertex, SingularPolyline):
        monkeypatch.setattr(cls, "__init__", counted(cls, cls.__init__))
    for cls in (SingularEdge, EdgeIndex):
        monkeypatch.setattr(cls, "__new__", counted(cls, cls.__new__))
        monkeypatch.setattr(cls, "_make", classmethod(
            counted(cls, cls._make.__func__)))
    alpha, beta, _, _ = sample_pair(circle_pair(), 0.05, 0.05)
    nets = [parabolic_net(0.05)[0], ConormalNet(alpha, beta),
            four_edge_net()]
    for k, net in enumerate(nets):
        curves = tmp_path / f"curves{k}.json"
        curves.write_bytes(write_curves(CurvePairFile(net.alpha, net.beta)))
        run_cli(["analyze", "--curves", str(curves),
                 "--report", str(tmp_path / f"report{k}.json")])
        assert (tmp_path / f"report{k}.json").stat().st_size > 0
    assert made == []
    # the counting itself works: reading the records makes them
    analysis = analyze_net(nets[1])
    assert analysis.vertices and analysis.polylines and analysis.edges
    assert {"SingularVertex", "SingularPolyline", "SingularEdge",
            "EdgeIndex"} <= set(made)


def test_the_singular_set_imports_no_masked_arrays(tmp_path):
    # np.unique imports numpy.ma on first use (numpy 2.4), about 1.5 MB
    # more memory in each process; analyze and the record path that the
    # corpus generator's filter takes find the vertices by a sort instead
    net = parabolic_net(0.1)[0]
    curves = tmp_path / "c.json"
    curves.write_bytes(write_curves(CurvePairFile(net.alpha, net.beta)))
    code = ("import sys\n"
            "from diams import metric_field, singular_edges\n"
            "from diams import singular_vertices\n"
            "from diams.io_cli import parse_curves, run_cli\n"
            "code = run_cli(['analyze', '--curves', sys.argv[1],\n"
            "                '--report', sys.argv[2]])\n"
            "net = parse_curves(open(sys.argv[1], 'rb').read()).to_net()\n"
            "singular_vertices(singular_edges(metric_field(net)),\n"
            "                  net.domain)\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    src = str(Path(diams.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(curves), str(tmp_path / "r.json")],
        env={"PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120, check=True)
    assert out.stdout.split() == ["0", "False"]
