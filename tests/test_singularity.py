import inspect
import itertools
import re
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import diams
from diams import (ConormalNet, Configuration, EdgeIndex, Kind, PolyCurve,
                   _kernels, admissibility_check, analyze_net,
                   classify_vertex, extract_polylines, halfplane_edge_test,
                   integrate_net, m_from_positions, metric_field, omega_quad,
                   orient, ray_crossing_test, singular_edges,
                   singular_vertices, star_sidedness_test,
                   validate_generic_position)
from diams import singularity
from diams.smooth_oracle import (builtin_pair, check_regularity,
                                 trace_singular_curve)
from diams.errors import (BoundaryVertex, DegenerateMetric,
                          DegenerateOrientation, DiamsError,
                          InadmissibleVertex, IndexOutOfDomain,
                          ValidationError)
from diams.net_core import GridDomain
from diams.singularity import (MetricField, SingularEdge, SingularSet,
                               SingularVertex, halfplane_grid,
                               triple_product)

from _helpers import (SIGN_PAIRS, STAR_RAYS, example_net, four_edge_net,
                      frame_sign, generate_admissible, island_net,
                      parabolic_net, parabolic_points, quadrant_signature,
                      random_admissible_net, random_net_candidate,
                      random_unimodular, reference_classify_vertex,
                      reference_extract_polylines,
                      reference_incident_edges, reference_singular_edges,
                      reference_singular_vertices, round_off_net,
                      transformed_net)

EXPECTED_EDGES = {
    -0.5: {EdgeIndex("v", 0, 0), EdgeIndex("v", 0, -1)},
    -2.0: {EdgeIndex("v", 0, 0), EdgeIndex("u", -1, 0)},
    1.0: {EdgeIndex("v", 0, 0), EdgeIndex("u", 0, 0)},
}
EXPECTED_CLASS = {
    -0.5: (Configuration.A, Kind.CUSPIDAL_EDGE),
    -2.0: (Configuration.B, Kind.CUSPIDAL_EDGE),
    1.0: (Configuration.C, Kind.SWALLOWTAIL),
}


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_omega_spot_values():
    # hand determinants of the rows (nu, alpha', beta')
    for y in (-0.5, -2.0, 1.0):
        net = example_net(y)
        assert omega_quad(net, (0, 0)) == pytest.approx(0.01, abs=1e-12)
        assert omega_quad(net, (-1, 0)) == pytest.approx(-0.01, abs=1e-12)
        assert omega_quad(net, (0, -1)) == pytest.approx(-0.01 * y, abs=1e-12)
        assert omega_quad(net, (-1, -1)) == pytest.approx(-0.01 * (1 + y),
                                                          abs=1e-12)


def test_metric_field_matches_omega_quad_bitwise():
    net = example_net(1.0)
    metric = metric_field(net)
    for quad, value in metric.items():
        assert value == omega_quad(net, quad)
    with pytest.raises(IndexOutOfDomain, match=r"quad \(1, 0\) outside"):
        omega_quad(net, (1, 0))


def test_metric_field_aborts_on_degenerate_quad():
    # y = -1 makes the quad (-1, -1) metric exactly zero
    with pytest.raises(DegenerateMetric, match=r"\(-1, -1\)"):
        metric_field(example_net(-1.0))


def test_m_from_positions_equals_omega_squared():
    net = example_net(1.0)
    f = integrate_net(net)
    assert m_from_positions(f, (0, 0)) == pytest.approx(1e-4, rel=1e-10)
    assert m_from_positions(f, (-1, -1)) == pytest.approx(4e-4, rel=1e-10)
    for quad in net.domain.quads():
        m = m_from_positions(f, quad)
        assert m >= 0.0
        assert m == pytest.approx(omega_quad(net, quad) ** 2, rel=1e-10)


# ---------------------------------------------------------------------------
# singular edges
# ---------------------------------------------------------------------------

def test_singular_edges_worked_example():
    for y, expected in EXPECTED_EDGES.items():
        edges = singular_edges(metric_field(example_net(y)))
        assert {se.edge for se in edges} == expected
        for se in edges:
            a, b = se.omega_pair
            assert a * b < 0


def _scaled_edges(k):
    a, b, _ = parabolic_points(0.2)
    s = 2.0 ** k
    net = ConormalNet(PolyCurve(a * s), PolyCurve(b * s))
    return {se.edge: se.omega_pair for se in singular_edges(metric_field(net))}


@pytest.mark.parametrize("k", [-300, -250, -200, -180, 0, 180, 200])
def test_singular_edges_are_scale_free(k):
    base = _scaled_edges(0)
    assert len(base) == 17
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edges = _scaled_edges(k)
    assert edges.keys() == base.keys()
    for edge, (lo, hi) in base.items():
        assert edges[edge] == (np.ldexp(lo, 3 * k), np.ldexp(hi, 3 * k))


def _scaled_parabolic(k):
    a, b, _ = parabolic_points(0.2)
    s = 2.0 ** k
    net = ConormalNet(PolyCurve(a * s), PolyCurve(b * s))
    return net, integrate_net(net)


def test_orient_overflow_is_a_named_error():
    # star edges are products of two coordinates, so orient's products on
    # the raw star edges are of five: at 2^250 they overflow, which must
    # not read as a zero orientation sign
    net, f = _scaled_parabolic(250)
    sv = next(sv for sv in analyze_net(net).vertices
              if "star_sidedness" in sv.diagnostics)
    i, j = (x - m for x, m in zip(sv.vertex, (net.domain.u_min,
                                              net.domain.v_min)))
    p = f.positions[i, j]
    with pytest.raises(ValidationError, match="orientation test: not finite"):
        orient(net.conormal(*sv.vertex), f.positions[i + 1, j] - p,
               f.positions[i, j + 1] - p)


@pytest.mark.parametrize("k", [-338, -300, -200, -150, 0, 150, 250, 300,
                               341])
def test_star_sidedness_test_agrees_with_the_table_at_every_scale(k):
    # the predicate scales its normal and star edges by powers of two, so
    # it reaches the scales the classification handles
    net, f = _scaled_parabolic(k)
    rows = [sv for sv in analyze_net(net).vertices
            if "star_sidedness" in sv.diagnostics]
    assert len(rows) == 16
    for sv in rows:
        assert (star_sidedness_test(f, net, sv)
                == sv.diagnostics["star_sidedness"]), sv.vertex


@pytest.mark.parametrize("k, error", [(342, IndexOutOfDomain),
                                      (345, ValidationError)])
def test_a_vertex_signs_come_before_its_edges(k, error):
    # a record whose edges do not meet its vertex: its six signs are
    # formed first, so where their magnitudes overflow (2^345, not yet at
    # 2^342) the overflow is the error
    net, _ = _scaled_parabolic(k)
    u0, v0 = net.domain.u_min + 3, net.domain.v_min + 3
    far = SingularVertex((u0, v0), frozenset([EdgeIndex("u", u0 + 2, v0),
                                              EdgeIndex("v", u0 + 2, v0)]))
    with pytest.raises(error):
        classify_vertex(net, None, far)


def test_halfplane_edge_test_examples():
    net = example_net(1.0)
    assert halfplane_edge_test(net, EdgeIndex("v", 0, 0)) is True
    assert halfplane_edge_test(net, EdgeIndex("v", 0, -1)) is False


def test_halfplane_degenerate_orientation():
    # beta' parallel to both alpha' values in projection
    a = np.array([[-0.1, 0.0, 1.0], [0.0, 0.0, 1.0], [0.1, 0.0, 1.0]])
    b = np.array([[-0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
    net = ConormalNet(PolyCurve(a, -1), PolyCurve(b, -1))
    with pytest.raises(DegenerateOrientation):
        halfplane_edge_test(net, EdgeIndex("v", 0, 0))


def test_halfplane_equivalence_on_examples_and_random_nets(rng):
    nets = [example_net(y) for y in EXPECTED_EDGES]
    nets += [random_admissible_net(rng, n=11) for _ in range(20)]
    for net in nets:
        metric = metric_field(net)
        singular = {se.edge for se in singular_edges(metric)}
        v_res, u_res, v_zero, u_zero = halfplane_grid(net)
        assert not v_zero.any() and not u_zero.any()
        dom = net.domain
        for i in range(v_res.shape[0]):
            for j in range(v_res.shape[1]):
                edge = EdgeIndex("v", dom.u_min + 1 + i, dom.v_min + j)
                assert v_res[i, j] == (edge in singular)
                assert halfplane_edge_test(net, edge) == bool(v_res[i, j])
        for i in range(u_res.shape[0]):
            for j in range(u_res.shape[1]):
                edge = EdgeIndex("u", dom.u_min + i, dom.v_min + 1 + j)
                assert u_res[i, j] == (edge in singular)
                assert halfplane_edge_test(net, edge) == bool(u_res[i, j])


def _near_parallel_net(rng, n=9):
    # both curves run along one direction, each point lifted off its line
    # by 1e-13 ... 1e-7, so alpha' and beta' are nearly collinear and the
    # triples [nu0, alpha', beta'] land in and next to orient's dead zone
    d = rng.normal(size=3)

    def curve(start):
        steps = np.cumsum(rng.uniform(0.5, 1.5, n))
        lift = (10.0 ** rng.uniform(-13.0, -7.0, (n, 1))
                * rng.normal(size=(n, 3)))
        return start + steps[:, None] * d + lift
    return ConormalNet(PolyCurve(curve(rng.normal(size=3))),
                       PolyCurve(curve(rng.normal(size=3))))


def test_halfplane_grid_matches_scalar_orient(rng):
    zeros = signs = 0
    for _ in range(20):
        net = _near_parallel_net(rng)
        v_res, u_res, v_zero, u_zero = halfplane_grid(net)
        dom = net.domain
        for axis, res, zero in (("v", v_res, v_zero), ("u", u_res, u_zero)):
            for (i, j), got in np.ndenumerate(res):
                if axis == "v":
                    u0, v0 = dom.u_min + 1 + i, dom.v_min + j
                    y = net.beta.derivative(v0 + 0.5)
                    sides = [(net.alpha.derivative(u0 + s), y)
                             for s in (0.5, -0.5)]
                else:
                    u0, v0 = dom.u_min + i, dom.v_min + 1 + j
                    x = net.alpha.derivative(u0 + 0.5)
                    sides = [(x, net.beta.derivative(v0 + s))
                             for s in (0.5, -0.5)]
                n0 = net.conormal(u0, v0)
                sp, sm = (orient(n0, x, y) for x, y in sides)
                assert zero[i, j] == (sp == 0 or sm == 0)
                if sp and sm:
                    assert got == (sp != sm)
                else:
                    # in the dead zone the result still reads the signs of
                    # the same determinants
                    tp, tm = (np.sign(triple_product(n0, x, y))
                              for x, y in sides)
                    assert got == (tp != tm)
                zeros += bool(zero[i, j])
                signs += not zero[i, j]
    assert zeros > 50 and signs > 50


def test_halfplane_grid_overflow_is_a_named_error():
    # at 2^345 the six products of every [nu0, x, y] overflow: the grid
    # ends in the scalar test's named error, not in dead-zone hits
    a, b, _ = parabolic_points(0.2)
    net = ConormalNet(PolyCurve(a * 2.0 ** 345), PolyCurve(b * 2.0 ** 345))
    with pytest.raises(ValidationError, match="orientation test: not finite"):
        halfplane_edge_test(net, EdgeIndex("v", 1, 0))
    with pytest.raises(ValidationError, match="orientation test: not finite"):
        halfplane_grid(net)


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------

def test_singular_vertices_worked_example():
    net = example_net(1.0)
    verts = singular_vertices(singular_edges(metric_field(net)), net.domain)
    by_vertex = {sv.vertex: sv for sv in verts}
    assert set(by_vertex) == {(0, 0), (0, 1), (1, 0)}
    assert by_vertex[(0, 0)].incident_singular_edges == \
        {EdgeIndex("v", 0, 0), EdgeIndex("u", 0, 0)}


def test_singular_vertices_empty():
    net = example_net(1.0)
    assert singular_vertices(set(), net.domain) == []


def _four_edge_net():
    # slopes chosen so the metric sign flips across all four edges at (0, 0)
    a = np.array([[-0.1, -0.1, 1.0], [0.0, 0.0, 1.0], [0.1, 0.0, 1.0]])
    b = np.array([[0.2, 0.1, 0.0], [0.0, 0.0, 0.0], [0.1, 0.05, 0.0]])
    return ConormalNet(PolyCurve(a, -1), PolyCurve(b, -1))


def test_four_singular_edges_flagged_inadmissible():
    net = _four_edge_net()
    edges = singular_edges(metric_field(net))
    verts = singular_vertices(edges, net.domain)
    centre = next(sv for sv in verts if sv.vertex == (0, 0))
    assert len(centre.incident_singular_edges) == 4
    assert centre.configuration == Configuration.INADMISSIBLE
    with pytest.raises(InadmissibleVertex):
        extract_polylines(verts, edges, net.domain)


def test_admissibility_on_examples():
    for y in (-0.5, -2.0, 1.0):
        net = example_net(y)
        verts = singular_vertices(singular_edges(metric_field(net)), net.domain)
        centre = next(sv for sv in verts if sv.vertex == (0, 0))
        assert admissibility_check(net, centre) is True
        rim = next(sv for sv in verts if sv.vertex != (0, 0))
        with pytest.raises(BoundaryVertex, match="is not interior"):
            admissibility_check(net, rim)


def _forbidden_net():
    # beta(-1) placed so the direction towards P beta(-1) shares the
    # quadrant of P beta(+1)
    a = np.array([[-0.1, -0.1, 1.1], [0.0, 0.0, 1.0], [0.1, 0.0, 1.0]])
    b = np.array([[0.1, 0.05, 0.0], [0.0, 0.0, 0.0], [0.2, 0.1, 0.0]])
    return ConormalNet(PolyCurve(a, -1), PolyCurve(b, -1))


def test_admissibility_forbidden_configuration():
    net = _forbidden_net()
    edges = singular_edges(metric_field(net))
    verts = singular_vertices(edges, net.domain)
    centre = next(sv for sv in verts if sv.vertex == (0, 0))
    assert EdgeIndex("v", 0, 0) in centre.incident_singular_edges
    assert admissibility_check(net, centre) is False
    with pytest.raises(InadmissibleVertex):
        classify_vertex(net, integrate_net(net), centre)


# ---------------------------------------------------------------------------
# ray crossing
# ---------------------------------------------------------------------------

def _ray(deg):
    t = np.radians(deg)
    return np.array([np.cos(t), np.sin(t), 0.0])


def test_ray_crossing_angle_examples():
    n = np.array([0.0, 0.0, 1.0])
    # worked-example rays at y = 1 (crossing) and y = -1/2 (no crossing)
    assert ray_crossing_test(n, _ray(225), _ray(0), _ray(315), _ray(207)) is True
    assert ray_crossing_test(n, _ray(225), _ray(0), _ray(27), _ray(207)) is False
    # a doubled-back polyline cannot cross anything
    assert ray_crossing_test(n, _ray(225), _ray(0), _ray(100), _ray(100)) is False
    assert ray_crossing_test(n, _ray(100), _ray(100), _ray(225), _ray(0)) is False


def test_ray_crossing_straight_lines_and_degeneracies():
    n = np.array([0.0, 0.0, 1.0])
    # q is a straight line: crossing iff the p rays sit on opposite sides
    assert ray_crossing_test(n, _ray(90), _ray(270.5), _ray(0), _ray(180)) is True
    assert ray_crossing_test(n, _ray(10), _ray(80), _ray(0), _ray(180)) is False
    # q ray exactly on a p ray is ill-defined
    with pytest.raises(DegenerateOrientation):
        ray_crossing_test(n, _ray(0), _ray(90), _ray(0), _ray(200))
    with pytest.raises(DegenerateOrientation):
        ray_crossing_test(n, _ray(0), _ray(180), _ray(0), _ray(180))


def _interleave_reference(p_in, p_out, q_in, q_out):
    """ray_crossing_test by angles in the xy-plane: the q rays fall in
    opposite open sectors of the p wedge."""
    def angle(x):
        return np.arctan2(x[1], x[0])

    span = (angle(p_out) - angle(p_in)) % (2 * np.pi)

    def inside(x):
        return 0.0 < (angle(x) - angle(p_in)) % (2 * np.pi) < span

    return inside(q_in) != inside(q_out)


@pytest.mark.parametrize("p_in, p_out", [((1, 0, 0), (1, 2, 0)),
                                         ((1, 2, 0), (1, 0, 0))])
@pytest.mark.parametrize("q_in", [(-1, 0, 0), (-1, -2, 0)])
@pytest.mark.parametrize("q_out", [(-1, -1, 0), (2, 1, 0), (0, -1, 0),
                                   (-1, 1, 0)])
def test_ray_crossing_with_a_ray_pointing_away_along_a_wedge_ray(
        p_in, p_out, q_in, q_out):
    # q_in is -p_in or -p_out exactly: it lies on a wedge ray's line,
    # pointing away from it, and so in the complementary sector
    n = (0.0, 0.0, 1.0)
    rays = [np.array(r, dtype=float) for r in (p_in, p_out, q_in, q_out)]
    assert ray_crossing_test(n, *rays) == _interleave_reference(*rays)


@pytest.mark.parametrize("rays, tol, message", [
    # q's incoming ray lies in the dead zone of both wedge rays
    (((10, 9, 0), (9, 10, 0), (10, 10, 0), (-1, 0, 0)), 0.08,
     "incoming q ray: collinear wedge"),
    (((2, 0, 0), (-3, 0, 0), (1, 0, 0), (-1, 0, 0)), 1e-9,
     "all four rays are collinear"),
    # p doubles back in the dead zone of both q rays
    (((10, 10, 0), (20, 20, 0), (10, 9, 0), (9, 10, 0)), 0.08,
     "all four rays are collinear"),
    (((0, 1, 0), (2, 0, 0), (1, 0, 0), (-1, 0, 0)), 1e-9,
     "p ray lies on the q line"),
    (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (3, 0, 0)), 1e-9,
     "q ray lies on the p line"),
])
def test_ray_crossing_degenerate_rays_raise(rays, tol, message):
    n = (0.0, 0.0, 1.0)
    with pytest.raises(DegenerateOrientation, match=f"^{message}$"):
        ray_crossing_test(n, *rays, tol=tol)


def test_ray_crossing_brute_force(rng):
    # compare against angle interleaving for random generic ray sets
    n = np.array([0.0, 0.0, 1.0])
    for _ in range(500):
        deg = rng.uniform(0, 360, size=4)
        if min(abs((deg[:, None] - deg[None, :] + 180) % 360 - 180)[
                np.triu_indices(4, 1)]) < 1e-3:
            continue
        rays = [_ray(d) for d in deg]
        assert ray_crossing_test(n, *rays) == _interleave_reference(*rays)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _classified_centre(y):
    analysis = analyze_net(example_net(y))
    return next(sv for sv in analysis.vertices if sv.vertex == (0, 0))


def test_classify_worked_example():
    for y, (config, kind) in EXPECTED_CLASS.items():
        sv = _classified_centre(y)
        assert sv.configuration == config
        assert sv.kind == kind


def test_classify_boundary_vertices_unclassified():
    analysis = analyze_net(example_net(1.0))
    for sv in analysis.vertices:
        if sv.vertex != (0, 0):
            assert sv.configuration == Configuration.BOUNDARY
            assert sv.kind == Kind.UNCLASSIFIED


def test_round_off_net_classifies_at_zero_dead_zones():
    # the cross signs are Omega's own signs, so the vertex frame's
    # round-off checkerboard no longer reaches the quadrant test
    analysis = analyze_net(round_off_net(), tol=0.0, eps_degenerate=0.0)
    assert analysis.metric.omega((0, -1)) == pytest.approx(-4.7e-18, rel=0.01)
    assert analysis.clean and analysis.admissibility_violations == []
    centre = next(sv for sv in analysis.vertices if sv.vertex == (0, 0))
    assert centre.incident_singular_edges == {EdgeIndex("u", -1, 0),
                                              EdgeIndex("v", 0, 0)}
    assert centre.configuration == Configuration.C
    assert centre.kind == Kind.SWALLOWTAIL
    assert len(analysis.polylines) == 1


def _cross_from_diagnostics(diag):
    """The cross signs ++, +-, -+, -- that classify_vertex read, recovered
    from its quadrant signatures for the base edge's axis."""
    sig_out = [1 if c == "+" else -1 for c in diag["sig_out"]]
    sig_in = [1 if c == "+" else -1 for c in diag["sig_in"]]
    if diag["base_edge"][0] == "v":     # out (++, -+), in -(+-, --)
        return (sig_out[0], -sig_in[0], sig_out[1], -sig_in[1])
    return (-sig_out[0], -sig_out[1], sig_in[0], sig_in[1])   # out -(++, +-)


def test_cross_signs_are_the_quad_metric_signs(rng):
    # at every interior pipeline vertex with two singular edges, the four
    # cross signs are the signs of Omega on the quads (u0, v0), (u0, v0-1),
    # (u0-1, v0), (u0-1, v0-1), so the quadrant test passes
    cases = [(generate_admissible(rng)[0], 1e-9, 1e-9) for _ in range(25)]
    cases.append((round_off_net(), 0.0, 0.0))
    seen = 0
    for net, tol, eps in cases:
        metric = metric_field(net, eps)
        edges = singular_edges(metric)
        f = integrate_net(net)
        for sv in singular_vertices(edges, net.domain):
            if (not net.domain.is_interior_vertex(*sv.vertex)
                    or len(sv.incident_singular_edges) != 2):
                continue
            u0, v0 = sv.vertex
            assert admissibility_check(net, sv, tol) is True
            out = classify_vertex(net, f, sv, tol, singular_edge_set=edges)
            want = tuple(int(np.sign(metric.omega(q)))
                         for q in ((u0, v0), (u0, v0 - 1),
                                   (u0 - 1, v0), (u0 - 1, v0 - 1)))
            assert _cross_from_diagnostics(out.diagnostics) == want
            seen += 1
    assert seen > 50


def test_omega_grid_runs_once_per_net(monkeypatch):
    # generic position, the metric, the cross signs and the whole pipeline
    # all read the one (Omega, mag) grid of the net
    calls = []
    kernel = _kernels.omega_grid

    def counted(alpha, beta):
        calls.append(1)
        return kernel(alpha, beta)

    monkeypatch.setattr(_kernels, "omega_grid", counted)
    net = example_net(1.0)
    assert validate_generic_position(net) == []
    metric = metric_field(net)
    centre, = [sv for sv in singular_vertices(singular_edges(metric),
                                              net.domain)
               if sv.vertex == (0, 0)]
    assert admissibility_check(net, centre) is True
    assert analyze_net(net).clean
    assert len(calls) == 1
    assert not metric.values.flags.writeable
    with pytest.raises(ValueError):
        metric.values[0, 0] = 1.0


def _centre(net):
    verts = singular_vertices(singular_edges(metric_field(net)), net.domain)
    return next(sv for sv in verts if sv.vertex == (0, 0))


_PLANE = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
# every public entry that takes a tolerance, as a call with valid other
# arguments (the worked example's net and its centre where they take one)
# and the tolerance's parameter name; each id names its function, and the
# parameter too where the function takes two
TOLERANCE_ENTRIES = {
    "analyze_net-tol": (lambda net, t: analyze_net(net, tol=t), "tol"),
    "analyze_net-eps": (lambda net, t: analyze_net(net, eps_degenerate=t),
                        "eps_degenerate"),
    "validate_generic_position": (
        lambda net, t: validate_generic_position(net, t), "tol"),
    "metric_field": (lambda net, t: metric_field(net, t), "eps_degenerate"),
    "classify_vertex": (
        lambda net, t: classify_vertex(net, None, _centre(net), t), "tol"),
    "admissibility_check": (
        lambda net, t: admissibility_check(net, _centre(net), t), "tol"),
    "star_sidedness_test": (lambda net, t: star_sidedness_test(
        integrate_net(net), net, _centre(net), t), "tol"),
    "halfplane_edge_test": (
        lambda net, t: halfplane_edge_test(net, EdgeIndex("v", 0, 0), t),
        "tol"),
    "halfplane_grid": (lambda net, t: halfplane_grid(net, t), "tol"),
    "orient": (lambda net, t: orient(*_PLANE, t), "tol"),
    "ray_crossing_test": (lambda net, t: ray_crossing_test(
        *_PLANE, (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), t), "tol"),
    "check_regularity": (lambda net, t: check_regularity(
        builtin_pair("parabolic"), (0.0, 0.0), t), "tol"),
    "trace_singular_curve": (lambda net, t: trace_singular_curve(
        builtin_pair("parabolic"), 17, t), "tol"),
}


def test_every_tolerance_entry_is_checked():
    # each callable of diams.__all__ with a tol or eps_degenerate
    # parameter, and halfplane_grid, has a row per such parameter above,
    # and each row refuses -1, nan and inf
    net = example_net(1.0)
    for entry, name in TOLERANCE_ENTRIES.values():
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match=rf"^{name} must be"):
                entry(net, bad)
    entries = {"halfplane_grid": halfplane_grid}
    entries.update((name, getattr(diams, name)) for name in diams.__all__)
    found = set()
    for name, fn in entries.items():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):     # the enums
            continue
        found.update((name, p) for p in ("tol", "eps_degenerate")
                     if p in params)
    assert len({name for name, _ in found}) == 12
    assert found == {(key.split("-")[0], param)
                     for key, (_, param) in TOLERANCE_ENTRIES.items()}


@pytest.mark.parametrize("entry, name", TOLERANCE_ENTRIES.values(),
                         ids=TOLERANCE_ENTRIES.keys())
def test_library_rejects_tolerances_below_zero_or_not_finite(entry, name):
    # the dead-zone rule and its certified bounds assume a tolerance >= 0:
    # each entry point names a bad one, whatever it would have read
    net = example_net(1.0)
    for bad in (-1.0, -1e-9, -0.0 - 1e-300, np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match=rf"^{name} must be a "
                                                  r"finite number >= 0, got"):
            entry(net, bad)
    for good in (0.0, 0, np.float64(1e-9)):
        entry(net, good)


def test_star_sidedness_examples():
    for y, expected in ((-0.5, False), (-2.0, False), (1.0, True)):
        net = example_net(y)
        f = integrate_net(net)
        verts = singular_vertices(singular_edges(metric_field(net)), net.domain)
        centre = next(sv for sv in verts if sv.vertex == (0, 0))
        assert star_sidedness_test(f, net, centre) is expected
        rim = next(sv for sv in verts if sv.vertex != (0, 0))
        with pytest.raises(BoundaryVertex, match="is not interior"):
            star_sidedness_test(f, net, rim)
        edge = min(centre.incident_singular_edges)
        with pytest.raises(IndexOutOfDomain, match="is not incident"):
            edge.direction_at((5, 5))
    net = four_edge_net()
    verts = singular_vertices(singular_edges(metric_field(net)), net.domain)
    centre = next(sv for sv in verts if sv.vertex == (0, 0))
    with pytest.raises(InadmissibleVertex, match=r"\(0, 0\) has 4 singular"):
        star_sidedness_test(integrate_net(net), net, centre)


def test_classification_diagnostics_contract(rng):
    # swallowtail <=> configuration C <=> star sidedness, on random nets
    seen = 0
    for _ in range(60):
        net = random_admissible_net(rng, n=13)
        analysis = analyze_net(net)
        for sv in analysis.vertices:
            if sv.configuration in (Configuration.BOUNDARY,
                                    Configuration.INADMISSIBLE, None):
                continue
            seen += 1
            is_c = sv.configuration == Configuration.C
            assert (sv.kind == Kind.SWALLOWTAIL) == is_c
            assert sv.diagnostics["star_sidedness"] == is_c
            assert sv.diagnostics["crossing_swallowtail"] == is_c
    assert seen > 50


def test_configuration_a_iff_edges_share_axis(rng):
    for _ in range(40):
        net = random_admissible_net(rng, n=13)
        analysis = analyze_net(net)
        for sv in analysis.vertices:
            if sv.configuration in (Configuration.BOUNDARY,
                                    Configuration.INADMISSIBLE, None):
                continue
            axes = sorted(e.axis for e in sv.incident_singular_edges)
            assert (sv.configuration == Configuration.A) == (axes[0] == axes[1])


def test_polylines_worked_example():
    for y, chain in ((-0.5, ((0, -1), (0, 0), (0, 1))),
                     (-2.0, ((-1, 0), (0, 0), (0, 1))),
                     (1.0, ((0, 1), (0, 0), (1, 0)))):
        analysis = analyze_net(example_net(y))
        assert len(analysis.polylines) == 1
        got = analysis.polylines[0]
        assert not got.closed
        assert got.vertices in (chain, chain[::-1])
        assert len(got.edges) == 2


def test_polylines_empty_without_singular_edges():
    net = example_net(1.0)
    assert extract_polylines([], set(), net.domain) == []


def test_polyline_closed_loop():
    # metric sign island on one interior quad yields a 4-edge loop
    net = island_net()
    metric = metric_field(net)
    values = {q: w for q, w in metric.items()}
    assert values[(1, 1)] < 0
    assert all(w > 0 for q, w in values.items() if q != (1, 1))
    edges = singular_edges(metric)
    verts = singular_vertices(edges, net.domain)
    chains = extract_polylines(verts, edges, net.domain)
    assert len(chains) == 1
    assert chains[0].closed
    assert len(chains[0].edges) == 4
    assert chains[0].vertices[0] == chains[0].vertices[-1] == (1, 1)


def _plain_net():
    """7x7 curves whose metric is positive on every quad."""
    t = np.linspace(-1.0, 1.0, 7)
    a = np.stack([t, 0.1 * t ** 3 + 0.05 * t ** 2, 1 + 0.2 * t ** 2], axis=1)
    b = np.stack([0.1 * t ** 2, t, 0.3 * t ** 2], axis=1)
    return ConormalNet(PolyCurve(a), PolyCurve(b))


def _outcome(fn, *args):
    """fn(*args), or the type of the DiamsError it raises."""
    try:
        return fn(*args)
    except DiamsError as e:
        return type(e)


def _chain_end_sides(polylines, dom):
    ends = [v for pl in polylines if not pl.closed
            for v in (pl.vertices[0], pl.vertices[-1])]
    return ({"u_min" for u, _ in ends if u == dom.u_min}
            | {"u_max" for u, _ in ends if u == dom.u_max}
            | {"v_min" for _, v in ends if v == dom.v_min}
            | {"v_max" for _, v in ends if v == dom.v_max})


def test_singular_set_matches_per_edge_reference(rng):
    nets = [generate_admissible(rng)[0] for _ in range(12)]
    nets += [random_net_candidate(rng) for _ in range(12)]
    nets += [four_edge_net(), island_net(), _plain_net(),
             parabolic_net(0.2)[0], example_net(1.0)]
    sides = set()
    kinds = set()
    for net in nets:
        dom = net.domain
        try:
            metric = metric_field(net)
        except DegenerateMetric:
            continue
        ref_edges = reference_singular_edges(metric)
        ref_sorted = sorted(ref_edges, key=lambda se: tuple(se.edge))
        assert singular_edges(metric) == ref_sorted
        analysis = analyze_net(net)
        assert analysis.edges == ref_sorted
        assert all(a < 0.0 < b or b < 0.0 < a
                   for _, (a, b) in analysis.edges)
        ref_incident = reference_incident_edges(ref_edges, dom)
        sset = SingularSet.from_omega(metric)
        assert list(zip(sset.vertices, sset.incident())) == ref_incident
        assert sset.inadmissible() == [
            (vert, len(inc)) for vert, inc in ref_incident
            if dom.is_interior_vertex(*vert) and len(inc) != 2]
        # the record path's set, from the same edges: the same graph,
        # each vertex's links in the same order
        rebuilt = SingularSet.from_edges(sset.singular_edges(metric.values),
                                         dom)
        for name in ("axis", "i", "j", "vertex_i", "vertex_j", "links",
                     "degree", "interior", "flagged"):
            assert np.array_equal(getattr(rebuilt, name), getattr(sset, name))
        # the record path, from the reference's edge set
        ref_verts = reference_singular_vertices(ref_edges, dom)
        assert singular_vertices(ref_edges, dom) == ref_verts
        ref_polylines = _outcome(reference_extract_polylines, ref_verts,
                                 ref_edges, dom)
        assert _outcome(extract_polylines, ref_verts, ref_edges,
                        dom) == ref_polylines
        assert _outcome(extract_polylines, [], ref_edges,
                        dom) == _outcome(reference_extract_polylines, [],
                                         ref_edges, dom)
        # analyze_net: the same edges, incidence and chains; every vertex
        # configured by the two-edge rule or by classify_vertex
        analysis = _outcome(analyze_net, net)
        if isinstance(analysis, type):
            continue
        assert analysis.edges == ref_sorted
        assert [(sv.vertex, sv.incident_singular_edges)
                for sv in analysis.vertices] == ref_incident
        expected = []
        for sv, ref in zip(analysis.vertices, ref_verts):
            if not dom.is_interior_vertex(*ref.vertex):
                expected.append(replace(ref,
                                        configuration=Configuration.BOUNDARY,
                                        kind=Kind.UNCLASSIFIED))
            elif ref.configuration == Configuration.INADMISSIBLE:
                expected.append(ref)
            else:
                expected.append(classify_vertex(net, None, ref))
            kinds.add(expected[-1].configuration)
        assert analysis.vertices == expected
        assert analysis.admissibility_violations == [
            (sv.vertex, f"{len(sv.incident_singular_edges)} incident "
                        "singular edges at an interior vertex")
            for sv in ref_verts
            if sv.configuration == Configuration.INADMISSIBLE]
        if analysis.admissibility_violations:
            assert analysis.polylines == []
            assert ref_polylines is InadmissibleVertex
        else:
            assert analysis.polylines == ref_polylines
            sides |= _chain_end_sides(ref_polylines, dom)
    assert sides == {"u_min", "u_max", "v_min", "v_max"}
    assert Configuration.INADMISSIBLE in kinds
    # the degree-4 vertex, the loop and the empty set reached the checks
    analysis = analyze_net(four_edge_net())
    assert analysis.admissibility_violations == [
        ((0, 0), "4 incident singular edges at an interior vertex")]
    assert analysis.polylines == []
    loop, = analyze_net(island_net()).polylines
    assert loop.closed
    assert analyze_net(_plain_net()).edges == []


def _boundary_edges(dom):
    """Every boundary edge of dom: the u-edges at v_min and v_max, then
    the v-edges at u_min and u_max."""
    edges = [EdgeIndex("u", u, v) for u in range(dom.u_min, dom.u_max)
             for v in (dom.v_min, dom.v_max)]
    return edges + [EdgeIndex("v", u, v) for u in (dom.u_min, dom.u_max)
                    for v in range(dom.v_min, dom.v_max)]


def test_singular_set_walks_edge_sets_like_the_reference(rng):
    # edge records the pass does not make from Omega: random sign grids'
    # flips and random subsets of them; one boundary edge added to a set
    # is refused by name
    dom = parabolic_net(0.5)[0].domain
    boundary = _boundary_edges(dom)
    walked = 0
    for trial in range(300):
        signs = rng.choice([-1.0, 1.0], size=(dom.nu - 1, dom.nv - 1))
        edges = reference_singular_edges(MetricField(dom, signs))
        if trial % 3 == 0:
            edges = {se for se in edges if rng.random() < 0.5}
        ref_verts = reference_singular_vertices(edges, dom)
        assert singular_vertices(edges, dom) == ref_verts
        ref = _outcome(reference_extract_polylines, [], edges, dom)
        assert _outcome(extract_polylines, [], edges, dom) == ref
        walked += ref is not InadmissibleVertex
        edge = boundary[int(rng.integers(len(boundary)))]
        edges |= {SingularEdge(edge, (-1.0, 1.0))}
        for fn in (singular_vertices, partial(extract_polylines, [])):
            with pytest.raises(IndexOutOfDomain,
                               match=re.escape(f"edge {edge} is not an")):
                fn(edges, dom)
    assert walked > 50
    # a record off the domain, of another axis or with a non-integer
    # coordinate is named, not read as another edge
    small = example_net(1.0).domain
    for edge, where in ((EdgeIndex("u", dom.u_max, 0), dom),
                        (EdgeIndex("w", 0, 0), small),
                        (EdgeIndex("v", 0.7, 0), small),
                        (EdgeIndex("u", -1, 0.9), small)):
        with pytest.raises(IndexOutOfDomain, match=re.escape(str(edge))):
            singular_vertices({SingularEdge(edge, (-1.0, 1.0))}, where)


def test_from_edges_refuses_boundary_records_by_name():
    # a u-edge at v_min or v_max and a v-edge at u_min or u_max border one
    # quad; the interior edges beside them, which end on the boundary, are
    # read
    dom = GridDomain(-2, 3, 4, 8)
    boundary = {"u at v_min": EdgeIndex("u", 0, 4),
                "u at v_max": EdgeIndex("u", 2, 8),
                "v at u_min": EdgeIndex("v", -2, 6),
                "v at u_max": EdgeIndex("v", 3, 7)}
    assert set(boundary.values()) <= set(_boundary_edges(dom))
    for edge in boundary.values():
        records = [SingularEdge(EdgeIndex("u", 0, 5), (-1.0, 1.0)),
                   SingularEdge(edge, (-1.0, 1.0))]
        for fn in (SingularSet.from_edges, singular_vertices,
                   partial(extract_polylines, [])):
            with pytest.raises(IndexOutOfDomain,
                               match=re.escape(f"edge {edge} is not an "
                                               "interior edge")):
                fn(records, dom)
    inner = [EdgeIndex("u", -2, 5), EdgeIndex("u", 2, 7),
             EdgeIndex("v", -1, 4), EdgeIndex("v", 2, 7)]
    sset = SingularSet.from_edges(
        [SingularEdge(e, (-1.0, 1.0)) for e in inner], dom)
    assert sset.edges == sorted(inner)
    assert [pl.vertices for pl in sset.chains().polylines()] == [
        ((-2, 5), (-1, 5), (-1, 4)), ((2, 8), (2, 7), (3, 7))]


def _smooth_metric(rng):
    """Omega on a random domain (8 to 70 vertices a side, offset) from a
    few low plane waves and Gaussian bumps: its sign changes make long
    open chains and islands, the loops."""
    nu, nv = rng.integers(8, 71, size=2)
    u0, v0 = rng.integers(-30, 31, size=2).tolist()
    dom = GridDomain(u0, u0 + int(nu) - 1, v0, v0 + int(nv) - 1)
    x = np.arange(nu - 1)[:, None] + 0.5
    y = np.arange(nv - 1)[None, :] + 0.5
    w = np.full((nu - 1, nv - 1), rng.normal(0.0, 0.3))
    for _ in range(4):
        k = rng.uniform(0.05, 0.4, size=2) * rng.choice([-1.0, 1.0], size=2)
        w += rng.normal() * np.cos(k[0] * x + k[1] * y + rng.uniform(0, 7))
    for _ in range(3):
        cu, cv, r = rng.uniform(0, nu), rng.uniform(0, nv), rng.uniform(2, 8)
        w += rng.normal(0.0, 3.0) * np.exp(
            -((x - cu) ** 2 + (y - cv) ** 2) / r ** 2)
    return MetricField(dom, w)


def test_polylines_of_smooth_sign_fields_match_the_reference():
    # the walker's order is the reference's reoriented one: each open
    # chain from its smaller end, each loop from its least vertex towards
    # (u, v+1); the +-1 grids above walk only a few loops
    rng = np.random.default_rng(11)
    sets = loops = 0
    for _ in range(600):
        metric = _smooth_metric(rng)
        sset = SingularSet.from_omega(metric)
        if any(sset.flagged):
            continue
        sets += 1
        edges = sset.singular_edges(metric.values)
        ref = reference_extract_polylines([], edges, metric.domain)
        assert sset.chains().polylines() == ref
        assert extract_polylines([], edges, metric.domain) == ref
        for pl in ref:
            if pl.closed:
                (u, v), second = pl.vertices[:2]
                assert (u, v) == min(pl.vertices) and second == (u, v + 1)
            else:
                assert pl.vertices[0] < pl.vertices[-1]
        loops += sum(pl.closed for pl in ref)
    assert sets >= 500 and loops >= 100


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

def _signature(analysis):
    return (tuple(tuple(se.edge) for se in analysis.edges),
            tuple((sv.vertex, sv.configuration, sv.kind)
                  for sv in analysis.vertices),
            tuple((pl.closed, pl.vertices) for pl in analysis.polylines))


def test_unimodular_invariance(rng):
    nets = [example_net(y) for y in (-0.5, -2.0, 1.0)]
    nets.append(random_admissible_net(rng))
    for net in nets:
        base = analyze_net(net)
        w0 = base.metric.values
        for _ in range(10):
            mapped = transformed_net(net, matrix=random_unimodular(rng))
            out = analyze_net(mapped)
            assert _signature(out) == _signature(base)
            assert np.allclose(out.metric.values, w0, rtol=1e-9,
                               atol=1e-12 * net.scale ** 3)


def test_u_relabel_flips_metric_and_keeps_kinds(rng):
    for y in (-0.5, -2.0, 1.0):
        net = example_net(y)
        base = analyze_net(net)
        rev = ConormalNet(
            PolyCurve(net.alpha.points[::-1].copy(),
                      offset=-net.alpha.index_max),
            net.beta)
        out = analyze_net(rev)
        # metric flips sign and reflects in u (quad (u, v) -> (-u-1, v))
        for quad, w in base.metric.items():
            assert out.metric.omega((-quad[0] - 1, quad[1])) == \
                pytest.approx(-w, rel=1e-12)
        kinds = {(-sv.vertex[0], sv.vertex[1]): sv.kind
                 for sv in base.vertices}
        for sv in out.vertices:
            assert sv.kind == kinds[sv.vertex]


def _reversed(curve):
    return PolyCurve(curve.points[::-1].copy(), offset=-curve.index_max)


def test_relabellings_keep_configuration_and_kind():
    # swapping the curves ((u, v) -> (v, u)), reversing alpha (u -> -u) and
    # reversing beta (v -> -v) move every vertex record without changing
    # its configuration or kind
    rng = np.random.default_rng(7)
    nets = [generate_admissible(rng)[0] for _ in range(30)]
    nets.append(parabolic_net(0.05)[0])
    relabellings = [
        (lambda net: ConormalNet(net.beta, net.alpha), lambda u, v: (v, u)),
        (lambda net: ConormalNet(_reversed(net.alpha), net.beta),
         lambda u, v: (-u, v)),
        (lambda net: ConormalNet(net.alpha, _reversed(net.beta)),
         lambda u, v: (u, -v)),
    ]
    records = 0
    for net in nets:
        base = analyze_net(net).vertices
        for relabel, move in relabellings:
            want = {move(*sv.vertex): (sv.configuration, sv.kind)
                    for sv in base}
            got = {sv.vertex: (sv.configuration, sv.kind)
                   for sv in analyze_net(relabel(net)).vertices}
            assert got == want
            records += len(got)
    assert records == 3 * 2208


def test_classification_projection_independent(rng):
    # recompute every classify decision with a literal 2D projection on a
    # random transversal plane; booleans must match the orient-based path
    checked = 0
    for _ in range(25):
        net = random_admissible_net(rng, n=11)
        analysis = analyze_net(net)
        for sv in analysis.vertices:
            if sv.configuration in (Configuration.BOUNDARY,
                                    Configuration.INADMISSIBLE, None):
                continue
            u0, v0 = sv.vertex
            n0 = net.conormal(u0, v0)
            # random plane transversal to n0, right-handed basis
            while True:
                m = rng.normal(size=3)
                if abs(np.dot(m, n0)) > 0.3 * np.linalg.norm(m) * np.linalg.norm(n0):
                    break
            e1 = np.cross(m, n0)
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(n0, e1) / np.linalg.norm(n0)

            def proj(x):
                # projection parallel to n0 onto the plane normal to m,
                # expressed in the (e1, e2) coordinates
                xx = x - n0 * (np.dot(m, x) / np.dot(m, n0))
                return np.array([np.dot(xx, e1), np.dot(xx, e2)])

            def cross2(p, q):
                return p[0] * q[1] - p[1] * q[0]

            ap = net.alpha.derivative(u0 + 0.5)
            am = net.alpha.derivative(u0 - 0.5)
            bp = net.beta.derivative(v0 + 0.5)
            bm = net.beta.derivative(v0 - 0.5)
            for x, y in ((ap, bp), (am, bp), (ap, bm), (am, bm)):
                lit = cross2(proj(x), proj(y))
                assert (lit > 0) == (orient(n0, x, y) > 0)
                checked += 1
    assert checked >= 100


def test_base_edge_choice_does_not_change_configuration(rng):
    # for mixed-axis vertices both quadrant tests must reject A, so the
    # configuration is decided by the base-independent crossing test
    seen = 0
    for _ in range(40):
        net = random_admissible_net(rng, n=13)
        analysis = analyze_net(net)
        for sv in analysis.vertices:
            if sv.configuration not in (Configuration.B, Configuration.C):
                continue
            u0, v0 = sv.vertex
            n0 = net.conormal(u0, v0)
            ap = net.alpha.derivative(u0 + 0.5)
            am = net.alpha.derivative(u0 - 0.5)
            bp = net.beta.derivative(v0 + 0.5)
            bm = net.beta.derivative(v0 - 0.5)
            for lines, w_out, w_in in (((ap, am), bp, -bm),
                                       ((bp, bm), ap, -am)):
                sig_out = quadrant_signature(n0, lines[0], lines[1], w_out,
                                             1e-9, "test")
                sig_in = quadrant_signature(n0, lines[0], lines[1], w_in,
                                            1e-9, "test")
                assert sig_in != (-sig_out[0], -sig_out[1])
            seen += 1
    assert seen > 20


def test_adapted_vertices_classify_stably():
    # when the vertex sits exactly on the smooth singular curve of the
    # parabolic pair (the regime of the worked example), the classification
    # is correct and independent of the step size: the tangency point is a
    # swallowtail, every other singular-curve point a cuspidal edge
    def adapted_net(v0, h):
        u0 = 1.5 * v0 * v0 - v0
        us = u0 + np.arange(-1, 2) * h
        vs = v0 + np.arange(-1, 2) * h
        a = np.stack([us, us ** 2, np.ones_like(us)], axis=1)
        b = np.stack([vs, -vs ** 2 + vs ** 3, np.zeros_like(vs)], axis=1)
        return ConormalNet(PolyCurve(a, -1), PolyCurve(b, -1))

    for v0, kind in ((0.0, Kind.SWALLOWTAIL), (-0.2, Kind.CUSPIDAL_EDGE),
                     (-0.4, Kind.CUSPIDAL_EDGE), (0.2, Kind.CUSPIDAL_EDGE),
                     (0.6, Kind.CUSPIDAL_EDGE)):
        for h in (0.1, 0.05, 0.025):
            analysis = analyze_net(adapted_net(v0, h))
            centre = next(sv for sv in analysis.vertices
                          if sv.vertex == (0, 0))
            assert centre.kind == kind
            assert (centre.configuration == Configuration.C) == \
                (kind == Kind.SWALLOWTAIL)


def test_orient_is_antisymmetric_and_scale_free(rng):
    for _ in range(200):
        n, x, y = rng.normal(size=(3, 3))
        s = orient(n, x, y)
        assert orient(n, y, x) == -s
        assert orient(n, 1e6 * x, 1e-6 * y) == s
        assert np.sign(triple_product(n, x, y)) == s or s == 0
        assert orient(n, -x, y) == -s
    # nearly collinear pairs in and next to the dead zone: classification
    # reads every sign among a vertex's directions from one table, which is
    # exact only if swapping or negating an argument flips the sign exactly
    zero = nonzero = 0
    for _ in range(400):
        n, x, z = rng.normal(size=(3, 3))
        y = x + 10.0 ** rng.uniform(-13.0, -7.0) * z
        s = orient(n, x, y)
        assert orient(n, y, x) == -s
        assert orient(n, -x, y) == -s
        assert orient(n, x, -y) == -s
        assert orient(n, -y, -x) == -s
        zero += s == 0
        nonzero += s != 0
    assert zero > 20 and nonzero > 20


def _frame_vectors(net, u0, v0):
    return (net.conormal(u0, v0),
            net.alpha.derivative(u0 + 0.5), net.alpha.derivative(u0 - 0.5),
            net.beta.derivative(v0 + 0.5), net.beta.derivative(v0 - 0.5))


def _sig(sig):
    return "".join("+" if s > 0 else "-" for s in sig)


def _admissible_reference(net, u0, v0, axes):
    """The quadrant rule of admissibility_check, by quadrant_signature."""
    n0, ap, am, bp, bm = _frame_vectors(net, u0, v0)
    at = f"at {(u0, v0)}"
    for axis, lines, w_out, w_in, names in (
            ("v", (ap, am), bp, -bm, ("beta'+", "-beta'-")),
            ("u", (bp, bm), ap, -am, ("alpha'+", "-alpha'-"))):
        if axis in axes:
            if (quadrant_signature(n0, *lines, w_out, 1e-9,
                                   f"{names[0]} {at}")
                    == quadrant_signature(n0, *lines, w_in, 1e-9,
                                          f"{names[1]} {at}")):
                return False
    return True


def _sidedness_reference(f, net, sv):
    """star_sidedness_test from f.star_edge_vectors and orient."""
    u0, v0 = sv.vertex
    stars = f.star_edge_vectors(u0, v0)
    tags = {e.direction_at((u0, v0)) for e in sv.incident_singular_edges}
    sing = [stars[t] for t in sorted(tags)]
    n0 = net.conormal(u0, v0)
    for t in sorted(set(stars) - tags):
        signs = [orient(n0, stars[t], w) for w in sing]
        if 0 in signs:
            raise DegenerateOrientation(
                f"zero orientation sign for sidedness at ({u0}, {v0})")
        if signs[0] != signs[1]:
            return False
    return True


def test_classify_matches_scalar_predicates(rng):
    # every diagnostic of classify_vertex equals the public predicate
    # evaluated on the vertex frame, and the base edge follows its rule
    seen = 0
    for _ in range(30):
        net = random_admissible_net(rng, n=13)
        metric = metric_field(net)
        edges = singular_edges(metric)
        f = integrate_net(net)
        for sv in singular_vertices(edges, net.domain):
            if not net.domain.is_interior_vertex(*sv.vertex):
                continue
            out = classify_vertex(net, f, sv, singular_edge_set=edges)
            diag = out.diagnostics
            u0, v0 = sv.vertex
            n0, ap, am, bp, bm = _frame_vectors(net, u0, v0)
            inc = sorted(sv.incident_singular_edges)
            if any(e.axis == "v" for e in inc):
                base = next(e for e in inc if e.axis == "v")
            else:
                def contrast(e):
                    lo, hi = (omega_quad(net, q) for q in e.adjacent_quads())
                    return (abs(lo - hi), tuple(e))
                base = max(inc, key=contrast)
            assert diag["base_edge"] == tuple(base)
            if base.axis == "v":
                lines, w_out, w_in = (ap, am), bp, -bm
            else:
                lines, w_out, w_in = (bp, bm), ap, -am
            assert diag["sig_out"] == _sig(quadrant_signature(
                n0, *lines, w_out, 1e-9, "test"))
            assert diag["sig_in"] == _sig(quadrant_signature(
                n0, *lines, w_in, 1e-9, "test"))
            assert diag["crossing_ab"] == ray_crossing_test(n0, -am, ap,
                                                            -bm, bp)
            assert diag["crossing_swallowtail"] == ray_crossing_test(
                n0, -am, ap, bm, -bp)
            assert diag["star_sidedness"] == _sidedness_reference(f, net, sv)
            assert star_sidedness_test(f, net, sv) == diag["star_sidedness"]
            seen += 1
    assert seen > 100


def test_admissibility_matches_quadrant_rule(rng):
    # the rule depends only on the vertex frame and on which axes carry a
    # singular edge, so every interior vertex is tested with each axis set
    verdicts = set()
    for _ in range(20):
        net = random_admissible_net(rng, n=9)
        dom = net.domain
        for u0 in range(dom.u_min + 1, dom.u_max):
            for v0 in range(dom.v_min + 1, dom.v_max):
                vp, vm = EdgeIndex("v", u0, v0), EdgeIndex("v", u0, v0 - 1)
                up, um = EdgeIndex("u", u0, v0), EdgeIndex("u", u0 - 1, v0)
                for edges in ((vp, vm), (up, um), (vp, up)):
                    want = _admissible_reference(net, u0, v0,
                                                 {e.axis for e in edges})
                    sv = SingularVertex((u0, v0), frozenset(edges))
                    assert admissibility_check(net, sv) is want
                    verdicts.add(want)
    assert verdicts == {True, False}


def _scalar_classify(net, f, sv):
    """Diagnostics of classify_vertex from the public predicates, in the
    order classify_vertex evaluates them."""
    axes = {e.axis for e in sv.incident_singular_edges}
    if not _admissible_reference(net, *sv.vertex, axes):
        raise InadmissibleVertex("forbidden")
    n0, ap, am, bp, bm = _frame_vectors(net, *sv.vertex)
    return (ray_crossing_test(n0, -am, ap, -bm, bp),
            ray_crossing_test(n0, -am, ap, bm, -bp),
            _sidedness_reference(f, net, sv))


def _zero_sign_frames():
    """Integer frames at the vertex (0, 0) with nu = (0, 0, 1), where one
    pair of the four curve directions is exactly parallel or antiparallel
    in projection, so exactly one of the six frame signs is zero."""
    dirs = [(1, 0, 0), (0, 1, 0), (1, 2, 0), (-2, 1, 0)]   # ap, am, bp, bm
    for i in range(4):
        for j in range(i + 1, 4):
            for sign in (2, -3):
                d = [np.array(x, dtype=float) for x in dirs]
                d[j] = sign * d[i]
                ap, am, bp, bm = d
                a = np.array([-am, [0.0, 0.0, 0.0], ap]) + [0.0, 0.0, 1.0]
                b = np.array([-bm, [0.0, 0.0, 0.0], bp])
                yield ConormalNet(PolyCurve(a, -1), PolyCurve(b, -1))


def test_classify_raises_where_scalar_predicates_raise():
    star = [EdgeIndex("u", 0, 0), EdgeIndex("u", -1, 0),
            EdgeIndex("v", 0, 0), EdgeIndex("v", 0, -1)]
    raised = passed = 0
    for net in _zero_sign_frames():
        f = integrate_net(net)
        for k in range(4):
            for m in range(k + 1, 4):
                sv = SingularVertex((0, 0), frozenset((star[k], star[m])))
                try:
                    want = _scalar_classify(net, f, sv)
                except (DegenerateOrientation, InadmissibleVertex) as exc:
                    with pytest.raises(type(exc)) as got:
                        classify_vertex(net, f, sv)
                    if isinstance(exc, DegenerateOrientation):
                        assert str(got.value) == str(exc)
                        raised += 1
                    continue
                diag = classify_vertex(net, f, sv).diagnostics
                assert (diag["crossing_ab"], diag["crossing_swallowtail"],
                        diag["star_sidedness"]) == want
                passed += 1
    assert raised > 0 and passed > 0


def _outcome_of(classify, net, sv, tol):
    """The classified record, or the DiamsError's type and message."""
    try:
        return classify(net, None, sv, tol)
    except DiamsError as exc:
        return type(exc), str(exc)


def test_classify_vertex_equals_reference(rng):
    # the one row rule against the per-vertex reference: the same record,
    # or the same exception and message, at every singular vertex of
    # admissible nets, and with every pair of star edges at some interior
    # vertices, so zero signs and unexpected edge patterns are met too
    cases = [(generate_admissible(rng)[0], 1e-9, 1e-9) for _ in range(200)]
    cases += [(round_off_net(), tol, tol) for tol in (0.0, 1e-9)]
    cases += [(net, 1e-9, 1e-9) for net in _zero_sign_frames()]
    seen = {}
    for net, tol, eps in cases:
        dom = net.domain
        try:
            vertices = singular_vertices(
                singular_edges(metric_field(net, eps)), dom)
        except DegenerateMetric:
            vertices = []
        interior = [(u, v) for u in range(dom.u_min + 1, dom.u_max)
                    for v in range(dom.v_min + 1, dom.v_max)]
        for k in rng.choice(len(interior), min(3, len(interior)),
                            replace=False).tolist():
            u0, v0 = interior[k]
            star = [EdgeIndex("u", u0, v0), EdgeIndex("u", u0 - 1, v0),
                    EdgeIndex("v", u0, v0), EdgeIndex("v", u0, v0 - 1)]
            vertices += [SingularVertex((u0, v0), frozenset(pair))
                         for pair in itertools.combinations(star, 2)]
        wants = [_outcome_of(reference_classify_vertex, net, sv, tol)
                 for sv in vertices]
        assert [_outcome_of(classify_vertex, net, sv, tol)
                for sv in vertices] == wants
        for want in wants:
            label = want[0] if isinstance(want, tuple) else want.configuration
            seen[label] = seen.get(label, 0) + 1
    assert seen.keys() >= {Configuration.A, Configuration.B,
                           Configuration.C, Configuration.BOUNDARY,
                           InadmissibleVertex, DegenerateOrientation}


# ---------------------------------------------------------------------------
# the sign table and the batched pass
# ---------------------------------------------------------------------------

# direction at slot s of eight rays spaced by a quarter of a half-turn
_SLOT_DIRS = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 1, 0),
              (-1, 0, 0), (-1, -1, 0), (0, -1, 0), (1, -1, 0)]


def _realized_keys():
    """Sign key -> slots of (alpha'+, alpha'-, beta'+, beta'-) for every
    realizable key, enumerated exactly.  Four directions on distinct lines
    through the origin of the plane normal to nu = (0, 0, 1) are fixed, up
    to rotation, by the cyclic order of the eight rays +-x: alpha'+ at slot
    0, the other three lines at slots 1, 2, 3 in some order, each direction
    on its ray in the upper half-turn (slot s) or the lower one (s + 4).
    orient(x, y) is + exactly when y lies less than a half-turn
    counterclockwise of x."""
    keys = {}
    for order in itertools.permutations((1, 2, 3)):
        for flips in itertools.product((0, 4), repeat=3):
            slots = (0, *(s + f for s, f in zip(order, flips)))
            signs = [1 if (slots[y] - slots[x]) % 8 < 4 else -1
                     for x, y in SIGN_PAIRS]
            key = sum(1 << (5 - k) for k, s in enumerate(signs) if s > 0)
            assert keys.setdefault(key, slots) is not None
    return keys


def _key_signs(key):
    return tuple(1 if key >> (5 - k) & 1 else -1 for k in range(6))


def test_sign_table_matches_scalar_functions_on_all_64_keys():
    # the table against _axis_signatures, _admissible_signatures,
    # _rays_cross and _star_sides_agree wired up here, and on realizable
    # keys against the public predicates on an exact frame: star
    # sidedness also against the sidedness rule on the float star edges
    # nu x (alpha'+, -alpha'-, beta'+, -beta'-)
    realized = _realized_keys()
    assert len(realized) == 48
    quad_of = {(0, 0): 0, (0, -1): 1, (-1, 0): 2, (-1, -1): 3}
    star = {EdgeIndex("u", 0, 0): "u+", EdgeIndex("u", -1, 0): "u-",
            EdgeIndex("v", 0, 0): "v+", EdgeIndex("v", 0, -1): "v-"}
    n = np.array([0.0, 0.0, 1.0])
    two_edge = []
    for key in range(64):
        signs = _key_signs(key)
        cross = signs[2:]
        # a star edge is singular where the cross signs of its two quads,
        # Omega's signs, differ
        singular = sorted(tag for e, tag in star.items()
                          if len({cross[quad_of[q]]
                                  for q in e.adjacent_quads()}) == 2)
        entry = singularity._SIGN_TABLE[key]
        if len(singular) != 2:
            assert entry is None
            continue
        axes = {tag[0] for tag in singular}
        base_axis = "v" if "v" in axes else "u"
        sigs = singularity._admissible_signatures(cross, axes, (0, 0))
        assert sigs is not None                     # never forbidden
        sig_out, sig_in = singularity._axis_signatures(cross, base_axis,
                                                       (0, 0))
        assert sigs[base_axis] == (sig_out, sig_in)
        s = frame_sign(signs)
        crossing_ab = singularity._rays_cross(s, (1, -1), (0, 1), (3, -1),
                                              (2, 1))
        crossing_sw = singularity._rays_cross(s, (1, -1), (0, 1), (3, 1),
                                              (2, -1))
        pattern = "".join(singular)
        sided = singularity._star_sides_agree(s, STAR_RAYS, pattern, (0, 0))
        if sig_in == (-sig_out[0], -sig_out[1]):
            config = Configuration.A
        else:
            config = Configuration.B if crossing_ab else Configuration.C
        assert entry.configuration == config
        assert entry.kind == (Kind.SWALLOWTAIL if crossing_sw
                              else Kind.CUSPIDAL_EDGE)
        assert entry.diagnostics == {
            "edge_pattern": pattern, "sig_out": _sig(sig_out),
            "sig_in": _sig(sig_in), "crossing_ab": crossing_ab,
            "crossing_swallowtail": crossing_sw, "star_sidedness": sided}
        if key not in realized:
            continue
        ap, am, bp, bm = (np.array(_SLOT_DIRS[slot], dtype=float)
                          for slot in realized[key])
        assert tuple(orient(n, *((ap, am, bp, bm)[i] for i in pair))
                     for pair in SIGN_PAIRS) == signs
        assert crossing_ab == ray_crossing_test(n, -am, ap, -bm, bp)
        assert crossing_sw == ray_crossing_test(n, -am, ap, bm, -bp)
        lines, w_out, w_in = (((ap, am), bp, -bm) if base_axis == "v"
                              else ((bp, bm), ap, -am))
        assert sig_out == quadrant_signature(n, *lines, w_out, 0.0, "out")
        assert sig_in == quadrant_signature(n, *lines, w_in, 0.0, "in")
        stars = [np.cross(n, x) for x in (ap, -am, bp, -bm)]
        assert sided == singularity._star_sides_agree(
            lambda x, y: orient(n, x, y, 0.0), stars, pattern, (0, 0))
        assert sided == (config == Configuration.C)
        two_edge.append(entry)
    assert len(two_edge) == 32
    counts = {c: sum(e.configuration == c for e in two_edge)
              for c in Configuration}
    assert (counts[Configuration.A], counts[Configuration.B],
            counts[Configuration.C]) == (16, 8, 8)
    for e in two_edge:
        assert ((e.configuration == Configuration.C)
                == (e.kind == Kind.SWALLOWTAIL))


def _per_vertex_vertices(net, tol, eps):
    """analyze_net's vertices classified one at a time by classify_vertex,
    in vertex order, or the exception that stops it."""
    try:
        validate_generic_position(net, tol)
        edges = singular_edges(metric_field(net, eps))
        return [sv if sv.configuration == Configuration.INADMISSIBLE
                else classify_vertex(net, None, sv, tol)
                for sv in singular_vertices(edges, net.domain)]
    except DiamsError as exc:
        return type(exc), str(exc)


def _batched_vertices(net, tol, eps):
    try:
        return analyze_net(net, tol, eps).vertices
    except DiamsError as exc:
        return type(exc), str(exc)


def test_batched_classification_equals_classify_vertex(rng, monkeypatch):
    # every field and diagnostic of every vertex, and the first exception
    # with its message, on random nets, at zero dead zones and on frames
    # with a zero sign, where the batched pass hands rows to _decide_row;
    # analyze_net never calls classify_vertex
    decide_row = singularity._decide_row
    scalar = singularity.classify_vertex
    handed, called = [], []

    def counted_row(vert, *args):
        handed.append(vert)
        return decide_row(vert, *args)

    def counted(net, f, vertex, tol=1e-9, singular_edge_set=None):
        called.append(vertex.vertex)
        return scalar(net, f, vertex, tol)

    cases = [(random_admissible_net(rng, n=13), 1e-9, 1e-9)
             for _ in range(100)]
    # wide sign dead zones over a decided metric put rows in the dead zone
    cases += [(net, tol, eps) for net, _, _ in cases[:10]
              for tol, eps in ((0.0, 0.0), (1e-2, 1e-9), (1e-1, 1e-9))]
    # tolerances that decide every frame sign of these nets
    cases += [(cases[k][0], tol, 1e-9)
              for k, tol in ((3, 0.0016), (43, 0.00955), (70, 0.0162))]
    cases.append((round_off_net(), 0.0, 0.0))
    cases += [(net, 1e-9, 1e-9) for net in _zero_sign_frames()]
    compared = raised = sidedness = 0
    for net, tol, eps in cases:
        with monkeypatch.context() as spy:
            spy.setattr(singularity, "_decide_row", counted_row)
            spy.setattr(singularity, "classify_vertex", counted)
            got = _batched_vertices(net, tol, eps)
        want = _per_vertex_vertices(net, tol, eps)
        assert got == want
        if isinstance(got, tuple):
            raised += got[0] is DegenerateOrientation
            sidedness += "sidedness" in got[1]
        else:
            compared += sum(sv.configuration in (Configuration.A,
                                                 Configuration.B,
                                                 Configuration.C)
                            for sv in got)
    # sidedness reads only the six signs, so it has no dead zone of its own
    assert compared > 3000 and raised > 0 and sidedness == 0
    assert handed and not called
