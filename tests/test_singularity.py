import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from diams import (ConormalNet, Configuration, EdgeIndex, Kind, PolyCurve,
                   _kernels, admissibility_check, analyze_net,
                   classify_vertex, extract_polylines, halfplane_edge_test,
                   integrate_net, m_from_positions, metric_field, omega_quad,
                   orient, ray_crossing_test, singular_edges,
                   singular_vertices, star_sidedness_test,
                   validate_generic_position)
from diams import singularity
from diams.errors import (DegenerateMetric, DegenerateOrientation,
                          DiamsError, InadmissibleVertex, IndexOutOfDomain,
                          ValidationError)
from diams.singularity import (MetricField, SingularEdge, SingularSet,
                               SingularVertex, halfplane_grid, triple_product)

from _helpers import (example_net, four_edge_net, generate_admissible,
                      island_net, parabolic_net, parabolic_points,
                      quadrant_signature, random_admissible_net,
                      random_net_candidate, random_unimodular,
                      reference_extract_polylines, reference_incident_edges,
                      reference_singular_edges, reference_singular_vertices,
                      round_off_net, transformed_net)

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


def test_star_sidedness_overflow_is_a_named_error():
    # star edges are products of two coordinates, so sidedness signs are
    # products of five: at 2^250 they overflow, which must not read as a
    # zero orientation sign
    a, b, _ = parabolic_points(0.2)
    s = 2.0 ** 250
    net = ConormalNet(PolyCurve(a * s), PolyCurve(b * s))
    f = integrate_net(net)
    verts = singular_vertices(singular_edges(metric_field(net)), net.domain)
    sv = next(sv for sv in verts if net.domain.is_interior_vertex(*sv.vertex)
              and len(sv.incident_singular_edges) == 2)
    with pytest.raises(ValidationError, match="orientation test: not finite"):
        star_sidedness_test(f, net, sv)


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


def test_ray_crossing_brute_force(rng):
    # compare against angle interleaving for random generic ray sets
    n = np.array([0.0, 0.0, 1.0])
    for _ in range(500):
        deg = rng.uniform(0, 360, size=4)
        if min(abs((deg[:, None] - deg[None, :] + 180) % 360 - 180)[
                np.triu_indices(4, 1)]) < 1e-3:
            continue
        p_in, p_out, q_in, q_out = (_ray(d) for d in deg)

        def in_arc(lo, hi, x):
            return ((x - lo) % 360.0) < ((hi - lo) % 360.0)

        want = in_arc(deg[0], deg[1], deg[2]) != in_arc(deg[0], deg[1], deg[3])
        assert ray_crossing_test(n, p_in, p_out, q_in, q_out) == want


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


def test_frame_grids_run_once_per_net(monkeypatch):
    # generic position and the batched classification read the one pair
    # of vertex-frame grids of the net
    calls = []
    kernel = _kernels.frame_pair_grids

    def counted(alpha, beta):
        calls.append(1)
        return kernel(alpha, beta)

    monkeypatch.setattr(_kernels, "frame_pair_grids", counted)
    net = example_net(1.0)
    assert validate_generic_position(net) == []
    analysis = analyze_net(net)
    centre, = [sv for sv in analysis.vertices if sv.vertex == (0, 0)]
    assert centre.configuration == Configuration.C
    assert len(calls) == 1
    for pair in net.frame_terms:
        for grid in pair:
            assert not grid.flags.writeable


def test_star_sidedness_examples():
    for y, expected in ((-0.5, False), (-2.0, False), (1.0, True)):
        net = example_net(y)
        f = integrate_net(net)
        verts = singular_vertices(singular_edges(metric_field(net)), net.domain)
        centre = next(sv for sv in verts if sv.vertex == (0, 0))
        assert star_sidedness_test(f, net, centre) is expected


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
        ref_incident = reference_incident_edges(ref_edges, dom)
        sset = SingularSet.from_omega(metric)
        assert list(zip(sset.vertices, sset.incident())) == ref_incident
        assert sset.inadmissible() == [
            (vert, len(inc)) for vert, inc in ref_incident
            if dom.is_interior_vertex(*vert) and len(inc) != 2]
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


def test_singular_set_walks_edge_sets_like_the_reference(rng):
    # edge records the pass does not make from Omega: random sign grids'
    # flips plus boundary edges, so boundary vertices reach degree 2 and
    # 3, and random edge subsets
    dom = parabolic_net(0.5)[0].domain
    boundary = [EdgeIndex("u", u, v) for u in range(dom.u_min, dom.u_max)
                for v in (dom.v_min, dom.v_max)]
    boundary += [EdgeIndex("v", u, v) for u in (dom.u_min, dom.u_max)
                 for v in range(dom.v_min, dom.v_max)]
    walked = 0
    for trial in range(300):
        signs = rng.choice([-1.0, 1.0], size=(dom.nu - 1, dom.nv - 1))
        edges = reference_singular_edges(MetricField(dom, signs))
        if trial % 3 == 0:
            edges = {se for se in edges if rng.random() < 0.5}
        edges |= {SingularEdge(k, (-1.0, 1.0)) for k in boundary
                  if rng.random() < 0.3}
        ref_verts = reference_singular_vertices(edges, dom)
        assert singular_vertices(edges, dom) == ref_verts
        ref = _outcome(reference_extract_polylines, [], edges, dom)
        assert _outcome(extract_polylines, [], edges, dom) == ref
        walked += ref is not InadmissibleVertex
    assert walked > 50
    with pytest.raises(IndexOutOfDomain):
        singular_vertices({SingularEdge(EdgeIndex("u", dom.u_max, 0),
                                        (-1.0, 1.0))}, dom)


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


# ---------------------------------------------------------------------------
# the sign table and the batched pass
# ---------------------------------------------------------------------------

# direction at slot s of eight rays spaced by a quarter of a half-turn
_SLOT_DIRS = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 1, 0),
              (-1, 0, 0), (-1, -1, 0), (0, -1, 0), (1, -1, 0)]
# the frame pairs of a sign key, in key order: (alpha'+, alpha'-),
# (beta'+, beta'-), then the cross pairs ++, +-, -+, --
_KEY_PAIRS = ((0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3))


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
                     for x, y in _KEY_PAIRS]
            key = sum(1 << (5 - k) for k, s in enumerate(signs) if s > 0)
            assert keys.setdefault(key, slots) is not None
    return keys


def _key_signs(key):
    return tuple(1 if key >> (5 - k) & 1 else -1 for k in range(6))


def test_sign_table_matches_scalar_functions_on_all_64_keys():
    # the table against _axis_signatures, _admissible_signatures and
    # _rays_cross wired up here, and on realizable keys against the public
    # predicates on an exact frame
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
        m = np.zeros((4, 4), dtype=int)
        for k, (x, y) in enumerate(_KEY_PAIRS):
            m[x, y], m[y, x] = signs[k], -signs[k]

        def s(x, y):
            return x[1] * y[1] * int(m[x[0], y[0]])

        crossing_ab = singularity._rays_cross(s, (1, -1), (0, 1), (3, -1),
                                              (2, 1))
        crossing_sw = singularity._rays_cross(s, (1, -1), (0, 1), (3, 1),
                                              (2, -1))
        if sig_in == (-sig_out[0], -sig_out[1]):
            config = Configuration.A
        else:
            config = Configuration.B if crossing_ab else Configuration.C
        assert entry.configuration == config
        assert entry.kind == (Kind.SWALLOWTAIL if crossing_sw
                              else Kind.CUSPIDAL_EDGE)
        assert entry.diagnostics == {
            "edge_pattern": "".join(singular), "sig_out": _sig(sig_out),
            "sig_in": _sig(sig_in), "crossing_ab": crossing_ab,
            "crossing_swallowtail": crossing_sw}
        if key not in realized:
            continue
        ap, am, bp, bm = (np.array(_SLOT_DIRS[slot], dtype=float)
                          for slot in realized[key])
        assert tuple(orient(n, *((ap, am, bp, bm)[i] for i in pair))
                     for pair in _KEY_PAIRS) == signs
        assert crossing_ab == ray_crossing_test(n, -am, ap, -bm, bp)
        assert crossing_sw == ray_crossing_test(n, -am, ap, bm, -bp)
        lines, w_out, w_in = (((ap, am), bp, -bm) if base_axis == "v"
                              else ((bp, bm), ap, -am))
        assert sig_out == quadrant_signature(n, *lines, w_out, 0.0, "out")
        assert sig_in == quadrant_signature(n, *lines, w_in, 0.0, "in")
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
    # with a zero sign, where the batched pass hands rows to classify_vertex
    scalar = singularity.classify_vertex
    handed = []

    def counted(net, f, vertex, tol=1e-9, singular_edge_set=None):
        handed.append(vertex.vertex)
        return scalar(net, f, vertex, tol)

    cases = [(random_admissible_net(rng, n=13), 1e-9, 1e-9)
             for _ in range(100)]
    # wide sign dead zones over a decided metric put rows in the dead zone
    cases += [(net, tol, eps) for net, _, _ in cases[:10]
              for tol, eps in ((0.0, 0.0), (1e-2, 1e-9), (1e-1, 1e-9))]
    # a tol that decides every frame sign of these nets but leaves a star
    # sidedness sign of one vertex in the dead zone
    cases += [(cases[k][0], tol, 1e-9)
              for k, tol in ((3, 0.0016), (43, 0.00955), (70, 0.0162))]
    cases.append((round_off_net(), 0.0, 0.0))
    cases += [(net, 1e-9, 1e-9) for net in _zero_sign_frames()]
    compared = raised = sidedness = 0
    for net, tol, eps in cases:
        monkeypatch.setattr(singularity, "classify_vertex", counted)
        got = _batched_vertices(net, tol, eps)
        monkeypatch.setattr(singularity, "classify_vertex", scalar)
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
    assert compared > 3000 and raised > sidedness >= 3 and handed


def test_analysis_integrates_on_first_read(monkeypatch):
    calls = []
    kernel = _kernels.integrate_positions

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "integrate_positions", counted)
    net = parabolic_net(0.2)[0]
    analysis = analyze_net(net, base_vertex=(2, 3))
    assert calls == []
    f = analysis.f
    assert analysis.f is f and len(calls) == 1
    want = integrate_net(net, base_vertex=(2, 3))
    assert f.base_vertex == want.base_vertex == (2, 3)
    assert f.positions.tobytes() == want.positions.tobytes()
