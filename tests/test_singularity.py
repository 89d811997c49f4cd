import warnings

import numpy as np
import pytest

from diams import (ConormalNet, Configuration, EdgeIndex, Kind, PolyCurve,
                   admissibility_check, analyze_net, classify_vertex,
                   extract_polylines, halfplane_edge_test, integrate_net,
                   m_from_positions, metric_field, omega_quad, orient,
                   ray_crossing_test, singular_edges, singular_vertices,
                   star_sidedness_test)
from diams.errors import (DegenerateMetric, DegenerateOrientation,
                          InadmissibleVertex)
from diams.singularity import (SingularVertex, _quadrant_signature,
                               halfplane_grid, triple_product)

from _helpers import (example_net, parabolic_points, random_admissible_net,
                      random_net_candidate, random_unimodular, transformed_net)

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
    h = 0.1
    xs = np.arange(4) * h
    a_slopes = [0.0, 5.0, 0.0]
    b_slopes = [10.0, 3.0, 10.0]
    ay = np.concatenate([[0.0], np.cumsum(a_slopes) * h])
    by = np.concatenate([[0.0], np.cumsum(b_slopes) * h])
    a = np.stack([xs, ay, np.ones(4)], axis=1)
    b = np.stack([xs, by, np.zeros(4)], axis=1)
    net = ConormalNet(PolyCurve(a), PolyCurve(b))
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
    from diams.singularity import _quadrant_signature
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
                sig_out = _quadrant_signature(n0, lines[0], lines[1], w_out,
                                              1e-9, "test")
                sig_in = _quadrant_signature(n0, lines[0], lines[1], w_in,
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
    """The quadrant rule of admissibility_check, by _quadrant_signature."""
    n0, ap, am, bp, bm = _frame_vectors(net, u0, v0)
    at = f"at {(u0, v0)}"
    for axis, lines, w_out, w_in, names in (
            ("v", (ap, am), bp, -bm, ("beta'+", "-beta'-")),
            ("u", (bp, bm), ap, -am, ("alpha'+", "-alpha'-"))):
        if axis in axes:
            if (_quadrant_signature(n0, *lines, w_out, 1e-9,
                                    f"{names[0]} {at}")
                    == _quadrant_signature(n0, *lines, w_in, 1e-9,
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
            assert diag["sig_out"] == _sig(_quadrant_signature(
                n0, *lines, w_out, 1e-9, "test"))
            assert diag["sig_in"] == _sig(_quadrant_signature(
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


def test_classify_raises_where_scalar_predicates_raise():
    # integer frames at the vertex (0, 0) with nu = (0, 0, 1), where one
    # pair of the four curve directions is exactly parallel or antiparallel
    # in projection, so exactly one of the six frame signs is zero
    dirs = [(1, 0, 0), (0, 1, 0), (1, 2, 0), (-2, 1, 0)]   # ap, am, bp, bm
    star = [EdgeIndex("u", 0, 0), EdgeIndex("u", -1, 0),
            EdgeIndex("v", 0, 0), EdgeIndex("v", 0, -1)]
    raised = passed = 0
    for i in range(4):
        for j in range(i + 1, 4):
            for sign in (2, -3):
                d = [np.array(x, dtype=float) for x in dirs]
                d[j] = sign * d[i]
                ap, am, bp, bm = d
                a = np.array([-am, [0.0, 0.0, 0.0], ap]) + [0.0, 0.0, 1.0]
                b = np.array([-bm, [0.0, 0.0, 0.0], bp])
                net = ConormalNet(PolyCurve(a, -1), PolyCurve(b, -1))
                f = integrate_net(net)
                for k in range(4):
                    for m in range(k + 1, 4):
                        sv = SingularVertex((0, 0), frozenset((star[k],
                                                               star[m])))
                        try:
                            want = _scalar_classify(net, f, sv)
                        except (DegenerateOrientation,
                                InadmissibleVertex) as exc:
                            with pytest.raises(type(exc)) as got:
                                classify_vertex(net, f, sv)
                            if isinstance(exc, DegenerateOrientation):
                                assert str(got.value) == str(exc)
                                raised += 1
                            continue
                        diag = classify_vertex(net, f, sv).diagnostics
                        assert (diag["crossing_ab"],
                                diag["crossing_swallowtail"],
                                diag["star_sidedness"]) == want
                        passed += 1
    assert raised > 0 and passed > 0
