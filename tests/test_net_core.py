import warnings

import numpy as np
import pytest

from diams import (ConormalNet, GridDomain, PolyCurve, conormal,
                   discrete_derivative, integrate_net, metric_field,
                   moutard_residual, star_planarity_residual,
                   validate_generic_position)
from diams import _kernels, smooth_oracle
from diams._kernels import orient_terms
from diams.errors import (BoundaryVertex, IndexOutOfDomain, ValidationError)
from diams.net_core import (lelieuvre_u_edge, lelieuvre_v_edge,
                            moutard_residual_grid, quad_closure_residual,
                            star_planarity_residual_grid, walk_chains)
from diams.singularity import EdgeIndex, SingularEdge, SingularSet, _six_terms
from diams.smooth_oracle import sample_pair, trace_singular_curve

from _helpers import (circle_pair, example_net, generic_position_frames,
                      parabolic_points, planted_coincidence_nets,
                      random_net_candidate, reference_sign_grids,
                      reference_walk_chains, round_off_net,
                      scalar_generic_violations, transformed_net)


def test_polycurve_rejects_short_and_duplicate():
    with pytest.raises(ValidationError):
        PolyCurve(np.array([[0.0, 0, 0], [1, 0, 0]]))
    with pytest.raises(ValidationError, match="indices 1 and 2"):
        PolyCurve(np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0]]))
    with pytest.raises(ValidationError, match="non-finite"):
        PolyCurve(np.array([[0.0, 0, 0], [1, np.nan, 0], [2, 0, 0]]))
    with pytest.raises(ValidationError, match=r"an \(n, 3\) array"):
        PolyCurve(np.zeros((4, 2)))


def test_polycurve_indexing_with_offset():
    c = PolyCurve(np.array([[0.0, 0, 0], [1, 0, 0], [2, 1, 0]]), offset=-1)
    assert c.index_min == -1 and c.index_max == 1
    assert np.array_equal(c.point(1), [2, 1, 0])
    with pytest.raises(IndexOutOfDomain):
        c.point(2)
    with pytest.raises(IndexOutOfDomain):
        c.derivative(0.4)          # not a half-integer
    with pytest.raises(IndexOutOfDomain):
        c.derivative(1.5)          # needs point(2)


def test_grid_domain_needs_a_quad():
    with pytest.raises(ValidationError):
        GridDomain(0, 0, 0, 5)
    d = GridDomain(-1, 1, -1, 1)
    assert d.nu == d.nv == 3
    assert d.is_interior_vertex(0, 0)
    assert not d.is_interior_vertex(1, 0)
    assert d.contains_quad(0, 0) and not d.contains_quad(1, 0)


def test_conormal_worked_example_values():
    net = example_net(1.0)
    assert np.allclose(conormal(net, 0, 0), [0, 0, 1], atol=1e-15)
    # alpha(0) - beta(-1) with beta(-1) = (-0.1, 0.1, 0)
    assert np.allclose(conormal(net, 0, -1), [0.1, -0.1, 1], atol=1e-15)
    with pytest.raises(IndexOutOfDomain):
        conormal(net, 2, 0)


def test_conormal_constant_difference():
    base = PolyCurve(np.array([[0.0, 0, 0], [1, 0, 1], [2, 1, 0]]))
    shifted = PolyCurve(base.points + np.array([3.0, -2.0, 5.0]))
    net = ConormalNet(shifted, base)
    for u in range(3):
        for v in range(3):
            assert np.allclose(conormal(net, u, v),
                               shifted.points[u] - base.points[v])


def test_discrete_derivative_worked_example():
    net = example_net(1.0)
    assert np.allclose(discrete_derivative(net.alpha, 0.5), [0.1, 0, 0],
                       atol=1e-15)
    assert np.allclose(discrete_derivative(net.alpha, -0.5),
                       [0.1, 0.1, -0.1], atol=1e-15)


def test_conormal_net_rejects_intersecting_curves():
    a = PolyCurve(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]))
    b = PolyCurve(np.array([[1.0, 0, 0], [1, 1, 0], [1, 2, 0]]))
    with pytest.raises(ValidationError, match="intersect"):
        ConormalNet(a, b)


@pytest.mark.parametrize("k", [-700, -600, 0, 500])
def test_conormal_net_intersection_check_is_scale_free(k):
    # disjoint curves (|nu| >= 1 unscaled) build at every scale.  Lifting
    # beta to z = 1 + d makes |nu(5, 5)| = d the smallest |nu|, against the
    # threshold 1e-12 * scale = 2e-12: the verdict is the same at every scale
    a, b, _ = parabolic_points(0.2)
    s = 2.0 ** k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = ConormalNet(PolyCurve(a * s), PolyCurve(b * s))
        assert net.scale == 2 * s
        for d, meets in ((1e-13, True), (1.9e-12, True), (2.1e-12, False)):
            near = b.copy()
            near[:, 2] = 1.0 + d
            if meets:
                with pytest.raises(ValidationError,
                                   match=r"intersect near vertex \(5, 5\)"):
                    ConormalNet(PolyCurve(a * s), PolyCurve(near * s))
            else:
                ConormalNet(PolyCurve(a * s), PolyCurve(near * s))


def _crossing_pair(meets):
    """alpha(u) = (u, 0, 1) for u in [-4, 4], beta(v) = (v, 1, 0) for v in
    [2, 7], so |nu| >= sqrt(2), except that alpha(u) = (d, 1, z) for
    each (u, d, z) in meets puts it at |nu| = z from beta(d)."""
    a = np.array([[u, 0.0, 1.0] for u in range(-4, 5)])
    for u, d, z in meets:
        a[u + 4] = (d, 1.0, z)
    b = np.array([[v, 1.0, 0.0] for v in range(2, 8)])
    return PolyCurve(a, -4), PolyCurve(b, 2)


@pytest.mark.parametrize("block", [1, 40, _kernels.GRID_BLOCK_VALUES])
def test_intersection_check_names_the_first_least_nu(block, monkeypatch):
    # the check reads |nu| in blocks of one u-row, of two (the last one
    # alone) and of the whole grid; the threshold is 1e-12 * scale = 7e-12
    monkeypatch.setattr(_kernels, "GRID_BLOCK_VALUES", block)
    # the least |nu| in the last row, below another one that also fails
    with pytest.raises(ValidationError, match=r"^curves intersect near "
                       r"vertex \(4, 5\): \|nu\| = 3\.000e-12$"):
        ConormalNet(*_crossing_pair([(4, 5.0, 3e-12), (-2, 3.0, 4e-12)]))
    # a tie across two blocks, and within one u-row (alpha(-2) meets both
    # beta(3) and beta(8)): the first vertex in row-major order is named
    with pytest.raises(ValidationError, match=r"^curves intersect near "
                       r"vertex \(-2, 3\): \|nu\| = 0\.000e\+00$"):
        ConormalNet(*_crossing_pair([(-2, 3.0, 0.0), (3, 3.0, 0.0)]))
    a, b = _crossing_pair([(-2, 3.0, 0.0)])
    b = PolyCurve(np.concatenate([b.points, [[3.0, 1.0, 0.0]]]), 2)
    with pytest.raises(ValidationError, match=r"vertex \(-2, 3\)"):
        ConormalNet(a, b)
    # above the threshold nothing is named
    ConormalNet(*_crossing_pair([(4, 5.0, 8e-12)]))


def test_moutard_residual_zero_and_constructed_violation(rng):
    net = example_net(-0.5)
    for quad in net.domain.quads():
        assert np.linalg.norm(moutard_residual(net, quad)) <= 1e-14 * net.scale
    for _ in range(20):
        net = random_net_candidate(rng)
        for quad in net.domain.quads():
            r = np.linalg.norm(moutard_residual(net, quad))
            assert r <= 1e-14 * net.scale
    # a hand-built grid that is not a difference of curves
    grid = rng.normal(size=(4, 4, 3))
    assert np.linalg.norm(moutard_residual_grid(grid, 1, 1)) > 1e-6
    with pytest.raises(IndexOutOfDomain):
        moutard_residual_grid(grid, 3, 0)


def test_overflowing_stages_raise_not_finite():
    # each stage checks the quantities it forms: positions grow like the
    # coordinates squared, Omega and its dead zone like the cube, the
    # generic-position test like the 3rd power
    a, b, _ = parabolic_points(0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = ConormalNet(PolyCurve(a * 2.0 ** 512),
                           PolyCurve(b * 2.0 ** 512))
        with pytest.raises(ValidationError, match="positions: not finite"):
            integrate_net(huge)
        big = ConormalNet(PolyCurve(a * 2.0 ** 400), PolyCurve(b * 2.0 ** 400))
        with pytest.raises(ValidationError, match="Omega: not finite"):
            metric_field(big)
        with pytest.raises(ValidationError, match="generic-position test"):
            validate_generic_position(big)
        # still finite at 2^400: the integrated net of the scaled curves
        # is the unscaled one times 2^800, exactly
        f = integrate_net(big)
        base = integrate_net(ConormalNet(PolyCurve(a), PolyCurve(b)))
        assert np.array_equal(f.positions, base.positions * 2.0 ** 800)


def test_integrate_net_worked_example_edges():
    net = example_net(1.0)
    f = integrate_net(net, base_vertex=(0, 0), base_point=(0, 0, 0))
    assert np.allclose(f.position(1, 0), [0, 0.1, 0], atol=1e-15)
    assert np.allclose(f.position(0, 1), [-0.1, 0.2, 0], atol=1e-15)
    assert np.allclose(f.position(0, 0), [0, 0, 0])


def test_offsets_and_base_vertices_must_be_integers():
    # a fractional or boolean index, offset or domain bound is refused by
    # name, not truncated (a 0.5 offset gave vertex 3 edges keyed 3.5, and
    # a report TypeError); numpy integers are kept as ints
    a, b, _ = parabolic_points(0.25)
    for offset in (0.5, 2.0, True, np.bool_(False), np.float64(1.0), "1"):
        with pytest.raises(ValidationError,
                           match="^curve offset must be an integer, got "):
            PolyCurve(a, offset)
    curve = PolyCurve(a, np.int64(-4))
    assert curve.offset == -4 and type(curve.offset) is int
    net = ConormalNet(curve, PolyCurve(b, np.int32(0)))
    for base in ((-1.5, 0), (-2, 0.0), (True, 0), (-2, np.bool_(True))):
        with pytest.raises(IndexOutOfDomain,
                           match=r"^base vertex \(.*\) is not a grid vertex$"):
            integrate_net(net, base_vertex=base)
    f = integrate_net(net, base_vertex=(np.int64(-2), np.int16(3)))
    assert f.base_vertex == (-2, 3)
    assert all(type(k) is int for k in f.base_vertex)
    g = integrate_net(net, base_vertex=(-2, 3))
    assert np.array_equal(f.positions, g.positions)
    for bounds in ((0, 3.5, 0, 3), (False, 3, 0, 3), (0, 3, 0, np.float64(3))):
        with pytest.raises(ValidationError, match="are not integers$"):
            GridDomain(*bounds)
    for u in (True, 1.0):
        with pytest.raises(IndexOutOfDomain, match="is not a grid edge"):
            SingularSet.from_edges([SingularEdge(EdgeIndex("u", u, 2),
                                                 (-1.0, 1.0))], net.domain)


def test_base_point_must_be_three_finite_coordinates():
    # (0, 0) raised IndexError inside the sweep, (0, 0, 0, 1) was stored as
    # a 4-vector and (nan, 0, 0) was blamed on an overflowing net
    net = example_net(1.0)
    for point in ((0.0, 0.0), (0, 0, 0, 1), (np.nan, 0.0, 0.0),
                  (0.0, np.inf, 0.0), [[0.0, 0.0, 0.0]], 1.0, "abc",
                  (0.0, "x", 0.0), [[0.0, 0.0], [0.0]]):
        with pytest.raises(ValidationError,
                           match="is not three finite coordinates$"):
            integrate_net(net, base_point=point)
    point = np.array([1.0, 2.0, 3.0])
    f = integrate_net(net, base_vertex=(0, 0), base_point=point)
    assert np.array_equal(f.position(0, 0), point)
    assert np.array_equal(f.base_point, point) and f.base_point is not point


def test_integration_path_independence(rng):
    # u-first vs v-first to the far corner must agree exactly by closure
    for _ in range(10):
        net = random_net_candidate(rng, n=7)
        f = integrate_net(net)
        u1, v1 = net.domain.u_max, net.domain.v_max
        pos = f.position(0, 0) if net.domain.contains_vertex(0, 0) else None
        # re-integrate from the opposite corner; shared vertices must agree
        # up to the translation fixed by matching one vertex
        g = integrate_net(net, base_vertex=(u1, v1),
                          base_point=f.position(u1, v1))
        assert np.allclose(g.positions, f.positions, atol=1e-13 * net.scale ** 3)
        if pos is not None:
            assert np.allclose(g.position(0, 0), pos,
                               atol=1e-13 * net.scale ** 3)


def test_lelieuvre_edges_match_positions(rng):
    for _ in range(5):
        net = random_net_candidate(rng, n=9)
        f = integrate_net(net)
        dom = net.domain
        for u in range(dom.u_min, dom.u_max):
            for v in range(dom.v_min, dom.v_max + 1):
                got = f.f_u(u + 0.5, v)
                want = lelieuvre_u_edge(net, u + 0.5, v)
                assert np.allclose(got, want, atol=1e-12 * net.scale ** 3)
        for u in range(dom.u_min, dom.u_max + 1):
            for v in range(dom.v_min, dom.v_max):
                got = f.f_v(u, v + 0.5)
                want = lelieuvre_v_edge(net, u, v + 0.5)
                assert np.allclose(got, want, atol=1e-12 * net.scale ** 3)


def test_quad_closure(rng):
    for _ in range(20):
        net = random_net_candidate(rng)
        for quad in net.domain.quads():
            r = np.linalg.norm(quad_closure_residual(net, quad))
            assert r <= 1e-12 * net.scale ** 3


def test_star_planarity_zero_for_integrated_and_positive_for_perturbed(rng):
    net = example_net(1.0)
    f = integrate_net(net)
    assert star_planarity_residual(f, net, (0, 0)) <= 1e-14
    with pytest.raises(BoundaryVertex):
        star_planarity_residual(f, net, (1, 0))
    with pytest.raises(IndexOutOfDomain):
        star_planarity_residual(f, net, (5, 5))
    bad = f.positions.copy()
    bad[2, 1] += np.array([0.0, 0.0, 0.01])   # push a neighbour off the star plane
    from dataclasses import replace
    g = replace(f, positions=bad)
    assert star_planarity_residual(g, net, (0, 0)) > 1e-6


def test_star_planarity_on_random_nets(rng):
    # residual <= 1e-12 * scale^3 at every interior vertex of 100 nets
    for _ in range(100):
        net = random_net_candidate(rng, n=9)
        f = integrate_net(net)
        worst = star_planarity_residual_grid(f, net).max()
        assert worst <= 1e-12 * net.scale ** 3


def test_translation_invariance_bitwise_on_dyadic_data(rng):
    # dyadic coordinates make the curve subtractions exact in binary
    # floating point, so nu and the f edge vectors must be bit-identical
    for _ in range(10):
        a = rng.integers(-128, 128, size=(6, 3)) / 64.0
        b = rng.integers(-128, 128, size=(5, 3)) / 64.0
        b[:, 2] -= 4.0
        a[1:] += (np.all(a[1:] == a[:-1], axis=1))[:, None]  # break duplicates
        b[1:] += (np.all(b[1:] == b[:-1], axis=1))[:, None]
        shift = rng.integers(-64, 64, size=3) / 32.0
        net = ConormalNet(PolyCurve(a), PolyCurve(b))
        moved = transformed_net(net, shift=shift)
        assert np.array_equal(net.nu_grid(), moved.nu_grid())
        f = integrate_net(net)
        g = integrate_net(moved)
        assert np.array_equal(np.diff(f.positions, axis=0),
                              np.diff(g.positions, axis=0))
        assert np.array_equal(np.diff(f.positions, axis=1),
                              np.diff(g.positions, axis=1))


def test_generic_position_on_examples():
    for y in (-2.0, 1.0):
        assert validate_generic_position(example_net(y)) == []
    # at y = -1/2 the beta samples (-1, y, 0), (0, 0, 0), (2, 1, 0) are
    # exactly collinear, so the planes through the axis line and beta(+-1)
    # coincide at the central vertex; the check must report that honestly
    hits = validate_generic_position(example_net(-0.5))
    assert [(g.vertex, g.plane_a, g.plane_b) for g in hits] == \
        [((0, 0), "beta+", "beta-")]


def test_generic_position_detects_constructed_coincidence():
    # place beta(1) on the plane through the line alpha(0) beta(0) and
    # alpha(1): normals of the two planes become parallel
    a = np.array([[-0.2, -0.1, 1.0], [0.0, 0.0, 1.0], [0.3, 0.2, 1.0]])
    b = np.array([[-0.3, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    d = b[1] - a[1]
    span = a[2] - a[1]
    b[2] = a[1] + 0.7 * d + 0.4 * span       # in the plane, off the line
    net = ConormalNet(PolyCurve(a), PolyCurve(b))
    hits = validate_generic_position(net, tol=1e-12)
    assert any(v.vertex == (1, 1) and {v.plane_a, v.plane_b} == {"alpha+", "beta+"}
               for v in hits)


def test_generic_position_exact_coincidence_at_zero_tol():
    # dyadic coordinates keep the normal cross product exactly zero, so
    # the violation must be reported even with tol = 0
    a = np.array([[-0.25, -0.125, 1.0], [0.0, 0.0, 1.0], [0.25, 0.25, 1.0]])
    b = np.array([[-0.25, 0.125, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    d = b[1] - a[1]
    b[2] = a[1] + 0.5 * d + 0.5 * (a[2] - a[1])
    net = ConormalNet(PolyCurve(a), PolyCurve(b))
    hits = validate_generic_position(net, tol=0.0)
    assert any(v.vertex == (1, 1) and {v.plane_a, v.plane_b} == {"alpha+", "beta+"}
               for v in hits)


def test_generic_position_reports_are_sorted_and_described():
    a = np.array([[-0.2, -0.1, 1.0], [0.0, 0.0, 1.0], [0.3, 0.2, 1.0]])
    b = np.array([[-0.3, 0.1, 0.0], [0.0, 0.0, 0.0], [0.1, 0.05, 0.0]])
    d = b[1] - a[1]
    b[2] = a[1] + 0.5 * d + 0.3 * (a[2] - a[1])
    net = ConormalNet(PolyCurve(a), PolyCurve(b))
    hits = validate_generic_position(net, tol=1e-10)
    assert hits == sorted(hits, key=lambda g: (g.vertex, g.plane_a, g.plane_b))
    assert "coincide" in hits[0].describe()


def test_vertex_terms_read_the_six_whole_sign_grids(rng):
    # the batched read (_six_terms) of the six classification signs
    # equals the whole-grid reference bit for bit at every interior
    # vertex; each cross pair is Omega on the quad that the two star
    # edges of its signs share (as _base_edges' comment has it: u+
    # separates ++ and +-, u- -+ and --)
    nets = [random_net_candidate(rng, n=9) for _ in range(10)]
    nets += list(planted_coincidence_nets(rng, count=20))
    nets.append(round_off_net())
    cross = (("u+", "v+"), ("u+", "v-"), ("u-", "v+"), ("u-", "v-"))
    checked = 0
    for net in nets:
        dom = net.domain
        omega, terms = reference_sign_grids(net)
        assert [t.shape for t in terms] == [(2, dom.nu - 2, dom.nv - 2)] * 6
        vi, vj = (k.ravel() for k in np.mgrid[1:dom.nu - 1, 1:dom.nv - 1])
        with np.errstate(over="ignore", invalid="ignore"):
            batched = np.array(_six_terms(net, vi, vj))
        whole = np.stack([t.reshape(2, -1) for t in terms], axis=1)
        assert batched.tobytes() == whole.tobytes()
        for u0 in range(dom.u_min + 1, dom.u_max):
            for v0 in range(dom.v_min + 1, dom.v_max):
                i, j = u0 - dom.u_min - 1, v0 - dom.v_min - 1
                star = {"u+": EdgeIndex("u", u0, v0),
                        "u-": EdgeIndex("u", u0 - 1, v0),
                        "v+": EdgeIndex("v", u0, v0),
                        "v-": EdgeIndex("v", u0, v0 - 1)}
                for view, (a, b) in zip(terms[2:], cross):
                    (qu, qv), = (set(star[a].adjacent_quads())
                                 & set(star[b].adjacent_quads()))
                    want = omega[:, qu - dom.u_min, qv - dom.v_min]
                    assert view[:, i, j].tobytes() == want.tobytes()
                    assert want[0] == net.omega[qu - dom.u_min,
                                                qv - dom.v_min]
                checked += 1
    assert checked > 500


def test_generic_position_agrees_with_scalar_orient_in_the_dead_zone(rng):
    # the batched check must flag exactly the pairs on which the scalar
    # orient reads 0, each cross pair in its quad's frame
    flagged = decided = 0
    for net in planted_coincidence_nets(rng):
        for tol in (1e-9, 1e-8):
            want = scalar_generic_violations(net, tol, cross_on_quads=True)
            got = {(g.vertex, g.plane_a, g.plane_b)
                   for g in validate_generic_position(net, tol)}
            assert got == want
        flagged += bool(want)
        decided += not want
    assert flagged > 20 and decided > 20


def test_generic_position_moves_only_between_the_frames_dead_zones(rng):
    # reading a cross pair on its quad instead of the vertex frame keeps
    # [nu, x, y] in exact arithmetic and changes only the six products of
    # the dead zone, so a verdict may move only where |d| lies between the
    # two frames' thresholds
    moved = 0
    for net in planted_coincidence_nets(rng):
        for tol in (1e-9, 1e-8):
            new = {(g.vertex, g.plane_a, g.plane_b)
                   for g in validate_generic_position(net, tol)}
            old = scalar_generic_violations(net, tol, cross_on_quads=False)
            for vertex, *planes in new ^ old:
                terms = []
                for on_quads in (False, True):
                    nu, x, y = generic_position_frames(
                        net, *vertex, on_quads)[tuple(planes)]
                    terms.append(orient_terms(*nu, *x, *y))
                low, high = sorted(tol * mag for _, mag in terms)
                for d, _ in terms:
                    assert low <= abs(d) <= high
                moved += 1
    assert moved > 0


# ---------------------------------------------------------------------------
# chain walker
# ---------------------------------------------------------------------------

def _paths_and_cycles(rng):
    """Disjoint paths and cycles on shuffled node labels, as
    reference_walk_chains' links (each node's links shuffled) and the two
    ends of every key."""
    labels = rng.permutation(1000)[:int(rng.integers(1, 60))].tolist()
    ends = {}
    at = 0
    while at < len(labels):
        part = labels[at:at + int(rng.integers(1, 9))]
        at += len(part)
        loop = len(part) >= 3 and rng.random() < 0.5
        for a, b in zip(part, part[1:] + part[:1] if loop else part[1:]):
            ends[("key", int(rng.integers(1 << 30)), len(ends))] = (a, b)
    links = {node: [] for node in labels}
    for key, (a, b) in ends.items():
        links[a].append((b, key))
        links[b].append((a, key))
    for nbs in links.values():
        rng.shuffle(nbs)
    return links, ends


def _walked_as_reference(links):
    """walk_chains on the int array of the dict graph `links` (nodes
    numbered in sorted order, neighbours in link order), its chains by
    node label; they equal reference_walk_chains' on the dict, and the
    array is left as it is."""
    labels = sorted(links)
    number = {node: k for k, node in enumerate(labels)}
    rows = np.full((len(labels), max([1, *map(len, links.values())])), -1)
    for node, nbs in links.items():
        rows[number[node], :len(nbs)] = [number[nb] for nb, _ in nbs]
    before = rows.copy()
    chains = [([labels[k] for k in nodes], closed)
              for nodes, closed in walk_chains(rows)]
    assert np.array_equal(rows, before)
    assert chains == [(nodes, closed)
                      for nodes, _, closed in reference_walk_chains(links)]
    return chains


def _circle_pair_graphs(monkeypatch):
    """The two graphs walk_chains joins, on the circle Omega = 1/4 - u^2 -
    v^2: the discrete singular set of the sampled pair, and the smooth
    oracle's crossings, as trace_singular_curve hands them over; each as
    reference_walk_chains' links, every link keyed by its two ends, and
    the two ends of every key."""
    alpha, beta, _, _ = sample_pair(circle_pair(), 0.05, 0.05)
    graphs = [SingularSet.from_omega(metric_field(ConormalNet(alpha,
                                                              beta))).links]
    walk = smooth_oracle.walk_chains

    def spy(links):
        graphs.append(links)
        return walk(links)

    monkeypatch.setattr(smooth_oracle, "walk_chains", spy)
    trace_singular_curve(circle_pair(), 64, 1e-10)
    assert [g.shape[1] for g in graphs] == [4, 2]
    for rows in graphs:
        links = {k: [(nb, (min(k, nb), max(k, nb))) for nb in row if nb >= 0]
                 for k, row in enumerate(rows.tolist())}
        yield links, {key: key for nbs in links.values() for _, key in nbs}


def test_walk_chains_on_random_paths_and_cycles(rng, monkeypatch):
    graphs = [_paths_and_cycles(rng) for _ in range(200)]
    graphs += list(_circle_pair_graphs(monkeypatch))
    for links, ends in graphs:
        chains = _walked_as_reference(links)
        # each link once
        assert sorted(tuple(sorted(p)) for nodes, _ in chains
                      for p in zip(nodes, nodes[1:])) == sorted(
            tuple(sorted(e)) for e in ends.values())
        for nodes, closed in chains:
            assert (nodes[0] == nodes[-1]) == closed
        opens = [nodes for nodes, closed in chains if not closed]
        loops = [nodes for nodes, closed in chains if closed]
        # open chains first, each from the smallest free degree-1 node
        assert [c[1] for c in chains] == [False] * len(opens) + [True] * len(
            loops)
        free = sorted(node for node, nbs in links.items() if len(nbs) == 1)
        for nodes in opens:
            assert nodes[0] == free[0]
            free.remove(nodes[0])
            free.remove(nodes[-1])
        assert not free
        # then each loop from its smallest node, in that node's order
        assert all(nodes[0] == min(nodes) for nodes in loops)
        assert [nodes[0] for nodes in loops] == sorted(
            nodes[0] for nodes in loops)
    # the circle's graphs are one loop each
    assert [[closed for _, closed in _walked_as_reference(links)]
            for links, _ in graphs[-2:]] == [[True], [True]]


def test_walk_chains_steps_over_the_first_unused_link():
    # node 0 has three links: the chain from node 1 leaves it over its
    # first link still present (to 2), and the one from node 3 ends there
    links = {0: [(1, "a"), (2, "b"), (3, "c")], 1: [(0, "a")],
             2: [(0, "b")], 3: [(0, "c")]}
    assert _walked_as_reference(links) == [([1, 0, 2], False),
                                           ([3, 0], False)]
    links[0] = [(3, "c"), (2, "b"), (1, "a")]
    assert _walked_as_reference(links) == [([1, 0, 3], False),
                                           ([2, 0], False)]


def test_release_omega_frees_the_cached_grid_and_its_bounds(rng):
    # the cached Omega grid and its row bounds leave the net; reading them
    # again computes the same bits
    net = random_net_candidate(rng, n=9)
    omega, (low, bound) = net.omega, net.omega_bounds
    net.release_omega()
    assert "omega" not in vars(net) and "omega_bounds" not in vars(net)
    net.release_omega()
    assert net.omega is not omega
    assert net.omega.tobytes() == omega.tobytes()
    assert [b.tobytes() for b in net.omega_bounds] == [low.tobytes(),
                                                       bound.tobytes()]
