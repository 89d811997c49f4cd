import warnings

import numpy as np
import pytest

from diams import (ConormalNet, GridDomain, PolyCurve, conormal,
                   discrete_derivative, integrate_net, metric_field,
                   moutard_residual, star_planarity_residual,
                   validate_generic_position)
from diams.errors import (BoundaryVertex, IndexOutOfDomain, ValidationError)
from diams.net_core import (lelieuvre_u_edge, lelieuvre_v_edge,
                            moutard_residual_grid, quad_closure_residual,
                            star_planarity_residual_grid)

from _helpers import (example_net, parabolic_points, random_net_candidate,
                      transformed_net)


def test_polycurve_rejects_short_and_duplicate():
    with pytest.raises(ValidationError):
        PolyCurve(np.array([[0.0, 0, 0], [1, 0, 0]]))
    with pytest.raises(ValidationError, match="indices 1 and 2"):
        PolyCurve(np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0]]))
    with pytest.raises(ValidationError, match="non-finite"):
        PolyCurve(np.array([[0.0, 0, 0], [1, np.nan, 0], [2, 0, 0]]))


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
    # threshold nu_eps * scale = 2e-12: the verdict is the same at every scale
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
    # coordinates squared, Omega and its floor like the cube, the
    # generic-position test like the 4th (and 8th) power
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
        # Omega stays finite when only alpha is scaled, its floor does not
        lopsided = ConormalNet(PolyCurve(a * 2.0 ** 342), PolyCurve(b))
        with pytest.raises(ValidationError, match="floor .*not finite"):
            metric_field(lopsided)
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
