"""Acceptance suite: one test per criterion, one printed line each."""

import itertools
import json
import time

import numpy as np
import pytest

from diams import (ConormalNet, Configuration, EdgeIndex, Kind, PolyCurve,
                   analyze_net, integrate_net, omega_quad, orient)
from diams.io_cli import (example_curve_pair, parse_curves,
                          report_from_analysis, run_cli, write_curves,
                          write_report)
from diams.net_core import (quad_closure_residual,
                            star_planarity_residual_grid)
from diams.singularity import halfplane_grid
from diams.surface_mesh import (compatibility_residual, patch_for_quad,
                                export_obj, tessellate)

from _helpers import (densify, example_net, generate_admissible,
                      one_sided_hausdorff, parabolic_points, parse_obj,
                      random_net_candidate, random_unimodular,
                      transformed_net)

EXPECTED = {
    -0.5: (Configuration.A, Kind.CUSPIDAL_EDGE,
           {EdgeIndex("v", 0, 0), EdgeIndex("v", 0, -1)}),
    -2.0: (Configuration.B, Kind.CUSPIDAL_EDGE,
           {EdgeIndex("v", 0, 0), EdgeIndex("u", -1, 0)}),
    1.0: (Configuration.C, Kind.SWALLOWTAIL,
          {EdgeIndex("v", 0, 0), EdgeIndex("u", 0, 0)}),
}


def _line(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def _centered_positions(net):
    dom = net.domain
    centre = (dom.u_min + dom.nu // 2, dom.v_min + dom.nv // 2)
    return integrate_net(net, base_vertex=centre)


def test_criterion_1_worked_example_reproduction():
    ok = True
    for y, (config, kind, expected_edges) in EXPECTED.items():
        t0 = time.perf_counter()
        analysis = analyze_net(example_net(y))
        elapsed = time.perf_counter() - t0
        got_edges = {se.edge for se in analysis.edges}
        centre = next(sv for sv in analysis.vertices if sv.vertex == (0, 0))
        case_ok = (got_edges == expected_edges
                   and centre.configuration == config
                   and centre.kind == kind
                   and elapsed < 0.1)
        ok = ok and case_ok
        assert got_edges == expected_edges
        assert centre.configuration == config
        assert centre.kind == kind
        assert elapsed < 0.1
    _line(1, ok, "worked example reproduces configurations A/B/C with "
                 "published edge sets and kinds in < 0.1 s each")


def test_criterion_2_omega_spot_values():
    ok = True
    for y in (-0.5, -2.0, 1.0):
        net = example_net(y)
        checks = [
            (omega_quad(net, (0, 0)), 0.01),
            (omega_quad(net, (-1, 0)), -0.01),
            (omega_quad(net, (0, -1)), -0.01 * y),
            (omega_quad(net, (-1, -1)), -0.01 * (1 + y)),
        ]
        for got, want in checks:
            assert abs(got - want) <= 1e-12
            ok = ok and abs(got - want) <= 1e-12
    _line(2, ok, "metric spot values match hand determinants to 1e-12")


def test_criterion_3_proposition_suites_on_random_nets(rng):
    t0 = time.perf_counter()
    n_edges = n_vertices = n_classified = 0
    for _ in range(1000):
        net, metric, edges, verts = generate_admissible(rng)
        dom = net.domain
        # Prop: halfplane orientation test == metric sign flip, every edge
        v_res, u_res, v_zero, u_zero = halfplane_grid(net)
        assert not v_zero.any() and not u_zero.any()
        w = metric.values
        assert np.array_equal(v_res, (w[:-1, :] * w[1:, :]) < 0)
        assert np.array_equal(u_res, (w[:, :-1] * w[:, 1:]) < 0)
        n_edges += v_res.size + u_res.size
        # Prop: interior singular vertices carry exactly two singular edges
        interior = [sv for sv in verts
                    if dom.is_interior_vertex(*sv.vertex)]
        for sv in interior:
            assert len(sv.incident_singular_edges) == 2
        n_vertices += len(interior)
        # Prop: crossing test == star sidedness == configuration C
        classified = [out for out in analyze_net(net).vertices
                      if dom.is_interior_vertex(*out.vertex)]
        assert [out.vertex for out in classified] == [sv.vertex
                                                      for sv in interior]
        for out in classified:
            is_c = out.configuration == Configuration.C
            assert (out.kind == Kind.SWALLOWTAIL) == is_c
            assert out.diagnostics["crossing_swallowtail"] == is_c
            assert out.diagnostics["star_sidedness"] == is_c
            n_classified += 1
    elapsed = time.perf_counter() - t0
    assert n_edges >= 10_000
    assert n_classified >= 10_000
    assert elapsed < 10.0
    _line(3, True, f"1000 random admissible nets: halfplane equivalence on "
                   f"{n_edges} edges, two-edge property on {n_vertices} "
                   f"vertices, criteria agreement on {n_classified} "
                   f"classified vertices in {elapsed:.1f} s")


def test_criterion_3_exhaustive_sign_tables():
    # every frame alpha'+-, beta'+- on four distinct lines through the
    # origin of the plane normal to nu = (0, 0, 1): the lines at angles 0,
    # pi/4, pi/2, 3pi/4 in every order and orientation, 4! * 2^4 frames.
    # The centre's outcome depends only on its six frame signs.
    lines = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 1, 0)]
    outcomes = {}
    frames = 0
    for order in itertools.permutations(lines):
        for signs in itertools.product((1, -1), repeat=4):
            ap, am, bp, bm = (s * np.array(x, dtype=float)
                              for s, x in zip(signs, order))
            a = np.array([-am, [0.0, 0.0, 0.0], ap]) + [0.0, 0.0, 1.0]
            b = np.array([-bm, [0.0, 0.0, 0.0], bp])
            analysis = analyze_net(ConormalNet(PolyCurve(a, -1),
                                               PolyCurve(b, -1)))
            assert not analysis.generic_violations
            table = tuple(orient((0, 0, 1), x, y) for x, y in (
                (ap, am), (bp, bm), (ap, bp), (ap, bm), (am, bp), (am, bm)))
            centre = [sv for sv in analysis.vertices if sv.vertex == (0, 0)]
            out = None
            if centre:
                sv, = centre
                out = (len(sv.incident_singular_edges), sv.configuration,
                       sv.kind, sv.diagnostics.get("edge_pattern"),
                       sv.diagnostics.get("star_sidedness"))
            assert outcomes.setdefault(table, out) == out
            frames += 1
    assert frames == 384 and len(outcomes) == 48
    two = [o for o in outcomes.values() if o is not None and o[0] == 2]
    counts = {c: sum(o[1] == c for o in two) for c in Configuration}
    assert len(two) == 32
    assert (counts[Configuration.A], counts[Configuration.B],
            counts[Configuration.C]) == (16, 8, 8)
    for _, config, kind, pattern, sidedness in two:
        assert (config == Configuration.A) == (pattern in ("u+u-", "v+v-"))
        assert (config == Configuration.C) == (kind == Kind.SWALLOWTAIL) \
            == sidedness
    assert sum(o is None for o in outcomes.values()) == 8
    four = [o for o in outcomes.values() if o is not None and o[0] == 4]
    assert len(four) == 8
    assert all(o[1] == Configuration.INADMISSIBLE for o in four)
    _line(3, True, f"{frames} exact frames: {len(outcomes)} sign tables, "
                   f"{len(two)} two-edge centres (A/B/C "
                   f"{counts[Configuration.A]}/{counts[Configuration.B]}/"
                   f"{counts[Configuration.C]}), {len(four)} four-edge, "
                   f"8 without a singular centre")


def test_criterion_4_convergence_to_smooth_oracle():
    # analytic singular curve of the parabolic pair: u = -v + 1.5 v^2
    v = np.linspace(-1, 1, 8001)
    arc = np.stack([1.5 * v * v - v, v], axis=1)
    arc = densify(arc[np.abs(arc[:, 0]) <= 1.0], 0.002)

    def restrict(pts, lo, hi):
        keep = (pts[:, 1] >= lo) & (pts[:, 1] <= hi)
        return pts[keep]

    # interior windows in v keep domain-boundary truncation out of the
    # Hausdorff sups; each side is measured against the other unrestricted
    arc_win = restrict(arc, -0.5, 0.9)
    distances = []
    swallowtail_failures = []
    for h in (0.2, 0.1, 0.05, 0.025):
        a, b, t = parabolic_points(h)
        net = ConormalNet(PolyCurve(a), PolyCurve(b))
        analysis = analyze_net(net)
        chains = [np.array([[t[i], t[j]] for (i, j) in pl.vertices])
                  for pl in analysis.polylines]
        assert chains, f"no singular polyline at h={h}"
        disc = densify(np.concatenate(chains), 0.002)
        d = max(one_sided_hausdorff(arc_win, disc),
                one_sided_hausdorff(restrict(disc, -0.45, 0.85), arc))
        distances.append(d)
        swts = [sv for sv in analysis.vertices if sv.kind == Kind.SWALLOWTAIL]
        near = [sv for sv in swts
                if np.hypot(t[sv.vertex[0]], t[sv.vertex[1]]) <= 2 * h]
        if not (len(swts) == 1 and len(near) == 1):
            swallowtail_failures.append((h, len(swts), len(near)))
    ratios = [distances[i] / distances[i + 1] for i in range(3)]
    ratios_ok = all(1.6 <= r <= 2.4 for r in ratios)
    count_ok = not swallowtail_failures
    _line(4, ratios_ok and count_ok,
          f"parameter-domain Hausdorff {['%.4f' % d for d in distances]} "
          f"ratios {['%.2f' % r for r in ratios]}; swallowtail counts "
          f"{'unique and within 2h of the origin' if count_ok else swallowtail_failures}")
    assert ratios_ok
    # Known red: the classification marks a discrete swallowtail at every
    # chain corner whose quadrant data matches configuration C, which along
    # a descending singular staircase happens at O(1/h) vertices, not one.
    # All three definition criteria agree there (see tests above), so this
    # is a property of the definitions, not of this implementation.
    assert count_ok, (
        "swallowtail count is not localized under refinement: "
        f"{swallowtail_failures}")


def test_criterion_5_structural_residuals(rng):
    nets = [example_net(y) for y in (-0.5, -2.0, 1.0)]
    nets += [ConormalNet(PolyCurve(a), PolyCurve(b))
             for a, b, _ in map(parabolic_points, (0.2, 0.1, 0.05, 0.025))]
    # random test nets: reject metrics within 1e-5 scale^3 of zero, where
    # float64 cannot resolve Omega^2 to 1e-10 relative
    nets += [generate_admissible(rng, omega_floor=1e-5)[0]
             for _ in range(100)]
    worst = {"moutard": 0.0, "closure": 0.0, "star": 0.0, "m": 0.0,
             "patch": 0.0}
    for net in nets:
        nu_grid = net.nu_grid()
        moutard = np.abs(nu_grid[1:, 1:] + nu_grid[:-1, :-1]
                         - nu_grid[:-1, 1:] - nu_grid[1:, :-1]).max()
        worst["moutard"] = max(worst["moutard"], moutard / net.scale)
        assert moutard <= 1e-14 * net.scale

        s3 = net.scale ** 3
        f = _centered_positions(net)
        closure = max(np.linalg.norm(quad_closure_residual(net, q))
                      for q in net.domain.quads())
        worst["closure"] = max(worst["closure"], closure / s3)
        assert closure <= 1e-12 * s3

        star = star_planarity_residual_grid(f, net).max()
        worst["star"] = max(worst["star"], star / s3)
        assert star <= 1e-12 * s3

        P = f.positions
        fu = P[1:] - P[:-1]
        fv = P[:, 1:] - P[:, :-1]
        fuv = fu[:, 1:] - fu[:, :-1]
        A, B, C = fu[:, :-1], fv[:-1], fuv
        m = (A[..., 0] * (B[..., 1] * C[..., 2] - B[..., 2] * C[..., 1])
             - A[..., 1] * (B[..., 0] * C[..., 2] - B[..., 2] * C[..., 0])
             + A[..., 2] * (B[..., 0] * C[..., 1] - B[..., 1] * C[..., 0]))
        omega = analyze_net(net).metric.values
        rel = np.abs(m - omega ** 2) / omega ** 2
        worst["m"] = max(worst["m"], rel.max())
        assert rel.max() <= 1e-10
    # patch compatibility on the example nets and the two coarse parabolic
    # nets (every interior edge, 9 samples each)
    for net in nets[:5]:
        f = integrate_net(net)
        dom = net.domain
        for u in range(dom.u_min, dom.u_max - 1):
            for v in range(dom.v_min, dom.v_max):
                r = compatibility_residual(patch_for_quad(f, (u, v)),
                                           patch_for_quad(f, (u + 1, v)),
                                           ("s1", "s0"))
                worst["patch"] = max(worst["patch"], r)
        for u in range(dom.u_min, dom.u_max):
            for v in range(dom.v_min, dom.v_max - 1):
                r = compatibility_residual(patch_for_quad(f, (u, v)),
                                           patch_for_quad(f, (u, v + 1)),
                                           ("t1", "t0"))
                worst["patch"] = max(worst["patch"], r)
    assert worst["patch"] <= 1e-10
    _line(5, True,
          "residuals: moutard %.1e*scale, closure %.1e*scale^3, star "
          "%.1e*scale^3, |M-Omega^2| %.1e rel, patch %.1e rad" %
          (worst["moutard"], worst["closure"], worst["star"], worst["m"],
           worst["patch"]))


def _signature(analysis):
    return (tuple(tuple(se.edge) for se in analysis.edges),
            tuple((sv.vertex, sv.configuration, sv.kind)
                  for sv in analysis.vertices),
            tuple((pl.closed, pl.vertices) for pl in analysis.polylines))


def test_criterion_6_invariance(rng):
    nets = [example_net(y) for y in (-0.5, -2.0, 1.0)]
    nets.append(generate_admissible(rng)[0])
    maps_per_net = 25
    for net in nets:
        base = analyze_net(net)
        for _ in range(maps_per_net):
            mapped = transformed_net(net, matrix=random_unimodular(rng))
            out = analyze_net(mapped)
            assert _signature(out) == _signature(base)
            assert np.allclose(out.metric.values, base.metric.values,
                               rtol=1e-9, atol=1e-13 * net.scale ** 3)
    # translation: dyadic coordinates make the arithmetic exact, so the
    # integrated edge vectors must be identical bit for bit
    for _ in range(20):
        a = rng.integers(-128, 128, size=(7, 3)) / 64.0
        b = rng.integers(-128, 128, size=(6, 3)) / 64.0
        b[:, 2] -= 4.0
        a[1:] += np.all(a[1:] == a[:-1], axis=1)[:, None]
        b[1:] += np.all(b[1:] == b[:-1], axis=1)[:, None]
        shift = rng.integers(-64, 64, size=3) / 32.0
        net = ConormalNet(PolyCurve(a), PolyCurve(b))
        moved = transformed_net(net, shift=shift)
        f = integrate_net(net)
        g = integrate_net(moved)
        assert np.array_equal(np.diff(f.positions, axis=0),
                              np.diff(g.positions, axis=0))
        assert np.array_equal(np.diff(f.positions, axis=1),
                              np.diff(g.positions, axis=1))
    _line(6, True, f"{len(nets) * maps_per_net} unimodular maps leave "
                   "classifications identical (metric to 1e-9 relative); "
                   "translations leave edge vectors bit-identical")


def test_criterion_7_determinism_and_roundtrips(rng, tmp_path):
    # report bytes identical across runs
    r1 = write_report(report_from_analysis(analyze_net(example_net(1.0)),
                                           1e-9, 1e-9))
    r2 = write_report(report_from_analysis(analyze_net(example_net(1.0)),
                                           1e-9, 1e-9))
    assert r1 == r2
    # curve file round-trip is the identity
    cpf = example_curve_pair(1.0)
    back = parse_curves(write_curves(cpf))
    assert np.array_equal(back.alpha.points, cpf.alpha.points)
    assert np.array_equal(back.beta.points, cpf.beta.points)
    assert write_curves(back) == write_curves(cpf)
    rnd = random_net_candidate(rng)
    from diams.io_cli import CurvePairFile
    cpf2 = CurvePairFile(rnd.alpha, rnd.beta)
    assert np.array_equal(parse_curves(write_curves(cpf2)).alpha.points,
                          rnd.alpha.points)
    # OBJ round-trip reproduces every coordinate exactly (%.17g)
    net = example_net(1.0)
    mesh = tessellate(integrate_net(net), 3, analyze_net(net).polylines)
    path = tmp_path / "m.obj"
    export_obj(mesh, path)
    vertices, _, _, lines = parse_obj(path)
    assert vertices.tobytes() == mesh.vertices.tobytes()
    assert lines and len(lines[0]) == 3
    # CLI end to end determinism
    curves = tmp_path / "c.json"
    assert run_cli(["example", "--y", "1", "--out", str(curves)]) == 0
    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(["analyze", "--curves", str(curves),
                    "--report", str(rep1)]) == 0
    assert run_cli(["analyze", "--curves", str(curves),
                    "--report", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()
    doc = json.loads(rep1.read_bytes())
    assert doc["vertices"][0]["configuration"] in ("A", "B", "C", "Boundary")
    _line(7, True, "reports byte-identical; curve and OBJ round-trips "
                   "bit-exact")
