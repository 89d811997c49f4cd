import dataclasses
from collections import Counter

import numpy as np
import pytest

from diams import (BilinearPatch, TriangleMesh, _kernels, analyze_net,
                   bilinear_point, compatibility_residual, export_obj,
                   integrate_net, patch_for_quad, tessellate)
from diams.errors import (IoFailure, ParameterOutOfRange, SharedEdgeMismatch)
from diams.surface_mesh import MeshPolyline

from _helpers import (example_net, parabolic_net, parse_obj,
                      random_net_candidate, reference_obj_text,
                      reference_tessellate)


def unit_patch():
    return BilinearPatch(np.array([[0.0, 0, 0], [1, 0, 0],
                                   [0, 1, 0], [1, 1, 1]]))


def test_bilinear_point_examples():
    p = unit_patch()
    assert np.allclose(bilinear_point(p, 0.5, 0.5), [0.5, 0.5, 0.25])
    assert np.array_equal(bilinear_point(p, 0, 0), p.corners[0])
    with pytest.raises(ParameterOutOfRange):
        bilinear_point(p, 1.2, 0.0)


def test_bilinear_corner_reproduction_and_edge_affinity(rng):
    for _ in range(25):
        p = BilinearPatch(rng.normal(size=(4, 3)))
        c00, c10, c01, c11 = p.corners
        assert np.array_equal(bilinear_point(p, 0, 0), c00)
        assert np.array_equal(bilinear_point(p, 1, 0), c10)
        assert np.array_equal(bilinear_point(p, 0, 1), c01)
        assert np.array_equal(bilinear_point(p, 1, 1), c11)
        for t in rng.uniform(0, 1, size=4):
            assert np.allclose(bilinear_point(p, 0, t),
                               c00 * (1 - t) + c01 * t, atol=1e-15)
            assert np.allclose(bilinear_point(p, t, 1),
                               c01 * (1 - t) + c11 * t, atol=1e-15)


def test_bilinear_midpoint_of_integrated_quad():
    net = example_net(1.0)
    f = integrate_net(net)
    patch = patch_for_quad(f, (0, 0))
    assert np.allclose(bilinear_point(patch, 0.5, 0.5),
                       patch.corners.mean(axis=0), atol=1e-15)


def test_compatibility_on_integrated_net():
    net = example_net(1.0)
    f = integrate_net(net)
    left = patch_for_quad(f, (-1, 0))
    right = patch_for_quad(f, (0, 0))
    assert compatibility_residual(left, right, ("s1", "s0")) <= 1e-10
    lower = patch_for_quad(f, (0, -1))
    assert compatibility_residual(lower, right, ("t1", "t0")) <= 1e-10


def test_compatibility_detects_perturbation():
    net = example_net(1.0)
    f = integrate_net(net)
    right = patch_for_quad(f, (0, 0))
    corners = patch_for_quad(f, (-1, 0)).corners.copy()
    corners[0] += np.array([0.0, 0.0, 0.01])    # interior corner of the pair
    left = BilinearPatch(corners)
    assert compatibility_residual(left, right, ("s1", "s0")) > 1e-3


def test_compatibility_self_is_zero_and_mismatch_raises():
    p = unit_patch()
    assert compatibility_residual(p, p, ("s0", "s0")) == 0.0
    q = BilinearPatch(p.corners + 1.0)
    with pytest.raises(SharedEdgeMismatch):
        compatibility_residual(p, q, ("s1", "s0"))
    with pytest.raises(ParameterOutOfRange):
        compatibility_residual(p, p, ("zz", "s0"))


def test_compatibility_across_all_interior_edges_random(rng):
    for _ in range(10):
        net = random_net_candidate(rng, n=7)
        f = integrate_net(net)
        dom = net.domain
        for u in range(dom.u_min, dom.u_max - 1):
            for v in range(dom.v_min, dom.v_max):
                r = compatibility_residual(patch_for_quad(f, (u, v)),
                                           patch_for_quad(f, (u + 1, v)),
                                           ("s1", "s0"))
                assert r <= 1e-10
        for u in range(dom.u_min, dom.u_max):
            for v in range(dom.v_min, dom.v_max - 1):
                r = compatibility_residual(patch_for_quad(f, (u, v)),
                                           patch_for_quad(f, (u, v + 1)),
                                           ("t1", "t0"))
                assert r <= 1e-10


def _one_quad_net():
    a = np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 1.0], [0.2, 0.1, 1.0]])
    b = np.array([[0.0, 0.0, 0.0], [0.0, 0.1, 0.0], [0.1, 0.2, 0.0]])
    from diams import ConormalNet, PolyCurve
    net = ConormalNet(PolyCurve(a), PolyCurve(b))
    return integrate_net(net)


def test_tessellate_welded_counts_and_subdiv_type():
    f = integrate_net(example_net(1.0))
    mesh = tessellate(f, 8)
    assert len(mesh.vertices) == 17 * 17
    assert len(mesh.triangles) == 4 * 128
    assert len(set(map(tuple, mesh.quad_tags.tolist()))) == 4
    for subdiv in (np.int64(8), np.int32(8)):
        other = tessellate(f, subdiv)
        assert np.array_equal(other.vertices, mesh.vertices)
        assert np.array_equal(other.triangles, mesh.triangles)
    for subdiv in (0, -1, 1.5, 2.0, np.float64(2.0), True, np.bool_(True),
                   "2", None):
        with pytest.raises(ParameterOutOfRange):
            tessellate(f, subdiv)


def test_tessellate_single_quad_minimal():
    f = _one_quad_net()
    # restrict to one quad: build a 2x2-vertex net
    from dataclasses import replace
    from diams import GridDomain
    small = replace(f, domain=GridDomain(0, 1, 0, 1),
                    positions=f.positions[:2, :2])
    mesh = tessellate(small, 1)
    assert len(mesh.vertices) == 4
    assert len(mesh.triangles) == 2
    assert mesh.quad_tags.dtype == np.int64
    assert mesh.quad_tags.tolist() == [[0, 0], [0, 0]]


def test_tessellation_is_a_welded_disc(rng):
    # with no triangle filtered, the mesh is one disc: every interior edge
    # lies in exactly two triangles, every edge along the grid's border in
    # one, and V - E + F = 1
    for subdiv in (1, 2, 3, 4):
        for _ in range(3):
            f = integrate_net(random_net_candidate(rng, n=int(rng.integers(3, 8))))
            mesh = tessellate(f, subdiv)
            qu, qv = f.positions.shape[0] - 1, f.positions.shape[1] - 1
            ni, nj = subdiv * qu + 1, subdiv * qv + 1
            assert len(mesh.vertices) == ni * nj
            assert len(mesh.triangles) == 2 * subdiv * subdiv * qu * qv
            tri = mesh.triangles
            edges = Counter(map(tuple, np.sort(np.concatenate(
                [tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
                .tolist()))
            idx = np.arange(ni * nj).reshape(ni, nj)
            border = {(a, b) for side in (idx[0], idx[-1], idx[:, 0], idx[:, -1])
                      for a, b in zip(side[:-1].tolist(), side[1:].tolist())}
            assert {e for e, n in edges.items() if n == 1} == border
            assert set(edges.values()) == {1, 2}
            assert len(mesh.vertices) - len(edges) + len(tri) == 1
            assert np.array_equal(np.unique(tri), np.arange(ni * nj))


def test_tessellate_refuses_polyline_vertex_outside_domain():
    from diams.singularity import SingularPolyline
    f = integrate_net(example_net(1.0))
    dom = f.domain
    for vertex in ((dom.u_max + 1, 0), (0, dom.v_min - 1)):
        chain = SingularPolyline(((0, 0), vertex), (), closed=False)
        with pytest.raises(ParameterOutOfRange):
            tessellate(f, 2, (chain,))


def test_tessellate_carries_polylines():
    net = example_net(1.0)
    analysis = analyze_net(net)
    f = integrate_net(net)
    mesh = tessellate(f, 2, analysis.polylines)
    assert len(mesh.polylines) == 1
    pl = mesh.polylines[0]
    assert not pl.closed
    assert len(pl.indices) == 3
    chain = analysis.polylines[0].vertices
    for idx, (u, v) in zip(pl.indices, chain):
        assert np.allclose(mesh.vertices[idx], f.position(u, v))


def test_export_obj_counts_and_roundtrip(tmp_path):
    net = example_net(1.0)
    mesh = tessellate(integrate_net(net), 1, analyze_net(net).polylines)
    path = tmp_path / "net.obj"
    export_obj(mesh, path)
    vertices, faces, groups, lines = parse_obj(path)
    assert len(vertices) == len(mesh.vertices)
    assert len(faces) == len(mesh.triangles)
    assert groups == ["quad_-1_-1", "quad_-1_0", "quad_0_-1", "quad_0_0"]
    assert len(lines) == 1 and len(lines[0]) == 3
    # %.17g round-trips every double exactly
    assert vertices.tobytes() == mesh.vertices.tobytes()
    # byte determinism
    path2 = tmp_path / "net2.obj"
    export_obj(mesh, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_export_obj_two_triangle_example(tmp_path):
    f = _one_quad_net()
    from dataclasses import replace
    from diams import GridDomain
    small = replace(f, domain=GridDomain(0, 1, 0, 1),
                    positions=f.positions[:2, :2])
    mesh = tessellate(small, 1)
    path = tmp_path / "tiny.obj"
    export_obj(mesh, path)
    text = path.read_text()
    counts = {k: sum(1 for l in text.splitlines() if l.startswith(k + " "))
              for k in ("v", "f", "g", "l")}
    assert counts == {"v": 4, "f": 2, "g": 1, "l": 0}


def test_tessellate_drops_degenerate_triangles():
    # collapse one quad to a single point: its sub-triangles have zero
    # area and must not be emitted
    f = _one_quad_net()
    from dataclasses import replace
    from diams import GridDomain
    pos = f.positions[:2, :2].copy()
    pos[1, 0] = pos[0, 0]
    pos[0, 1] = pos[0, 0]
    pos[1, 1] = pos[0, 0]
    small = replace(f, domain=GridDomain(0, 1, 0, 1), positions=pos)
    mesh = tessellate(small, 2)
    assert len(mesh.triangles) == 0


def test_export_obj_io_failure():
    f = _one_quad_net()
    mesh = tessellate(f, 1)
    with pytest.raises(IoFailure):
        export_obj(mesh, "/nonexistent-dir/foo.obj")


def _hand_mesh(triangles, tags, polylines=()):
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.1, -2.5e-300],
                         [0.3, 1e300, 1.0], [-0.5, 0.25, 1 / 3]])
    return TriangleMesh(vertices=vertices,
                        triangles=np.array(triangles, dtype=np.int64)
                        .reshape(-1, 3),
                        quad_tags=np.array(tags, dtype=np.int64)
                        .reshape(-1, 2),
                        polylines=tuple(polylines))


def _export_text(mesh, tmp_path):
    path = tmp_path / "hand.obj"
    export_obj(mesh, path)
    data = path.read_bytes()
    assert data == reference_obj_text(mesh).encode("ascii")
    return data.decode("ascii")


def test_export_obj_reopens_a_group_for_a_non_contiguous_tag(tmp_path):
    # tags A, A, B, A, with B differing from A in v only: the third run is
    # a new group, not a return to A
    mesh = _hand_mesh([[0, 1, 2], [1, 3, 2], [0, 3, 1], [2, 3, 0]],
                      [[-1, 2], [-1, 2], [-1, 3], [-1, 2]])
    text = _export_text(mesh, tmp_path)
    groups = [l for l in text.splitlines() if l.startswith("g ")]
    assert groups == ["g quad_-1_2", "g quad_-1_3", "g quad_-1_2"]
    assert text.endswith("g quad_-1_2\nf 3 4 1\n")


def test_export_obj_zero_triangles_and_closed_polyline(tmp_path):
    open_chain = MeshPolyline((0, 2, 3), False)
    closed_chain = MeshPolyline((1, 3, 2), True)
    mesh = _hand_mesh([], [], [open_chain, closed_chain])
    text = _export_text(mesh, tmp_path)
    lines = text.splitlines()
    assert [l.split()[0] for l in lines] == ["v"] * 4 + ["l", "l"]
    # a closed chain repeats its first index
    assert lines[-2:] == ["l 1 3 4", "l 2 4 3 2"]
    empty = TriangleMesh(vertices=np.zeros((0, 3)),
                         triangles=np.zeros((0, 3), dtype=np.int64),
                         quad_tags=np.zeros((0, 2), dtype=np.int64),
                         polylines=())
    assert _export_text(empty, tmp_path) == "\n"


def test_export_obj_accepts_tuple_tags(tmp_path):
    # a hand-built mesh whose tags are a tuple of pairs writes the same
    # bytes as its array form
    triangles = [[0, 1, 2], [1, 3, 2], [0, 3, 1]]
    tags = ((3, -4), (3, -4), (3, -3))
    mesh = _hand_mesh(triangles, tags, [MeshPolyline((3, 0), True)])
    want = _export_text(mesh, tmp_path)
    path = tmp_path / "tuple.obj"
    export_obj(dataclasses.replace(mesh, quad_tags=tags), path)
    assert path.read_text() == want
    assert want.count("g ") == 2


@pytest.mark.parametrize("block", [3, 300, _kernels.G17_BLOCK_VALUES])
def test_export_obj_vertex_block_matches_reference_at_any_size(
        block, rng, tmp_path, monkeypatch):
    # small and large vertex counts, written in blocks of one vertex, of
    # 100 and of the default size, at magnitudes from 1e-300 to 1e300,
    # with the values g17_field leaves to Python's %.17g (zeros, exact
    # ties, subnormals)
    monkeypatch.setattr(_kernels, "G17_BLOCK_VALUES", block)
    path = tmp_path / "v.obj"
    for n in (3, 4, 333, 4000):
        vertices = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(
            -300, 301, size=(n, 1))
        vertices[:3] = [[0.0, -0.0, 5e-324], [1e16, 1e17, -1e-5],
                        [1000000000000000.25, 0.1, -1.0]]
        mesh = TriangleMesh(vertices, np.zeros((0, 3), dtype=np.int64),
                            np.zeros((0, 2), dtype=np.int64), ())
        export_obj(mesh, path)
        assert path.read_bytes() == reference_obj_text(mesh).encode("ascii")


def _assert_mesh_matches_reference(f, subdiv, tmp_path, singular=()):
    mesh = tessellate(f, subdiv, singular)
    corners, tags = reference_tessellate(f, subdiv)
    assert mesh.triangles.dtype == np.int64
    assert mesh.vertices[mesh.triangles].tobytes() == corners.tobytes()
    assert mesh.quad_tags.dtype == np.int64
    assert mesh.quad_tags.shape == (len(tags), 2)
    assert tuple(map(tuple, mesh.quad_tags.tolist())) == tags
    assert len(mesh.polylines) == len(singular)
    for pl, chain in zip(mesh.polylines, singular):
        verts = chain.vertices[:-1] if chain.closed else chain.vertices
        want = np.array([f.position(u, v) for u, v in verts])
        assert pl.closed == chain.closed
        assert mesh.vertices[list(pl.indices)].tobytes() == want.tobytes()
    path = tmp_path / "mesh.obj"
    export_obj(mesh, path)
    assert path.read_bytes() == reference_obj_text(mesh).encode("ascii")
    return mesh


def test_tessellate_matches_per_triangle_reference(rng, tmp_path):
    from dataclasses import replace
    from diams import GridDomain
    for subdiv in (1, 2, 3, 4):
        for _ in range(4):
            nu, nv = rng.integers(2, 7, size=2)
            u0, v0 = rng.integers(-3, 3, size=2)
            dom = GridDomain(int(u0), int(u0 + nu - 1),
                             int(v0), int(v0 + nv - 1))
            pos = rng.normal(size=(nu, nv, 3)) * 2.0 ** rng.integers(-60, 60)
            f = replace(_one_quad_net(), domain=dom, positions=pos)
            _assert_mesh_matches_reference(f, subdiv, tmp_path)
    # analysed nets with singular polylines, whose "l" records the OBJ
    # text must carry
    for net in (example_net(1.0), parabolic_net(0.2)[0]):
        polylines = analyze_net(net).polylines
        assert polylines
        f = integrate_net(net)
        for subdiv in (1, 2, 3):
            _assert_mesh_matches_reference(f, subdiv, tmp_path, polylines)


def test_tessellate_matches_reference_on_collapsed_corners(rng, tmp_path):
    # a corner collapsed onto its u-neighbour turns one edge of a quad
    # into a point: the triangles along it are dropped, the others kept;
    # corners moved to within 2^-44..2^-30 of their neighbour give areas
    # on both sides of the relative floor
    from dataclasses import replace
    for subdiv in (1, 2, 3):
        for _ in range(5):
            f = integrate_net(random_net_candidate(rng, n=7))
            pos = f.positions.copy()
            for i, j in rng.integers(0, 6, size=(3, 2)):
                pos[i + 1, j] = pos[i, j]
            for i, j in rng.integers(0, 6, size=(3, 2)):
                pos[i + 1, j] = pos[i, j] + (rng.normal(size=3)
                                             * 2.0 ** -rng.integers(30, 45))
            mesh = _assert_mesh_matches_reference(
                replace(f, positions=pos), subdiv, tmp_path)
            per_quad = Counter(map(tuple, mesh.quad_tags.tolist())).values()
            assert any(0 < n < 2 * subdiv * subdiv for n in per_quad)


@pytest.mark.parametrize("k", [-250, -140, 0, 150, 300])
def test_tessellate_is_scale_free(k):
    # scaling both curves by 2^k scales the integrated net by 2^(2k)
    # exactly; the degenerate-triangle filter must not notice
    from diams import ConormalNet, PolyCurve
    net, _ = parabolic_net(0.2)
    base = tessellate(integrate_net(net), 2)
    s = 2.0 ** k
    scaled = ConormalNet(PolyCurve(net.alpha.points * s),
                         PolyCurve(net.beta.points * s))
    mesh = tessellate(integrate_net(scaled), 2)
    assert len(base.triangles) == 800
    assert np.array_equal(mesh.triangles, base.triangles)
    assert np.array_equal(mesh.quad_tags, base.quad_tags)
    assert np.array_equal(mesh.vertices, base.vertices * 2.0 ** (2 * k))
