"""Bilinear patches per quadrangle, tessellation and OBJ export.

Each quad of an asymptotic net carries the hyperbolic-paraboloid patch
obtained by bilinear interpolation of its four corners.  For nets built
from a difference-form co-normal field, adjacent patches share tangent
planes along their common edges, so the tessellated surface looks C^1.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import (IoFailure, ParameterOutOfRange, SharedEdgeMismatch,
                     ValidationError)
from .net_core import float_grid_allocation


@dataclass(frozen=True)
class BilinearPatch:
    """Four corner points in (c00, c10, c01, c11) order, i.e. the net
    vertices at (u,v), (u+1,v), (u,v+1), (u+1,v+1)."""

    corners: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.corners, dtype=np.float64)
        if c.shape != (4, 3):
            raise ParameterOutOfRange("corners must be a (4, 3) array")
        object.__setattr__(self, "corners", c)

    def point(self, s, t):
        return bilinear_point(self, s, t)

    def tangents(self, s, t):
        """Parameter derivatives (dF/ds, dF/dt) at (s, t)."""
        c00, c10, c01, c11 = self.corners
        ds = (c10 - c00) * (1.0 - t) + (c11 - c01) * t
        dt = (c01 - c00) * (1.0 - s) + (c11 - c10) * s
        return ds, dt


def patch_for_quad(f, quad):
    u, v = quad
    f.domain.require_quad(u, v)
    return BilinearPatch(np.stack([
        f.position(u, v), f.position(u + 1, v),
        f.position(u, v + 1), f.position(u + 1, v + 1)]))


def bilinear_point(patch, s, t):
    """(1-s)(1-t) c00 + s(1-t) c10 + (1-s)t c01 + st c11."""
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ParameterOutOfRange(f"(s, t) = ({s}, {t}) outside the unit square")
    c00, c10, c01, c11 = patch.corners
    return (c00 * ((1.0 - s) * (1.0 - t)) + c10 * (s * (1.0 - t))
            + c01 * ((1.0 - s) * t) + c11 * (s * t))


_EDGES = {
    "s0": ((0, 2), lambda r: (0.0, r)),   # corners c00 -> c01, parameter t
    "s1": ((1, 3), lambda r: (1.0, r)),
    "t0": ((0, 1), lambda r: (r, 0.0)),   # corners c00 -> c10, parameter s
    "t1": ((2, 3), lambda r: (r, 1.0)),
}


def compatibility_residual(p1, p2, shared_edge, samples=9):
    """Largest angle between the two patches' tangent planes along a
    shared edge.

    shared_edge is a pair of edge tags from {s0, s1, t0, t1}, the first
    naming the edge of p1 and the second the matching edge of p2; the
    named edges must carry identical corner points in the same order.
    Normal directions are compared as unsigned lines because the net may
    fold across a singular edge.
    """
    if samples < 2:
        raise ParameterOutOfRange("need at least 2 edge samples")
    tag1, tag2 = shared_edge
    try:
        (i1, j1), par1 = _EDGES[tag1]
        (i2, j2), par2 = _EDGES[tag2]
    except KeyError as e:
        raise ParameterOutOfRange(f"unknown edge tag {e}") from None
    if not (np.array_equal(p1.corners[i1], p2.corners[i2])
            and np.array_equal(p1.corners[j1], p2.corners[j2])):
        raise SharedEdgeMismatch(
            f"edge {tag1} of the first patch does not equal edge {tag2} "
            "of the second")
    worst = 0.0
    for r in np.linspace(0.0, 1.0, samples):
        n1 = np.cross(*p1.tangents(*par1(r)))
        n2 = np.cross(*p2.tangents(*par2(r)))
        cr = float(np.linalg.norm(np.cross(n1, n2)))
        dt = abs(float(np.dot(n1, n2)))
        angle = float(np.arctan2(cr, dt))
        worst = max(worst, min(angle, np.pi - angle))
    return worst


class MeshPolyline(NamedTuple):
    indices: tuple
    closed: bool


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray        # (N, 3)
    triangles: np.ndarray       # (M, 3) int, indices into vertices
    quad_tags: np.ndarray       # (M, 2) int64, per-triangle (u, v) quad key
    polylines: tuple            # MeshPolyline records


def tessellate(f, subdiv, singular=()):
    """Sample the bilinear patches on one welded (subdiv*Qu+1) x
    (subdiv*Qv+1) parameter grid, Qu x Qv quads, and triangulate.

    Vertices are the grid samples, row-major.  Triangles run quad by
    quad, then over sub-quads row-major in (si, ti), each split along its
    (s+t) anti-diagonal into (v00, v10, v01) and (v10, v11, v01).
    Singular polylines are carried through as index chains over the
    vertices: net vertex (u, v) is sample (subdiv*(u-u_min),
    subdiv*(v-v_min)).  A sample grid too large to allocate raises
    ValidationError with its size.
    """
    if (not isinstance(subdiv, (int, np.integer)) or isinstance(subdiv, bool)
            or subdiv < 1):
        raise ParameterOutOfRange(
            f"subdiv must be an integer >= 1, got {subdiv!r}")
    subdiv = int(subdiv)
    dom = f.domain
    nu, nv = f.positions.shape[:2]
    shape = (subdiv * (nu - 1) + 1, subdiv * (nv - 1) + 1, 3)
    with float_grid_allocation(shape, f"subdiv = {subdiv}: a sample grid"):
        grid = _kernels.bilinear_sample(f.positions, subdiv)
    n_j = grid.shape[1]
    nq_u, nq_v = (grid.shape[0] - 1) // subdiv, (n_j - 1) // subdiv
    vertices = grid.reshape(-1, 3)

    rows = subdiv * np.arange(nq_u, dtype=np.int64)[:, None] + np.arange(subdiv)
    cols = subdiv * np.arange(nq_v, dtype=np.int64)[:, None] + np.arange(subdiv)
    v00 = (rows[:, None, :, None] * n_j + cols[None, :, None, :]).ravel()
    v10 = v00 + n_j
    triangles = np.stack([v00, v10, v00 + 1, v10, v10 + 1, v00 + 1],
                         axis=1).reshape(-1, 3)

    # The area filter runs on the vertices scaled by the power of two that
    # puts the largest coordinate in [0.5, 1).  The scaling is exact, so it
    # changes no decision where the unscaled arithmetic is in range, and
    # the squared cross products no longer under- or overflow at extreme
    # coordinate scales.
    scale = float(np.abs(vertices).max())
    if not np.isfinite(scale):
        raise ValidationError("mesh positions are not finite (the net "
                              "overflows at this coordinate scale)")
    mantissa, exponent = np.frexp(scale)
    unit = np.ldexp(vertices, -exponent)
    area_floor = 1e-14 * mantissa * mantissa
    p0 = unit[triangles[:, 0]]
    normal = np.cross(unit[triangles[:, 1]] - p0, unit[triangles[:, 2]] - p0)
    area = 0.5 * np.sqrt(np.einsum("ij,ij->i", normal, normal))
    keep = ~(area <= area_floor)
    triangles = triangles[keep]
    quad = np.repeat(np.arange(nq_u * nq_v, dtype=np.int64),
                     2 * subdiv * subdiv)[keep]
    tags = np.stack([quad // nq_v + dom.u_min, quad % nq_v + dom.v_min],
                    axis=1)

    polylines = []
    for chain in singular:
        verts = chain.vertices[:-1] if chain.closed else chain.vertices
        for u, v in verts:
            if not dom.contains_vertex(u, v):
                raise ParameterOutOfRange(
                    f"vertex ({u}, {v}) outside the mesh domain")
        polylines.append(MeshPolyline(
            tuple(subdiv * ((u - dom.u_min) * n_j + v - dom.v_min)
                  for u, v in verts), chain.closed))

    return TriangleMesh(vertices=vertices, triangles=triangles,
                        quad_tags=tags,
                        polylines=tuple(polylines))


_VERTEX_BEFORE = _kernels.nul_padded([b"v ", b" ", b" "])
_VERTEX_AFTER = _kernels.nul_padded([b"", b"", b"\n"])


def export_obj(mesh, path):
    """Write the mesh as Wavefront OBJ text.

    Vertices first, then one "g quad_u_v" group per quad with its faces,
    then one "l" record per singular chain (closed chains repeat their
    first index).  Output is byte-deterministic for a fixed mesh.

    A group opens wherever a triangle's tag differs from the one before
    it.  No list or tuple is built per vertex or per face: the vertex
    block is written by `_kernels.g17_text`, each coordinate after "v "
    or " " and the last before a newline, and the face block is one `%`
    format of a template over a flat value tuple.
    """
    vertices = np.reshape(mesh.vertices, (-1, 3))
    text = _kernels.g17_text(vertices, (_VERTEX_BEFORE,), (_VERTEX_AFTER,))
    parts = [b"".join(text).decode("ascii")]
    tags = np.asarray(mesh.quad_tags, dtype=np.int64).reshape(-1, 2)
    start = np.ones(len(tags), dtype=bool)
    start[1:] = (tags[1:] != tags[:-1]).any(axis=1)
    # rows (u, v, a, b, c), with (u, v) kept only where a group opens
    keep = np.ones((len(tags), 5), dtype=bool)
    keep[:, :2] = start[:, None]
    values = np.concatenate([tags, mesh.triangles + 1], axis=1)[keep]
    sizes = np.diff(np.append(np.flatnonzero(start), len(tags))).tolist()
    templates = {k: "g quad_%d_%d\n" + "f %d %d %d\n" * k for k in set(sizes)}
    parts.append("".join([templates[k] for k in sizes])
                 % tuple(values.tolist()))
    for pl in mesh.polylines:
        idx = list(pl.indices) + ([pl.indices[0]] if pl.closed else [])
        parts.append("l " + " ".join(str(i + 1) for i in idx) + "\n")
    # the text ends with a newline, that of an empty mesh included
    text = "".join(parts) or "\n"
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e
