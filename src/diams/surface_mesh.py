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
from .errors import ParameterOutOfRange, SharedEdgeMismatch, ValidationError
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


# tessellate's area filter reads the sample grid in blocks of whole rows of
# at most this many samples (or one row), whatever the mesh size
AREA_BLOCK_SAMPLES = 1 << 14


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

    Triangles of area at most 1e-14 times the squared largest coordinate
    are dropped; `sub_quad_areas` reads the areas off grid slices.
    """
    if (not isinstance(subdiv, (int, np.integer)) or isinstance(subdiv, bool)
            or subdiv < 1):
        raise ParameterOutOfRange(
            f"subdiv must be an integer >= 1, got {subdiv!r}")
    subdiv = int(subdiv)
    dom = f.domain
    nu, nv = f.positions.shape[:2]
    shape = (subdiv * (nu - 1) + 1, subdiv * (nv - 1) + 1, 3)
    with (float_grid_allocation(shape, f"subdiv = {subdiv}: a sample grid"),
          np.errstate(over="ignore", invalid="ignore")):
        grid = _kernels.bilinear_sample(f.positions, subdiv)
    n_j = grid.shape[1]
    nq_u, nq_v = (grid.shape[0] - 1) // subdiv, (n_j - 1) // subdiv
    vertices = grid.reshape(-1, 3)

    # The area filter runs on the vertices scaled by the power of two that
    # puts the largest coordinate in [0.5, 1).  The scaling is exact, so it
    # changes no decision where the unscaled arithmetic is in range, and
    # the squared cross products no longer under- or overflow at extreme
    # coordinate scales.
    scale = float(np.maximum(vertices.max(), -vertices.min()))
    if not np.isfinite(scale):
        raise ValidationError("mesh positions are not finite (the net "
                              "overflows at this coordinate scale)")
    mantissa, exponent = np.frexp(scale)
    area_floor = 1e-14 * mantissa * mantissa
    keep = np.empty((grid.shape[0] - 1, n_j - 1, 2), dtype=bool)
    for r in _kernels.row_blocks(len(keep), n_j, AREA_BLOCK_SAMPLES):
        area = sub_quad_areas(np.ldexp(grid[r.start:r.stop + 1], -exponent))
        keep[r] = ~(area <= area_floor)
    # triangle order: quad (qu, qv), sub-quad (si, ti), then k = 0 or 1
    order = (nq_u, nq_v, subdiv, subdiv, 2)
    keep = keep.reshape(nq_u, subdiv, nq_v, subdiv, 2).transpose(
        0, 2, 1, 3, 4).ravel()
    if keep.all():                      # index without copying
        keep = slice(None)
    qu, qv, si, ti, k = np.indices(order, dtype=np.int64, sparse=True)
    v00 = (subdiv * qu + si) * n_j + subdiv * qv + ti
    corners = np.array([[0, n_j, 1], [n_j, n_j + 1, 1]])[k]
    triangles = (v00[..., None] + corners).reshape(-1, 3)[keep]
    tags = np.empty((*order, 2), dtype=np.int64)
    tags[..., 0] = qu + dom.u_min
    tags[..., 1] = qv + dom.v_min
    tags = tags.reshape(-1, 2)[keep]

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


def sub_quad_areas(grid):
    """(I-1, J-1, 2) areas of the triangles (v00, v10, v01), (v10, v11, v01)
    of each sub-quad of an (I, J, 3) grid: those of the gathered corners,
    bit for bit, with the corners read from slices of the grid."""
    v00, v10 = grid[:-1, :-1], grid[1:, :-1]
    v01, v11 = grid[:-1, 1:], grid[1:, 1:]
    area = np.empty((*v00.shape[:2], 2))
    for k, (p0, p1, p2) in enumerate(((v00, v10, v01), (v10, v11, v01))):
        normal = np.cross(p1 - p0, p2 - p0)
        area[:, :, k] = 0.5 * np.sqrt(np.einsum("...i,...i->...", normal,
                                                normal))
    return area


_VERTEX_BEFORE = _kernels.nul_padded([b"v ", b" ", b" "])
_VERTEX_AFTER = _kernels.nul_padded([b"", b"", b"\n"])
_NEWLINE, _F, _G, _UNDERSCORE = [
    np.frombuffer(t, np.uint8) for t in (b"\n", b"f", b"g quad_", b"_")]


def export_obj(mesh, path):
    """Write the mesh as Wavefront OBJ text.

    Vertices first, then one "g quad_u_v" group per quad with its faces,
    then one "l" record per singular chain (closed chains repeat their
    first index).  Output is byte-deterministic for a fixed mesh.

    A group opens wherever a triangle's tag differs from the one before
    it.  The text is bytes from start to finish, and no list or tuple is
    built per vertex or per face: the vertex block is `_kernels.g17_text`'s
    blocks, each coordinate after "v " or " " and the last before a
    newline.  The face block's rows gather each vertex index's
    `_kernels.int_field` text, written once, by `triangles`, after a
    "g quad_u_v" head that is empty where no group opens; an "l" record
    gathers them by its indices.

    Every check runs before the file is opened: a tag count or an index
    that does not fit, or a polyline of fewer than two indices, raises
    ParameterOutOfRange and writes nothing.  The text is then streamed:
    `_kernels.write_blocks` writes each vertex and face block (both made
    by `_kernels.blockwise`) and each "l" record as it is made, and a
    failure part-way leaves an empty file, not a smaller mesh.
    """
    vertices = np.reshape(mesh.vertices, (-1, 3))
    triangles = np.asarray(mesh.triangles).reshape(-1, 3)
    tags = np.asarray(mesh.quad_tags, dtype=np.int64).reshape(-1, 2)
    if len(tags) != len(triangles) or len(triangles) and not (
            0 <= triangles.min() and triangles.max() < len(vertices)):
        raise ParameterOutOfRange("a mesh needs one quad tag per triangle "
                                  "and triangles that index its vertices")
    records = []
    for pl in mesh.polylines:
        idx = [int(i) for i in pl.indices]
        if len(idx) < 2 or not all(0 <= i < len(vertices) for i in idx):
            raise ParameterOutOfRange(f"polyline {pl.indices} needs two or "
                                      "more of the mesh's vertex indices")
        records.append(idx + (idx[:1] if pl.closed else []))
    # the text ends with a newline, that of an empty mesh included
    _kernels.write_blocks(path, _obj_blocks(vertices, triangles, tags, records)
                          if len(vertices) else [b"\n"])


def _obj_blocks(vertices, triangles, tags, records):
    """The byte blocks of export_obj's text, made as they are consumed."""
    yield from _kernels.g17_text(vertices, (_VERTEX_BEFORE,), (_VERTEX_AFTER,))
    # " " and each 1-based vertex index, NUL-led, a block at a time
    digits = len(b"%d" % len(vertices))
    index = np.empty((len(vertices), 1 + digits), dtype=np.uint8)
    index[:, 0] = ord(" ")
    for r in _kernels.row_blocks(len(index), 1, _kernels.G17_BLOCK_VALUES):
        index[r, 1:] = _kernels.int_field(
            np.arange(*r.indices(len(index))) + 1, digits)

    def faces(r):
        t = tags[r]
        opens = np.ones(len(t), dtype=bool)
        opens[1:] = (t[1:, 0] != t[:-1, 0]) | (t[1:, 1] != t[:-1, 1])
        if r.start:
            opens[0] = (t[0] != tags[r.start - 1]).any()
        heads = np.flatnonzero(opens)
        uv = _kernels.int_field(t[heads])
        head = _kernels.laid_out((len(heads),), [
            _G, uv[:, 0], _UNDERSCORE, uv[:, 1], _NEWLINE])
        face = np.take(index, triangles[r], axis=0)
        rows = _kernels.laid_out((len(face),), [
            np.zeros(head.shape[1], dtype=np.uint8), _F,
            face.reshape(len(face), -1), _NEWLINE])
        rows[heads, :head.shape[1]] = head
        return rows[rows != 0].tobytes()

    yield from _kernels.blockwise(faces, _kernels.row_blocks(
        len(tags), 3, _kernels.G17_BLOCK_VALUES))
    for idx in records:
        text = index[idx].ravel()
        yield b"l" + text[text != 0].tobytes() + b"\n"
