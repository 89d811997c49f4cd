"""Curves, grids, the co-normal field and discrete Lelieuvre integration.

A pair of polygonal space curves alpha(u), beta(v) defines the co-normal
field nu(u,v) = alpha(u) - beta(v) on the integer grid.  Integrating the
discrete Lelieuvre equations

    f_u(u+1/2, v) = nu(u,v) x nu_u(u+1/2, v)
    f_v(u, v+1/2) = -nu(u,v) x nu_v(u, v+1/2)

gives an asymptotic net whose vertex stars are planar with normal nu.
Because nu is a difference of one-variable curves, nu_uv = 0 identically,
which makes the integration path independent.  Signs are decided, and
overflows named, by ``_kernels``' one rule (``undecided``); a net keeps
one grid, Omega's values (``ConormalNet.omega``), and the generic-position
check reads no grid of magnitudes: certified row bounds decide its rows
(``_kernels.certified``), and the kernel runs on the rows they leave.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from . import _kernels
from .errors import BoundaryVertex, IndexOutOfDomain, ValidationError


def _cross3(x, y):
    """Cross product as a list of its three components; x and y are
    vectors or [x, y, z] lists of component arrays.  Same component
    expressions as np.cross."""
    return [x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0]]


class float_grid_allocation:
    """Guard the allocation of a float64 array of the given shape.

    A shape whose byte count overflows np.intp raises ValidationError
    before anything is allocated, and a MemoryError raised inside the
    block becomes the same named error; both messages give the size,
    which is written only then (nets enter two guards each).
    """

    def __init__(self, shape, what):
        self.shape = tuple(int(n) for n in shape)
        self.what = what
        if 8 * math.prod(self.shape) > sys.maxsize:     # np.intp's largest
            raise ValidationError(f"{self} exceeds the largest array size")

    def __str__(self):
        return (f"{self.what} of {' x '.join(map(str, self.shape))} float64 "
                f"values ({8 * math.prod(self.shape)} bytes)")

    def __enter__(self):
        return None

    def __exit__(self, kind, error, traceback):
        if kind is not None and issubclass(kind, MemoryError):
            raise ValidationError(f"cannot allocate {self}") from None


def is_index(x):
    """Is x an integer index: an int or a numpy integer, not a bool?"""
    return isinstance(x, Integral) and not isinstance(x, bool)


def half_index(x):
    """Validate a half-integer index k+1/2 and return the integer k."""
    k2 = 2.0 * float(x)
    if k2 != round(k2) or round(k2) % 2 == 0:
        raise IndexOutOfDomain(f"expected a half-integer index, got {x}")
    return (int(round(k2)) - 1) // 2


@dataclass(frozen=True)
class PolyCurve:
    """Integer-indexed polygonal line in R^3.

    Point i is ``points[i - offset]``, a read-only copy (nets cache grids
    computed from the points); indices run over offset, offset+1, ...,
    offset+len(points)-1, all below 2^52 in absolute value.  offset must
    be an integer index (is_index), and is kept as an int.
    """

    points: np.ndarray
    offset: int = 0

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, order="C")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValidationError("curve points must form an (n, 3) array")
        if pts.shape[0] < 3:
            raise ValidationError(
                f"curve needs at least 3 points, got {pts.shape[0]}")
        if not is_index(self.offset):
            raise ValidationError(
                f"curve offset must be an integer, got {self.offset!r}")
        object.__setattr__(self, "offset", int(self.offset))
        # below 2^52 every half index i + 1/2 is an exact float and index
        # arithmetic in int64 cannot overflow
        if not -2 ** 52 < self.offset <= 2 ** 52 - pts.shape[0]:
            raise ValidationError(
                "curve offset puts indices outside |i| < 2^52")
        if not np.all(np.isfinite(pts)):
            bad = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
            raise ValidationError(
                f"non-finite coordinate at curve index {bad + self.offset}")
        same = np.all(pts[1:] == pts[:-1], axis=1)
        if same.any():
            bad = int(np.argmax(same))
            raise ValidationError(
                "consecutive duplicate points at curve indices "
                f"{bad + self.offset} and {bad + 1 + self.offset}")

    @property
    def index_min(self):
        return self.offset

    @property
    def index_max(self):
        return self.offset + self.points.shape[0] - 1

    def point(self, i):
        if not (self.index_min <= i <= self.index_max):
            raise IndexOutOfDomain(
                f"curve index {i} outside [{self.index_min}, {self.index_max}]")
        return self.points[i - self.offset]

    def derivative(self, i_half):
        """Discrete derivative point(i+1) - point(i) at half-integer i+1/2."""
        i = half_index(i_half)
        if not (self.index_min <= i and i + 1 <= self.index_max):
            raise IndexOutOfDomain(
                f"derivative index {i_half} outside curve range")
        return self.points[i + 1 - self.offset] - self.points[i - self.offset]


def discrete_derivative(curve, i_half):
    """Forward difference of a curve at a half-integer index."""
    return curve.derivative(i_half)


@dataclass(frozen=True)
class GridDomain:
    """Rectangular integer index domain.

    Vertices are integer pairs (u, v).  Edges and quadrangles are keyed by
    their lower / lower-left vertex: the u-edge (u+1/2, v) by ("u", u, v),
    the v-edge (u, v+1/2) by ("v", u, v) and the quad (u+1/2, v+1/2) by
    (u, v).  This keeps all grid objects hashable without half-integer
    arithmetic.
    """

    u_min: int
    u_max: int
    v_min: int
    v_max: int

    def __post_init__(self):
        bounds = (self.u_min, self.u_max, self.v_min, self.v_max)
        if not all(map(is_index, bounds)):
            raise ValidationError(f"domain bounds {bounds} are not integers")
        if self.u_max < self.u_min + 1 or self.v_max < self.v_min + 1:
            raise ValidationError("domain must contain at least one quadrangle")

    @property
    def nu(self):
        return self.u_max - self.u_min + 1

    @property
    def nv(self):
        return self.v_max - self.v_min + 1

    def contains_vertex(self, u, v):
        return self.u_min <= u <= self.u_max and self.v_min <= v <= self.v_max

    def contains_quad(self, u, v):
        return self.u_min <= u <= self.u_max - 1 and self.v_min <= v <= self.v_max - 1

    def is_interior_vertex(self, u, v):
        return (self.u_min < u < self.u_max) and (self.v_min < v < self.v_max)

    def require_vertex(self, u, v):
        if not self.contains_vertex(u, v):
            raise IndexOutOfDomain(f"vertex ({u}, {v}) outside domain")

    def require_quad(self, u, v):
        if not self.contains_quad(u, v):
            raise IndexOutOfDomain(f"quad ({u}, {v}) outside domain")

    def quads(self):
        for u in range(self.u_min, self.u_max):
            for v in range(self.v_min, self.v_max):
                yield (u, v)


def walk_chains(links):
    """Maximal chains of a graph whose nodes have at most two links.

    links is an int array with one row per node, the nodes numbered in
    sorted order: the node's neighbours in link order, -1 for none.  No
    two nodes share two links.  Open chains start at the degree-1 nodes in
    order, then each loop at the smallest node that still has a link;
    every step takes the first link still present and removes it at both
    ends.  Returns (nodes, closed) per chain in that order; a closed chain
    repeats its start node at the end.  links itself is left as it is.
    """
    rows = links.tolist()

    def walk(start):
        nodes, current, row = [start], start, rows[start]
        while True:
            for k, nb in enumerate(row):
                if nb >= 0:
                    break
            else:
                return nodes, False
            row[k] = -1
            row = rows[nb]
            row[row.index(current)] = -1
            current = nb
            nodes.append(nb)
            if nb == start:
                return nodes, True

    ends = [node for node, row in enumerate(rows)
            if len(row) - row.count(-1) == 1]
    chains = [walk(node) for node in ends if max(rows[node]) >= 0]
    for node, row in enumerate(rows):
        while max(row) >= 0:
            chains.append(walk(node))
    return chains


def characteristic_scale(alpha_points, beta_points):
    """Largest absolute coordinate over both curves; weights tolerances."""
    return max(float(np.abs(alpha_points).max()),
               float(np.abs(beta_points).max()))


@dataclass(frozen=True)
class ConormalNet:
    """Co-normal field nu(u,v) = alpha(u) - beta(v) over the index product
    of the two curves."""

    alpha: PolyCurve
    beta: PolyCurve
    domain: GridDomain = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self):
        dom = GridDomain(self.alpha.index_min, self.alpha.index_max,
                         self.beta.index_min, self.beta.index_max)
        object.__setattr__(self, "domain", dom)
        scale = characteristic_scale(self.alpha.points, self.beta.points)
        object.__setattr__(self, "scale", scale)
        # |nu| is taken of nu scaled by 2^-e, where scale = m * 2^e: the
        # scaling is exact, and the squares neither overflow nor underflow
        # anywhere near the threshold 1e-12 * m.  A u-row passes unread
        # when the gap between alpha(u) and beta's bounding box clears the
        # threshold in one component, with slack for the rounding of the
        # norm: rounding is monotone, so every computed |nu_k| of the row
        # is at least that gap.  The other rows are read in row blocks;
        # the first least |nu| in row-major order is named.
        mantissa, exponent = np.frexp(scale)
        floor = 1e-12 * mantissa
        a, b = self.alpha.points, self.beta.points
        with np.errstate(over="ignore"):
            gap = np.maximum(a - b.max(axis=0), b.min(axis=0) - a).max(axis=1)
        rows = np.flatnonzero(
            ~(np.ldexp(gap, -exponent) > floor * (1.0 + 2.0 ** -40)))
        least, at = np.inf, None
        for r in _kernels.row_blocks(len(rows), 3 * dom.nv,
                                     _kernels.GRID_BLOCK_VALUES):
            k = rows[r]
            nu = np.ldexp(a[k, None, :] - b[None, :, :], -exponent)
            norms = np.sqrt((nu ** 2).sum(axis=2))
            m = int(np.argmin(norms))
            if norms.flat[m] < least:
                least = norms.flat[m]
                at = (int(k[m // dom.nv]), m % dom.nv)
        if least <= floor:
            raise ValidationError(
                "curves intersect near vertex "
                f"({at[0] + dom.u_min}, {at[1] + dom.v_min}): "
                f"|nu| = {np.ldexp(least, exponent):.3e}")

    @cached_property
    def omega(self):
        """Read-only grid of Omega over the quads, from the lower-left one;
        computed once per net."""
        dom = self.domain
        with (float_grid_allocation((dom.nu - 1, dom.nv - 1),
                                    "the Omega grid"),
              np.errstate(over="ignore", invalid="ignore")):
            values = _kernels.omega_grid(self.alpha.points, self.beta.points)
        values.flags.writeable = False
        return values

    @cached_property
    def omega_bounds(self):
        """Per quad row, the least |Omega| and an upper bound on its
        dead-zone magnitudes (_kernels.omega_bounds); computed once per
        net, as no tolerance enters them."""
        return _kernels.omega_bounds(self.alpha.points, self.beta.points,
                                     self.omega)

    def release_omega(self):
        """Free the cached omega and omega_bounds; both are computed afresh
        if read again.  For callers that are done with the signs and keep
        the net, as meshing does."""
        for name in ("omega", "omega_bounds"):
            self.__dict__.pop(name, None)

    def nu_grid(self):
        """Full (nu, nv, 3) array of co-normal vectors."""
        return (self.alpha.points[:, None, :]
                - self.beta.points[None, :, :])

    def conormal(self, u, v):
        self.domain.require_vertex(u, v)
        return self.alpha.point(u) - self.beta.point(v)

    def nu_u(self, u_half, v):
        """nu_u(u+1/2, v) = alpha'(u+1/2); independent of v."""
        self.domain.require_vertex(half_index(u_half), v)
        return self.alpha.derivative(u_half)

    def nu_v(self, u, v_half):
        """nu_v(u, v+1/2) = -beta'(v+1/2); independent of u."""
        self.domain.require_vertex(u, half_index(v_half))
        return -self.beta.derivative(v_half)


def conormal(net, u, v):
    """Co-normal vector alpha(u) - beta(v) at a grid vertex."""
    return net.conormal(u, v)


def moutard_residual_grid(nu_values, i, j):
    """Mixed second difference of an arbitrary (nu, nv, 3) vector grid at
    the quad whose lower-left grid index is (i, j)."""
    g = np.asarray(nu_values, dtype=np.float64)
    if not (0 <= i < g.shape[0] - 1 and 0 <= j < g.shape[1] - 1):
        raise IndexOutOfDomain(f"quad ({i}, {j}) outside grid")
    return g[i + 1, j + 1] + g[i, j] - g[i, j + 1] - g[i + 1, j]


def moutard_residual(net, quad):
    """nu(u+1,v+1) + nu(u,v) - nu(u,v+1) - nu(u+1,v) for a quad keyed by
    its lower-left vertex.  Identically zero for difference-form fields."""
    u, v = quad
    net.domain.require_quad(u, v)
    return (net.conormal(u + 1, v + 1) + net.conormal(u, v)
            - net.conormal(u, v + 1) - net.conormal(u + 1, v))


@dataclass(frozen=True)
class AsymptoticNet:
    """Vertex positions of the integrated net on the same domain as its
    generating co-normal field."""

    domain: GridDomain
    positions: np.ndarray
    base_vertex: tuple
    base_point: np.ndarray

    def position(self, u, v):
        self.domain.require_vertex(u, v)
        return self.positions[u - self.domain.u_min, v - self.domain.v_min]

    def f_u(self, u_half, v):
        """Edge vector f(u+1, v) - f(u, v) at the u-edge (u+1/2, v)."""
        u = half_index(u_half)
        return self.position(u + 1, v) - self.position(u, v)

    def f_v(self, u, v_half):
        v = half_index(v_half)
        return self.position(u, v + 1) - self.position(u, v)

    def f_uv(self, quad):
        u, v = quad
        self.domain.require_quad(u, v)
        return (self.position(u + 1, v + 1) + self.position(u, v)
                - self.position(u, v + 1) - self.position(u + 1, v))

    def star_edge_vectors(self, u, v):
        """The four star edge vectors at an interior vertex, keyed by
        direction tag: u+ is f(u+1,v)-f(u,v), u- is f(u-1,v)-f(u,v), etc."""
        if not self.domain.is_interior_vertex(u, v):
            raise BoundaryVertex(f"vertex ({u}, {v}) is not interior")
        p = self.position(u, v)
        return {
            "u+": self.position(u + 1, v) - p,
            "u-": self.position(u - 1, v) - p,
            "v+": self.position(u, v + 1) - p,
            "v-": self.position(u, v - 1) - p,
        }


def integrate_net(net, base_vertex=None, base_point=(0.0, 0.0, 0.0)):
    """Integrate the discrete Lelieuvre equations over the whole domain.

    The result satisfies f(base_vertex) = base_point and both edge
    equations on every edge; path independence is guaranteed by the
    vanishing mixed second difference of nu.  base_vertex must be a pair
    of integer indices (is_index), kept as ints, and base_point three
    finite coordinates.
    """
    dom = net.domain
    if base_vertex is None:
        base_vertex = (dom.u_min, dom.v_min)
    bu, bv = base_vertex
    if not (is_index(bu) and is_index(bv)):
        raise IndexOutOfDomain(f"base vertex {base_vertex} is not a grid "
                               "vertex")
    bu, bv = int(bu), int(bv)
    dom.require_vertex(bu, bv)
    try:
        point = np.array(base_point, dtype=np.float64)
    except (TypeError, ValueError):     # not numbers, or ragged
        point = np.empty(0)
    if point.shape != (3,) or not np.isfinite(point).all():
        raise ValidationError(f"base point {base_point!r} is not three "
                              "finite coordinates")
    with np.errstate(over="ignore", invalid="ignore"):
        positions = _kernels.integrate_positions(
            net.alpha.points, net.beta.points,
            bu - dom.u_min, bv - dom.v_min, point)
    _kernels.require_finite(positions, "integrated positions")
    return AsymptoticNet(domain=dom, positions=positions,
                         base_vertex=(bu, bv), base_point=point)


def lelieuvre_u_edge(net, u_half, v):
    """Analytic edge vector nu(u,v) x nu_u(u+1/2,v)."""
    u = half_index(u_half)
    return np.array(_cross3(net.conormal(u, v), net.nu_u(u_half, v)))


def lelieuvre_v_edge(net, u, v_half):
    """Analytic edge vector -nu(u,v) x nu_v(u,v+1/2)."""
    v = half_index(v_half)
    return -np.array(_cross3(net.conormal(u, v), net.nu_v(u, v_half)))


def quad_closure_residual(net, quad):
    """Sum of the four Lelieuvre edge vectors around a quad; zero up to
    round-off because the field is of difference form."""
    u, v = quad
    net.domain.require_quad(u, v)
    return (lelieuvre_u_edge(net, u + 0.5, v)
            + lelieuvre_v_edge(net, u + 1, v + 0.5)
            - lelieuvre_u_edge(net, u + 0.5, v + 1)
            - lelieuvre_v_edge(net, u, v + 0.5))


def star_planarity_residual(f, net, vertex):
    """max_e |nu(u,v) . e| over the four star edges at an interior vertex."""
    u, v = vertex
    net.domain.require_vertex(u, v)
    edges = f.star_edge_vectors(u, v)   # raises BoundaryVertex when needed
    n = net.conormal(u, v)
    return max(abs(float(np.dot(n, e))) for e in edges.values())


def star_planarity_residual_grid(f, net):
    """Residuals at every interior vertex as an (nu-2, nv-2) array."""
    p = f.positions
    n = net.nu_grid()[1:-1, 1:-1]
    center = p[1:-1, 1:-1]
    worst = np.zeros(center.shape[:2])
    for nb in (p[2:, 1:-1], p[:-2, 1:-1], p[1:-1, 2:], p[1:-1, :-2]):
        dots = np.abs(np.einsum("ijk,ijk->ij", n, nb - center))
        worst = np.maximum(worst, dots)
    return worst


_PLANE_LABELS = ("alpha+", "alpha-", "beta+", "beta-")
# the cross pairs (alpha+-, beta+-), each with the offset from the lower-
# left vertex of its quad to the vertex whose pair it is
_CROSS_PLANES = [((_PLANE_LABELS[i], _PLANE_LABELS[j]), (i, j - 2))
                 for i in (0, 1) for j in (2, 3)]


@dataclass(frozen=True)
class GenericPositionViolation:
    vertex: tuple
    plane_a: str
    plane_b: str

    def describe(self):
        return (f"planes {self.plane_a} and {self.plane_b} coincide "
                f"at vertex {self.vertex}")


def validate_generic_position(net, tol=1e-9):
    """Check that at every vertex with all four curve neighbours the four
    planes through the line alpha(u) beta(v) and the neighbouring curve
    points are pairwise distinct.

    The planes through alpha(u +- 1) and beta(v +- 1) are span(nu, x) for
    the frame directions x = alpha'(u +- 1/2), beta'(v +- 1/2), with
    nu = alpha(u) - beta(v).  Two coincide where orient(nu, x, y) reads 0
    (_kernels.undecided): |[nu, x, y]| is not above tol >= 0 times the sum
    of the absolute values of its six products.  Only (alpha+, alpha-) and
    (beta+, beta-) are evaluated in the vertex frame
    (_kernels.frame_undecided); by column reduction each cross pair is
    Omega on one of the vertex's quads (_kernels.omega_undecided).  Rows
    that a certified bound decides are not evaluated.  Returns the list of
    violations, empty when the net is generic.
    """
    _kernels.require_tolerance(tol, "tol")
    dom = net.domain
    a, b = net.alpha.points, net.beta.points
    what = "generic-position test"
    bounds = net.omega_bounds   # first: it builds the guarded Omega grid
    out = []
    frames = _kernels.frame_undecided(a, b, tol, what)
    for planes, (i, j) in zip((_PLANE_LABELS[:2], _PLANE_LABELS[2:]), frames):
        out += [GenericPositionViolation(
            (u + dom.u_min + 1, v + dom.v_min + 1), *planes)
            for u, v in zip(i.tolist(), j.tolist())]
    i, j, _ = _kernels.omega_undecided(a, b, bounds, tol, what)
    for u, v in zip(i.tolist(), j.tolist()):
        for planes, (du, dv) in _CROSS_PLANES:
            if 0 < u + du < dom.nu - 1 and 0 < v + dv < dom.nv - 1:
                out.append(GenericPositionViolation(
                    (u + du + dom.u_min, v + dv + dom.v_min), *planes))
    out.sort(key=lambda g: (g.vertex, g.plane_a, g.plane_b))
    return out
