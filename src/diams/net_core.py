"""Curves, grids, the co-normal field and discrete Lelieuvre integration.

A pair of polygonal space curves alpha(u), beta(v) defines the co-normal
field nu(u,v) = alpha(u) - beta(v) on the integer grid.  Integrating the
discrete Lelieuvre equations

    f_u(u+1/2, v) = nu(u,v) x nu_u(u+1/2, v)
    f_v(u, v+1/2) = -nu(u,v) x nu_v(u, v+1/2)

gives an asymptotic net whose vertex stars are planar with normal nu.
Because nu is a difference of one-variable curves, nu_uv = 0 identically,
which makes the integration path independent.
"""

from dataclasses import dataclass, field

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


def _norm3(x):
    """Euclidean norm, summed in the order of np.linalg.norm."""
    return np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])


def require_finite(values, what):
    """Raise ValidationError unless every entry of values is finite.

    Finite curves can give overflowing derived quantities: a product of k
    coordinates overflows once the coordinate scale passes about
    2^(1024/k).  Stages compute such quantities under np.errstate and
    check them here, so the net ends in a named error instead of inf/nan
    results and numpy warnings.
    """
    if not np.isfinite(values).all():
        raise ValidationError(f"{what}: not finite (the net overflows at "
                              "this coordinate scale)")


def half_index(x):
    """Validate a half-integer index k+1/2 and return the integer k."""
    k2 = 2.0 * float(x)
    if k2 != round(k2) or round(k2) % 2 == 0:
        raise IndexOutOfDomain(f"expected a half-integer index, got {x}")
    return (int(round(k2)) - 1) // 2


@dataclass(frozen=True)
class PolyCurve:
    """Integer-indexed polygonal line in R^3.

    Point i is ``points[i - offset]``; indices run over
    offset, offset+1, ..., offset+len(points)-1.
    """

    points: np.ndarray
    offset: int = 0

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValidationError("curve points must form an (n, 3) array")
        if pts.shape[0] < 3:
            raise ValidationError(
                f"curve needs at least 3 points, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            bad = int(np.argwhere(~np.isfinite(pts).all(axis=1))[0, 0])
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

    def vertices(self):
        for u in range(self.u_min, self.u_max + 1):
            for v in range(self.v_min, self.v_max + 1):
                yield (u, v)

    def quads(self):
        for u in range(self.u_min, self.u_max):
            for v in range(self.v_min, self.v_max):
                yield (u, v)


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
    nu_eps: float = 1e-12

    def __post_init__(self):
        dom = GridDomain(self.alpha.index_min, self.alpha.index_max,
                         self.beta.index_min, self.beta.index_max)
        object.__setattr__(self, "domain", dom)
        scale = characteristic_scale(self.alpha.points, self.beta.points)
        object.__setattr__(self, "scale", scale)
        # |nu| is taken of nu scaled by 2^-e, where scale = m * 2^e: the
        # scaling is exact, and the squares neither overflow nor underflow
        # anywhere near the threshold nu_eps * m
        mantissa, exponent = np.frexp(scale)
        norms = np.sqrt((np.ldexp(self.nu_grid(), -exponent) ** 2).sum(axis=2))
        if norms.min() <= self.nu_eps * mantissa:
            i, j = np.unravel_index(int(np.argmin(norms)), norms.shape)
            raise ValidationError(
                "curves intersect near vertex "
                f"({i + dom.u_min}, {j + dom.v_min}): "
                f"|nu| = {np.ldexp(norms[i, j], exponent):.3e}")

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
    vanishing mixed second difference of nu.
    """
    dom = net.domain
    if base_vertex is None:
        base_vertex = (dom.u_min, dom.v_min)
    bu, bv = base_vertex
    dom.require_vertex(bu, bv)
    with np.errstate(over="ignore", invalid="ignore"):
        positions = _kernels.integrate_positions(
            net.alpha.points, net.beta.points,
            bu - dom.u_min, bv - dom.v_min,
            np.asarray(base_point, dtype=np.float64))
    require_finite(positions, "integrated positions")
    return AsymptoticNet(domain=dom, positions=positions,
                         base_vertex=(bu, bv),
                         base_point=np.asarray(base_point, dtype=np.float64))


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

    Two planes count as coincident when their normals are parallel within
    tol (relative to the normal magnitudes).  Returns the list of
    violations; an empty list means the net is in generic position.
    """
    a = net.alpha.points
    b = net.beta.points
    dom = net.domain
    if dom.nu < 3 or dom.nv < 3:
        return []
    # vectors as [x, y, z] component arrays over the (U, V) vertices with
    # both neighbours on each curve; the four spans stack on a leading axis
    a = a.T
    b = b.T
    au = a[:, 1:-1, None]                         # alpha(u)
    d = b[:, None, 1:-1] - au                     # beta(v) - alpha(u)
    spans = np.empty((3, 4) + d.shape[1:])
    spans[:, 0] = (a[:, 2:] - a[:, 1:-1])[:, :, None]    # alpha(u+1) - alpha(u)
    spans[:, 1] = (a[:, :-2] - a[:, 1:-1])[:, :, None]   # alpha(u-1) - alpha(u)
    spans[:, 2] = b[:, None, 2:] - au                    # beta(v+1) - alpha(u)
    spans[:, 3] = b[:, None, :-2] - au                   # beta(v-1) - alpha(u)
    # both sides of the test grow like the 4th power of the coordinates
    # (the squares inside the norms like the 8th) and must come out finite
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        normals = _cross3(d[:, None], spans)      # 3 x (4, U, V)
        mags = _norm3(normals)
        for i in range(4):
            for j in range(i + 1, 4):
                lhs = _norm3(_cross3([c[i] for c in normals],
                                     [c[j] for c in normals]))
                bound = tol * mags[i] * mags[j]
                require_finite(lhs, "generic-position test")
                require_finite(bound, "generic-position test")
                for ui, vi in np.argwhere(lhs <= bound).tolist():
                    out.append(GenericPositionViolation(
                        vertex=(ui + dom.u_min + 1, vi + dom.v_min + 1),
                        plane_a=_PLANE_LABELS[i], plane_b=_PLANE_LABELS[j]))
    out.sort(key=lambda g: (g.vertex, g.plane_a, g.plane_b))
    return out
