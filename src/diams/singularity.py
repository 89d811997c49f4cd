"""Discrete metric, singular edges/vertices and their classification.

The per-quad metric

    Omega(u+1/2, v+1/2) = [alpha(u)-beta(v), alpha'(u+1/2), beta'(v+1/2)]

changes sign across singular edges.  Every test on projected directions
(quadrant membership, polyline crossing, star sidedness) is implemented
through the single predicate

    orient(n, x, y) = sign [n, x, y]

with n = alpha(u0)-beta(v0): for any plane transversal to n, the
orientation of the projected pair (Px, Py) equals this sign, so no
projection plane is ever materialized and results cannot depend on one.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import (BoundaryVertex, DegenerateMetric, DegenerateOrientation,
                     InadmissibleVertex, IndexOutOfDomain)
from .net_core import (integrate_net, require_finite,
                       validate_generic_position)


class Configuration(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    BOUNDARY = "Boundary"
    INADMISSIBLE = "Inadmissible"


class Kind(str, Enum):
    CUSPIDAL_EDGE = "CuspidalEdge"
    SWALLOWTAIL = "Swallowtail"
    UNCLASSIFIED = "Unclassified"


class EdgeIndex(NamedTuple):
    """Grid edge keyed by axis tag and lower vertex: ("u", u, v) is the
    edge from (u, v) to (u+1, v); ("v", u, v) runs from (u, v) to (u, v+1)."""

    axis: str
    u: int
    v: int

    def endpoints(self):
        if self.axis == "u":
            return (self.u, self.v), (self.u + 1, self.v)
        return (self.u, self.v), (self.u, self.v + 1)

    def adjacent_quads(self):
        """Lower-left keys of the two quads separated by this edge."""
        if self.axis == "u":
            return (self.u, self.v - 1), (self.u, self.v)
        return (self.u - 1, self.v), (self.u, self.v)

    def direction_at(self, vertex):
        """Star direction tag ("u+", "u-", "v+", "v-") of this edge as seen
        from one of its endpoint vertices."""
        a, b = self.endpoints()
        if vertex == a:
            return self.axis + "+"
        if vertex == b:
            return self.axis + "-"
        raise IndexOutOfDomain(f"edge {self} is not incident to {vertex}")


# ---------------------------------------------------------------------------
# sign predicate
# ---------------------------------------------------------------------------

def triple_product(n, x, y):
    """Determinant of the rows (n, x, y)."""
    n0, n1, n2 = float(n[0]), float(n[1]), float(n[2])
    x0, x1, x2 = float(x[0]), float(x[1]), float(x[2])
    y0, y1, y2 = float(y[0]), float(y[1]), float(y[2])
    return (n0 * (x1 * y2 - x2 * y1)
            - n1 * (x0 * y2 - x2 * y0)
            + n2 * (x0 * y1 - x1 * y0))


def orient(n, x, y, tol=1e-9):
    """Sign of [n, x, y] with a relative dead zone.

    Returns +1, -1, or 0 when |det| <= tol times the sum of the absolute
    values of the determinant's six products (so the dead zone scales with
    the inputs and the predicate is homogeneous in each argument).
    """
    n0, n1, n2 = float(n[0]), float(n[1]), float(n[2])
    x0, x1, x2 = float(x[0]), float(x[1]), float(x[2])
    y0, y1, y2 = float(y[0]), float(y[1]), float(y[2])
    p0 = x1 * y2
    p1 = x2 * y1
    p2 = x0 * y2
    p3 = x2 * y0
    p4 = x0 * y1
    p5 = x1 * y0
    d = n0 * (p0 - p1) - n1 * (p2 - p3) + n2 * (p4 - p5)
    mag = (abs(n0) * (abs(p0) + abs(p1)) + abs(n1) * (abs(p2) + abs(p3))
           + abs(n2) * (abs(p4) + abs(p5)))
    if abs(d) <= tol * mag:
        return 0
    return 1 if d > 0.0 else -1


def _t3(v):
    """Plain float triple; keeps the predicate hot path off numpy scalars."""
    return (float(v[0]), float(v[1]), float(v[2]))


def _orient_strict(n, x, y, tol, what):
    s = orient(n, x, y, tol)
    if s == 0:
        raise DegenerateOrientation(f"zero orientation sign for {what}")
    return s


# ---------------------------------------------------------------------------
# metric field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricField:
    """Omega on every quad of a domain, stored as a grid indexed from the
    domain's lower-left quad."""

    domain: object
    values: np.ndarray
    scale: float

    def omega(self, quad):
        u, v = quad
        self.domain.require_quad(u, v)
        return float(self.values[u - self.domain.u_min, v - self.domain.v_min])

    def items(self):
        for (u, v) in self.domain.quads():
            yield (u, v), float(self.values[u - self.domain.u_min,
                                            v - self.domain.v_min])


def omega_quad(net, quad):
    """[alpha(u)-beta(v), alpha'(u+1/2), beta'(v+1/2)] for the quad keyed
    by its lower-left vertex (u, v)."""
    u, v = quad
    net.domain.require_quad(u, v)
    i = u - net.alpha.offset
    j = v - net.beta.offset
    a0, a1 = net.alpha.points[i:i + 2].tolist()
    b0, b1 = net.beta.points[j:j + 2].tolist()
    return triple_product((a0[0] - b0[0], a0[1] - b0[1], a0[2] - b0[2]),
                          (a1[0] - a0[0], a1[1] - a0[1], a1[2] - a0[2]),
                          (b1[0] - b0[0], b1[1] - b0[1], b1[2] - b0[2]))


def metric_field(net, eps_degenerate=1e-9):
    """Evaluate Omega on all quads; abort when any quad is too close to
    degenerate for sign tests to mean anything."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = _kernels.omega_grid(net.alpha.points, net.beta.points)
    require_finite(values, "Omega")
    try:
        floor = eps_degenerate * net.scale ** 3
    except OverflowError:
        floor = math.inf
    require_finite(floor, "degenerate-metric floor eps * scale^3")
    bad = np.abs(values) <= floor
    if bad.any():
        i, j = np.argwhere(bad)[0]
        quad = (int(i) + net.domain.u_min, int(j) + net.domain.v_min)
        err = DegenerateMetric(
            f"|Omega| = {abs(values[i, j]):.3e} <= {floor:.3e} at quad {quad}")
        err.quad = quad
        err.value = float(values[i, j])
        raise err
    return MetricField(domain=net.domain, values=values, scale=net.scale)


def m_from_positions(f, quad):
    """[f_u, f_v, f_uv] recomputed from net positions; equals Omega^2."""
    u, v = quad
    f.domain.require_quad(u, v)
    return triple_product(f.f_u(u + 0.5, v), f.f_v(u, v + 0.5),
                          f.f_uv(quad))


# ---------------------------------------------------------------------------
# singular edges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularEdge:
    edge: EdgeIndex
    omega_pair: tuple

    def __post_init__(self):
        a, b = self.omega_pair
        if not (a < 0.0 < b or b < 0.0 < a):
            raise ValueError(
                f"edge {self.edge}: adjacent quad metrics {self.omega_pair} "
                "do not have opposite signs")


def singular_edges(metric):
    """Interior edges whose two adjacent quads carry opposite-sign Omega.

    A v-edge (u, v+1/2) compares the quads on either side in u; a u-edge
    (u+1/2, v) compares across v.
    """
    w = metric.values
    dom = metric.domain
    # opposite signs by comparison: the product lo * hi under- and overflows
    neg, pos = w < 0.0, w > 0.0
    out = set()
    # v-edges at interior u compare across u, u-edges at interior v across v
    for axis, lo, hi, du, dv in (("v", np.s_[:-1, :], np.s_[1:, :], 1, 0),
                                 ("u", np.s_[:, :-1], np.s_[:, 1:], 0, 1)):
        flip = (neg[lo] & pos[hi]) | (pos[lo] & neg[hi])
        ii, jj = np.nonzero(flip)
        for u, v, a, b in zip((ii + (du + dom.u_min)).tolist(),
                              (jj + (dv + dom.v_min)).tolist(),
                              w[lo][flip].tolist(), w[hi][flip].tolist()):
            out.add(SingularEdge(EdgeIndex(axis, u, v), (a, b)))
    return out


def halfplane_edge_test(net, edge, tol=1e-9):
    """Orientation-disagreement test for one interior edge.

    For a v-edge (u0, v0+1/2) the two triple products
    [nu0, alpha'(u0 +- 1/2), beta'(v0+1/2)] with nu0 = alpha(u0)-beta(v0)
    are compared; disagreement of their signs is equivalent to the edge
    being singular, because column reduction rewrites both adjacent quad
    metrics over the common co-normal nu0.  Analogously for u-edges with
    the roles of the curves exchanged.
    """
    u0, v0 = edge.u, edge.v
    n0 = net.conormal(u0, v0)
    if edge.axis == "v":
        sp = _orient_strict(n0, net.alpha.derivative(u0 + 0.5),
                            net.beta.derivative(v0 + 0.5), tol,
                            f"edge {edge} (+ side)")
        sm = _orient_strict(n0, net.alpha.derivative(u0 - 0.5),
                            net.beta.derivative(v0 + 0.5), tol,
                            f"edge {edge} (- side)")
    else:
        sp = _orient_strict(n0, net.alpha.derivative(u0 + 0.5),
                            net.beta.derivative(v0 + 0.5), tol,
                            f"edge {edge} (+ side)")
        sm = _orient_strict(n0, net.alpha.derivative(u0 + 0.5),
                            net.beta.derivative(v0 - 0.5), tol,
                            f"edge {edge} (- side)")
    return sp != sm


def halfplane_grid(net, tol=1e-9):
    """Vectorized halfplane_edge_test over all interior edges.

    Returns (v_result, u_result, v_zero, u_zero): boolean grids where
    v_result[i, j] is the test for the v-edge with base vertex
    (u_min+1+i, v_min+j) and u_result[i, j] for the u-edge with base
    (u_min+i, v_min+1+j); the zero masks mark edges where a sign fell in
    the predicate's dead zone.
    """
    a = net.alpha.points
    b = net.beta.points
    da = a[1:] - a[:-1]
    db = b[1:] - b[:-1]

    def signed(n, x, y):
        # orient's determinant and dead zone, evaluated in its order
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
        n0, n1, n2 = n[..., 0], n[..., 1], n[..., 2]
        p0 = x1 * y2
        p1 = x2 * y1
        p2 = x0 * y2
        p3 = x2 * y0
        p4 = x0 * y1
        p5 = x1 * y0
        d = n0 * (p0 - p1) - n1 * (p2 - p3) + n2 * (p4 - p5)
        m = (np.abs(n0) * (np.abs(p0) + np.abs(p1))
             + np.abs(n1) * (np.abs(p2) + np.abs(p3))
             + np.abs(n2) * (np.abs(p4) + np.abs(p5)))
        zero = np.abs(d) <= tol * m
        return np.sign(d), zero

    # v-edges: bases (u0, v0) with u0 interior, v0 <= v_max-1
    n0 = a[1:-1, None, :] - b[None, :-1, :]
    sp, zp = signed(n0, da[1:, None, :], db[None, :, :])
    sm, zm = signed(n0, da[:-1, None, :], db[None, :, :])
    v_result = sp != sm
    v_zero = zp | zm
    # u-edges: bases (u0, v0) with v0 interior, u0 <= u_max-1
    n0 = a[:-1, None, :] - b[None, 1:-1, :]
    sp, zp = signed(n0, da[:, None, :], db[None, 1:, :])
    sm, zm = signed(n0, da[:, None, :], db[None, :-1, :])
    u_result = sp != sm
    u_zero = zp | zm
    return v_result, u_result, v_zero, u_zero


# ---------------------------------------------------------------------------
# singular vertices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularVertex:
    vertex: tuple
    incident_singular_edges: frozenset
    configuration: Configuration = None
    kind: Kind = Kind.UNCLASSIFIED
    diagnostics: dict = field(default_factory=dict)


def singular_vertices(edges, domain):
    """One record per vertex incident to at least one singular edge.

    Interior vertices with other than two incident singular edges are
    flagged Inadmissible immediately; everything else is left for
    classify_vertex.
    """
    incident = defaultdict(set)
    for se in edges:
        for vert in se.edge.endpoints():
            if domain.contains_vertex(*vert):
                incident[vert].add(se.edge)
    out = []
    for vert in sorted(incident):
        config = None
        if domain.is_interior_vertex(*vert) and len(incident[vert]) != 2:
            config = Configuration.INADMISSIBLE
        out.append(SingularVertex(vertex=vert,
                                  incident_singular_edges=frozenset(incident[vert]),
                                  configuration=config))
    return out


def _quadrant_signature(n0, line_a, line_b, w, tol, what):
    """Pair of orientation signs of w against the two quadrant lines.

    Scalar reference for the signatures that classification reads from
    the vertex sign table."""
    return (_orient_strict(n0, line_a, w, tol, f"{what} vs first line"),
            _orient_strict(n0, line_b, w, tol, f"{what} vs second line"))


def _vertex_frame(net, u0, v0):
    """Co-normal and the four incident curve derivatives as float triples:
    (nu, alpha'+, alpha'-, beta'+, beta'-) at an interior vertex."""
    alpha, beta = net.alpha, net.beta
    i = u0 - alpha.offset
    j = v0 - beta.offset
    if not (0 < i < alpha.points.shape[0] - 1
            and 0 < j < beta.points.shape[0] - 1):
        raise IndexOutOfDomain(
            f"vertex ({u0}, {v0}) lacks a curve neighbour on some side")
    am, a0, ap = alpha.points[i - 1:i + 2].tolist()
    bm, b0, bp = beta.points[j - 1:j + 2].tolist()
    return ((a0[0] - b0[0], a0[1] - b0[1], a0[2] - b0[2]),
            (ap[0] - a0[0], ap[1] - a0[1], ap[2] - a0[2]),
            (a0[0] - am[0], a0[1] - am[1], a0[2] - am[2]),
            (bp[0] - b0[0], bp[1] - b0[1], bp[2] - b0[2]),
            (b0[0] - bm[0], b0[1] - bm[1], b0[2] - bm[2]))


def _cross_signs(n0, a_plus, a_minus, b_plus, b_minus, tol):
    """orient(n0, a, b) for a in (alpha'+, alpha'-), b in (beta'+, beta'-),
    in the order ++, +-, -+, --.  Zeros are kept; every other orientation
    among these four directions (swapped or negated arguments) is one of
    these values up to an exact sign flip."""
    return (orient(n0, a_plus, b_plus, tol),
            orient(n0, a_plus, b_minus, tol),
            orient(n0, a_minus, b_plus, tol),
            orient(n0, a_minus, b_minus, tol))


_SIG_NAMES = {"v": ("beta'+", "-beta'-"), "u": ("alpha'+", "-alpha'-")}


def _axis_signatures(cross, axis, where):
    """(sig_out, sig_in) quadrant signatures for a singular edge of `axis`.

    For a v-edge these are the signatures of beta'+ and -beta'- against
    the lines alpha'+, alpha'-; for a u-edge those of alpha'+ and -alpha'-
    against beta'+, beta'-.  Equal to _quadrant_signature on the frame,
    read from the cross signs and raising on the same first zero."""
    cpp, cpm, cmp_, cmm = cross
    if axis == "v":
        sigs = ((cpp, cmp_), (-cpm, -cmm))
    else:
        sigs = ((-cpp, -cpm), (cmp_, cmm))
    if 0 in cross:
        k = (sigs[0] + sigs[1]).index(0)
        name = _SIG_NAMES[axis][k // 2]
        line = ("first", "second")[k % 2]
        raise DegenerateOrientation(
            f"zero orientation sign for {name} at {where} vs {line} line")
    return sigs


def _admissible_signatures(cross, axes, where):
    """Quadrant signatures per tested axis ("v" first), or None when the
    incoming and outgoing directions share a quadrant (forbidden)."""
    sigs = {}
    for axis in ("v", "u"):
        if axis in axes:
            sig_out, sig_in = _axis_signatures(cross, axis, where)
            if sig_in == sig_out:
                return None
            sigs[axis] = (sig_out, sig_in)
    return sigs


def admissibility_check(net, vertex, tol=1e-9):
    """Reject the forbidden quadrant configuration at a singular vertex.

    With a singular v-edge present, the projected directions towards
    beta(v0-1) and beta(v0+1), namely -beta'(v0-1/2) and +beta'(v0+1/2),
    must not share a quadrant of the lines spanned by alpha'(u0 +- 1/2);
    with a singular u-edge the roles of the curves are exchanged.  Both
    tests are applied when edges of both axes are present.
    """
    u0, v0 = vertex.vertex
    if not net.domain.is_interior_vertex(u0, v0):
        raise BoundaryVertex(f"vertex ({u0}, {v0}) is not interior")
    cross = _cross_signs(*_vertex_frame(net, u0, v0), tol)
    axes = {e.axis for e in vertex.incident_singular_edges}
    return _admissible_signatures(cross, axes, vertex.vertex) is not None


# ---------------------------------------------------------------------------
# crossing and sidedness tests
# ---------------------------------------------------------------------------

def _side_of_wedge(s, s_ab, a, b, x, what):
    """Locate direction x relative to the wedge of rays (a, b).

    Returns 1 for the open sector swept counterclockwise from a to b,
    2 for the complementary open sector, 0 when x lies on a wedge ray.
    s is the bound sign predicate, s_ab = s(a, b) must be nonzero.
    """
    s1 = s(a, x)
    s2 = s(x, b)
    if s1 == 0:
        if s2 == 0:
            raise DegenerateOrientation(f"{what}: collinear wedge")
        if s2 == s_ab:          # x points along a
            return 0
        return 2 if s_ab > 0 else 1
    if s2 == 0:
        if s1 == s_ab:          # x points along b
            return 0
        return 2 if s_ab > 0 else 1
    if s_ab > 0:
        return 1 if (s1 > 0 and s2 > 0) else 2
    return 2 if (s1 < 0 and s2 < 0) else 1


def _rays_cross(s, p_in, p_out, q_in, q_out):
    """Branch logic of ray_crossing_test over a bound sign predicate s."""
    s_cd = s(q_in, q_out)
    if s_cd == 0:
        ref = p_in if s(q_in, p_in) != 0 else (
            p_out if s(q_in, p_out) != 0 else None)
        if ref is None:
            raise DegenerateOrientation("all four rays are collinear")
        if s(q_in, ref) == s(q_out, ref):
            return False                    # q doubles back on one ray
        sa = s(q_in, p_in)
        sb = s(q_in, p_out)
        if sa == 0 or sb == 0:
            raise DegenerateOrientation("p ray lies on the q line")
        return sa != sb                     # q is a straight line
    s_ab = s(p_in, p_out)
    if s_ab == 0:
        ref = q_in if s(p_in, q_in) != 0 else (
            q_out if s(p_in, q_out) != 0 else None)
        if ref is None:
            raise DegenerateOrientation("all four rays are collinear")
        if s(p_in, ref) == s(p_out, ref):
            return False                    # p doubles back on one ray
        sc = s(p_in, q_in)
        sd = s(p_in, q_out)
        if sc == 0 or sd == 0:
            raise DegenerateOrientation("q ray lies on the p line")
        return sc != sd
    side_in = _side_of_wedge(s, s_ab, p_in, p_out, q_in, "incoming q ray")
    side_out = _side_of_wedge(s, s_ab, p_in, p_out, q_out, "outgoing q ray")
    if side_in == 0 or side_out == 0:
        raise DegenerateOrientation("q ray lies on a p ray")
    return side_in != side_out


def ray_crossing_test(n, p_in, p_out, q_in, q_out, tol=1e-9):
    """Do two polylines through the origin cross there?

    Each polyline is the wedge of two rays (incoming reversed, outgoing)
    in the plane transversal to n; the polylines cross exactly when the
    q rays fall in opposite open sectors of the p wedge, i.e. when the
    four rays interleave in cyclic order.  Everything is decided from
    orient(n, ., .) signs.  A polyline degenerated to a single repeated
    ray cannot cross anything; rays lying exactly on the other wedge make
    the outcome ill-defined and raise DegenerateOrientation.
    """
    def s(x, y):
        return orient(n, x, y, tol)

    return _rays_cross(s, p_in, p_out, q_in, q_out)


_STAR_TAGS = ("u+", "u-", "v+", "v-")      # sorted order
# edge pattern (two sorted tags) -> indices of the singular and the plain
# star edges, each in sorted tag order
_STAR_SPLIT = {
    _STAR_TAGS[i] + _STAR_TAGS[j]: ((i, j), tuple(k for k in range(4)
                                                  if k not in (i, j)))
    for i in range(4) for j in range(i + 1, 4)}


def _star_sides_agree(f, u0, v0, n0, edge_pattern, tol):
    """Sidedness test on the integrated star at an interior vertex, with
    its four edge vectors read straight from f.positions; edge_pattern
    joins the sorted direction tags of the two singular star edges."""
    if not f.domain.is_interior_vertex(u0, v0):
        raise BoundaryVertex(f"vertex ({u0}, {v0}) is not interior")
    i = u0 - f.domain.u_min
    j = v0 - f.domain.v_min
    (_, pum, _), (pvm, p, pvp), (_, pup, _) = \
        f.positions[i - 1:i + 2, j - 1:j + 2].tolist()
    stars = ((pup[0] - p[0], pup[1] - p[1], pup[2] - p[2]),    # u+
             (pum[0] - p[0], pum[1] - p[1], pum[2] - p[2]),    # u-
             (pvp[0] - p[0], pvp[1] - p[1], pvp[2] - p[2]),    # v+
             (pvm[0] - p[0], pvm[1] - p[1], pvm[2] - p[2]))    # v-
    (i0, i1), plain = _STAR_SPLIT[edge_pattern]
    for k in plain:
        s1 = orient(n0, stars[k], stars[i0], tol)
        s2 = orient(n0, stars[k], stars[i1], tol)
        if s1 == 0 or s2 == 0:
            raise DegenerateOrientation(
                f"zero orientation sign for sidedness at ({u0}, {v0})")
        if s1 != s2:
            return False
    return True


def star_sidedness_test(f, net, vertex, tol=1e-9):
    """Are both singular star edges on the same side of each line spanned
    by the two non-singular star edges?

    All four star edge vectors lie in the plane normal to nu(u0, v0), so
    sides are orientation signs against that normal.  True characterizes
    the swallowtail star shape.
    """
    u0, v0 = vertex.vertex
    if not f.domain.is_interior_vertex(u0, v0):
        raise BoundaryVertex(f"vertex ({u0}, {v0}) is not interior")
    if len(vertex.incident_singular_edges) != 2:
        raise InadmissibleVertex(
            f"vertex ({u0}, {v0}) has "
            f"{len(vertex.incident_singular_edges)} singular edges")
    pattern = "".join(sorted(e.direction_at((u0, v0))
                             for e in vertex.incident_singular_edges))
    n0 = _t3(net.conormal(u0, v0))
    return _star_sides_agree(f, u0, v0, n0, pattern, tol)


# ---------------------------------------------------------------------------
# vertex classification
# ---------------------------------------------------------------------------

def _edge_contrast(net, edge, singular_edge_set):
    """|Omega difference| across a singular edge of the set, else 0.0."""
    pair = tuple(omega_quad(net, q) for q in edge.adjacent_quads())
    try:
        se = SingularEdge(edge, pair)
    except ValueError:
        return 0.0
    return abs(pair[0] - pair[1]) if se in singular_edge_set else 0.0


def _pick_base_edge(net, vertex, singular_edge_set=None):
    """Singular v-edge when present, otherwise the u-edge with the larger
    metric contrast; ties broken by edge key for determinism.  The A/B/C
    outcome must not depend on this choice (property-tested)."""
    edges = sorted(vertex.incident_singular_edges)
    v_edges = [e for e in edges if e.axis == "v"]
    if v_edges:
        return v_edges[0]
    if singular_edge_set:
        return max(edges, key=lambda e: (
            _edge_contrast(net, e, singular_edge_set), tuple(e)))
    return edges[0]


def _sig_str(sig):
    return "".join("+" if s > 0 else "-" for s in sig)


def classify_vertex(net, f, vertex, tol=1e-9, singular_edge_set=None):
    """Fill configuration (A, B, C) and kind for one singular vertex.

    Configuration: A when the projected direction entering the vertex
    along beta (resp. alpha for a u-base edge) is antipodal to the leaving
    one in the quadrant decomposition; otherwise B when the projected
    alpha and beta polylines cross at the origin, and C when they do not.
    Kind: a swallowtail exactly when the projected alpha polyline crosses
    the origin-reflected beta polyline.

    Every orientation among the frame directions is read from one table of
    six signs; since orient flips exactly under swapping or negating an
    argument, this gives the same signs as evaluating each test on its own.
    singular_edge_set, when given, holds the net's singular edges; it
    decides the base edge between two u-edges by metric contrast.
    """
    u0, v0 = vertex.vertex
    dom = net.domain
    if not dom.is_interior_vertex(u0, v0):
        return replace(vertex, configuration=Configuration.BOUNDARY,
                       kind=Kind.UNCLASSIFIED)
    if len(vertex.incident_singular_edges) != 2:
        raise InadmissibleVertex(
            f"vertex ({u0}, {v0}) has "
            f"{len(vertex.incident_singular_edges)} incident singular edges")
    frame = _vertex_frame(net, u0, v0)
    n0, a_plus, a_minus, b_plus, b_minus = frame
    cross = _cross_signs(*frame, tol)
    axes = {e.axis for e in vertex.incident_singular_edges}
    sigs = _admissible_signatures(cross, axes, vertex.vertex)
    if sigs is None:
        raise InadmissibleVertex(
            f"vertex ({u0}, {v0}) is in the forbidden configuration")

    base = _pick_base_edge(net, vertex, singular_edge_set)
    sig_out, sig_in = sigs[base.axis]
    antipodal = sig_in == (-sig_out[0], -sig_out[1])

    cpp, cpm, cmp_, cmm = cross
    saa = orient(n0, a_plus, a_minus, tol)
    sbb = orient(n0, b_plus, b_minus, tol)
    table = ((0, saa, cpp, cpm),
             (-saa, 0, cmp_, cmm),
             (-cpp, -cmp_, 0, sbb),
             (-cpm, -cmm, -sbb, 0))

    def s(x, y):
        return x[1] * y[1] * table[x[0]][y[0]]

    # rays as (frame direction, sign) over alpha'+, alpha'-, beta'+, beta'-
    # numbered 0..3, so -alpha'- is (1, -1)
    crossing_ab = _rays_cross(s, (1, -1), (0, 1), (3, -1), (2, 1))
    crossing_sw = _rays_cross(s, (1, -1), (0, 1), (3, 1), (2, -1))

    if antipodal:
        config = Configuration.A
    elif crossing_ab:
        config = Configuration.B
    else:
        config = Configuration.C
    kind = Kind.SWALLOWTAIL if crossing_sw else Kind.CUSPIDAL_EDGE

    pattern = "".join(sorted(e.direction_at((u0, v0))
                             for e in vertex.incident_singular_edges))
    diagnostics = {
        "base_edge": tuple(base),
        "edge_pattern": pattern,
        "sig_out": _sig_str(sig_out),
        "sig_in": _sig_str(sig_in),
        "crossing_ab": crossing_ab,
        "crossing_swallowtail": crossing_sw,
        "star_sidedness": _star_sides_agree(f, u0, v0, n0, pattern, tol),
    }
    return SingularVertex(vertex.vertex, vertex.incident_singular_edges,
                          configuration=config, kind=kind,
                          diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# singular polylines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularPolyline:
    vertices: tuple
    edges: tuple
    closed: bool


def _canonical_open(verts, edges):
    if verts[0] > verts[-1]:
        verts = verts[::-1]
        edges = edges[::-1]
    return SingularPolyline(tuple(verts), tuple(edges), closed=False)


def _canonical_loop(verts, edges):
    # verts has the start repeated at the end; rotate so the minimum vertex
    # leads and the smaller neighbour follows.
    cyc_v = verts[:-1]
    k = cyc_v.index(min(cyc_v))
    cyc_v = cyc_v[k:] + cyc_v[:k]
    cyc_e = edges[k:] + edges[:k]
    if len(cyc_v) > 2 and cyc_v[-1] < cyc_v[1]:
        cyc_v = [cyc_v[0]] + cyc_v[1:][::-1]
        cyc_e = cyc_e[::-1]
    return SingularPolyline(tuple(cyc_v + [cyc_v[0]]), tuple(cyc_e),
                            closed=True)


def extract_polylines(vertices, edges, domain):
    """Partition the singular edges into maximal chains.

    Interior vertices must carry exactly two singular edges (and none may
    be flagged inadmissible); chains therefore end only at the domain
    boundary, or close up into loops.
    """
    for sv in vertices:
        if sv.configuration == Configuration.INADMISSIBLE:
            raise InadmissibleVertex(
                f"vertex {sv.vertex} is inadmissible; no polyline structure")
    incident = defaultdict(list)
    for se in edges:
        for vert in se.edge.endpoints():
            incident[vert].append(se.edge)
    for vert, inc in incident.items():
        if domain.is_interior_vertex(*vert) and len(inc) != 2:
            raise InadmissibleVertex(
                f"interior vertex {vert} has {len(inc)} singular edges")
    for inc in incident.values():
        inc.sort()
    visited = set()

    def walk(start):
        verts = [start]
        chain = []
        current = start
        while True:
            nxt = [e for e in incident[current] if e not in visited]
            if not nxt:
                break
            e = nxt[0]
            visited.add(e)
            chain.append(e)
            a, b = e.endpoints()
            current = b if current == a else a
            verts.append(current)
            if current == start:
                break
        return verts, chain

    chains = []
    for vert in sorted(v for v, inc in incident.items() if len(inc) == 1):
        if all(e in visited for e in incident[vert]):
            continue
        verts, chain = walk(vert)
        chains.append(_canonical_open(verts, chain))
    remaining = sorted({e.edge for e in edges} - visited)
    while remaining:
        start = min(remaining[0].endpoints())
        verts, chain = walk(start)
        if not chain:
            break
        chains.append(_canonical_loop(verts, chain))
        remaining = sorted({e.edge for e in edges} - visited)
    chains.sort(key=lambda c: c.vertices)
    return chains


# ---------------------------------------------------------------------------
# whole-net orchestration
# ---------------------------------------------------------------------------

@dataclass
class NetAnalysis:
    net: object
    f: object
    metric: MetricField
    edges: list
    vertices: list
    polylines: list
    generic_violations: list
    admissibility_violations: list

    @property
    def clean(self):
        return not (self.generic_violations or self.admissibility_violations)


def analyze_net(net, tol=1e-9, eps_degenerate=1e-9, base_vertex=None):
    """Run the full singularity pipeline on one co-normal net."""
    generic = validate_generic_position(net, tol)
    metric = metric_field(net, eps_degenerate)
    edges = singular_edges(metric)
    verts = singular_vertices(edges, net.domain)
    f = integrate_net(net, base_vertex=base_vertex)
    admissibility = []
    classified = []
    for sv in verts:
        if sv.configuration == Configuration.INADMISSIBLE:
            admissibility.append(
                (sv.vertex, f"{len(sv.incident_singular_edges)} incident "
                            "singular edges at an interior vertex"))
            classified.append(sv)
            continue
        if not net.domain.is_interior_vertex(*sv.vertex):
            classified.append(replace(sv, configuration=Configuration.BOUNDARY,
                                      kind=Kind.UNCLASSIFIED))
            continue
        try:
            classified.append(classify_vertex(net, f, sv, tol,
                                              singular_edge_set=edges))
        except InadmissibleVertex:
            admissibility.append((sv.vertex, "forbidden quadrant configuration"))
            classified.append(replace(
                sv, configuration=Configuration.INADMISSIBLE,
                kind=Kind.UNCLASSIFIED))
    if any(sv.configuration == Configuration.INADMISSIBLE for sv in classified):
        polylines = []
    else:
        polylines = extract_polylines(classified, edges, net.domain)
    return NetAnalysis(net=net, f=f, metric=metric,
                       edges=sorted(edges, key=lambda se: tuple(se.edge)),
                       vertices=classified, polylines=polylines,
                       generic_violations=generic,
                       admissibility_violations=admissibility)
