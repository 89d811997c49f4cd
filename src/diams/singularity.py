"""Discrete metric, singular edges/vertices and their classification.

The per-quad metric

    Omega(u+1/2, v+1/2) = [alpha(u)-beta(v), alpha'(u+1/2), beta'(v+1/2)]

changes sign across singular edges.  The singular edges, each vertex's
incident edges and the singular polylines are read from Omega's sign
flips in one array pass (``SingularSet``).  Every test on projected
directions (quadrant membership, polyline crossing, star sidedness) is
implemented through the single predicate

    orient(n, x, y) = sign [n, x, y]

with n = alpha(u0)-beta(v0): for any plane transversal to n, the
orientation of the projected pair (Px, Py) equals this sign, so no
projection plane is ever materialized and results cannot depend on one.
The four cross signs [n, alpha'+-, beta'+-] at a vertex are Omega's signs
on its four quads, read from the grid that ``ConormalNet.omega_terms``
computes once per net.  The metric field and the four cross pairs of the
generic-position check read that grid too, so the signs that classify a
vertex are the ones that made its edges singular.  The two others,
alpha'+ against alpha'- and beta'+ against beta'-, are evaluated in the
vertex frame, once per net as well (``ConormalNet.frame_terms``), and
generic position reads the same grids.
``_kernels.orient_terms`` holds orient's determinant and dead zone once,
so Omega is judged by the same relative dead zone as every other sign.
Tolerances must be >= 0: a negative one leaves no dead zone.

A two-edge vertex's configuration, kind and sign diagnostics depend only
on these six signs, so they are read from a 64-entry table
(``_SIGN_TABLE``) that the scalar branch logic (``_sign_outcome``) fills
at import.  One row rule, ``_decide_row``, classifies a vertex from its
six signs and four star-sidedness signs.  ``analyze_net`` gathers the
signs of all two-edge vertices from the two grids in one batched pass
that hands every row with an undecided sign to the rule;
``classify_vertex`` reads one vertex's signs from the same grids.  Star
sidedness is evaluated on its own, from the star edges that the
Lelieuvre equations give, so no positions are integrated: only the
mesh needs them (``integrate_net``).
"""

import functools
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import (BoundaryVertex, DegenerateMetric, DegenerateOrientation,
                     InadmissibleVertex, IndexOutOfDomain)
from .net_core import _cross3, require_finite, validate_generic_position


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
    return _kernels.det3(_t3(n), _t3(x), _t3(y))


def orient(n, x, y, tol=1e-9):
    """Sign of [n, x, y] with a relative dead zone.

    Returns +1, -1, or 0 when |det| <= tol times the sum of the absolute
    values of the determinant's six products (so the dead zone scales with
    the inputs and the predicate is homogeneous in each argument).  A
    product that overflows raises ValidationError instead of reading as 0.
    """
    return _float_orient(_t3(n), _t3(x), _t3(y), tol)


def _float_orient(n, x, y, tol):
    """orient on float triples."""
    return _decided_sign(*_kernels.orient_terms(*n, *x, *y), tol)


def _decided_sign(d, mag, tol):
    """orient's sign of one (det, magnitude) pair from orient_terms."""
    if abs(d) > tol * mag:
        return 1 if d > 0.0 else -1
    require_finite(mag, "orientation test")
    return 0


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

    def omega(self, quad):
        u, v = quad
        self.domain.require_quad(u, v)
        return float(self.values[u - self.domain.u_min, v - self.domain.v_min])

    def items(self):
        for quad in self.domain.quads():
            yield quad, self.omega(quad)


def omega_quad(net, quad):
    """[alpha(u)-beta(v), alpha'(u+1/2), beta'(v+1/2)] for the quad keyed
    by its lower-left vertex (u, v)."""
    u, v = quad
    net.domain.require_quad(u, v)
    i = u - net.alpha.offset
    j = v - net.beta.offset
    a0, a1 = net.alpha.points[i:i + 2].tolist()
    b0, b1 = net.beta.points[j:j + 2].tolist()
    return _kernels.det3((a0[0] - b0[0], a0[1] - b0[1], a0[2] - b0[2]),
                         (a1[0] - a0[0], a1[1] - a0[1], a1[2] - a0[2]),
                         (b1[0] - b0[0], b1[1] - b0[1], b1[2] - b0[2]))


def metric_field(net, eps_degenerate=1e-9):
    """Omega on all quads, read from the net's one read-only grid
    (net.omega_terms); abort when any quad's Omega falls in orient's dead
    zone at eps_degenerate >= 0, where its sign means nothing."""
    values, mag = net.omega_terms
    # a dead zone eps * mag that overflows to inf holds every Omega
    with np.errstate(over="ignore"):
        floor = eps_degenerate * mag
    bad = ~(np.abs(values) > floor)
    if bad.any():
        # an Omega or a magnitude overflowing to inf or nan reads undecided;
        # the magnitude overflows whenever Omega does
        require_finite(mag, "Omega")
        i, j = np.argwhere(bad)[0]
        quad = (int(i) + net.domain.u_min, int(j) + net.domain.v_min)
        err = DegenerateMetric(
            f"|Omega| = {abs(values[i, j]):.3e} <= "
            f"{floor[i, j]:.3e} at quad {quad}")
        err.quad = quad
        err.value = float(values[i, j])
        raise err
    return MetricField(domain=net.domain, values=values)


def m_from_positions(f, quad):
    """[f_u, f_v, f_uv] recomputed from net positions; equals Omega^2."""
    u, v = quad
    f.domain.require_quad(u, v)
    return triple_product(f.f_u(u + 0.5, v), f.f_v(u, v + 0.5),
                          f.f_uv(quad))


# ---------------------------------------------------------------------------
# singular edges
# ---------------------------------------------------------------------------

class SingularEdge(NamedTuple):
    """A singular edge and the Omega values (a, b) of its two adjacent
    quads, which have opposite signs."""

    edge: EdgeIndex
    omega_pair: tuple


def singular_edges(metric):
    """Interior edges whose two adjacent quads carry opposite-sign Omega,
    as SingularEdge records in key order: u-edges by (u, v), then v-edges.

    A v-edge (u, v+1/2) compares the quads on either side in u; a u-edge
    (u+1/2, v) compares across v.
    """
    return SingularSet.from_omega(metric).singular_edges(metric.values)


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
    a, b = net.alpha.derivative(u0 + 0.5), net.beta.derivative(v0 + 0.5)
    sp = _orient_strict(n0, a, b, tol, f"edge {edge} (+ side)")
    if edge.axis == "v":
        a = net.alpha.derivative(u0 - 0.5)
    else:
        b = net.beta.derivative(v0 - 0.5)
    sm = _orient_strict(n0, a, b, tol, f"edge {edge} (- side)")
    return sp != sm


def halfplane_grid(net, tol=1e-9):
    """Vectorized halfplane_edge_test over all interior edges.

    Returns (v_result, u_result, v_zero, u_zero): boolean grids where
    v_result[i, j] is the test for the v-edge with base vertex
    (u_min+1+i, v_min+j) and u_result[i, j] for the u-edge with base
    (u_min+i, v_min+1+j); the zero masks mark edges where a sign fell in
    the predicate's dead zone.
    """
    a = net.alpha.points.T
    b = net.beta.points.T
    da = a[:, 1:] - a[:, :-1]
    db = b[:, 1:] - b[:, :-1]

    def signs(n, x, y):
        d, mag = _kernels.orient_terms(*n, *x, *y)
        return np.sign(d), np.abs(d) <= tol * mag

    # v-edges: bases (u0, v0) with u0 interior, v0 <= v_max-1
    n0 = a[:, 1:-1, None] - b[:, None, :-1]
    sp, zp = signs(n0, da[:, 1:, None], db[:, None, :])
    sm, zm = signs(n0, da[:, :-1, None], db[:, None, :])
    v_result = sp != sm
    v_zero = zp | zm
    # u-edges: bases (u0, v0) with v0 interior, u0 <= u_max-1
    n0 = a[:, :-1, None] - b[:, None, 1:-1]
    sp, zp = signs(n0, da[:, :, None], db[:, None, 1:])
    sm, zm = signs(n0, da[:, :, None], db[:, None, :-1])
    u_result = sp != sm
    u_zero = zp | zm
    return v_result, u_result, v_zero, u_zero


# ---------------------------------------------------------------------------
# singular vertices
# ---------------------------------------------------------------------------

@dataclass
class SingularVertex:
    """A vertex on a singular edge.  Not frozen: its diagnostics dict is
    mutable in any case, and a frozen __init__ (one object.__setattr__ per
    field) costs about a microsecond per vertex."""

    vertex: tuple
    incident_singular_edges: frozenset
    configuration: Configuration = None
    kind: Kind = Kind.UNCLASSIFIED
    diagnostics: dict = field(default_factory=dict)


# a vertex's star bits, one per singular star edge, in the order of the
# edges' keys, which is the order a chain leaves the vertex by:
# u- 1, u+ 2, v- 4, v+ 8
_STAR_BITS = np.array([1, 2, 4, 8], dtype=np.uint8)
_POPCOUNT = np.array([bin(m).count("1") for m in range(16)])


class SingularSet:
    """The singular edges of a domain and their endpoints, in one pass.

    The edges are two boolean grids on the domain's (nu, nv) vertices:
    grids[0][i, j] marks the u-edge from vertex (i, j) to (i+1, j),
    grids[1][i, j] the v-edge from (i, j) to (i, j+1).  Every vertex gets
    a 4-bit star mask (_STAR_BITS) by shifted stores of the two grids;
    its popcount is the vertex's degree.  Vertex (i, j) has the flat id
    i * nv + j, so flat ids sort like vertex keys, and the edge ids number
    the edges in key order.  Per singular vertex, in vertex order: flat
    (ids), star (masks), degree, interior, flagged (interior with other
    than two edges), vertices (keys).
    """

    def __init__(self, grids, domain):
        self.grids = grids
        self.domain = domain
        nu, nv = domain.nu, domain.nv
        u, v = grids.view(np.uint8)
        mask = (u << 1) | (v << 3)
        mask[1:] |= u[:-1]
        mask[:, 1:] |= v[:, :-1] << 2
        self.flat = np.flatnonzero(mask)
        self.star = mask.ravel().take(self.flat)
        self.degree = _POPCOUNT.take(self.star)
        i, j = np.divmod(self.flat, nv)
        self.interior = (i > 0) & (i < nu - 1) & (j > 0) & (j < nv - 1)
        self.flagged = self.interior & (self.degree != 2)
        self.vertices = list(zip((i + domain.u_min).tolist(),
                                 (j + domain.v_min).tolist()))

    @classmethod
    def from_omega(cls, metric):
        """The interior edges across which the metric's Omega changes
        sign: u-edges at interior v compare the quads across v, v-edges at
        interior u the quads across u."""
        w = metric.values
        dom = metric.domain
        # opposite signs by comparison: the product lo * hi under- and
        # overflows
        neg, pos = w < 0.0, w > 0.0
        grids = np.zeros((2, dom.nu, dom.nv), dtype=bool)
        grids[0, :-1, 1:-1] = ((neg[:, :-1] & pos[:, 1:])
                               | (pos[:, :-1] & neg[:, 1:]))
        grids[1, 1:-1, :-1] = (neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:])
        return cls(grids, dom)

    @classmethod
    def from_edges(cls, edges, domain):
        """The set of the SingularEdge records `edges`; each must join two
        domain vertices."""
        keys = np.array([(se.edge.axis == "v", se.edge.u - domain.u_min,
                          se.edge.v - domain.v_min) for se in edges],
                        dtype=np.int64).reshape(-1, 3)
        a, i, j = keys.T
        inside = ((i >= 0) & (j >= 0) & (i < domain.nu - 1 + a)
                  & (j < domain.nv - a))
        if not inside.all():
            bad = next(se.edge for se, ok in zip(edges, inside) if not ok)
            raise IndexOutOfDomain(f"edge {bad} leaves the domain")
        grids = np.zeros((2, domain.nu, domain.nv), dtype=bool)
        grids[a, i, j] = True
        return cls(grids, domain)

    @property
    def edge_count(self):
        """The number of singular edges."""
        return int(np.count_nonzero(self.grids))

    @functools.cached_property
    def _edge_keys(self):
        """(axis, i, j) arrays of the edges in key order."""
        return np.nonzero(self.grids)

    @functools.cached_property
    def edges(self):
        """EdgeIndex of every edge, indexed by edge id."""
        a, i, j = self._edge_keys
        axes = ("u", "v")
        return list(map(EdgeIndex._make, zip(
            map(axes.__getitem__, a.tolist()),
            (i + self.domain.u_min).tolist(),
            (j + self.domain.v_min).tolist())))

    def singular_edges(self, w):
        """SingularEdge per edge in key order, with the Omega grid w's
        values on the quads below and above it: (i, j-1) and (i, j) for a
        u-edge, (i-1, j) and (i, j) for a v-edge."""
        a, i, j = self._edge_keys
        return list(map(SingularEdge, self.edges, zip(
            w[i - a, j - 1 + a].tolist(), w[i, j].tolist())))

    @functools.cached_property
    def _star_edges(self):
        """Edge id of each vertex's u-, u+, v-, v+ star edge, -1 where the
        star edge is not singular: a (vertices, 4) array."""
        n = self.grids[0].size
        ids = np.full(2 * n, -1)
        ids[self.grids.ravel()] = np.arange(self.edge_count)
        nv = self.domain.nv
        out = ids.take(self.flat[:, None] + np.array([-nv, 0, n - 1, n]),
                       mode="clip")
        out[(self.star[:, None] & _STAR_BITS) == 0] = -1
        return out

    def incident(self):
        """Frozenset of its singular edges per vertex, in vertex order."""
        star = self._star_edges
        # row-major: each vertex's edges, vertex after vertex
        edges = list(map(self.edges.__getitem__, star[star >= 0].tolist()))
        ends = np.cumsum(self.degree).tolist()
        return [frozenset(edges[a:b]) for a, b in zip([0] + ends, ends)]

    def inadmissible(self):
        """(vertex, degree) of the interior vertices with other than two
        singular edges, in vertex order."""
        degree = self.degree.tolist()
        return [(self.vertices[k], degree[k])
                for k in np.flatnonzero(self.flagged).tolist()]

    def _chains(self):
        """Maximal chains as (flat vertex ids, edge ids, closed).  Open
        chains start at the degree-1 vertices in vertex order, then each
        loop at the smallest vertex that still has an unused edge; every
        step takes the vertex's first unused star edge in bit order."""
        flat = self.flat.tolist()
        left = dict(zip(flat, self.star.tolist()))
        star_edges = dict(zip(flat, self._star_edges.tolist()))
        nv = self.domain.nv
        # star bit -> (star slot, step of the flat id, the edge's bit at
        # the far end)
        moves = {1: (0, -nv, 2), 2: (1, nv, 1), 4: (2, -1, 8), 8: (3, 1, 4)}

        def walk(start):
            verts, edges = [start], []
            current = start
            while m := left[current]:
                bit = m & -m
                slot, step, far = moves[bit]
                left[current] = m ^ bit
                edges.append(star_edges[current][slot])
                current += step
                left[current] ^= far
                verts.append(current)
                if current == start:
                    return verts, edges, True
            return verts, edges, False

        chains = [walk(k) for k in compress(flat, (self.degree == 1).tolist())
                  if left[k]]           # else the end of a walked chain
        for k in flat:
            while left[k]:
                chains.append(walk(k))
        return chains

    def polylines(self):
        """The edges partitioned into maximal chains, each oriented by
        _canonical_open or _canonical_loop, sorted by their vertices.
        Raises InadmissibleVertex at an interior vertex with other than
        two singular edges."""
        bad = self.inadmissible()
        if bad:
            vert, degree = bad[0]
            raise InadmissibleVertex(
                f"interior vertex {vert} has {degree} singular edges")
        chains = sorted(((_canonical_loop if closed else _canonical_open)(
            verts, edges) + (closed,) for verts, edges, closed
            in self._chains()), key=lambda c: c[0])
        vertex_at = dict(zip(self.flat.tolist(), self.vertices)).__getitem__
        edge_at = self.edges.__getitem__
        return [SingularPolyline(tuple(map(vertex_at, verts)),
                                 tuple(map(edge_at, edges)), closed)
                for verts, edges, closed in chains]


def singular_vertices(edges, domain):
    """One record per vertex incident to at least one singular edge, in
    vertex order.

    Interior vertices with other than two incident singular edges are
    flagged Inadmissible immediately; everything else is left for
    classify_vertex.  This two-edge rule is the pipeline's whole
    admissibility test: the quadrant test reads the signs of Omega on the
    four quads around the vertex, and with two singular edges it cannot
    fail.
    """
    sset = SingularSet.from_edges(edges, domain)
    return [SingularVertex(vert, inc, Configuration.INADMISSIBLE
                           if flagged else None)
            for vert, inc, flagged in zip(sset.vertices, sset.incident(),
                                          sset.flagged.tolist())]


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


def _vertex_terms(net, u0, v0):
    """(det, mag) lists of the six signs at an interior vertex: alpha'+
    against alpha'- and beta'+ against beta'- (net.frame_terms), then the
    cross signs orient(nu0, a, b), a in (alpha'+, alpha'-), b in
    (beta'+, beta'-), in the order ++, +-, -+, --.

    By column reduction each cross det is Omega on the quad on the sides
    of a and b: (u0, v0), (u0, v0-1), (u0-1, v0), (u0-1, v0-1), read from
    net.omega_terms, so the signs are the ones singular_edges compared.
    Every other orientation among the four directions is one of these up
    to an exact sign flip."""
    i = u0 - net.domain.u_min
    j = v0 - net.domain.v_min
    (aa, aa_mag), (bb, bb_mag) = net.frame_terms[:, :, i - 1, j - 1].tolist()
    # the 2x2 block of quads around the vertex, read backwards: ++ first
    w, w_mag = net.omega_terms[:, i - 1:i + 1, j - 1:j + 1].reshape(
        2, 4)[:, ::-1].tolist()
    return [aa, bb, *w], [aa_mag, bb_mag, *w_mag]


_SIG_NAMES = {"v": ("beta'+", "-beta'-"), "u": ("alpha'+", "-alpha'-")}


def _axis_signatures(cross, axis, where):
    """(sig_out, sig_in) quadrant signatures for a singular edge of `axis`.

    For a v-edge these are the signatures of beta'+ and -beta'- against
    the lines alpha'+, alpha'-; for a u-edge those of alpha'+ and -alpha'-
    against beta'+, beta'-.  Equal to (orient(nu0, first line, w),
    orient(nu0, second line, w)) for each direction w, read from the cross
    signs and raising on the same first zero."""
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
    """False when a singular vertex's incoming and outgoing directions
    share a quadrant (the forbidden configuration).

    With a singular v-edge present, the projected directions towards
    beta(v0-1) and beta(v0+1), namely -beta'(v0-1/2) and +beta'(v0+1/2),
    must not share a quadrant of the lines spanned by alpha'(u0 +- 1/2);
    with a singular u-edge the roles of the curves are exchanged.  Both
    tests are applied when edges of both axes are present.  The quadrant
    signatures are the signs of Omega on the four quads around the
    vertex, so on the net's own singular edges the test fails only where
    both u-edges (with a v-edge) or both v-edges (with a u-edge) are
    singular, which singular_vertices already flags.
    """
    u0, v0 = vertex.vertex
    if not net.domain.is_interior_vertex(u0, v0):
        raise BoundaryVertex(f"vertex ({u0}, {v0}) is not interior")
    d, mag = _vertex_terms(net, u0, v0)
    cross = [_decided_sign(x, m, tol) for x, m in zip(d[2:], mag[2:])]
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


def _star_sides_agree(n0, stars, edge_pattern, tol, where):
    """Sidedness test on the star edge vectors (u+, u-, v+, v-) at the
    vertex `where`, all in the plane normal to n0; edge_pattern joins the
    sorted direction tags of the two singular star edges."""
    (i0, i1), plain = _STAR_SPLIT[edge_pattern]
    for k in plain:
        s1 = _float_orient(n0, stars[k], stars[i0], tol)
        s2 = _float_orient(n0, stars[k], stars[i1], tol)
        if s1 == 0 or s2 == 0:
            raise DegenerateOrientation(
                "zero orientation sign for sidedness at "
                f"({where[0]}, {where[1]})")
        if s1 != s2:
            return False
    return True


def star_sidedness_test(f, net, vertex, tol=1e-9):
    """Are both singular star edges on the same side of each line spanned
    by the two non-singular star edges?

    All four star edge vectors, read here from the integrated positions,
    lie in the plane normal to nu(u0, v0), so sides are orientation signs
    against that normal.  True characterizes the swallowtail star shape.
    """
    u0, v0 = vertex.vertex
    edges = vertex.incident_singular_edges
    if not f.domain.is_interior_vertex(u0, v0):
        raise BoundaryVertex(f"vertex ({u0}, {v0}) is not interior")
    if len(edges) != 2:
        raise InadmissibleVertex(
            f"vertex ({u0}, {v0}) has {len(edges)} singular edges")
    i = u0 - f.domain.u_min
    j = v0 - f.domain.v_min
    (_, pum, _), (pvm, p, pvp), (_, pup, _) = \
        f.positions[i - 1:i + 2, j - 1:j + 2].tolist()
    stars = [[q[0] - p[0], q[1] - p[1], q[2] - p[2]]
             for q in (pup, pum, pvp, pvm)]
    return _star_sides_agree(_t3(net.conormal(u0, v0)), stars,
                             _edge_pattern((u0, v0), edges), tol, (u0, v0))


# ---------------------------------------------------------------------------
# vertex classification
# ---------------------------------------------------------------------------

def _edge_pattern(vert, edges):
    return "".join(sorted(e.direction_at(vert) for e in edges))


def _base_edge(pattern, u0, v0, omegas):
    """Key of the base edge: the singular v-edge (the v- one when both
    are), otherwise the u-edge of larger metric contrast |Omega
    difference| across it, from the four quad metrics of _vertex_terms; a
    tie picks u+, the larger key.  The A/B/C outcome does not depend on
    this choice (property-tested)."""
    if "v-" in pattern:
        return ("v", u0, v0 - 1)
    if "v+" in pattern:
        return ("v", u0, v0)
    # the u+ edge separates quads ++ and +-, the u- edge -+ and --
    w_pp, w_pm, w_mp, w_mm = omegas
    if abs(w_pp - w_pm) >= abs(w_mp - w_mm):
        return ("u", u0, v0)
    return ("u", u0 - 1, v0)


def _sig_str(sig):
    return "".join("+" if s > 0 else "-" for s in sig)


class _Outcome(NamedTuple):
    """What a two-edge vertex's six signs decide: its configuration, its
    kind and the sign diagnostics, edge_pattern first."""

    configuration: Configuration
    kind: Kind
    diagnostics: dict


def _sign_outcome(signs, pattern, where):
    """Classify a two-edge vertex from its six signs (alpha'+ vs alpha'-,
    beta'+ vs beta'-, then the cross signs ++, +-, -+, --) and its edge
    pattern.  Raises DegenerateOrientation on the first zero sign a test
    reads, InadmissibleVertex in the forbidden configuration."""
    saa, sbb, cpp, cpm, cmp_, cmm = signs
    cross = signs[2:]
    axes = {pattern[0], pattern[2]}
    sigs = _admissible_signatures(cross, axes, where)
    if sigs is None:
        raise InadmissibleVertex(f"vertex ({where[0]}, {where[1]}) is in "
                                 "the forbidden configuration")
    sig_out, sig_in = sigs["v" if "v" in axes else "u"]
    antipodal = sig_in == (-sig_out[0], -sig_out[1])

    # orient among the frame directions alpha'+, alpha'-, beta'+, beta'-
    # numbered 0..3; it flips exactly under swapping or negating an argument
    table = ((0, saa, cpp, cpm),
             (-saa, 0, cmp_, cmm),
             (-cpp, -cmp_, 0, sbb),
             (-cpm, -cmm, -sbb, 0))

    def s(x, y):
        return x[1] * y[1] * table[x[0]][y[0]]

    # rays as (frame direction, sign), so -alpha'- is (1, -1)
    crossing_ab = _rays_cross(s, (1, -1), (0, 1), (3, -1), (2, 1))
    crossing_sw = _rays_cross(s, (1, -1), (0, 1), (3, 1), (2, -1))
    if antipodal:
        config = Configuration.A
    elif crossing_ab:
        config = Configuration.B
    else:
        config = Configuration.C
    kind = Kind.SWALLOWTAIL if crossing_sw else Kind.CUSPIDAL_EDGE
    return _Outcome(config, kind, {"edge_pattern": pattern,
                                   "sig_out": _sig_str(sig_out),
                                   "sig_in": _sig_str(sig_in),
                                   "crossing_ab": crossing_ab,
                                   "crossing_swallowtail": crossing_sw})


def _cross_pattern(cross):
    """Edge pattern of the star edges across which the cross signs
    (++, +-, -+, --) flip, or None unless exactly two do."""
    cpp, cpm, cmp_, cmm = cross
    # u+ separates quads ++ and +-, u- -+ and --, v+ -+ and ++, v- -- and +-
    flips = (cpp != cpm, cmp_ != cmm, cpp != cmp_, cpm != cmm)
    tags = [t for t, flip in zip(_STAR_TAGS, flips) if flip]
    return "".join(tags) if len(tags) == 2 else None


def _sign_key(signs):
    """Table index of six nonzero signs: bit 5 - k is set when sign k is +."""
    return sum(1 << (5 - k) for k, s in enumerate(signs) if s > 0)


def _table_entry(key):
    signs = tuple(1 if key >> (5 - k) & 1 else -1 for k in range(6))
    pattern = _cross_pattern(signs[2:])
    return None if pattern is None else _sign_outcome(signs, pattern, None)


# the outcome of every nonzero sign key whose cross signs make exactly two
# star edges singular, keyed by the pattern they make (None otherwise)
_SIGN_TABLE = tuple(_table_entry(key) for key in range(64))
_KEY_BITS = 1 << np.arange(5, -1, -1)


def _side_pairs(entry):
    """The (plain, singular) star edges of the four sidedness signs of
    _star_sides_agree, in its order."""
    if entry is None:
        return (0, 0, 0, 0), (0, 0, 0, 0)
    (i0, i1), (k0, k1) = _STAR_SPLIT[entry.diagnostics["edge_pattern"]]
    return (k0, k0, k1, k1), (i0, i1, i0, i1)


_SIDE_PAIRS = np.array([_side_pairs(entry) for entry in _SIGN_TABLE])


def _classified(vertex, edges, outcome, sided, base):
    return SingularVertex(vertex, edges, outcome.configuration, outcome.kind,
                          {"base_edge": base, **outcome.diagnostics,
                           "star_sidedness": sided})


def _decide_row(vert, edges, d, mag, n0, stars, tol):
    """Classify the two-edge interior vertex `vert` with singular edges
    `edges` from its six (det, mag) pairs in _vertex_terms order, its
    co-normal n0 and its star edges u+, u-, v+, v-.  A zero sign, or edges
    other than the ones the cross signs make singular, runs _sign_outcome
    on the vertex itself instead of reading the sign table."""
    signs = tuple([_decided_sign(x, m, tol) for x, m in zip(d, mag)])
    pattern = _edge_pattern(vert, edges)
    outcome = None if 0 in signs else _SIGN_TABLE[_sign_key(signs)]
    if outcome is None or outcome.diagnostics["edge_pattern"] != pattern:
        outcome = _sign_outcome(signs, pattern, vert)
    sided = _star_sides_agree(n0, stars, pattern, tol, vert)
    return _classified(vert, edges, outcome, sided,
                       _base_edge(pattern, *vert, d[2:]))


def classify_vertex(net, f, vertex, tol=1e-9, singular_edge_set=None):
    """Fill configuration (A, B, C) and kind for one singular vertex.

    Configuration: A when the projected direction entering the vertex
    along beta (resp. alpha for a u-base edge) is antipodal to the leaving
    one in the quadrant decomposition; otherwise B when the projected
    alpha and beta polylines cross at the origin, and C when they do not.
    Kind: a swallowtail exactly when the projected alpha polyline crosses
    the origin-reflected beta polyline.

    All of this depends only on six signs: alpha'+ against alpha'- and
    beta'+ against beta'-, in the vertex frame, and the four cross signs,
    Omega's signs on the four quads around the vertex, read from the net's
    grids and turned into the outcome by _decide_row, as in analyze_net's
    batched pass.  Star sidedness is evaluated on its own, on the star
    edges nu0 x (alpha'+, -alpha'-, beta'+, -beta'-) of the integrated
    net, so no positions are read: f and singular_edge_set are ignored.
    """
    u0, v0 = vertex.vertex
    if not net.domain.is_interior_vertex(u0, v0):
        return replace(vertex, configuration=Configuration.BOUNDARY,
                       kind=Kind.UNCLASSIFIED)
    if len(vertex.incident_singular_edges) != 2:
        raise InadmissibleVertex(
            f"vertex ({u0}, {v0}) has "
            f"{len(vertex.incident_singular_edges)} incident singular edges")
    n0, ap, am, bp, bm = _vertex_frame(net, u0, v0)
    # the star edges u+, u-, v+, v- by the Lelieuvre equations
    stars = [_cross3(n0, x) for x in (ap, [-c for c in am],
                                      bp, [-c for c in bm])]
    return _decide_row(vertex.vertex, vertex.incident_singular_edges,
                       *_vertex_terms(net, u0, v0), n0, stars, tol)


def _classify_rows(net, flat, verts, incident, tol):
    """classify_vertex for two-edge interior vertices in one batched pass:
    flat holds their flat ids (SingularSet), verts and incident their keys
    and edge sets.  The six signs come from the net's grids and star
    sidedness from one orient_terms call; a row whose ten signs are all
    decided reads its outcome from the sign table, every other row goes
    to _decide_row with its own slices of the same arrays."""
    if not verts:
        return []
    nv = net.domain.nv
    # flat indices: vertex (i, j) of the (nu, nv) grid, quad (i, j) of the
    # (nu-1, nv-1) Omega grids, vertex (i-1, j-1) of the frame grids
    i, j = np.divmod(flat, nv)
    quad = flat - i
    frame = quad[None] - i - (nv - 1)
    # quads ++, +-, -+, -- around each vertex, as _vertex_terms reads them
    quads = quad - np.array([[0], [1], [nv - 1], [nv]])
    w, w_mag = net.omega_terms
    (aa, aa_mag), (bb, bb_mag) = net.frame_terms
    omegas = w.take(quads)
    d = np.concatenate([aa.take(frame), bb.take(frame), omegas])
    mag = np.concatenate([aa_mag.take(frame), bb_mag.take(frame),
                          w_mag.take(quads)])
    key = _KEY_BITS @ (d > 0)
    # alpha'+, -alpha'-, beta'+, -beta'- by the vertex frame's subtractions
    # (x - y == -(y - x) exactly), as [x, y, z] component arrays
    a, b = net.alpha.points, net.beta.points
    a0, b0 = a.take(i, axis=0), b.take(j, axis=0)
    n0 = (a0 - b0).T[:, None, :]
    step = np.array([[1], [-1]])
    dirs = np.concatenate([a.take(i + step, axis=0) - a0,
                           b.take(j + step, axis=0) - b0]).transpose(2, 0, 1)
    # component c of star edge k (u+, u-, v+, v-) of row r at [c, k * V + r]
    stars = np.array(_cross3(n0, dirs)).reshape(3, -1)
    pairs = _SIDE_PAIRS.take(key, axis=0).transpose(1, 2, 0)
    px, py = pairs * len(verts) + np.arange(len(verts))
    with np.errstate(over="ignore", invalid="ignore"):
        sd, sd_mag = _kernels.orient_terms(*n0, *stars.take(px, axis=1),
                                           *stars.take(py, axis=1))
        decided = ((np.abs(d) > tol * mag).all(axis=0)
                   & (np.abs(sd) > tol * sd_mag).all(axis=0))
    up = sd > 0
    sided = (up[0] == up[1]) & (up[2] == up[3])
    out = []
    for r, (vert, edges, k, ok, side, quad_w) in enumerate(zip(
            verts, incident, key.tolist(), decided.tolist(), sided.tolist(),
            omegas.T.tolist())):
        outcome = _SIGN_TABLE[k]
        if ok and outcome is not None:
            out.append(_classified(vert, edges, outcome, side, _base_edge(
                outcome.diagnostics["edge_pattern"], *vert, quad_w)))
        else:
            out.append(_decide_row(
                vert, edges, d[:, r].tolist(), mag[:, r].tolist(),
                n0[:, 0, r].tolist(), stars[:, r::len(verts)].T.tolist(),
                tol))
    return out


# ---------------------------------------------------------------------------
# singular polylines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularPolyline:
    vertices: tuple
    edges: tuple
    closed: bool


def _canonical_open(verts, edges):
    """An open chain's orientation: from its smaller end vertex."""
    if verts[0] > verts[-1]:
        return verts[::-1], edges[::-1]
    return verts, edges


def _canonical_loop(verts, edges):
    """A loop's orientation: verts has the start repeated at the end;
    rotate so the minimum vertex leads and the smaller neighbour follows."""
    cyc_v = verts[:-1]
    k = cyc_v.index(min(cyc_v))
    cyc_v = cyc_v[k:] + cyc_v[:k]
    cyc_e = edges[k:] + edges[:k]
    if len(cyc_v) > 2 and cyc_v[-1] < cyc_v[1]:
        cyc_v = [cyc_v[0]] + cyc_v[1:][::-1]
        cyc_e = cyc_e[::-1]
    return cyc_v + [cyc_v[0]], cyc_e


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
    return SingularSet.from_edges(edges, domain).polylines()


# ---------------------------------------------------------------------------
# whole-net orchestration
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class NetAnalysis:
    """What analyze_net found on one net.  f, an integrated net, is left
    None by analyze_net: the classification never reads positions."""

    net: object
    f: object = None
    metric: MetricField
    edges: list
    vertices: list
    polylines: list
    generic_violations: list
    admissibility_violations: list

    @property
    def clean(self):
        return not (self.generic_violations or self.admissibility_violations)


def analyze_net(net, tol=1e-9, eps_degenerate=1e-9):
    """Run the full singularity pipeline on one co-normal net.

    Every two-edge interior vertex is classified in one batched pass
    (_classify_rows).  Positions are not integrated.
    """
    generic = validate_generic_position(net, tol)
    metric = metric_field(net, eps_degenerate)
    sset = SingularSet.from_omega(metric)
    incident = sset.incident()
    two_edge = sset.interior & ~sset.flagged
    picked = two_edge.tolist()
    rows = iter(_classify_rows(net, sset.flat[two_edge],
                               list(compress(sset.vertices, picked)),
                               list(compress(incident, picked)), tol))
    admissibility = [(vert, f"{degree} incident singular edges at an "
                            "interior vertex")
                     for vert, degree in sset.inadmissible()]
    classified = []
    for vert, inc, two, flagged in zip(sset.vertices, incident, picked,
                                       sset.flagged.tolist()):
        if two:
            classified.append(next(rows))
        elif flagged:
            classified.append(SingularVertex(vert, inc,
                                             Configuration.INADMISSIBLE))
        else:
            classified.append(SingularVertex(vert, inc, Configuration.BOUNDARY,
                                             Kind.UNCLASSIFIED))
    polylines = [] if admissibility else sset.polylines()
    return NetAnalysis(net=net, metric=metric,
                       edges=sset.singular_edges(metric.values),
                       vertices=classified, polylines=polylines,
                       generic_violations=generic,
                       admissibility_violations=admissibility)
