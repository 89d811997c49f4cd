"""Discrete metric, singular edges/vertices and their classification.

The per-quad metric

    Omega(u+1/2, v+1/2) = [alpha(u)-beta(v), alpha'(u+1/2), beta'(v+1/2)]

changes sign across singular edges.  ``SingularSet`` holds them as one
graph of int arrays, each vertex's links to its neighbours; its chains
(``Chains``), joined by ``net_core.walk_chains``, which joins the smooth
oracle's chains too, are the polylines.  The classification is int data too
(``VertexTable``), and ``NetAnalysis`` builds records only when read.
Every test on projected directions (quadrant membership, polyline
crossing, star sidedness) is implemented through the single predicate

    orient(n, x, y) = sign [n, x, y]

with n = alpha(u0)-beta(v0): for any plane transversal to n, the
orientation of the projected pair (Px, Py) equals this sign, so no
projection plane is ever materialized and results cannot depend on one.
The four cross signs [n, alpha'+-, beta'+-] at a vertex are Omega's signs
on its four quads, each formed from its quad's lower-left co-normal with
the bits of the grid that ``ConormalNet.omega`` computes once per net, so
the signs that classify a vertex are the ones that made its edges
singular.  The two others, alpha'+ against alpha'- and beta'+ against
beta'-, are evaluated in the vertex frame.  The metric's dead zone and
the generic-position check judge the same signs over the whole grid;
they read no grid of magnitudes, because a certified bound decides
nearly every row of them, and ``orient_terms`` runs on the rest
(``_kernels.omega_undecided``, ``_kernels.frame_undecided``).
``_kernels`` holds orient's determinant (``orient_terms``) and its one
dead-zone rule, ``decided_sign`` for one pair and ``undecided`` for
arrays, with its bound form ``certified``, so Omega is judged as every
other sign.  Tolerances must be finite and >= 0
(``_kernels.require_tolerance``).

A two-edge vertex's configuration, kind and sign diagnostics depend only
on these six signs, so they are read from a 64-entry table
(``_SIGN_TABLE``) that the scalar branch logic (``_sign_outcome``) fills
at import.  Star sidedness is one of them: the Lelieuvre star edges are
nu x (alpha'+, -alpha'-, beta'+, -beta'-), and [nu, nu x x, nu x y] =
|nu|^2 [nu, x, y].  One row pass, ``_classified_rows``, classifies
vertices from their six signs, formed by one layout (``_SIX_SIGNS``) for
any number of vertices (``_six_terms``) and judged by ``certified``; a
row the table does not decide goes to ``_sign_outcome`` on its own
(``_decide_row``).  ``admissibility_check`` reads its four
cross signs off net.omega where ``ConormalNet.omega_bounds`` certifies
both quad rows (``_cross_signs``).  No positions are integrated; the
tests check the diagnostic against ``star_sidedness_test`` on them.
"""

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import decided_sign
from .errors import (BoundaryVertex, DegenerateMetric, DegenerateOrientation,
                     InadmissibleVertex, IndexOutOfDomain)
from .net_core import is_index, validate_generic_position, walk_chains


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
    product that overflows raises ValidationError instead of reading as 0,
    and so does a tol that is not finite and >= 0.
    """
    _kernels.require_tolerance(tol, "tol")
    return decided_sign(*_kernels.orient_terms(*_t3(n), *_t3(x), *_t3(y)),
                        tol)


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


_TINY = np.finfo(float).tiny


def metric_field(net, eps_degenerate=1e-9):
    """Omega on all quads, read from the net's one read-only grid
    (net.omega); abort when any quad's Omega falls in orient's dead zone
    at eps_degenerate >= 0, where its sign means nothing, or when its
    magnitude underflows (below the smallest normal float).  A row whose
    least |Omega| clears a certified bound on its magnitudes is decided
    without them (_kernels.omega_undecided)."""
    _kernels.require_tolerance(eps_degenerate, "eps_degenerate")
    values = net.omega
    i, j, mag = _kernels.omega_undecided(net.alpha.points, net.beta.points,
                                         net.omega_bounds, eps_degenerate,
                                         "Omega", _TINY)
    if len(i):
        i, j, mag = int(i[0]), int(j[0]), float(mag[0])
        quad = (i + net.domain.u_min, j + net.domain.v_min)
        if 0.0 < mag < _TINY:
            what = f"Omega underflows: magnitude {mag:.3e}"
        else:
            # a Python float product: inf, without a warning, on overflow
            floor = eps_degenerate * mag
            what = f"|Omega| = {abs(values[i, j]):.3e} <= {floor:.3e}"
        err = DegenerateMetric(f"{what} at quad {quad}")
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
    the predicate's dead zone.  An overflowing product raises
    ValidationError, as in halfplane_edge_test, and so does a tol that is
    not finite and >= 0.
    """
    _kernels.require_tolerance(tol, "tol")
    a = net.alpha.points.T
    b = net.beta.points.T
    da = a[:, 1:] - a[:, :-1]
    db = b[:, 1:] - b[:, :-1]

    def signs(n, x, y):
        d, mag = _kernels.orient_terms(*n, *x, *y)
        return np.sign(d), _kernels.undecided(d, mag, tol, "orientation test")

    with np.errstate(over="ignore", invalid="ignore"):
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


_AXES = ("u", "v")
# a vertex's links, its neighbours over its v+, v-, u+ and u- edges (the
# walker's order), as bits of a star mask whose bits 3..0 stand for u+,
# u-, v+ and v- (_STAR_TAGS' order); _STAR_PATTERNS names each mask
_STAR_BITS = np.array([2, 1, 8, 4])


class SingularSet:
    """The singular edges of a domain as int arrays.

    axis, i and j hold the interior edges in key order: axis 0 is the
    u-edge from grid vertex (i, j) to (i+1, j), axis 1 the v-edge from
    (i, j) to (i, j+1).  Per endpoint vertex, in vertex order: vertex_i,
    vertex_j; links, the positions of its neighbours over its v+, v-, u+
    and u- edges (-1: not singular); degree, interior and flagged
    (interior with other than two edges).  That order orients `chains`,
    which `net_core.walk_chains` joins: open chains from their smaller
    end, loops from their least vertex over its first link.
    """

    def __init__(self, axis, i, j, domain):
        self.axis, self.i, self.j, self.domain = axis, i, j, domain
        nv = domain.nv
        lo = i * nv + j
        hi = lo + np.where(axis == 0, nv, 1)
        # the endpoints, sorted and each once (np.unique would import
        # numpy.ma, about 1.5 MB of memory)
        ends = np.sort(np.concatenate([lo, hi]))
        node = ends[np.diff(ends, prepend=-1) > 0]
        a, b = np.searchsorted(node, lo), np.searchsorted(node, hi)
        self.links = np.full((len(node), 4), -1)
        self.links[a, 2 - 2 * axis] = b
        self.links[b, 3 - 2 * axis] = a
        self.degree = np.count_nonzero(self.links >= 0, axis=1)
        self.vertex_i, self.vertex_j = np.divmod(node, nv)
        self.interior = ((self.vertex_i > 0) & (self.vertex_i < domain.nu - 1)
                         & (self.vertex_j > 0) & (self.vertex_j < nv - 1))
        self.flagged = self.interior & (self.degree != 2)

    @classmethod
    def from_omega(cls, metric):
        """The interior edges across which the metric's Omega changes
        sign: u-edges at interior v compare the quads across v, v-edges at
        interior u the quads across u.  Each flip grid's entries are read
        with flatnonzero in row-major order, which is key order."""
        w = metric.values
        # opposite signs by comparison: the product lo * hi under- and
        # overflows
        neg, pos = w < 0.0, w > 0.0
        found = [np.divmod(np.flatnonzero(flip), flip.shape[1]) for flip in (
            (neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:]),
            (neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:]))]
        (iu, ju), (iv, jv) = found
        return cls(np.repeat([0, 1], [len(iu), len(iv)]),
                   np.concatenate([iu, iv + 1]), np.concatenate([ju + 1, jv]),
                   metric.domain)

    @classmethod
    def from_edges(cls, edges, domain):
        """The set of the SingularEdge records `edges`, each an interior
        u- or v-edge with integer keys (a boundary edge borders one quad,
        so it is never singular); IndexOutOfDomain names any other."""
        nu, nv = domain.nu, domain.nv
        keys = []
        for se in edges:
            axis, u, v = se.edge
            if not (axis in _AXES and is_index(u) and is_index(v)):
                raise IndexOutOfDomain(f"edge {se.edge} is not a grid edge")
            a = _AXES.index(axis)
            i, j = u - domain.u_min, v - domain.v_min
            if not (a <= i < nu - 1 and 1 - a <= j < nv - 1):
                raise IndexOutOfDomain(
                    f"edge {se.edge} is not an interior edge of the domain")
            keys.append((a * nu + i) * nv + j)
        a, ij = np.divmod(np.array(sorted(set(keys)), dtype=np.int64),
                          nu * nv)
        return cls(a, *np.divmod(ij, nv), domain)

    @property
    def edges(self):
        """EdgeIndex per edge, in key order."""
        dom = self.domain
        return list(map(EdgeIndex._make, zip(
            map(_AXES.__getitem__, self.axis.tolist()),
            (self.i + dom.u_min).tolist(), (self.j + dom.v_min).tolist())))

    def _vertex_keys(self, k=slice(None)):
        dom = self.domain
        return list(zip((self.vertex_i[k] + dom.u_min).tolist(),
                        (self.vertex_j[k] + dom.v_min).tolist()))

    @property
    def vertices(self):
        """(u, v) per vertex, in vertex order."""
        return self._vertex_keys()

    def singular_edges(self, w):
        """SingularEdge per edge in key order, with the Omega grid w's
        values on the quads below and above it: (i, j-1) and (i, j) for a
        u-edge, (i-1, j) and (i, j) for a v-edge."""
        a, i, j = self.axis, self.i, self.j
        return list(map(SingularEdge, self.edges, zip(
            w[i - a, j - 1 + a].tolist(), w[i, j].tolist())))

    def incident(self):
        """Frozenset of its singular edges per vertex, in vertex order."""
        return [frozenset([EdgeIndex(*key) for key, nb in zip(
            (("v", u, v), ("v", u, v - 1), ("u", u, v), ("u", u - 1, v)), row)
            if nb >= 0]) for (u, v), row in zip(self.vertices,
                                                self.links.tolist())]

    def inadmissible(self):
        """(vertex, degree) of the interior vertices with other than two
        singular edges, in vertex order."""
        k = np.flatnonzero(self.flagged)
        return list(zip(self._vertex_keys(k), self.degree[k].tolist()))

    def chains(self):
        """The maximal chains of `walk_chains` over the links, sorted by
        first vertex, as Chains; raises InadmissibleVertex at a flagged
        vertex."""
        bad = self.inadmissible()
        if bad:
            vert, degree = bad[0]
            raise InadmissibleVertex(
                f"interior vertex {vert} has {degree} singular edges")
        walks = sorted((seq for seq, _ in walk_chains(self.links)),
                       key=lambda seq: seq[0])
        order = np.array([k for seq in walks for k in seq], dtype=np.intp)
        dom = self.domain
        return Chains(self.vertex_i[order] + dom.u_min,
                      self.vertex_j[order] + dom.v_min,
                      np.cumsum([0] + list(map(len, walks))).tolist(),
                      [seq[0] == seq[-1] for seq in walks])


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


# The six signs at a vertex (u0, v0) as orient(alpha(u0+i) - beta(v0+j),
# x, y): the offsets (i, j) of the co-normal, then x and y numbered as the
# frame directions alpha'+, alpha'-, beta'+, beta'- (0..3).  alpha'+
# against alpha'- and beta'+ against beta'- are taken in the vertex frame;
# by column reduction each cross sign orient(nu0, a, b), a in (alpha'+,
# alpha'-), b in (beta'+, beta'-), in the order ++, +-, -+, --, is Omega
# on the quad on the sides of a and b, (u0, v0), (u0, v0-1), (u0-1, v0),
# (u0-1, v0-1), taken in that quad's frame, with the bits of net.omega:
# the signs are the ones singular_edges compared.  Every other orientation
# among the four directions is one of these up to an exact sign flip.
_SIX_SIGNS = (((0, 0), 0, 1), ((0, 0), 2, 3), ((0, 0), 0, 2),
              ((0, -1), 0, 3), ((-1, 0), 1, 2), ((-1, -1), 1, 3))
# _six_terms' index arrays: the curve points around a vertex are gathered
# as offsets -1, 0, 1 (rows 0, 1, 2), the directions come as alpha'-,
# alpha'+, beta'-, beta'+
_NEIGHBOURS = np.arange(-1, 2)[:, None]
_SIX_A, _SIX_B = (1 + np.array(c) for c in zip(*[s[0] for s in _SIX_SIGNS]))
_SIX_X, _SIX_Y = (np.array([1, 0, 3, 2])[list(c)]
                  for c in zip(*[s[1:] for s in _SIX_SIGNS]))


def _six_terms(net, i, j):
    """(det, mag) arrays of shape (6, k) of the six signs (_SIX_SIGNS) at
    the vertices of grid indices (i, j), in one orient_terms call."""
    a = net.alpha.points.T[:, i + _NEIGHBOURS]  # alpha(u0-1), alpha(u0), ...
    b = net.beta.points.T[:, j + _NEIGHBOURS]
    dirs = np.concatenate([a[:, 1:] - a[:, :-1], b[:, 1:] - b[:, :-1]],
                          axis=1)
    return _kernels.orient_terms(*(a[:, _SIX_A] - b[:, _SIX_B]),
                                 *dirs[:, _SIX_X], *dirs[:, _SIX_Y])


def _cross_signs(net, u0, v0, tol):
    """decided_sign of the four cross pairs at an interior vertex, ++,
    +-, -+, --: Omega's signs on the quads (u0, v0), (u0, v0-1),
    (u0-1, v0), (u0-1, v0-1).  Where net.omega_bounds certifies both quad
    rows at tol, each is the sign of its Omega value and no magnitude is
    formed; elsewhere _six_terms' pairs are judged."""
    i = u0 - net.domain.u_min
    j = v0 - net.domain.v_min
    low, bound = (b[i - 1:i + 1].tolist() for b in net.omega_bounds)
    if all(map(_kernels.certified, low, bound, (float(tol),) * 2)):
        # the 2x2 block of quads around the vertex, read backwards
        w = net.omega[i - 1:i + 1, j - 1:j + 1].ravel()[::-1].tolist()
        return [1 if x > 0.0 else -1 for x in w]
    with np.errstate(over="ignore", invalid="ignore"):
        d, mag = _six_terms(net, np.array([i]), np.array([j]))
    return [decided_sign(x, m, tol)
            for x, m in zip(d[2:, 0].tolist(), mag[2:, 0].tolist())]


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
    singular, which singular_vertices already flags.  tol must be finite
    and >= 0.
    """
    _kernels.require_tolerance(tol, "tol")
    u0, v0 = vertex.vertex
    if not net.domain.is_interior_vertex(u0, v0):
        raise BoundaryVertex(f"vertex ({u0}, {v0}) is not interior")
    cross = _cross_signs(net, u0, v0, tol)
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


# star edges u+, u-, v+, v- as _sign_outcome's rays (frame direction, sign)
_STAR_RAYS = ((0, 1), (1, -1), (2, 1), (3, -1))


def _star_sides_agree(s, stars, edge_pattern, where):
    """Sidedness rule over a bound sign predicate s on the star edges
    stars = (u+, u-, v+, v-) at the vertex `where`; edge_pattern joins the
    sorted direction tags of the two singular star edges."""
    (i0, i1), plain = _STAR_SPLIT[edge_pattern]
    for k in plain:
        s1 = s(stars[k], stars[i0])
        s2 = s(stars[k], stars[i1])
        if s1 == 0 or s2 == 0:
            raise DegenerateOrientation(
                "zero orientation sign for sidedness at "
                f"({where[0]}, {where[1]})")
        if s1 != s2:
            return False
    return True


def _pow2_scaled(x):
    """The float triple x times the power of two that brings its largest
    coordinate into [0.5, 1).  orient's sign and dead zone are homogeneous
    in each argument, so a sign can move only where a scaled coordinate
    or product leaves the normal range."""
    e = -math.frexp(max(map(abs, x)))[1]
    return (math.ldexp(x[0], e), math.ldexp(x[1], e), math.ldexp(x[2], e))


def star_sidedness_test(f, net, vertex, tol=1e-9):
    """Are both singular star edges on the same side of each line spanned
    by the two non-singular star edges?

    All four star edge vectors, read here from the integrated positions,
    lie in the plane normal to nu(u0, v0), so sides are orientation signs
    against that normal.  True characterizes the swallowtail star shape.
    Each vector is _pow2_scaled first, so the signs do not overflow.
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
    stars = [_pow2_scaled((q[0] - p[0], q[1] - p[1], q[2] - p[2]))
             for q in (pup, pum, pvp, pvm)]
    n0 = _pow2_scaled(_t3(net.conormal(u0, v0)))

    def s(x, y):
        return orient(n0, x, y, tol)

    return _star_sides_agree(s, stars, _edge_pattern((u0, v0), edges),
                             (u0, v0))


# ---------------------------------------------------------------------------
# vertex classification
# ---------------------------------------------------------------------------

def _edge_pattern(vert, edges):
    return "".join(sorted(e.direction_at(vert) for e in edges))


def _base_edges(star, u, v, cross):
    """Axis (0 u, 1 v), u and v of the base edge of each two-edge vertex
    (u, v) with star mask star: its singular v-edge (v- when both are),
    else the u-edge of larger |Omega difference| across it, from the
    cross values ++, +-, -+, -- (Omega's bits); a tie picks u+.  The
    A/B/C outcome does not depend on this choice (property-tested)."""
    v_minus = (star & 1) > 0
    axis = (star & 3) > 0
    # the u+ edge separates quads ++ and +-, the u- edge -+ and --
    u_minus = ~axis & ~(np.abs(cross[0] - cross[1])
                        >= np.abs(cross[2] - cross[3]))
    return np.stack([axis.astype(np.int64), u - u_minus, v - v_minus])


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
    pattern, star sidedness included.  Raises DegenerateOrientation on the
    first zero sign a test reads, InadmissibleVertex in the forbidden
    configuration."""
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
    sided = _star_sides_agree(s, _STAR_RAYS, pattern, where)
    return _Outcome(config, kind, {"edge_pattern": pattern,
                                   "sig_out": _sig_str(sig_out),
                                   "sig_in": _sig_str(sig_in),
                                   "crossing_ab": crossing_ab,
                                   "crossing_swallowtail": crossing_sw,
                                   "star_sidedness": sided})


def _cross_pattern(cross):
    """Edge pattern of the star edges across which the cross signs
    (++, +-, -+, --) flip, or None unless exactly two do."""
    cpp, cpm, cmp_, cmm = cross
    # u+ separates quads ++ and +-, u- -+ and --, v+ -+ and ++, v- -- and +-
    flips = (cpp != cpm, cmp_ != cmm, cpp != cmp_, cpm != cmm)
    tags = [t for t, flip in zip(_STAR_TAGS, flips) if flip]
    return "".join(tags) if len(tags) == 2 else None


def _table_entry(key):
    signs = tuple(1 if key >> (5 - k) & 1 else -1 for k in range(6))
    pattern = _cross_pattern(signs[2:])
    return None if pattern is None else _sign_outcome(signs, pattern, None)


# the outcome of every key of six nonzero signs (bit 5 - k set when sign k
# is +) whose cross signs make exactly two star edges singular, keyed by the
# pattern they make (None otherwise)
_SIGN_TABLE = tuple(_table_entry(key) for key in range(64))
_KEY_BITS = 1 << np.arange(5, -1, -1)


_STAR_PATTERNS = tuple("".join(t for k, t in enumerate(_STAR_TAGS)
                               if mask >> (3 - k) & 1) for mask in range(16))
# the star mask of each sign key's table entry, -1 where it has none
_TABLE_STARS = np.array([-1 if o is None else _STAR_PATTERNS.index(
    o.diagnostics["edge_pattern"]) for o in _SIGN_TABLE])
# the outcome codes of the vertex table: the sign keys, then these two
BOUNDARY, INADMISSIBLE = 64, 65
OUTCOMES = _SIGN_TABLE + (_Outcome(Configuration.BOUNDARY, Kind.UNCLASSIFIED,
                                   {}),
                          _Outcome(Configuration.INADMISSIBLE,
                                   Kind.UNCLASSIFIED, {}))


def _classified(vertex, edges, outcome, base):
    """The SingularVertex of an outcome; base, (axis, u, v) of the base
    edge, is read only where the outcome has diagnostics."""
    return SingularVertex(vertex, edges, outcome.configuration, outcome.kind,
                          {"base_edge": (_AXES[base[0]], *base[1:]),
                           **outcome.diagnostics}
                          if outcome.diagnostics else {})


def _decide_row(vert, pattern, d, mag, tol):
    """_sign_outcome of the two-edge interior vertex `vert` whose singular
    star edges make `pattern`, from its six (det, mag) pairs in
    _SIX_SIGNS order, each judged by decided_sign."""
    return _sign_outcome(tuple([decided_sign(x, m, tol)
                                for x, m in zip(d, mag)]), pattern, vert)


def _classified_rows(net, u, v, star, tol):
    """(codes, base edges, outcomes) of the two-edge interior vertices
    (u, v) with star masks star, from their six signs, formed in one
    _six_terms call.  A row that _kernels.certified decides and whose
    edges are the ones its cross signs make singular reads the sign
    table; every other goes to _decide_row in row order (the first error
    is raised) and its outcome is appended to OUTCOMES."""
    with np.errstate(over="ignore", invalid="ignore"):
        d, mag = _six_terms(net, u - net.domain.u_min, v - net.domain.v_min)
        decided = _kernels.certified(np.abs(d), mag, tol).all(axis=0)
    key = _KEY_BITS @ (d > 0)
    code = np.where(decided & (_TABLE_STARS[key] == star), key, -1)
    outcomes = list(OUTCOMES)
    for r in np.flatnonzero(code < 0).tolist():
        code[r] = len(outcomes)
        outcomes.append(_decide_row(
            (int(u[r]), int(v[r])), _STAR_PATTERNS[star[r]],
            d[:, r].tolist(), mag[:, r].tolist(), tol))
    return code, _base_edges(star, u, v, d[2:]), tuple(outcomes)


def classify_vertex(net, f, vertex, tol=1e-9, singular_edge_set=None):
    """Fill configuration (A, B, C) and kind for one singular vertex.

    Configuration: A when the projected direction entering the vertex
    along beta (resp. alpha for a u-base edge) is antipodal to the leaving
    one in the quadrant decomposition; otherwise B when the projected
    alpha and beta polylines cross at the origin, and C when they do not.
    Kind: a swallowtail exactly when the projected alpha polyline crosses
    the origin-reflected beta polyline.

    All of this, star sidedness included, depends only on six signs:
    alpha'+ against alpha'- and beta'+ against beta'-, in the vertex
    frame, and the four cross signs, Omega's signs on the four quads around
    the vertex, turned into the outcome by the sign table or _decide_row,
    as in analyze_net's batched pass, of which this is the one-row case.
    No positions are read: f and singular_edge_set are ignored.  tol must
    be finite and >= 0.
    """
    _kernels.require_tolerance(tol, "tol")
    vert, edges = vertex.vertex, vertex.incident_singular_edges
    u0, v0 = vert
    if not net.domain.is_interior_vertex(u0, v0):
        return replace(vertex, configuration=Configuration.BOUNDARY,
                       kind=Kind.UNCLASSIFIED)
    if len(edges) != 2:
        raise InadmissibleVertex(f"vertex ({u0}, {v0}) has {len(edges)} "
                                 "incident singular edges")
    u, v = np.array([[u0], [v0]], dtype=np.int64)
    try:
        star = _STAR_PATTERNS.index(_edge_pattern(vert, edges))
    except IndexOutOfDomain:
        # as in _decide_row, a vertex's signs (and their overflow) come
        # before its edges are read
        with np.errstate(over="ignore", invalid="ignore"):
            d, mag = _six_terms(net, u - net.domain.u_min,
                                v - net.domain.v_min)
        _kernels.undecided(d, mag, tol, "orientation test")
        raise
    code, base, outcomes = _classified_rows(net, u, v, np.array([star]), tol)
    return _classified(vert, edges, outcomes[code[0]], base[:, 0].tolist())


class VertexTable(NamedTuple):
    """A singular set's vertex records as int columns, in vertex order:
    u, v, an outcome code (an index into outcomes, which begin with
    OUTCOMES), and the base edge's axis, u and v (0, u, v if none)."""

    columns: np.ndarray
    outcomes: tuple

    def records(self, incident):
        """SingularVertex per vertex, given its frozenset of singular
        edges per vertex."""
        return [_classified((u, v), edges, self.outcomes[code], base)
                for (u, v, code, *base), edges
                in zip(self.columns.T.tolist(), incident)]

    @classmethod
    def of_records(cls, vertices):
        """The table of SingularVertex records, outcomes not in OUTCOMES
        appended in order of appearance."""
        outcomes = list(OUTCOMES)
        codes = {_outcome_key(o): k for k, o in enumerate(outcomes) if o}
        rows = []
        for sv in vertices:
            diagnostics = dict(sv.diagnostics)
            axis, bu, bv = diagnostics.pop("base_edge", ("u", *sv.vertex))
            outcome = _Outcome(sv.configuration, sv.kind, diagnostics)
            code = codes.setdefault(_outcome_key(outcome), len(outcomes))
            if code == len(outcomes):
                outcomes.append(outcome)
            rows.append((*sv.vertex, code, _AXES.index(axis), bu, bv))
        return cls(np.array(rows, dtype=np.int64).reshape(-1, 6).T,
                   tuple(outcomes))


def _outcome_key(outcome):
    return (outcome.configuration, outcome.kind,
            tuple(sorted(outcome.diagnostics.items())))


def _vertex_records(net, sset, tol):
    """The VertexTable of the singular set sset, in one batched pass:
    Boundary off the interior, Inadmissible where flagged, the two-edge
    interior vertices by _classified_rows."""
    dom = net.domain
    rows = np.flatnonzero(sset.interior & ~sset.flagged)
    code, base, outcomes = _classified_rows(
        net, sset.vertex_i[rows] + dom.u_min, sset.vertex_j[rows] + dom.v_min,
        (sset.links[rows] >= 0) @ _STAR_BITS, tol)
    columns = np.zeros((6, len(sset.degree)), dtype=np.int64)
    columns[0] = columns[4] = sset.vertex_i + dom.u_min
    columns[1] = columns[5] = sset.vertex_j + dom.v_min
    columns[2] = np.where(sset.flagged, INADMISSIBLE, BOUNDARY)
    columns[2, rows] = code
    columns[3:, rows] = base
    return VertexTable(columns, outcomes)


# ---------------------------------------------------------------------------
# singular polylines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularPolyline:
    vertices: tuple
    edges: tuple
    closed: bool


class Chains(NamedTuple):
    """Polylines as int arrays: u and v of their vertices, chain after
    chain (a loop repeats its first vertex at its end), chain k holding
    rows bounds[k] to bounds[k+1]; closed per chain."""

    u: np.ndarray
    v: np.ndarray
    bounds: list
    closed: list

    def edges(self):
        """Axis (0 u, 1 v), u and v of the edge between each two
        consecutive vertices of a chain, chain after chain."""
        u, v = self.u, self.v
        inner = np.ones(max(len(u) - 1, 0), dtype=bool)
        inner[np.array(self.bounds[1:-1], dtype=np.intp) - 1] = False
        return ((u[:-1] == u[1:])[inner].astype(np.int64),
                np.minimum(u[:-1], u[1:])[inner],
                np.minimum(v[:-1], v[1:])[inner])

    def polylines(self):
        """SingularPolyline per chain."""
        verts = list(zip(self.u.tolist(), self.v.tolist()))
        axis, u, v = self.edges()
        edges = list(map(EdgeIndex._make, zip(
            map(_AXES.__getitem__, axis.tolist()), u.tolist(), v.tolist())))
        # chain k has one edge fewer than vertices, as have those before it
        return [SingularPolyline(tuple(verts[lo:hi]),
                                 tuple(edges[lo - k:hi - k - 1]), closed)
                for k, (lo, hi, closed) in enumerate(zip(
                    self.bounds, self.bounds[1:], self.closed))]


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
    return SingularSet.from_edges(edges, domain).chains().polylines()


# ---------------------------------------------------------------------------
# whole-net orchestration
# ---------------------------------------------------------------------------

@dataclass(init=False, eq=False)
class NetAnalysis:
    """What analyze_net found on one net, as arrays: the singular set,
    its vertex table and its chains (none if a vertex is inadmissible).
    The record lists edges, vertices and polylines are built on first
    read; an analysis made from such lists keeps them and derives its
    arrays (its polylines, if any, must be its edges' chains).  f, the
    integrated net, is left None by analyze_net."""

    net: object
    f: object
    metric: MetricField
    generic_violations: list
    admissibility_violations: list
    singular_set: SingularSet
    table: VertexTable
    chains: Chains

    def __init__(self, *, net, metric, generic_violations,
                 admissibility_violations, f=None, singular_set=None,
                 table=None, chains=None, edges=None, vertices=None,
                 polylines=None):
        self.net, self.f, self.metric = net, f, metric
        self.generic_violations = generic_violations
        self.admissibility_violations = admissibility_violations
        if singular_set is None:
            singular_set = SingularSet.from_edges(edges, net.domain)
            table = VertexTable.of_records(vertices)
            chains = singular_set.chains() if polylines else _NO_CHAINS
            self.__dict__.update(edges=edges, vertices=vertices,
                                 polylines=polylines)
        self.singular_set, self.table = singular_set, table
        self.chains = chains

    @cached_property
    def edges(self):
        return self.singular_set.singular_edges(self.metric.values)

    @cached_property
    def vertices(self):
        return self.table.records(self.singular_set.incident())

    @cached_property
    def polylines(self):
        return self.chains.polylines()

    @property
    def clean(self):
        return not (self.generic_violations or self.admissibility_violations)


# shared by every analysis without chains, so nothing in it is mutable
_NO_CHAINS = Chains(*np.empty((2, 0), dtype=np.int64), (0,), ())
_NO_CHAINS.u.flags.writeable = _NO_CHAINS.v.flags.writeable = False


def analyze_net(net, tol=1e-9, eps_degenerate=1e-9):
    """Run the full singularity pipeline on one co-normal net.

    Every singular vertex gets its record in one batched pass
    (_vertex_records).  Positions are not integrated.  Both tolerances
    must be finite and >= 0.
    """
    _kernels.require_tolerance(tol, "tol")
    _kernels.require_tolerance(eps_degenerate, "eps_degenerate")
    generic = validate_generic_position(net, tol)
    metric = metric_field(net, eps_degenerate)
    sset = SingularSet.from_omega(metric)
    table = _vertex_records(net, sset, tol)
    admissibility = [(vert, f"{degree} incident singular edges at an "
                            "interior vertex")
                     for vert, degree in sset.inadmissible()]
    return NetAnalysis(net=net, metric=metric, singular_set=sset, table=table,
                       chains=_NO_CHAINS if admissibility else sset.chains(),
                       generic_violations=generic,
                       admissibility_violations=admissibility)
