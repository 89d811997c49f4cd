"""Smooth counterpart used as a convergence oracle for the discrete nets.

For smooth curves alpha(u), beta(v) the metric is

    Omega(u, v) = [alpha(u) - beta(v), alpha'(u), beta'(v)],

its zero set is the singular curve, and along that curve the kernel ratio
lambda solves P alpha'(u) + lambda P beta'(v) = 0 in any plane transversal
to alpha(u) - beta(v).  Swallowtail points are where lambda equals the
slope dv/du of the singular curve; everywhere else the singular point is a
cuspidal edge.  The zero set is traced by marching squares; tangency
points are bracketed along the traced chain and refined by interpolation.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._kernels import det3
from .errors import (DegenerateDirection, NonGenericCell, NonGenericChain,
                     OutOfRange, ValidationError)
from .net_core import PolyCurve, walk_chains


@dataclass(frozen=True)
class SmoothCurvePair:
    """Two non-intersecting smooth space curves with derivative evaluators.

    Evaluators map a float parameter to a length-3 array.  First and
    second derivatives are cross-checked against central differences of
    the position evaluators at construction.
    """

    alpha: object
    beta: object
    d_alpha: object
    d_beta: object
    dd_alpha: object
    dd_beta: object
    u_range: tuple
    v_range: tuple
    name: str = "custom"

    def __post_init__(self):
        for curve, d1, d2, rng, tag in (
                (self.alpha, self.d_alpha, self.dd_alpha, self.u_range, "alpha"),
                (self.beta, self.d_beta, self.dd_beta, self.v_range, "beta")):
            lo, hi = rng
            if not hi > lo:
                raise ValidationError(f"{tag}: empty parameter range {rng}")
            h = 1e-5 * (hi - lo)
            for t in np.linspace(lo + h, hi - h, 5):
                fd1 = (np.asarray(curve(t + h)) - np.asarray(curve(t - h))) / (2 * h)
                fd2 = (np.asarray(d1(t + h)) - np.asarray(d1(t - h))) / (2 * h)
                for got, ref, which in ((np.asarray(d1(t)), fd1, "first"),
                                        (np.asarray(d2(t)), fd2, "second")):
                    err = np.abs(got - ref).max()
                    if err > 1e-6 * max(1.0, float(np.abs(got).max())):
                        raise ValidationError(
                            f"{tag}: {which} derivative evaluator disagrees "
                            f"with finite differences at t={t:.6g} "
                            f"(error {err:.3e})")
        us = np.linspace(*self.u_range, 33)
        vs = np.linspace(*self.v_range, 33)
        av = np.array([self.alpha(u) for u in us])
        bv = np.array([self.beta(v) for v in vs])
        gap = np.linalg.norm(av[:, None, :] - bv[None, :, :], axis=2)
        if gap.min() <= 1e-9 * max(1.0, np.abs(av).max(), np.abs(bv).max()):
            raise ValidationError("curves intersect on the sampled ranges")

    def require(self, u, v):
        if not (self.u_range[0] <= u <= self.u_range[1]
                and self.v_range[0] <= v <= self.v_range[1]):
            raise OutOfRange(f"(u, v) = ({u}, {v}) outside "
                             f"{self.u_range} x {self.v_range}")


def builtin_pair(name):
    """Catalog of closed-form curve pairs used by tests and the CLI.

    flat       Omega is identically 1 (no singular set).
    parabolic  Omega = 3 v^2 - 2 v - 2 u; singular curve u = -v + 1.5 v^2
               with a single tangency point at the origin.
    symmetric  Omega = -2 (u + v); lambda equals dv/du identically, so the
               tangency indicator vanishes along the whole chain.
    """
    if name == "flat":
        return SmoothCurvePair(
            alpha=lambda u: np.array([u, 0.0, 1.0]),
            beta=lambda v: np.array([0.0, v, 0.0]),
            d_alpha=lambda u: np.array([1.0, 0.0, 0.0]),
            d_beta=lambda v: np.array([0.0, 1.0, 0.0]),
            dd_alpha=lambda u: np.zeros(3),
            dd_beta=lambda v: np.zeros(3),
            u_range=(-1.0, 1.0), v_range=(-1.0, 1.0), name="flat")
    if name == "parabolic":
        return SmoothCurvePair(
            alpha=lambda u: np.array([u, u * u, 1.0]),
            beta=lambda v: np.array([v, -v * v + v ** 3, 0.0]),
            d_alpha=lambda u: np.array([1.0, 2.0 * u, 0.0]),
            d_beta=lambda v: np.array([1.0, -2.0 * v + 3.0 * v * v, 0.0]),
            dd_alpha=lambda u: np.array([0.0, 2.0, 0.0]),
            dd_beta=lambda v: np.array([0.0, -2.0 + 6.0 * v, 0.0]),
            u_range=(-1.0, 1.0), v_range=(-1.0, 1.0), name="parabolic")
    if name == "symmetric":
        # the v range is offset so the zero line u + v = 0 misses the
        # corners of uniform trace grids
        return SmoothCurvePair(
            alpha=lambda u: np.array([u, u * u, 1.0]),
            beta=lambda v: np.array([v, -v * v, 0.0]),
            d_alpha=lambda u: np.array([1.0, 2.0 * u, 0.0]),
            d_beta=lambda v: np.array([1.0, -2.0 * v, 0.0]),
            dd_alpha=lambda u: np.array([0.0, 2.0, 0.0]),
            dd_beta=lambda v: np.array([0.0, -2.0, 0.0]),
            u_range=(-1.0, 1.0), v_range=(-0.97, 1.03), name="symmetric")
    raise KeyError(f"unknown builtin pair {name!r}; "
                   "choose from flat, parabolic, symmetric")


BUILTIN_PAIRS = ("flat", "parabolic", "symmetric")


def omega_smooth(pair, u, v):
    """[alpha(u) - beta(v), alpha'(u), beta'(v)]."""
    pair.require(u, v)
    n = np.asarray(pair.alpha(u)) - np.asarray(pair.beta(v))
    return float(det3(n, np.asarray(pair.d_alpha(u)),
                      np.asarray(pair.d_beta(v))))


def omega_smooth_grid(pair, us, vs):
    """omega_smooth at every (us[i], vs[j]) as a (len(us), len(vs)) array.

    Each evaluator runs once per parameter value and Omega is filled one
    u-row at a time with omega_smooth's det3, so every entry equals the
    scalar value bit for bit.  The range is checked along the first row
    and the first column, which meets the first out-of-range point of a
    row-major scan of the product grid.
    """
    for v in vs:
        pair.require(us[0], v)
    for u in us:
        pair.require(u, vs[0])
    a = np.array([pair.alpha(u) for u in us])
    x = np.array([pair.d_alpha(u) for u in us])
    b = np.array([pair.beta(v) for v in vs]).T
    y = np.array([pair.d_beta(v) for v in vs]).T
    w = np.empty((len(us), len(vs)))
    for i in range(len(us)):
        w[i] = det3(a[i, :, None] - b, x[i], y)
    return w


class SmoothChain(NamedTuple):
    points: np.ndarray     # (k, 2) parameter-domain points
    closed: bool


def _bisect_edge(pair, p_lo, p_hi, w_lo, tol, maxiter=200):
    """Bisection along a grid edge bracketing a sign change of Omega."""
    lo = np.asarray(p_lo, dtype=float)
    hi = np.asarray(p_hi, dtype=float)
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        w = omega_smooth(pair, mid[0], mid[1])
        if abs(w) <= tol:
            return mid
        if (w > 0) == (w_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def trace_singular_curve(pair, grid_n, tol):
    """Marching-squares extraction of the zero set of Omega.

    Omega is sampled on a (grid_n+1)^2 grid; cells with sign changes
    contribute segments whose endpoints are linearly interpolated along
    cell edges and then bisected until |Omega| <= tol.  Saddle cells are
    disambiguated by the sign at the cell centre.  Returns a list of
    SmoothChain polylines in the (u, v) parameter domain.
    """
    if grid_n < 16:
        raise ValidationError(f"grid_n must be >= 16, got {grid_n}")
    us = np.linspace(*pair.u_range, grid_n + 1)
    vs = np.linspace(*pair.v_range, grid_n + 1)
    w = omega_smooth_grid(pair, us, vs)
    wmax = float(np.abs(w).max())
    corner_eps = 1e-12 * max(1.0, wmax)
    zero_corner = np.abs(w) <= corner_eps
    if zero_corner.any():
        i, j = np.argwhere(zero_corner)[0]
        raise NonGenericCell(
            f"Omega vanishes at grid corner (u, v) = "
            f"({us[i]:.9g}, {vs[j]:.9g}); perturb the grid")

    # crossing point on each grid edge with a sign change, keyed by
    # ("h", i, j) for the u-direction edge (i,j)-(i+1,j) and ("v", i, j)
    # for (i,j)-(i,j+1)
    crossings = {}

    def edge_point(kind, i, j):
        key = (kind, i, j)
        if key in crossings:
            return key
        if kind == "h":
            w0, w1 = w[i, j], w[i + 1, j]
            p0 = (us[i], vs[j])
            p1 = (us[i + 1], vs[j])
        else:
            w0, w1 = w[i, j], w[i, j + 1]
            p0 = (us[i], vs[j])
            p1 = (us[i], vs[j + 1])
        s = w0 / (w0 - w1)
        guess = (p0[0] + s * (p1[0] - p0[0]), p0[1] + s * (p1[1] - p0[1]))
        if abs(omega_smooth(pair, *guess)) <= tol:
            crossings[key] = np.array(guess)
        else:
            crossings[key] = _bisect_edge(pair, p0, p1, w0, tol)
        return key

    # sign flips on the u-direction edges (i,j)-(i+1,j) and the
    # v-direction edges (i,j)-(i,j+1); only cells touching one are
    # visited, in row-major order
    pos = w > 0
    h_flip = pos[:-1] != pos[1:]
    v_flip = pos[:, :-1] != pos[:, 1:]
    active = h_flip[:, :-1] | h_flip[:, 1:] | v_flip[:-1] | v_flip[1:]
    segments = []
    for i, j in np.argwhere(active).tolist():
        sides = [side for side, flip in ((("h", i, j), h_flip[i, j]),
                                         (("h", i, j + 1), h_flip[i, j + 1]),
                                         (("v", i, j), v_flip[i, j]),
                                         (("v", i + 1, j), v_flip[i + 1, j]))
                 if flip]
        if len(sides) == 2:
            segments.append((edge_point(*sides[0]), edge_point(*sides[1])))
        else:
            # saddle (the flips around a cell are even, so 4 sides):
            # pair each corner with the centre-sign rule
            centre = omega_smooth(pair, 0.5 * (us[i] + us[i + 1]),
                                  0.5 * (vs[j] + vs[j + 1]))
            same = (centre > 0) == (w[i, j] > 0)
            bottom, top = ("h", i, j), ("h", i, j + 1)
            left, right = ("v", i, j), ("v", i + 1, j)
            if same:
                pairs = ((bottom, right), (top, left))
            else:
                pairs = ((bottom, left), (top, right))
            for a, b in pairs:
                segments.append((edge_point(*a), edge_point(*b)))
    return _link_chains(segments, crossings)


def _link_chains(segments, crossings):
    """Join segments between edge-crossing keys into chains: open chains
    from their sorted end keys first, then closed loops, all sorted by
    their first point."""
    links = defaultdict(list)
    for k, (a, b) in enumerate(segments):
        links[a].append((b, k))
        links[b].append((a, k))
    chains = [SmoothChain(np.array([crossings[key] for key in keys]), closed)
              for keys, _, closed in walk_chains(links)]
    chains.sort(key=lambda c: (c.points[0, 0], c.points[0, 1]))
    return chains


class LambdaFit(NamedTuple):
    value: float
    residual: float


def lambda_along_curve(pair, point):
    """Least-squares lambda with P alpha' + lambda P beta' minimal.

    P is the orthogonal projection along alpha(u) - beta(v); on the
    singular curve the residual vanishes and lambda is the kernel ratio.
    """
    u, v = float(point[0]), float(point[1])
    pair.require(u, v)
    n = np.asarray(pair.alpha(u)) - np.asarray(pair.beta(v))
    n = n / np.linalg.norm(n)
    da = np.asarray(pair.d_alpha(u))
    db = np.asarray(pair.d_beta(v))
    pa = da - n * float(np.dot(n, da))
    pb = db - n * float(np.dot(n, db))
    pb_norm = float(np.linalg.norm(pb))
    if pb_norm <= 1e-12 * max(1.0, float(np.linalg.norm(db))):
        raise DegenerateDirection(
            f"projected beta' vanishes at (u, v) = ({u:.6g}, {v:.6g})")
    lam = -float(np.dot(pa, pb)) / (pb_norm * pb_norm)
    residual = float(np.linalg.norm(pa + lam * pb))
    return LambdaFit(lam, residual)


@dataclass(frozen=True)
class SmoothSingularPoint:
    u: float
    v: float
    lam: float
    dvdu: float
    kind: str               # "CuspidalEdge" or "SwallowtailCandidate"


def _chain_tangents(points):
    """Centered-difference tangents along a chain, one-sided at the ends."""
    t = np.empty_like(points)
    t[1:-1] = 0.5 * (points[2:] - points[:-2])
    t[0] = points[1] - points[0]
    t[-1] = points[-1] - points[-2]
    return t


def find_swallowtails(pair, chain):
    """Locate tangency points (lambda = dv/du) along one traced chain.

    The indicator g = lambda - dv/du has poles where the chain runs
    parallel to the v axis, so sign changes are detected on the
    pole-free form H = lambda * du - dv (du, dv from chain tangents),
    whose roots are exactly the roots of g.  Chains with H vanishing
    identically (tangency everywhere) raise NonGenericChain.
    """
    points = np.asarray(chain.points if isinstance(chain, SmoothChain)
                        else chain, dtype=float)
    if points.shape[0] < 3:
        raise ValidationError("chain needs at least 3 points")
    lams = np.array([lambda_along_curve(pair, p).value for p in points])
    tang = _chain_tangents(points)
    hh = lams * tang[:, 0] - tang[:, 1]
    hscale = float(np.max(np.abs(lams * tang[:, 0]) + np.abs(tang[:, 1])))
    zero_tol = 1e-9 * max(hscale, 1e-300)
    if np.all(np.abs(hh) <= zero_tol):
        raise NonGenericChain(
            "lambda matches the chain slope along the whole chain")

    def dvdu(t):
        if t[0] == 0.0:
            return math.inf if t[1] > 0 else -math.inf
        return t[1] / t[0]

    out = [SmoothSingularPoint(float(p[0]), float(p[1]), float(lam),
                               dvdu(t), "CuspidalEdge")
           for p, lam, t in zip(points, lams, tang)]
    prev_idx = None
    for i in range(points.shape[0]):
        if abs(hh[i]) <= zero_tol:
            continue
        if prev_idx is not None and (hh[i] > 0) != (hh[prev_idx] > 0):
            s = hh[prev_idx] / (hh[prev_idx] - hh[i])
            loc = points[prev_idx] + s * (points[i] - points[prev_idx])
            t = tang[prev_idx] + s * (tang[i] - tang[prev_idx])
            lam = lambda_along_curve(pair, loc).value
            out.append(SmoothSingularPoint(float(loc[0]), float(loc[1]),
                                           float(lam), dvdu(t),
                                           "SwallowtailCandidate"))
        prev_idx = i
    out.sort(key=lambda p: (p.u, p.v))
    return out


def _projected_cross(n_unit, x, y):
    return float(np.dot(n_unit, np.cross(x, y)))


def check_regularity(pair, point, tol):
    """The singular curve is regular at the point unless all three of
    Pa' x Pb', Pa'' x Pb', Pa' x Pb'' vanish within tol (relative)."""
    u, v = float(point[0]), float(point[1])
    pair.require(u, v)
    n = np.asarray(pair.alpha(u)) - np.asarray(pair.beta(v))
    n = n / np.linalg.norm(n)
    da = np.asarray(pair.d_alpha(u))
    db = np.asarray(pair.d_beta(v))
    dda = np.asarray(pair.dd_alpha(u))
    ddb = np.asarray(pair.dd_beta(v))
    checks = ((da, db), (dda, db), (da, ddb))
    for x, y in checks:
        mag = float(np.linalg.norm(x)) * float(np.linalg.norm(y))
        if abs(_projected_cross(n, x, y)) > tol * max(mag, 1e-300):
            return True
    return False


def curvature_gap(pair, point):
    """[Pa', Pa''] - lambda^3 [Pb', Pb'']; zero exactly at tangency
    (swallowtail) points of the singular curve."""
    u, v = float(point[0]), float(point[1])
    pair.require(u, v)
    n = np.asarray(pair.alpha(u)) - np.asarray(pair.beta(v))
    n = n / np.linalg.norm(n)
    lam = lambda_along_curve(pair, point).value
    a_term = _projected_cross(n, pair.d_alpha(u), pair.dd_alpha(u))
    b_term = _projected_cross(n, pair.d_beta(v), pair.dd_beta(v))
    return a_term - lam ** 3 * b_term


def sample_pair(pair, du, dv):
    """Sample the smooth pair into polygonal curves.

    Index i of alpha corresponds to parameter u_min + i * du (and likewise
    for beta), with offset 0, so parameter = index * step + range start.
    Returns (alpha_curve, beta_curve, u_params, v_params).
    """
    us = np.arange(pair.u_range[0], pair.u_range[1] + du / 2, du)
    vs = np.arange(pair.v_range[0], pair.v_range[1] + dv / 2, dv)
    a = np.array([pair.alpha(u) for u in us])
    b = np.array([pair.beta(v) for v in vs])
    return PolyCurve(a, offset=0), PolyCurve(b, offset=0), us, vs
