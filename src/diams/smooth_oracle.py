"""Smooth counterpart used as a convergence oracle for the discrete nets.

For smooth curves alpha(u), beta(v) the metric is

    Omega(u, v) = [alpha(u) - beta(v), alpha'(u), beta'(v)],

its zero set is the singular curve, and along that curve the kernel ratio
lambda solves P alpha'(u) + lambda P beta'(v) = 0 in any plane transversal
to alpha(u) - beta(v).  Swallowtail points are where lambda equals the
slope dv/du of the singular curve; everywhere else the singular point is a
cuspidal edge.  The zero set is traced by marching squares on a grid
sampled with one evaluation of each curve per grid line, Omega filled in
blocks of u-rows; the crossing points on all sign-change edges are refined
together, by linear interpolation and then lockstep bisection, evaluating
only the curve whose parameter moves along the edge.  The crossings are
numbered by edge, the cells' segments are int arrays (only saddle cells
are visited one by one), and the chains' links come from a stable sort of
the segment ends.  Tangency points are bracketed along the traced chain
and refined by interpolation.  lambda is computed in batches, one row per
point, by `_kernel_ratio`, whose row dot products equal np.dot's bit for
bit; `lambda_along_curve` is its one-point case.  Curve evaluators take a
float and return a length-3 sequence of floats; `_rows` packs each batch
of calls into one buffer of float rows (`_row` packs one call), and the
packing refuses, by evaluator and parameter, a result that is not 3
numbers.  They stay scalar, because numpy's array power rounds differently
from the scalar pow of a Python float.  The builtins return tuples: a
call's cost is building its result, and an array costs far more than the
scalar math.
"""

import functools
import itertools
import math
import numbers
import struct
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import det3, require_tolerance
from .errors import (DegenerateDirection, NonGenericCell, NonGenericChain,
                     OutOfRange, ValidationError)
from .net_core import PolyCurve, float_grid_allocation, is_index, walk_chains


@dataclass(frozen=True)
class SmoothCurvePair:
    """Two non-intersecting smooth space curves with derivative evaluators.

    Evaluators map a float parameter to a length-3 sequence of floats
    (a tuple, list or array).  At construction each must return 3
    floats, and first and second derivatives are cross-checked against
    central differences of the position evaluators.
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
        for rng, tag in ((self.u_range, "alpha"), (self.v_range, "beta")):
            lo, hi = rng
            if not hi > lo:
                raise ValidationError(f"{tag}: empty parameter range {rng}")
            h = 1e-5 * (hi - lo)
            names = (tag, "d_" + tag, "dd_" + tag)
            for t in np.linspace(lo + h, hi - h, 5).tolist():
                for f, df, which in zip(names, names[1:], ("first", "second")):
                    ref = np.subtract(_row(self, f, t + h),
                                      _row(self, f, t - h)) / (2 * h)
                    got = np.array(_row(self, df, t))
                    err = np.abs(got - ref).max()
                    if err > 1e-6 * max(1.0, float(np.abs(got).max())):
                        raise ValidationError(
                            f"{tag}: {which} derivative evaluator disagrees "
                            f"with finite differences at t={t:.6g} "
                            f"(error {err:.3e})")
        us = np.linspace(*self.u_range, 33)
        vs = np.linspace(*self.v_range, 33)
        av, bv = _rows(self, "alpha", us), _rows(self, "beta", vs)
        gap = np.linalg.norm(av[:, None, :] - bv[None, :, :], axis=2)
        if gap.min() <= 1e-9 * max(1.0, np.abs(av).max(), np.abs(bv).max()):
            raise ValidationError("curves intersect on the sampled ranges")

    def require(self, u, v):
        if not (self.u_range[0] <= u <= self.u_range[1]
                and self.v_range[0] <= v <= self.v_range[1]):
            raise OutOfRange(f"(u, v) = ({u}, {v}) outside "
                             f"{self.u_range} x {self.v_range}")


_BUILTINS = {   # builtin_pair's closed-form curve pairs
    "flat": dict(                   # Omega = 1: no singular set
        alpha=lambda u: (u, 0.0, 1.0),
        beta=lambda v: (0.0, v, 0.0),
        d_alpha=lambda u: (1.0, 0.0, 0.0),
        d_beta=lambda v: (0.0, 1.0, 0.0),
        dd_alpha=lambda u: (0.0, 0.0, 0.0),
        dd_beta=lambda v: (0.0, 0.0, 0.0),
        u_range=(-1.0, 1.0), v_range=(-1.0, 1.0)),
    # Omega = 3 v^2 - 2 v - 2 u, zero on u = -v + 1.5 v^2: one tangency, at 0
    "parabolic": dict(
        alpha=lambda u: (u, u * u, 1.0),
        beta=lambda v: (v, -v * v + v ** 3, 0.0),
        d_alpha=lambda u: (1.0, 2.0 * u, 0.0),
        d_beta=lambda v: (1.0, -2.0 * v + 3.0 * v * v, 0.0),
        dd_alpha=lambda u: (0.0, 2.0, 0.0),
        dd_beta=lambda v: (0.0, -2.0 + 6.0 * v, 0.0),
        u_range=(-1.0, 1.0), v_range=(-1.0, 1.0)),
    # Omega = -2 (u + v), lambda = dv/du all along the chain; the offset v
    # range keeps the zero line off the corners of uniform trace grids
    "symmetric": dict(
        alpha=lambda u: (u, u * u, 1.0),
        beta=lambda v: (v, -v * v, 0.0),
        d_alpha=lambda u: (1.0, 2.0 * u, 0.0),
        d_beta=lambda v: (1.0, -2.0 * v, 0.0),
        dd_alpha=lambda u: (0.0, 2.0, 0.0),
        dd_beta=lambda v: (0.0, -2.0, 0.0),
        u_range=(-1.0, 1.0), v_range=(-0.97, 1.03)),
}

BUILTIN_PAIRS = tuple(_BUILTINS)


@functools.cache
def builtin_pair(name):
    """The closed-form curve pair `name` for tests and the CLI, built and
    checked once (the pairs are frozen)."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin pair {name!r}; "
                       f"choose from {', '.join(BUILTIN_PAIRS)}")
    return SmoothCurvePair(**_BUILTINS[name], name=name)


# one evaluator row: its arity check refuses a result that is not 3 numbers
_ROW = struct.Struct("=3d")


def _rows(pair, tag, ts):
    """The pair's evaluator `tag` at every entry of the 1-d array ts, as
    (len(ts), 3) float rows.  The evaluator gets Python floats, and each
    result is packed straight into one buffer, so a builtin's tuple of
    scalar results costs one small object per call, not an array.  A
    result that is not 3 floats is refused as _row refuses it."""
    curve, ts = getattr(pair, tag), ts.tolist()
    try:
        data = b"".join(itertools.starmap(_ROW.pack, map(curve, ts)))
    except (TypeError, struct.error) as exc:
        for t in ts:
            _row(pair, tag, t)
        # every result passed on a second call
        raise ValidationError(f"{tag}: evaluator returned a row that is "
                              "not 3 floats") from exc
    return np.frombuffer(data).reshape(-1, 3)


def _row(pair, tag, t):
    """The pair's evaluator `tag` at t as a tuple of 3 Python floats; a
    result that is not 3 floats raises ValidationError naming the
    evaluator and t."""
    row = getattr(pair, tag)(t)
    try:
        return _ROW.unpack(_ROW.pack(*row))
    except (TypeError, struct.error):
        pass
    try:
        shape = np.shape(row)
    except ValueError:
        got = "a ragged sequence"
    else:
        got = (repr(row) if shape == () else f"shape {shape}"
               if shape != (3,) else "3 entries that are not all floats")
    raise ValidationError(f"{tag}: evaluator returned {got} at "
                          f"t={float(t)!r}, expected 3 floats")


# u-rows of Omega per det3 call: enough rows to amortise the call, few
# enough that the block temporaries stay far below the grid itself
_SAMPLE_ROWS = 32

# bisection rounds per crossing before _refine takes the bracket midpoint
_REFINE_ROUNDS = 200


def omega_smooth(pair, u, v):
    """[alpha(u) - beta(v), alpha'(u), beta'(v)]."""
    pair.require(u, v)
    n = [p - q for p, q in zip(_row(pair, "alpha", u), _row(pair, "beta", v))]
    return float(det3(n, _row(pair, "d_alpha", u), _row(pair, "d_beta", v)))


def _sample_grid(pair, us, vs, w):
    """Fill w[i, j] with Omega(us[i], vs[j]) and return the samples
    (alpha, alpha', beta, beta') as (len, 3) arrays.

    Each evaluator runs once per parameter value and Omega is filled one
    block of _SAMPLE_ROWS u-rows at a time with omega_smooth's det3, which
    works entry by entry, so every entry equals the scalar value bit for
    bit.  The range is checked along the first row and the first column,
    which meets the first out-of-range point of a row-major scan of the
    product grid.
    """
    edge = np.concatenate([np.stack([np.full(len(vs), us[0]), vs], axis=1),
                           np.stack([us, np.full(len(us), vs[0])], axis=1)])
    inside = _in_range(pair, edge)
    if not inside.all():
        pair.require(*edge[np.argmin(inside)].tolist())
    a, x = _rows(pair, "alpha", us), _rows(pair, "d_alpha", us)
    b, y = _rows(pair, "beta", vs), _rows(pair, "d_beta", vs)
    at, xt = a.T[:, :, None], x.T[:, :, None]
    bt, yt = b.T[:, None, :], y.T[:, None, :]
    for i in range(0, len(us), _SAMPLE_ROWS):
        rows = slice(i, i + _SAMPLE_ROWS)
        w[rows] = det3(at[:, rows] - bt, xt[:, rows], yt)
    return a, x, b, y


def omega_smooth_grid(pair, us, vs):
    """omega_smooth at every (us[i], vs[j]) as a (len(us), len(vs)) array,
    equal to the scalar values bit for bit; the sampling is shared with
    trace_singular_curve.  us and vs are 1-d sequences of floats; if one
    is empty, so is the grid, and no evaluator runs."""
    us, vs = _parameters(us, "us"), _parameters(vs, "vs")
    w = np.empty((us.size, vs.size))
    if w.size:
        _sample_grid(pair, us, vs, w)
    return w


def _parameters(ts, name):
    try:
        ts = np.asarray(ts, dtype=float)
    except (TypeError, ValueError):
        ts = None
    if ts is None or ts.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d sequence of floats")
    return ts


class SmoothChain(NamedTuple):
    points: np.ndarray     # (k, 2) parameter-domain points
    closed: bool           # if so, the last point repeats the first one


def _omega_moving(pair, moving_u, t, fixed, fixed_d):
    """Omega at points whose moving parameter (u if moving_u, else v)
    takes the values t while the other one stays at grid samples, where
    fixed and fixed_d hold the other curve and its derivative as (m, 3)
    rows.  Only the moving curve's two evaluators run, once per point;
    det3 works entry by entry, so each value equals omega_smooth's."""
    if moving_u:
        n = _rows(pair, "alpha", t) - fixed
        return det3(n.T, _rows(pair, "d_alpha", t).T, fixed_d.T)
    n = fixed - _rows(pair, "beta", t)
    return det3(n.T, fixed_d.T, _rows(pair, "d_beta", t).T)


def _refine(pair, moving_u, guess, lo, hi, w_lo, fixed, fixed_d, tol):
    """Crossing points on grid edges along the moving parameter, one
    (m, 2) row each: the linear guess where |Omega| <= tol there, else
    bisection of the edge from lo to hi (w_lo is Omega at lo).  All edges
    bisect in lockstep with the per-edge rules: stop at |Omega| <= tol,
    keep the half whose ends differ in sign, and after _REFINE_ROUNDS
    rounds take the midpoint of the bracket.  Midpoints of in-range ends
    stay in range, so they need no range check."""
    if not len(guess):
        return guess
    k = 0 if moving_u else 1
    out = guess.copy()
    w = _omega_moving(pair, moving_u, guess[:, k], fixed, fixed_d)
    todo = np.flatnonzero(~(np.abs(w) <= tol))
    lo, hi, w_lo = lo[todo], hi[todo], w_lo[todo]
    for _ in range(_REFINE_ROUNDS):
        if not todo.size:
            break
        mid = 0.5 * (lo + hi)
        w = _omega_moving(pair, moving_u, mid[:, k], fixed[todo],
                          fixed_d[todo])
        done = np.abs(w) <= tol
        out[todo[done]] = mid[done]
        same = ((w > 0) == (w_lo > 0))[:, None]
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
        left = ~done
        todo, lo, hi, w_lo = todo[left], lo[left], hi[left], w_lo[left]
    out[todo] = 0.5 * (lo + hi)
    return out


def trace_singular_curve(pair, grid_n, tol):
    """Marching-squares extraction of the zero set of Omega.

    Omega is sampled on a (grid_n+1)^2 grid with omega_smooth_grid's
    sampling: alpha, alpha' once per u sample, beta, beta' once per v
    sample.  Cells with sign changes contribute segments between crossing
    points on their edges; saddle cells are disambiguated by the sign at
    the cell centre.  All sign-change edges are then refined in one batch:
    the linear guess, and where |Omega| > tol there, lockstep bisection
    until |Omega| <= tol (or 200 rounds), evaluating only the curve whose
    parameter moves along the edge.  The points equal per-edge scalar
    refinement bit for bit.  Returns a list of SmoothChain polylines in
    the (u, v) parameter domain.  grid_n must be an integer >= 16
    (is_index), tol finite and >= 0.
    """
    if not (is_index(grid_n) and grid_n >= 16):
        raise ValidationError(f"grid_n must be an integer >= 16, got "
                              f"{grid_n!r}")
    require_tolerance(tol, "tol")
    size = int(grid_n) + 1
    with float_grid_allocation((size, size), f"grid_n = {grid_n}: a grid"):
        w = np.empty((size, size))
    us = np.linspace(*pair.u_range, size)
    vs = np.linspace(*pair.v_range, size)
    a, x, b, y = _sample_grid(pair, us, vs, w)
    # max |Omega| and the |Omega| <= corner_eps test without a grid of |w|
    wmax = max(float(w.max()), -float(w.min()))
    corner_eps = 1e-12 * max(1.0, wmax)
    zero_corner = (-corner_eps <= w) & (w <= corner_eps)
    if zero_corner.any():
        i, j = divmod(int(np.flatnonzero(zero_corner)[0]), size)
        raise NonGenericCell(
            f"Omega vanishes at grid corner (u, v) = "
            f"({us[i]:.9g}, {vs[j]:.9g}); perturb the grid")

    # sign flips on the u-direction edges (i,j)-(i+1,j) and the
    # v-direction edges (i,j)-(i,j+1), numbered in that order, each
    # row-major: the crossing nodes of the chains
    pos = w > 0
    h_flip = pos[:-1] != pos[1:]
    v_flip = pos[:, :-1] != pos[:, 1:]
    h_at, v_at = np.flatnonzero(h_flip), np.flatnonzero(v_flip)
    m = h_at.size
    # only cells touching a flip are visited, in row-major order.  Cell
    # (i, j) is flat c = i (size-1) + j; its sides bottom (i, j) and top
    # (i, j+1) are c + i and c + i + 1 in h_flip, left (i, j) and right
    # (i+1, j) are c and c + size-1 in v_flip
    active = h_flip[:, :-1] | h_flip[:, 1:] | v_flip[:-1] | v_flip[1:]
    cells = np.flatnonzero(active)
    h_side = (cells + cells // (size - 1))[:, None] + [0, 1]
    v_side = cells[:, None] + [0, size - 1]
    flips = np.concatenate([h_flip.ravel()[h_side], v_flip.ravel()[v_side]],
                           axis=1)
    nodes = np.concatenate([np.searchsorted(h_at, h_side),
                            m + np.searchsorted(v_at, v_side)], axis=1)
    # each cell's segments, at most two: the two flipped sides in side
    # order, or for a saddle (the flips around a cell are even, so 4
    # sides) each corner paired with the centre-sign rule
    segments = np.full((cells.size, 2, 2), -1)
    two = flips.sum(axis=1) == 2
    segments[two, 0] = nodes[two][flips[two]].reshape(-1, 2)
    for k in np.flatnonzero(~two).tolist():
        i, j = divmod(int(cells[k]), size - 1)
        bottom, top, left, right = nodes[k].tolist()
        centre = omega_smooth(pair, 0.5 * (us[i] + us[i + 1]),
                              0.5 * (vs[j] + vs[j + 1]))
        if (centre > 0) == (w[i, j] > 0):
            segments[k] = (bottom, right), (top, left)
        else:
            segments[k] = (bottom, left), (top, right)
    segments = segments.reshape(-1, 2)
    segments = segments[segments[:, 0] >= 0]

    # every flipped edge borders an active cell, so the segments name
    # exactly the flipped edges
    ih, jh = np.divmod(h_at, size)
    iv, jv = np.divmod(v_at, size - 1)
    i0, j0 = np.concatenate([ih, iv]), np.concatenate([jh, jv])
    i1, j1 = np.concatenate([ih + 1, iv]), np.concatenate([jh, jv + 1])
    p0 = np.stack([us[i0], vs[j0]], axis=1)
    p1 = np.stack([us[i1], vs[j1]], axis=1)
    w0 = w[i0, j0]
    s = w0 / (w0 - w[i1, j1])
    guess = p0 + s[:, None] * (p1 - p0)
    inside = _in_range(pair, guess)
    if not inside.all():
        # an evaluator's nan at a grid line gives (nan, nan) guesses
        pair.require(*guess[np.argmin(inside)])
    points = np.concatenate([
        _refine(pair, True, guess[:m], p0[:m], p1[:m], w0[:m],
                b[jh], y[jh], tol),
        _refine(pair, False, guess[m:], p0[m:], p1[m:], w0[m:],
                a[iv], x[iv], tol)])
    return _link_chains(segments, points)


def _link_chains(segments, points):
    """Join the (s, 2) segments between crossing nodes into chains, node
    k at points[k]: open chains from their first end node first, then
    closed loops, all sorted by their first point.  Each node's first
    occurrence in segment order takes its first link slot: a stable sort
    of the segment ends puts it first among the node's (at most two)
    occurrences."""
    ends = segments.ravel()
    order = np.argsort(ends, kind="stable")
    node = ends[order]
    slot = np.zeros(node.size, dtype=np.intp)
    slot[1:] = node[1:] == node[:-1]
    links = np.full((len(points), 2), -1)
    links[node, slot] = segments[:, ::-1].ravel()[order]
    chains = [SmoothChain(points[nodes], closed)
              for nodes, closed in walk_chains(links)]
    chains.sort(key=lambda c: (c.points[0, 0], c.points[0, 1]))
    return chains


class LambdaFit(NamedTuple):
    value: float
    residual: float


def _row_dot(p, q):
    """Dot products of matching rows of two (k, 3) arrays.  Stacked
    (1, 3) @ (3, 1) products go through the same BLAS ddot as np.dot and
    np.linalg.norm, so each entry equals np.dot(p[i], q[i]) bit for bit;
    (p * q).sum(1) and einsum round differently."""
    return np.matmul(p[:, None, :], q[:, :, None])[:, 0, 0]


def _in_range(pair, points):
    """Which rows of a (k, 2) array pass pair.require (nan fails)."""
    (u_lo, u_hi), (v_lo, v_hi) = pair.u_range, pair.v_range
    u, v = points[:, 0], points[:, 1]
    return (u_lo <= u) & (u <= u_hi) & (v_lo <= v) & (v <= v_hi)


def _kernel_ratio(pair, points):
    """Least-squares kernel ratio at every row of a (k, 2) array of
    (u, v) points: (lambda, residual, n, da, db) as arrays, where n is
    the unit co-normal alpha(u) - beta(v) and da, db are alpha'(u) and
    beta'(v) as (k, 3) rows.

    Each curve is evaluated once per point, and every dot product and
    norm is a _row_dot, so each row equals the per-point computation bit
    for bit.  The first point in row order that fails raises what a
    per-point loop would: OutOfRange from pair.require, or
    DegenerateDirection where P beta' vanishes.
    """
    inside = _in_range(pair, points)
    k = len(points) if inside.all() else int(np.argmin(inside))
    us, vs = points[:k, 0], points[:k, 1]
    a, b, da, db = (_rows(pair, tag, ts)
                    for tag, ts in (("alpha", us), ("beta", vs),
                                    ("d_alpha", us), ("d_beta", vs)))
    n = a - b
    n = n / np.sqrt(_row_dot(n, n))[:, None]
    pa = da - n * _row_dot(n, da)[:, None]
    pb = db - n * _row_dot(n, db)[:, None]
    pb_norm = np.sqrt(_row_dot(pb, pb))
    flat = pb_norm <= 1e-12 * np.fmax(1.0, np.sqrt(_row_dot(db, db)))
    if flat.any():
        i = int(np.argmax(flat))
        raise DegenerateDirection(f"projected beta' vanishes at (u, v) = "
                                  f"({us[i]:.6g}, {vs[i]:.6g})")
    if k < len(points):
        pair.require(*points[k].tolist())
    lam = -_row_dot(pa, pb) / (pb_norm * pb_norm)
    res = pa + lam[:, None] * pb
    return lam, np.sqrt(_row_dot(res, res)), n, da, db


def lambda_along_curve(pair, point):
    """Least-squares lambda with P alpha' + lambda P beta' minimal.

    P is the orthogonal projection along alpha(u) - beta(v); on the
    singular curve the residual vanishes and lambda is the kernel ratio.
    """
    lam, res, *_ = _kernel_ratio(
        pair, np.array([[float(point[0]), float(point[1])]]))
    return LambdaFit(float(lam[0]), float(res[0]))


@dataclass(frozen=True)
class SmoothSingularPoint:
    u: float
    v: float
    lam: float
    dvdu: float
    kind: str               # "CuspidalEdge" or "SwallowtailCandidate"


def _chain_tangents(points, closed=False):
    """Centered-difference tangents along a chain: across the seam of a
    closed one (each point given once), one-sided at an open one's ends."""
    t = 0.5 * (np.roll(points, -1, 0) - np.roll(points, 1, 0))
    if not closed:
        t[0] = points[1] - points[0]
        t[-1] = points[-1] - points[-2]
    return t


def find_swallowtails(pair, chain):
    """Locate tangency points (lambda = dv/du) along one traced chain.

    The indicator g = lambda - dv/du has poles where the chain runs
    parallel to the v axis, so sign changes are detected on the
    pole-free form H = lambda * du - dv (du, dv from chain tangents),
    whose roots are exactly the roots of g.  Chains with H vanishing
    identically (tangency everywhere) raise NonGenericChain.  lambda is
    computed for all chain points in one batch, then for all
    interpolated candidates in a second.

    A closed SmoothChain is a loop: its seam point is read once, with a
    centred tangent, and H is compared from the last point to the first
    as well, so no record depends on where the seam lies.
    """
    closed = isinstance(chain, SmoothChain) and chain.closed
    points = np.asarray(chain.points if isinstance(chain, SmoothChain)
                        else chain, dtype=float)[:-1 if closed else None]
    if points.shape[0] < 3:
        raise ValidationError("chain needs at least 3 points")
    lams = _kernel_ratio(pair, points)[0]
    tang = _chain_tangents(points, closed)
    hh = lams * tang[:, 0] - tang[:, 1]
    hscale = float(np.max(np.abs(lams * tang[:, 0]) + np.abs(tang[:, 1])))
    zero_tol = 1e-9 * max(hscale, 1e-300)
    if np.all(np.abs(hh) <= zero_tol):
        raise NonGenericChain(
            "lambda matches the chain slope along the whole chain")

    # consecutive entries of H outside the zero band that differ in sign,
    # on a loop the last one and the first as well
    live = np.flatnonzero(~(np.abs(hh) <= zero_tol))
    after = np.roll(live, -1) if closed else live[1:]
    before = live[:len(after)]
    flip = (hh[after] > 0) != (hh[before] > 0)
    i0, i1 = before[flip], after[flip]
    s = (hh[i0] / (hh[i0] - hh[i1]))[:, None]
    loc = points[i0] + s * (points[i1] - points[i0])
    loc_tang = tang[i0] + s * (tang[i1] - tang[i0])
    loc_lams = _kernel_ratio(pair, loc)[0]

    out = []
    for kind, pts, lam, t in (("CuspidalEdge", points, lams, tang),
                              ("SwallowtailCandidate", loc, loc_lams,
                               loc_tang)):
        # dv/du, +-inf where the tangent has du == 0
        dvdu = np.divide(t[:, 1], t[:, 0], where=t[:, 0] != 0.0,
                         out=np.where(t[:, 1] > 0, math.inf, -math.inf))
        out += [SmoothSingularPoint(u, v, l, d, kind) for (u, v), l, d
                in zip(pts.tolist(), lam.tolist(), dvdu.tolist())]
    out.sort(key=lambda p: (p.u, p.v))
    return out


def _projected_cross(n_unit, x, y):
    return float(np.dot(n_unit, np.cross(x, y)))


def check_regularity(pair, point, tol):
    """The singular curve is regular at the point unless all three of
    Pa' x Pb', Pa'' x Pb', Pa' x Pb'' vanish within tol (relative), which
    must be finite and >= 0."""
    require_tolerance(tol, "tol")
    u, v = float(point[0]), float(point[1])
    pair.require(u, v)
    n = np.subtract(_row(pair, "alpha", u), _row(pair, "beta", v))
    n = n / np.linalg.norm(n)
    da, db = _row(pair, "d_alpha", u), _row(pair, "d_beta", v)
    dda, ddb = _row(pair, "dd_alpha", u), _row(pair, "dd_beta", v)
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
    lam, _, n, da, db = _kernel_ratio(pair, np.array([[u, v]]))
    a_term = _projected_cross(n[0], da[0], _row(pair, "dd_alpha", u))
    b_term = _projected_cross(n[0], db[0], _row(pair, "dd_beta", v))
    return a_term - float(lam[0]) ** 3 * b_term


def sample_pair(pair, du, dv):
    """Sample the smooth pair into polygonal curves.

    Index i of alpha corresponds to parameter u_min + i * du (and likewise
    for beta), with offset 0, so parameter = index * step + range start,
    up to the last one past the range's end by no more than round-off;
    a last one within round-off of the end is the end itself, so every
    parameter lies in the range.  Returns (alpha_curve, beta_curve,
    u_params, v_params).  The steps must be finite and > 0.
    """
    for name, step in (("du", du), ("dv", dv)):
        if not (isinstance(step, numbers.Real) and math.isfinite(step)
                and step > 0):
            raise ValidationError(
                f"{name} must be a finite number > 0, got {step!r}")
    us, vs = _steps(*pair.u_range, float(du)), _steps(*pair.v_range, float(dv))
    a, b = _rows(pair, "alpha", us), _rows(pair, "beta", vs)
    return PolyCurve(a, offset=0), PolyCurve(b, offset=0), us, vs


def _steps(lo, hi, step):
    """lo + i * step for i = 0, 1, ... as sample_pair takes them."""
    # bounds the rounding of lo + i * step for i * step <= hi - lo + step
    slack = 4 * sys.float_info.epsilon * (abs(lo) + abs(hi) + step)
    ts = lo + np.arange(int((hi - lo) / step) + 2) * step
    ts = ts[ts <= hi + slack]
    if ts.size > 1 and hi - ts[-1] <= slack:
        ts[-1] = hi
    return ts
