"""Shared builders and oracles for the test suite."""

import json
from collections import defaultdict
from dataclasses import replace
from itertools import combinations

import numpy as np

from diams import (ConormalNet, PolyCurve, analyze_net, bilinear_point,
                   patch_for_quad)
from diams._kernels import decided_sign, orient_terms, undecided
from diams.errors import (DegenerateDirection, DegenerateMetric,
                          DegenerateOrientation, InadmissibleVertex,
                          IndexOutOfDomain, NonGenericCell, NonGenericChain,
                          ValidationError)
from diams.io_cli import example_curve_pair
from diams.net_core import (_PLANE_LABELS, GenericPositionViolation,
                            characteristic_scale, validate_generic_position)
from diams.singularity import (_KEY_BITS, _SIGN_TABLE, _TINY, Configuration,
                               EdgeIndex, Kind, MetricField, SingularEdge,
                               SingularPolyline, SingularVertex,
                               _admissible_signatures, _orient_strict,
                               _sign_outcome, _star_sides_agree,
                               admissibility_check, metric_field, orient,
                               singular_edges, singular_vertices)
from diams.smooth_oracle import (LambdaFit, SmoothChain, SmoothCurvePair,
                                 SmoothSingularPoint, _chain_tangents,
                                 omega_smooth)


def example_net(y, du=0.1, dv=0.1):
    return example_curve_pair(y, du, dv).to_net()


def four_edge_net():
    """Three-point curves whose central vertex (0, 0) carries four singular
    edges; its beta points are collinear."""
    return ConormalNet(
        PolyCurve(np.array([[-0.1, -0.1, 1.1], [0.0, 0.0, 1.0],
                            [0.1, 0.0, 1.0]]), -1),
        PolyCurve(np.array([[0.1, 0.05, 0.0], [0.0, 0.0, 0.0],
                            [0.2, 0.1, 0.0]]), -1))


def island_net():
    """4x4 curves whose metric is negative on the interior quad (1, 1)
    only, so its four edges form one closed singular loop."""
    h = 0.1
    xs = np.arange(4) * h
    ay = np.concatenate([[0.0], np.cumsum([0.0, 5.0, 0.0]) * h])
    by = np.concatenate([[0.0], np.cumsum([10.0, 3.0, 10.0]) * h])
    return ConormalNet(PolyCurve(np.stack([xs, ay, np.ones(4)], axis=1)),
                       PolyCurve(np.stack([xs, by, np.zeros(4)], axis=1)))


def circle_pair():
    """Omega = 1/4 - u^2 - v^2: a closed chain, whose direction is set by
    the order in which the cells are visited."""
    return SmoothCurvePair(
        alpha=lambda u: np.array([u, 0.0, u * u + 0.25]),
        beta=lambda v: np.array([0.0, v, -v * v]),
        d_alpha=lambda u: np.array([1.0, 0.0, 2.0 * u]),
        d_beta=lambda v: np.array([0.0, 1.0, -2.0 * v]),
        dd_alpha=lambda u: np.array([0.0, 0.0, 2.0]),
        dd_beta=lambda v: np.array([0.0, 0.0, -2.0]),
        u_range=(-1.0, 1.03), v_range=(-0.98, 1.0))


def corpus_candidates(seed, count):
    """The corpus generator's first candidates of a seed (the `corpus`
    workload's nets are the admissible ones among them)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        try:
            out.append(random_net_candidate(rng))
        except ValidationError:
            pass
    return out


def round_off_net():
    """Three-point curves whose central vertex (0, 0) carries two singular
    edges at zero dead zones (tol = metric eps = 0).  alpha'+ and beta'-
    project parallel along nu(0, 0), so Omega of quad (0, -1) is 0 up to
    round-off: its own frame rounds it to -4.7e-18, while
    orient(nu(0, 0), alpha'+, beta'-) in the vertex frame rounds to the
    other sign.  Read in the vertex frame, the four cross signs form the
    checkerboard that the quadrant test forbids; read from the quads'
    Omega, they cannot."""
    return ConormalNet(
        PolyCurve(np.array([[0.45, 0.06, 1.28], [0.0, 0.0, 1.0],
                            [-0.09, 0.35, 0.65]]), -1),
        PolyCurve(np.array([[0.1386, -0.5389999999999999, -0.32],
                            [0.0, 0.0, 0.0], [0.39, -0.41, -0.24]]), -1))


def parabolic_points(h):
    """Sample alpha(u) = (u, u^2, 1), beta(v) = (v, -v^2+v^3, 0) on [-1, 1]."""
    t = np.arange(-1.0, 1.0 + h / 2, h)
    a = np.stack([t, t ** 2, np.ones_like(t)], axis=1)
    b = np.stack([t, -t ** 2 + t ** 3, np.zeros_like(t)], axis=1)
    return a, b, t


def parabolic_net(h):
    a, b, t = parabolic_points(h)
    return ConormalNet(PolyCurve(a), PolyCurve(b)), t


def _poly_eval(coeffs, t):
    out = np.zeros_like(t)
    for c in coeffs[::-1]:
        out = out * t + c
    return out


def random_net_candidate(rng, n=21):
    """One random perturbed smooth sampling; may violate admissibility."""
    t = np.linspace(-1.0, 1.0, n)
    a2 = rng.uniform(0.3, 0.8) * rng.choice([-1.0, 1.0])
    a3 = rng.uniform(-0.3, 0.3)
    b1 = rng.uniform(-0.3, 0.3)
    b2 = rng.uniform(0.3, 0.8) * rng.choice([-1.0, 1.0])
    b3 = rng.uniform(-0.3, 0.3)
    za = rng.uniform(-0.15, 0.15, size=3)
    zb = rng.uniform(-0.15, 0.15, size=3)
    sx = rng.uniform(0.8, 1.2)
    jitter = 0.1 * (t[1] - t[0])
    alpha = np.stack([
        t + rng.normal(scale=jitter, size=n),
        _poly_eval([0.0, 0.0, a2, a3], t) + rng.normal(scale=jitter, size=n),
        1.0 + _poly_eval([0.0, za[0], za[1], za[2]], t) * 0.5
        + rng.normal(scale=0.3 * jitter, size=n),
    ], axis=1)
    beta = np.stack([
        sx * t + rng.normal(scale=jitter, size=n),
        _poly_eval([0.0, b1, b2, b3], t) + rng.normal(scale=jitter, size=n),
        _poly_eval([0.0, zb[0], zb[1], zb[2]], t) * 0.5
        + rng.normal(scale=0.3 * jitter, size=n),
    ], axis=1)
    return ConormalNet(PolyCurve(alpha), PolyCurve(beta))


def is_admissible(net, tol=1e-9):
    """Rejection filter: generic position, non-degenerate metric, and the
    quadrant hypothesis at every interior singular vertex."""
    if validate_generic_position(net, tol):
        return False
    try:
        metric = metric_field(net)
        edges = singular_edges(metric)
        for sv in singular_vertices(edges, net.domain):
            if not net.domain.is_interior_vertex(*sv.vertex):
                continue
            if sv.configuration == Configuration.INADMISSIBLE:
                return False
            if not admissibility_check(net, sv, tol):
                return False
    except (DegenerateMetric, DegenerateOrientation):
        return False
    return True


def generate_admissible(rng, n=21, omega_floor=None):
    """Criterion 3's nets: random perturbed smooth samplings,
    rejection-sampled on generic position, metric non-degeneracy and the
    quadrant hypothesis; with omega_floor also on
    |Omega| > omega_floor * scale^3 on every quad."""
    while True:
        try:
            net = random_net_candidate(rng, n)
        except ValidationError:
            continue
        if validate_generic_position(net):
            continue
        try:
            metric = metric_field(net)
            if omega_floor is not None and not (
                    np.abs(metric.values) > omega_floor * net.scale ** 3).all():
                continue
            edges = singular_edges(metric)
            verts = singular_vertices(edges, net.domain)
            if all(admissibility_check(net, sv)
                   for sv in verts
                   if net.domain.is_interior_vertex(*sv.vertex)):
                return net, metric, edges, verts
        except (DegenerateMetric, DegenerateOrientation):
            continue


def random_admissible_net(rng, n=21, max_tries=50):
    for _ in range(max_tries):
        try:
            net = random_net_candidate(rng, n)
        except ValidationError:
            continue
        if is_admissible(net):
            return net
    raise RuntimeError("no admissible net found; generator needs retuning")


def quadrant_signature(n0, line_a, line_b, w, tol, what):
    """Pair of orientation signs of w against the two quadrant lines.

    Scalar reference for the signatures that classification reads from
    the vertex sign table."""
    return (_orient_strict(n0, line_a, w, tol, f"{what} vs first line"),
            _orient_strict(n0, line_b, w, tol, f"{what} vs second line"))


def vertex_frame(net, u0, v0):
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


def generic_position_frames(net, u, v, cross_on_quads):
    """{(plane, plane): (nu, x, y)} over the six pairs of frame directions
    x, y at the vertex (u, v), as float triples.  Without cross_on_quads
    all six use the vertex's co-normal nu = alpha(u) - beta(v): that is
    how the generic-position test was decided before its four cross pairs
    were read from the metric grid, kept as the reference for that move.
    With cross_on_quads each cross pair (alpha+-, beta+-) uses the
    co-normal at the lower-left vertex of the quad on the sides of its
    two planes, which is the metric grid's frame for that quad."""
    n, *dirs = vertex_frame(net, u, v)
    frames = {}
    for i, j in combinations(range(4), 2):
        nu = n
        if cross_on_quads and i < 2 <= j:
            nu = tuple(net.conormal(u - i, v - (j - 2)).tolist())
        frames[_PLANE_LABELS[i], _PLANE_LABELS[j]] = (nu, dirs[i], dirs[j])
    return frames


def scalar_generic_violations(net, tol, cross_on_quads):
    """(vertex, plane, plane) wherever the scalar orient reads 0 on
    generic_position_frames at a vertex with all four curve neighbours."""
    dom = net.domain
    return {((u, v), *planes)
            for u in range(dom.u_min + 1, dom.u_max)
            for v in range(dom.v_min + 1, dom.v_max)
            for planes, frame in generic_position_frames(
                net, u, v, cross_on_quads).items()
            if orient(*frame, tol) == 0}


def planted_coincidence_nets(rng, count=120):
    """Random 6x6 nets with one curve point planted so that its frame
    direction at a vertex lies in span(nu, y) for another frame direction
    y, up to a relative offset swept across the dead-zone band."""
    for _ in range(count):
        net = random_net_candidate(rng, n=6)
        a, b = net.alpha.points.copy(), net.beta.points.copy()
        i, j = (int(k) for k in rng.integers(1, 5, size=2))
        n, ap, am, bp, bm = (np.array(x) for x in vertex_frame(net, i, j))
        moved = int(rng.integers(4))
        y = (ap, am, bp, bm)[int(rng.choice([k for k in range(4)
                                             if k != moved]))]
        x = rng.uniform(0.2, 1.0) * n + rng.uniform(0.2, 1.0) * y
        x += 10.0 ** rng.uniform(-12.0, -6.0) * np.linalg.norm(x) \
            * rng.standard_normal(3)
        if moved == 0:
            a[i + 1] = a[i] + x
        elif moved == 1:
            a[i - 1] = a[i] - x
        elif moved == 2:
            b[j + 1] = b[j] + x
        else:
            b[j - 1] = b[j] - x
        try:
            net = ConormalNet(PolyCurve(a), PolyCurve(b))
        except ValidationError:
            continue
        yield net


def analyzed(net, **kw):
    return analyze_net(net, **kw)


def densify(points, step=0.002):
    """Resample a polyline so consecutive samples are at most step apart."""
    pts = np.asarray(points, dtype=float)
    out = [pts[0]]
    for a, b in zip(pts[:-1], pts[1:]):
        k = max(2, int(np.ceil(np.linalg.norm(b - a) / step)))
        out.extend(np.linspace(a, b, k)[1:])
    return np.array(out)


def one_sided_hausdorff(src, dst, chunk=1024):
    worst = 0.0
    for i in range(0, len(src), chunk):
        d = np.sqrt(((src[i:i + chunk, None, :] - dst[None, :, :]) ** 2
                     ).sum(-1)).min(axis=1)
        worst = max(worst, float(d.max()))
    return worst


def random_unimodular(rng):
    """Product of elementary shears; determinant 1 up to round-off."""
    m = np.eye(3)
    for _ in range(4):
        i, j = rng.choice(3, size=2, replace=False)
        e = np.eye(3)
        e[i, j] = rng.uniform(-1.0, 1.0)
        m = m @ e
    return m


def transformed_net(net, matrix=None, shift=None):
    a = net.alpha.points
    b = net.beta.points
    if matrix is not None:
        a = a @ np.asarray(matrix).T
        b = b @ np.asarray(matrix).T
    if shift is not None:
        a = a + shift
        b = b + shift
    return ConormalNet(PolyCurve(a, net.alpha.offset),
                       PolyCurve(b, net.beta.offset))


def parse_obj(path):
    """Minimal OBJ reader: vertices, faces, groups, polylines."""
    vertices, faces, groups, lines = [], [], [], []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            parts = raw.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x) - 1 for x in parts[1:]])
            elif parts[0] == "g":
                groups.append(parts[1])
            elif parts[0] == "l":
                lines.append([int(x) - 1 for x in parts[1:]])
    return np.array(vertices), faces, groups, lines


def reference_tessellate(f, subdiv):
    """Per-quad loop form of `tessellate`: every quad's patch sampled on
    its own (subdiv+1)^2 grid by `bilinear_point`, then split and filtered
    triangle by triangle.  Kept as the reference that the welded
    whole-array version must reproduce bit for bit (where neither
    overflows nor underflows).  Returns (corners, quad_tags): the
    (M, 3, 3) corner coordinates of the kept triangles and their quads."""
    r = [k / subdiv for k in range(subdiv + 1)]
    blocks = {}
    for quad in f.domain.quads():
        patch = patch_for_quad(f, quad)
        blocks[quad] = [[bilinear_point(patch, s, t) for t in r] for s in r]
    scale = max(1e-300, max(float(np.abs(b).max()) for b in blocks.values()))
    area_floor = 1e-14 * scale * scale

    corners = []
    tags = []
    for quad, b in blocks.items():
        for si in range(subdiv):
            for ti in range(subdiv):
                v00, v10 = b[si][ti], b[si + 1][ti]
                v01, v11 = b[si][ti + 1], b[si + 1][ti + 1]
                for p0, p1, p2 in ((v00, v10, v01), (v10, v11, v01)):
                    area = 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0))
                    if area <= area_floor:
                        continue
                    corners.append((p0, p1, p2))
                    tags.append(quad)
    return np.array(corners).reshape(-1, 3, 3), tuple(tags)


def reference_triangle_areas(grid, subdiv):
    """Gathered per-triangle form of `tessellate`'s area filter on an
    (I, J, 3) sample grid: triangles in `tessellate`'s order (quad by
    quad, then sub-quads row-major, (v00, v10, v01) before (v10, v11,
    v01)), each one's corners gathered by index, and half the norm of the
    cross product of the edges from its first corner.  Kept as the
    reference that the areas read from grid slices (`sub_quad_areas`)
    must reproduce bit for bit."""
    n_i, n_j = grid.shape[:2]
    triangles = []
    for qu in range((n_i - 1) // subdiv):
        for qv in range((n_j - 1) // subdiv):
            for si in range(subdiv):
                for ti in range(subdiv):
                    v00 = (subdiv * qu + si) * n_j + subdiv * qv + ti
                    v10 = v00 + n_j
                    triangles += [(v00, v10, v00 + 1), (v10, v10 + 1, v00 + 1)]
    triangles = np.array(triangles, dtype=np.int64).reshape(-1, 3)
    vertices = grid.reshape(-1, 3)
    p0 = vertices[triangles[:, 0]]
    normal = np.cross(vertices[triangles[:, 1]] - p0,
                      vertices[triangles[:, 2]] - p0)
    return 0.5 * np.sqrt(np.einsum("ij,ij->i", normal, normal))


def _fmt(x):
    return "%.17g" % x


def reference_obj_text(mesh):
    """Per-row form of the OBJ text `export_obj` writes."""
    lines = []
    for p in mesh.vertices:
        lines.append(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
    current_tag = object()
    tags = map(tuple, mesh.quad_tags.tolist())
    for tri, tag in zip(mesh.triangles, tags):
        if tag != current_tag:
            lines.append(f"g quad_{tag[0]}_{tag[1]}")
            current_tag = tag
        lines.append(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}")
    for pl in mesh.polylines:
        idx = list(pl.indices) + ([pl.indices[0]] if pl.closed else [])
        lines.append("l " + " ".join(str(i + 1) for i in idx))
    return "\n".join(lines) + "\n"


def reference_builtin_pair(name):
    """Array-returning form of `builtin_pair`: every evaluator builds a
    length-3 np.array from the same scalar arithmetic.  Kept as the
    reference that the tuple-returning builtins must reproduce bit for
    bit, value by value and through the trace."""
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
    raise KeyError(name)


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


def reference_trace(pair, grid_n, tol):
    """Per-point form of `trace_singular_curve`: Omega sampled by one
    `omega_smooth` call per grid point and every cell of the grid
    visited, each crossing refined on its own by scalar `omega_smooth`
    calls as its cell first names it, kept as the reference that the
    row-wise sampling, the sign-change cell scan and the batched
    refinement must reproduce bit for bit.  Chains are linked by
    `reference_walk_chains` over a key-labelled link dict."""
    if grid_n < 16:
        raise ValidationError(f"grid_n must be >= 16, got {grid_n}")
    us = np.linspace(*pair.u_range, grid_n + 1)
    vs = np.linspace(*pair.v_range, grid_n + 1)
    w = np.empty((grid_n + 1, grid_n + 1))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            w[i, j] = omega_smooth(pair, u, v)
    wmax = float(np.abs(w).max())
    corner_eps = 1e-12 * max(1.0, wmax)
    zero_corner = np.abs(w) <= corner_eps
    if zero_corner.any():
        i, j = np.argwhere(zero_corner)[0]
        raise NonGenericCell(
            f"Omega vanishes at grid corner (u, v) = "
            f"({us[i]:.9g}, {vs[j]:.9g}); perturb the grid")
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

    segments = []
    for i in range(grid_n):
        for j in range(grid_n):
            sides = []
            if (w[i, j] > 0) != (w[i + 1, j] > 0):
                sides.append(("h", i, j))
            if (w[i, j + 1] > 0) != (w[i + 1, j + 1] > 0):
                sides.append(("h", i, j + 1))
            if (w[i, j] > 0) != (w[i, j + 1] > 0):
                sides.append(("v", i, j))
            if (w[i + 1, j] > 0) != (w[i + 1, j + 1] > 0):
                sides.append(("v", i + 1, j))
            if not sides:
                continue
            if len(sides) == 2:
                segments.append((edge_point(*sides[0]), edge_point(*sides[1])))
            elif len(sides) == 4:
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
            else:
                raise NonGenericCell(
                    f"cell ({i}, {j}) has {len(sides)} edge crossings")
    links = defaultdict(list)
    for k, (a, b) in enumerate(segments):
        links[a].append((b, k))
        links[b].append((a, k))
    chains = [SmoothChain(np.array([crossings[key] for key in keys]), closed)
              for keys, _, closed in reference_walk_chains(links)]
    chains.sort(key=lambda c: (c.points[0, 0], c.points[0, 1]))
    return chains


def reference_lambda(pair, point):
    """Per-point form of `lambda_along_curve`: np.dot and np.linalg.norm
    on one point's vectors.  Kept as the reference that the batched
    kernel ratio must reproduce bit for bit, errors included."""
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


def reference_find_swallowtails(pair, chain):
    """Per-point form of `find_swallowtails`: one `reference_lambda` per
    chain point and per candidate, brackets found by walking H point by
    point.  A closed SmoothChain is a loop: the seam point once, each
    tangent centred on the point's cyclic neighbours, and the walk goes
    on from the last point to the first."""
    closed = isinstance(chain, SmoothChain) and chain.closed
    points = np.asarray(chain.points if isinstance(chain, SmoothChain)
                        else chain, dtype=float)
    if closed:
        points = points[:-1]
    if points.shape[0] < 3:
        raise ValidationError("chain needs at least 3 points")
    lams = np.array([reference_lambda(pair, p).value for p in points])
    k = len(points)
    tang = (np.array([0.5 * (points[(i + 1) % k] - points[i - 1])
                      for i in range(k)]) if closed
            else _chain_tangents(points))
    hh = lams * tang[:, 0] - tang[:, 1]
    hscale = float(np.max(np.abs(lams * tang[:, 0]) + np.abs(tang[:, 1])))
    zero_tol = 1e-9 * max(hscale, 1e-300)
    if np.all(np.abs(hh) <= zero_tol):
        raise NonGenericChain(
            "lambda matches the chain slope along the whole chain")

    def dvdu(t):
        if t[0] == 0.0:
            return float("inf") if t[1] > 0 else float("-inf")
        return t[1] / t[0]

    out = [SmoothSingularPoint(float(p[0]), float(p[1]), float(lam),
                               dvdu(t), "CuspidalEdge")
           for p, lam, t in zip(points, lams, tang)]
    def bracket(i0, i1):
        if (hh[i1] > 0) != (hh[i0] > 0):
            s = hh[i0] / (hh[i0] - hh[i1])
            loc = points[i0] + s * (points[i1] - points[i0])
            t = tang[i0] + s * (tang[i1] - tang[i0])
            lam = reference_lambda(pair, loc).value
            out.append(SmoothSingularPoint(float(loc[0]), float(loc[1]),
                                           float(lam), dvdu(t),
                                           "SwallowtailCandidate"))

    first = prev_idx = None
    for i in range(points.shape[0]):
        if abs(hh[i]) <= zero_tol:
            continue
        if prev_idx is None:
            first = i
        else:
            bracket(prev_idx, i)
        prev_idx = i
    if closed:
        bracket(prev_idx, first)
    out.sort(key=lambda p: (p.u, p.v))
    return out


def reference_dump(obj):
    """Deterministic JSON of a value, one isinstance chain per value
    (sorted keys, %.17g floats, null for nan and +-inf): the reference
    that the report and curve-file writers must reproduce byte for
    byte."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x or x in (float("inf"), float("-inf")):
            return "null"
        return "%.17g" % x
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{json.dumps(k)}:{reference_dump(v)}"
                              for k, v in items) + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return "[" + ",".join(reference_dump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _parse_int(text):
    # %.17g writes -0.0 as "-0", which would parse as the integer 0
    return -0.0 if text == "-0" else int(text)


def reference_report_bytes(report, metric):
    """`write_report` bytes of `report` with its Omega section rebuilt as
    one {"quad", "value"} dict per quad, every other section's blocks
    parsed back into objects, and all of it serialized by
    `reference_dump`.  A float that reached the C encoder would come back
    in %.17g digits here, not in the encoder's repr digits."""
    omega = [{"quad": [2 * u + 1, 2 * v + 1], "value": w}
             for (u, v), w in metric.items()] if metric is not None else []
    report = {key: json.loads(b"".join(blocks), parse_int=_parse_int)
              for key, blocks in report.items() if key != "omega"}
    return (reference_dump({**report, "omega": omega}) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# per-edge reference of the singular set
# ---------------------------------------------------------------------------

def reference_singular_edges(metric):
    """Per-edge form of `singular_edges`: one SingularEdge per sign flip of
    Omega, collected in a set.  Kept as the reference that the one array
    pass (`SingularSet`) must reproduce."""
    w = metric.values
    dom = metric.domain
    neg, pos = w < 0.0, w > 0.0
    out = set()
    for axis, lo, hi, du, dv in (("v", np.s_[:-1, :], np.s_[1:, :], 1, 0),
                                 ("u", np.s_[:, :-1], np.s_[:, 1:], 0, 1)):
        flip = (neg[lo] & pos[hi]) | (pos[lo] & neg[hi])
        ii, jj = np.nonzero(flip)
        for u, v, a, b in zip((ii + (du + dom.u_min)).tolist(),
                              (jj + (dv + dom.v_min)).tolist(),
                              w[lo][flip].tolist(), w[hi][flip].tolist()):
            out.add(SingularEdge(EdgeIndex(axis, u, v), (a, b)))
    return out


def reference_incident_edges(edges, domain):
    """(vertex, frozenset of its singular edges) for every domain vertex
    on a singular edge, in vertex order, one edge end at a time."""
    incident = defaultdict(set)
    for se in edges:
        for vert in se.edge.endpoints():
            if domain.contains_vertex(*vert):
                incident[vert].add(se.edge)
    return [(vert, frozenset(incident[vert])) for vert in sorted(incident)]


def reference_singular_vertices(edges, domain):
    return [SingularVertex(vert, inc, Configuration.INADMISSIBLE
                           if domain.is_interior_vertex(*vert)
                           and len(inc) != 2 else None)
            for vert, inc in reference_incident_edges(edges, domain)]


def _reference_open(verts, edges):
    if verts[0] > verts[-1]:
        verts = verts[::-1]
        edges = edges[::-1]
    return SingularPolyline(tuple(verts), tuple(edges), closed=False)


def _reference_loop(verts, edges):
    cyc_v = verts[:-1]
    k = cyc_v.index(min(cyc_v))
    cyc_v = cyc_v[k:] + cyc_v[:k]
    cyc_e = edges[k:] + edges[:k]
    if len(cyc_v) > 2 and cyc_v[-1] < cyc_v[1]:
        cyc_v = [cyc_v[0]] + cyc_v[1:][::-1]
        cyc_e = cyc_e[::-1]
    return SingularPolyline(tuple(cyc_v + [cyc_v[0]]), tuple(cyc_e),
                            closed=True)


def reference_walk_chains(links):
    """Dict form of `net_core.walk_chains`, kept as its reference: links
    maps every node to its (neighbour, link key) pairs, each link listed
    at both ends under one hashable key.  Open chains start at the
    degree-1 nodes in sorted order, then each loop at the smallest node
    that still has an unused link; every step takes the first neighbour
    over an unused link.  Returns (nodes, link keys, closed) per chain in
    that order; a closed chain repeats its start node at the end."""
    left = {node: len(nbs) for node, nbs in links.items()}  # unused links
    used = set()

    def walk(start):
        nodes, keys = [start], []
        current = start
        while left[current]:
            for nb, key in links[current]:
                if key not in used:
                    break
            used.add(key)
            left[current] -= 1
            left[nb] -= 1
            current = nb
            nodes.append(current)
            keys.append(key)
            if current == start:
                return nodes, keys, True
        return nodes, keys, False

    chains = []
    for node in sorted(node for node, nbs in links.items() if len(nbs) == 1):
        if left[node]:                  # else the end of a walked chain
            chains.append(walk(node))
    for node in sorted(links):
        while left[node]:
            chains.append(walk(node))
    return chains


def reference_extract_polylines(vertices, edges, domain):
    """Per-edge form of `extract_polylines`: a tuple-keyed link dict walked
    by `reference_walk_chains`."""
    for sv in vertices:
        if sv.configuration == Configuration.INADMISSIBLE:
            raise InadmissibleVertex(
                f"vertex {sv.vertex} is inadmissible; no polyline structure")
    links = defaultdict(list)
    for e in sorted(se.edge for se in edges):
        a, b = e.endpoints()
        links[a].append((b, e))
        links[b].append((a, e))
    for vert, inc in links.items():
        if domain.is_interior_vertex(*vert) and len(inc) != 2:
            raise InadmissibleVertex(
                f"interior vertex {vert} has {len(inc)} singular edges")
    chains = [(_reference_loop if closed else _reference_open)(verts, chain)
              for verts, chain, closed in reference_walk_chains(links)]
    chains.sort(key=lambda c: c.vertices)
    return chains


# ---------------------------------------------------------------------------
# per-vertex reference of the classification
# ---------------------------------------------------------------------------

def _sign_key(signs):
    """Sign table index of six nonzero signs: bit 5 - k is set when sign k
    is +."""
    return sum(1 << (5 - k) for k, s in enumerate(signs) if s > 0)


def _reference_cross_signs(net, u0, v0, tol):
    """The cross signs orient(nu0, a, b) for a in (alpha'+, alpha'-),
    b in (beta'+, beta'-), in the order ++, +-, -+, --, and the four
    Omega they are read from: Omega's signs on the quads (u0, v0),
    (u0, v0-1), (u0-1, v0), (u0-1, v0-1), read from the whole-grid
    reference_sign_grids."""
    i = u0 - net.domain.u_min
    j = v0 - net.domain.v_min
    w, w_mag = reference_sign_grids(net)[0][:, i - 1:i + 1,
                                            j - 1:j + 1].reshape(
        2, 4)[:, ::-1].tolist()
    return tuple([decided_sign(d, m, tol) for d, m in zip(w, w_mag)]), w


# the frame pairs of the six signs, in sign-key order: (alpha'+, alpha'-),
# (beta'+, beta'-), then the cross pairs ++, +-, -+, --
SIGN_PAIRS = ((0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3))
# the star edges u+, u-, v+, v- as rays (frame direction, sign):
# nu x (alpha'+, -alpha'-, beta'+, -beta'-)
STAR_RAYS = ((0, 1), (1, -1), (2, 1), (3, -1))


def frame_sign(signs):
    """The bound sign predicate s(x, y) on rays (frame direction, sign)
    over alpha'+, alpha'-, beta'+, beta'- (numbered 0..3), wired from the
    six signs in SIGN_PAIRS order: orient flips under swapping or
    negating an argument."""
    m = [[0] * 4 for _ in range(4)]
    for sign, (x, y) in zip(signs, SIGN_PAIRS):
        m[x][y], m[y][x] = sign, -sign

    def s(x, y):
        return x[1] * y[1] * m[x[0]][y[0]]

    return s


def reference_base_edge(pattern, u0, v0, omegas):
    """Key of the base edge of a two-edge vertex with edge pattern
    `pattern`, one vertex at a time: the singular v-edge (the v- one when
    both are), otherwise the u-edge of larger metric contrast |Omega
    difference| across it, from the four quad metrics ++, +-, -+, --; a
    tie picks u+, the larger key."""
    if "v-" in pattern:
        return ("v", u0, v0 - 1)
    if "v+" in pattern:
        return ("v", u0, v0)
    # the u+ edge separates quads ++ and +-, the u- edge -+ and --
    w_pp, w_pm, w_mp, w_mm = omegas
    if abs(w_pp - w_pm) >= abs(w_mp - w_mm):
        return ("u", u0, v0)
    return ("u", u0 - 1, v0)


def reference_classify_vertex(net, f, vertex, tol=1e-9):
    """Per-vertex form of `classify_vertex`: the cross signs from the
    Omega grid, alpha'+ against alpha'- and beta'+ against beta'- by the
    scalar predicate on the vertex frame, the outcome from the sign table
    or, on a zero sign or an unexpected edge pattern, from the scalar
    branch logic, and star sidedness from the six signs wired up here.
    Kept as the reference that the one row rule must reproduce,
    exceptions and messages included."""
    u0, v0 = vertex.vertex
    if not net.domain.is_interior_vertex(u0, v0):
        return replace(vertex, configuration=Configuration.BOUNDARY,
                       kind=Kind.UNCLASSIFIED)
    if len(vertex.incident_singular_edges) != 2:
        raise InadmissibleVertex(
            f"vertex ({u0}, {v0}) has "
            f"{len(vertex.incident_singular_edges)} incident singular edges")
    n0, ap, am, bp, bm = vertex_frame(net, u0, v0)
    cross, omegas = _reference_cross_signs(net, u0, v0, tol)
    signs = (orient(n0, ap, am, tol), orient(n0, bp, bm, tol),
             *cross)
    pattern = "".join(sorted(e.direction_at((u0, v0))
                             for e in vertex.incident_singular_edges))
    outcome = None if 0 in signs else _SIGN_TABLE[_sign_key(signs)]
    if outcome is None or outcome.diagnostics["edge_pattern"] != pattern:
        outcome = _sign_outcome(signs, pattern, vertex.vertex)
    sided = _star_sides_agree(frame_sign(signs), STAR_RAYS, pattern,
                              vertex.vertex)
    return SingularVertex(vertex.vertex, vertex.incident_singular_edges,
                          outcome.configuration, outcome.kind,
                          {"base_edge": reference_base_edge(pattern, u0, v0,
                                                            omegas),
                           **outcome.diagnostics, "star_sidedness": sided})


# ---------------------------------------------------------------------------
# whole-grid reference of the sign checks
# ---------------------------------------------------------------------------

def reference_sign_grids(net):
    """The (det, mag) grids that the sign checks once read in full, each
    one orient_terms call over the whole grid: Omega's over the quads,
    then the six signs over the vertices with both neighbours on each
    curve, from (u_min+1, v_min+1), in SIGN_PAIRS order.  The two frame
    grids are formed in the vertex frame; the four cross grids are views
    of Omega's at the quads (u, v), (u, v-1), (u-1, v), (u-1, v-1)."""
    a, b = net.alpha.points.T, net.beta.points.T
    a0, b0 = a[:, 1:-1, None], b[:, None, 1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.array(orient_terms(*(a[:, :-1, None] - b[:, None, :-1]),
                                  *(a[:, 1:] - a[:, :-1])[:, :, None],
                                  *(b[:, 1:] - b[:, :-1])[:, None, :]))
        frames = [np.array(orient_terms(*(a0 - b0), *(a[:, 2:, None] - a0),
                                        *(a0 - a[:, :-2, None]))),
                  np.array(orient_terms(*(a0 - b0), *(b[:, None, 2:] - b0),
                                        *(b0 - b[:, None, :-2])))]
    return w, [*frames, w[:, 1:, 1:], w[:, 1:, :-1], w[:, :-1, 1:],
               w[:, :-1, :-1]]


def reference_intersection(alpha, beta):
    """The message of ConormalNet's |nu| check on the curves, read from
    the whole |nu| grid, or None where the curves pass it."""
    mantissa, exponent = np.frexp(characteristic_scale(alpha.points,
                                                       beta.points))
    nu = np.ldexp(alpha.points[:, None, :] - beta.points[None, :, :],
                  -exponent)
    norms = np.sqrt((nu ** 2).sum(axis=2))
    i, j = np.unravel_index(np.argmin(norms), norms.shape)
    if norms[i, j] > 1e-12 * mantissa:
        return None
    return ("curves intersect near vertex "
            f"({i + alpha.offset}, {j + beta.offset}): "
            f"|nu| = {np.ldexp(norms[i, j], exponent):.3e}")


def reference_generic_violations(net, tol):
    """validate_generic_position read from the six whole sign grids."""
    dom = net.domain
    out = []
    for (x, y), (d, mag) in zip(SIGN_PAIRS, reference_sign_grids(net)[1]):
        mask = undecided(d, mag, tol, "generic-position test")
        for i, j in np.argwhere(mask).tolist():
            out.append(GenericPositionViolation(
                (i + dom.u_min + 1, j + dom.v_min + 1), _PLANE_LABELS[x],
                _PLANE_LABELS[y]))
    out.sort(key=lambda g: (g.vertex, g.plane_a, g.plane_b))
    return out


def reference_metric_field(net, eps_degenerate):
    """metric_field read from Omega's whole (det, mag) grid."""
    values, mag = reference_sign_grids(net)[0]
    bad = undecided(values, mag, eps_degenerate, "Omega") | (mag < _TINY)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        quad = (int(i) + net.domain.u_min, int(j) + net.domain.v_min)
        if 0.0 < mag[i, j] < _TINY:
            what = f"Omega underflows: magnitude {mag[i, j]:.3e}"
        else:
            floor = eps_degenerate * float(mag[i, j])
            what = f"|Omega| = {abs(values[i, j]):.3e} <= {floor:.3e}"
        err = DegenerateMetric(f"{what} at quad {quad}")
        err.quad = quad
        err.value = float(values[i, j])
        raise err
    return MetricField(domain=net.domain, values=values)


def reference_vertex_records(net, sset, tol):
    """_vertex_records' records read from the six whole sign grids at the
    vertex indices of the two-edge vertices: an undecided overflow among
    them raises first, then each row is decided in vertex order, from the
    sign table where all six signs are decided and the table's edge
    pattern is the vertex's, else by the scalar branch logic."""
    dom = net.domain
    vertices = sset.vertices
    two_edge = [vert for vert, inner, flagged
                in zip(vertices, sset.interior, sset.flagged)
                if inner and not flagged]
    i, j = (np.array(two_edge, dtype=np.int64).reshape(-1, 2)
            - (dom.u_min + 1, dom.v_min + 1)).T
    d, mag = np.stack([t[:, i, j] for t in reference_sign_grids(net)[1]],
                      axis=1)
    undecided(d, mag, tol, "orientation test")
    rows = zip(d.T.tolist(), mag.T.tolist())
    out = []
    for vert, edges, inner, flagged in zip(vertices, sset.incident(),
                                           sset.interior, sset.flagged):
        if flagged or not inner:
            out.append(SingularVertex(vert, edges, Configuration.INADMISSIBLE
                                      if flagged else Configuration.BOUNDARY))
            continue
        vd, vmag = next(rows)
        signs = tuple(decided_sign(x, m, tol) for x, m in zip(vd, vmag))
        pattern = "".join(sorted(e.direction_at(vert) for e in edges))
        outcome = None if 0 in signs else _SIGN_TABLE[_sign_key(signs)]
        if outcome is None or outcome.diagnostics["edge_pattern"] != pattern:
            outcome = _sign_outcome(signs, pattern, vert)
        out.append(SingularVertex(
            vert, edges, outcome.configuration, outcome.kind,
            {"base_edge": reference_base_edge(pattern, *vert, vd[2:]),
             **outcome.diagnostics}))
    return out


def _edge_dict(edge):
    return {"axis": edge.axis, "base_vertex": edge[1:]}


def reference_sections(analysis):
    """The report's "singular_edges", "vertices" and "polylines" sections
    encoded from the analysis' records, one dict per edge, vertex and
    polyline through json: the reference that the array writers must
    reproduce byte for byte."""
    vertices = [{
        "vertex": sv.vertex,
        "configuration": (sv.configuration.value
                          if sv.configuration is not None else None),
        "kind": sv.kind.value,
        "diagnostics": sv.diagnostics,
    } for sv in analysis.vertices]
    polylines = [{
        "closed": pl.closed,
        "vertices": pl.vertices,
        "edges": list(map(_edge_dict, pl.edges)),
    } for pl in analysis.polylines]
    sections = {"singular_edges": [_edge_dict(se.edge)
                                   for se in analysis.edges],
                "vertices": vertices, "polylines": polylines}
    return {key: json.dumps(value, sort_keys=True,
                            separators=(",", ":")).encode("ascii")
            for key, value in sections.items()}


def planted_boundary_nets(rng, tol, count=30):
    """Random 9x9 nets with one sign planted at the edge of orient's dead
    zone at tol > 0.  A curve point is moved along a line; bisection on
    the move finds two adjacent floats with |d| on either side of
    tol * mag * (1 + s), s = -2^-40 or 2^-40 in turn, and both nets are
    yielded.  The sign is in turn an alpha frame, a beta frame (each at
    an interior vertex) and an Omega; as far as round-off lets d be
    placed, the pair straddles the rule's threshold."""
    for k in range(count):
        net = random_net_candidate(rng, n=9)
        a, b = net.alpha.points.copy(), net.beta.points.copy()
        i, j = (int(x) for x in rng.integers(1, 8, size=2))
        family = k % 3
        target = 1.0 + (-1) ** (k // 3) * 2.0 ** -40

        def frame():
            """(points moved, index moved, (n, x, y) of the planted sign);
            moving the point moves x alone."""
            if family == 0:
                return a, i + 1, (a[i] - b[j], a[i + 1] - a[i], a[i] - a[i - 1])
            if family == 1:
                return b, j + 1, (a[i] - b[j], b[j + 1] - b[j], b[j] - b[j - 1])
            return a, i + 1, (a[i] - b[j], a[i + 1] - a[i], b[j + 1] - b[j])

        pts, at, (n, x, y) = frame()
        normal = np.cross(y, n)         # d = x . (y x n)
        start = pts[at].copy()

        def ratio(lam):
            pts[at] = start + lam * normal
            d, mag = orient_terms(*(c for v in frame()[2] for c in v))
            return abs(d) / (tol * mag)

        rate = float(np.dot(normal, normal))
        lo = -float(np.dot(x, normal)) / rate       # d = 0
        hi = lo + 4.0 * tol * orient_terms(*n, *x, *y)[1] / rate
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if ratio(mid) >= target:
                hi = mid
            else:
                lo = mid
        for lam in (lo, hi):
            ratio(lam)
            try:
                yield ConormalNet(PolyCurve(a), PolyCurve(b))
            except ValidationError:
                pass


def planted_flat_frame_nets(rng, tol, count=12):
    """9x9 nets of two plane curves, alpha in z = 1 and beta in z = 0,
    with one vertex frame planted at the edge of orient's dead zone at
    tol > 0, alpha's and beta's in turn.  In such a frame x x y points
    along z, so d / mag = |x0 y1 - x1 y0| / (|x0 y1| + |x1 y0|) along the
    whole row, and the bounding box of the other curve bounds d without
    slack: where the certified bounds are tightest.  Bisection on the
    move of one point finds two adjacent floats on either side of
    |d| = tol * mag * (1 + s), s = -2^-40 or 2^-40 in turn; both nets
    are yielded."""
    t = np.linspace(-1.0, 1.0, 9)
    for k in range(count):
        a = np.stack([t, _poly_eval(rng.uniform(-1, 1, 4), t),
                      np.ones(9)], axis=1)
        b = np.stack([t * rng.uniform(0.8, 1.2),
                      _poly_eval(rng.uniform(-1, 1, 4), t), np.zeros(9)],
                     axis=1)
        pts = (a, b)[k % 2]
        i = int(rng.integers(1, 8))
        y = pts[i] - pts[i - 1]
        perp = np.array([-y[1], y[0], 0.0]) / np.hypot(y[0], y[1])
        target = 1.0 + (-1) ** (k // 2) * 2.0 ** -40

        def ratio(lam):
            pts[i + 1] = pts[i] + y + lam * perp
            d, mag = orient_terms(*(a[i if k % 2 == 0 else 4] - b[
                i if k % 2 else 4]), *(pts[i + 1] - pts[i]),
                *(pts[i] - pts[i - 1]))
            return abs(d) / (tol * mag)

        lo, hi = 0.0, 8.0 * tol * float(np.hypot(y[0], y[1]))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if ratio(mid) >= target:
                hi = mid
            else:
                lo = mid
        for lam in (lo, hi):
            ratio(lam)
            try:
                yield ConormalNet(PolyCurve(a), PolyCurve(b))
            except ValidationError:
                pass


def reference_admissibility(net, vertex, tol, omega_terms):
    """admissibility_check with its cross signs read from omega_terms,
    the whole Omega (det, mag) grid of reference_sign_grids."""
    i, j = (c - m for c, m in zip(vertex.vertex, (net.domain.u_min,
                                                 net.domain.v_min)))
    w, w_mag = omega_terms[:, i - 1:i + 1, j - 1:j + 1].reshape(
        2, 4)[:, ::-1].tolist()
    cross = [decided_sign(d, m, tol) for d, m in zip(w, w_mag)]
    axes = {e.axis for e in vertex.incident_singular_edges}
    return _admissible_signatures(cross, axes, vertex.vertex) is not None
