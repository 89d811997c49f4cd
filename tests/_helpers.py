"""Shared builders and oracles for the test suite."""

import json
from collections import defaultdict
from itertools import combinations

import numpy as np

from diams import (ConormalNet, PolyCurve, analyze_net, bilinear_point,
                   patch_for_quad)
from diams.errors import (DegenerateMetric, DegenerateOrientation,
                          InadmissibleVertex, NonGenericCell, ValidationError)
from diams.io_cli import _RawJson, example_curve_pair
from diams.net_core import (_PLANE_LABELS, validate_generic_position,
                            walk_chains)
from diams.singularity import (Configuration, EdgeIndex, SingularEdge,
                               SingularPolyline, SingularVertex,
                               _orient_strict, _vertex_frame,
                               admissibility_check, metric_field, orient,
                               singular_edges, singular_vertices)
from diams.smooth_oracle import _link_chains, omega_smooth


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


def generic_position_frames(net, u, v, cross_on_quads):
    """{(plane, plane): (nu, x, y)} over the six pairs of frame directions
    x, y at the vertex (u, v), as float triples.  Without cross_on_quads
    all six use the vertex's co-normal nu = alpha(u) - beta(v): that is
    how the generic-position test was decided before its four cross pairs
    were read from the metric grid, kept as the reference for that move.
    With cross_on_quads each cross pair (alpha+-, beta+-) uses the
    co-normal at the lower-left vertex of the quad on the sides of its
    two planes, which is the metric grid's frame for that quad."""
    n, *dirs = _vertex_frame(net, u, v)
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


def _fmt(x):
    return "%.17g" % x


def reference_obj_text(mesh):
    """Per-row form of the OBJ text `export_obj` writes."""
    lines = []
    for p in mesh.vertices:
        lines.append(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
    current_tag = object()
    for tri, tag in zip(mesh.triangles, mesh.quad_tags):
        if tag != current_tag:
            lines.append(f"g quad_{tag[0]}_{tag[1]}")
            current_tag = tag
        lines.append(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}")
    for pl in mesh.polylines:
        idx = list(pl.indices) + ([pl.indices[0]] if pl.closed else [])
        lines.append("l " + " ".join(str(i + 1) for i in idx))
    return "\n".join(lines) + "\n"


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
    refinement must reproduce bit for bit.  Chain linking is shared with
    the traced version."""
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
    return _link_chains(segments, crossings)


def reference_dump(obj):
    """Per-value form of `io_cli._dump`: one isinstance chain per value,
    kept as the reference that the report writer must reproduce byte for
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


def reference_report_bytes(report, metric):
    """`write_report` bytes of `report` with its Omega section rebuilt as
    one {"quad", "value"} dict per quad, its other pre-serialized sections
    parsed back into objects, and all of it serialized by
    `reference_dump`.  A float that reached the C encoder would come back
    in %.17g digits here, not in the encoder's repr digits."""
    omega = [{"quad": [2 * u + 1, 2 * v + 1], "value": w}
             for (u, v), w in metric.items()] if metric is not None else []
    report = {key: json.loads(value) if isinstance(value, _RawJson) else value
              for key, value in report.items()}
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


def reference_extract_polylines(vertices, edges, domain):
    """Per-edge form of `extract_polylines`: a tuple-keyed link dict walked
    by `net_core.walk_chains`."""
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
              for verts, chain, closed in walk_chains(links)]
    chains.sort(key=lambda c: c.vertices)
    return chains
