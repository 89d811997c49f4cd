"""Shared builders and oracles for the test suite."""

import json

import numpy as np

from diams import ConormalNet, PolyCurve, analyze_net
from diams import _kernels
from diams.errors import (DegenerateMetric, DegenerateOrientation,
                          NonGenericCell, ValidationError)
from diams.io_cli import example_curve_pair
from diams.net_core import validate_generic_position
from diams.singularity import (Configuration, admissibility_check,
                               metric_field, singular_edges,
                               singular_vertices)
from diams.smooth_oracle import _bisect_edge, _link_chains, omega_smooth


def example_net(y, du=0.1, dv=0.1):
    return example_curve_pair(y, du, dv).to_net()


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


def random_admissible_net(rng, n=21, max_tries=50):
    for _ in range(max_tries):
        try:
            net = random_net_candidate(rng, n)
        except ValidationError:
            continue
        if is_admissible(net):
            return net
    raise RuntimeError("no admissible net found; generator needs retuning")


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
    """Per-triangle loop form of `tessellate`'s triangles and quad tags,
    kept as the reference that the whole-array version must reproduce bit
    for bit (where neither overflows nor underflows).  Returns
    (vertices, triangles, quad_tags)."""
    dom = f.domain
    grid = _kernels.bilinear_sample(f.positions, subdiv)
    nq_u, nq_v = grid.shape[0], grid.shape[1]
    block = (subdiv + 1) ** 2
    vertices = grid.reshape(-1, 3)
    scale = max(1e-300, float(np.abs(vertices).max()))
    area_floor = 1e-14 * scale * scale

    triangles = []
    tags = []
    for qi in range(nq_u):
        for qj in range(nq_v):
            base = (qi * nq_v + qj) * block
            tag = (qi + dom.u_min, qj + dom.v_min)
            for si in range(subdiv):
                for ti in range(subdiv):
                    v00 = base + si * (subdiv + 1) + ti
                    v10 = v00 + (subdiv + 1)
                    v01 = v00 + 1
                    v11 = v10 + 1
                    for tri in ((v00, v10, v01), (v10, v11, v01)):
                        p0, p1, p2 = vertices[list(tri)]
                        area = 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0))
                        if area <= area_floor:
                            continue
                        triangles.append(tri)
                        tags.append(tag)
    return (vertices, np.array(triangles, dtype=np.int64).reshape(-1, 3),
            tuple(tags))


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


def reference_trace(pair, grid_n, tol):
    """Per-point form of `trace_singular_curve`: Omega sampled by one
    `omega_smooth` call per grid point and every cell of the grid
    visited, kept as the reference that the row-wise sampling and the
    sign-change cell scan must reproduce bit for bit.  Chain linking is
    shared with the traced version."""
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
    one {"quad", "value"} dict per quad and serialized by
    `reference_dump`."""
    omega = [{"quad": [2 * u + 1, 2 * v + 1], "value": w}
             for (u, v), w in metric.items()] if metric is not None else []
    return (reference_dump({**report, "omega": omega}) + "\n").encode("ascii")
