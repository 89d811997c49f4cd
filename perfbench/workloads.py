"""Workload inputs, the CLI operation each one runs, and its output check.

Every operation is one ``diams.io_cli.run_cli(argv)`` call whose last two
arguments name the output file, so the untraced and traced runs can send
the same operation to different files.  Checks raise ``CheckFailed``.
README.md says why each workload was chosen.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from diams import ConormalNet, PolyCurve
from diams.errors import DegenerateMetric, DegenerateOrientation, ValidationError
from diams.net_core import validate_generic_position
from diams.singularity import (Configuration, admissibility_check,
                               metric_field, singular_edges, singular_vertices)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "grid", "mesh", "oracle")

# Input sizes.  "tiny" exists for selftest.py only.  The mesh workload uses
# subdiv 2 rather than 4: one 81x81x4 operation takes about 9 s here, which
# with three timed set-ups per run does not fit the benchmark's time budget.
SIZES = {
    "corpus": {"full": {"nets": 150, "n": 21}, "tiny": {"nets": 3, "n": 21}},
    "grid": {"full": {"h": 0.005}, "tiny": {"h": 0.05}},
    "mesh": {"full": {"h": 0.025, "subdiv": 2}, "tiny": {"h": 0.2, "subdiv": 2}},
    "oracle": {"full": {"grid": 401}, "tiny": {"grid": 41}},
}

# At the default --metric-eps 1e-9 the 401x401 parabolic net exits 3: the
# absolute floor eps * scale**3 does not shrink with h while Omega is O(h^2).
# The grid workload therefore runs at 1e-12 (known defect, ROADMAP item 4).
GRID_METRIC_EPS = "1e-12"

SIGN_TOL = 1e-9          # CLI default --tol
DEFAULT_METRIC_EPS = 1e-9


class CheckFailed(Exception):
    """An operation's output does not match what the benchmark expects."""


@dataclass
class Op:
    key: str                      # names the input; repeats for the same input
    argv: list                    # run_cli arguments up to the output path
    check: Callable[[bytes], None]


def expected():
    return json.loads((HERE / "expected.json").read_text())


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def write_curve_file(path, alpha, beta):
    """Curve-pair JSON written without the program's own writer; Python's
    float repr round-trips, so the program reads back exactly these values."""
    doc = {"alpha_offset": 0, "alpha": alpha.tolist(),
           "beta_offset": 0, "beta": beta.tolist()}
    Path(path).write_text(json.dumps(doc))


def parabolic_points(h):
    """alpha(u) = (u, u^2, 1), beta(v) = (v, -v^2 + v^3, 0) on [-1, 1]."""
    t = np.arange(-1.0, 1.0 + h / 2, h)
    a = np.stack([t, t ** 2, np.ones_like(t)], axis=1)
    b = np.stack([t, -t ** 2 + t ** 3, np.zeros_like(t)], axis=1)
    return a, b


# ---------------------------------------------------------------------------
# corpus: the criterion-3 random-net generator, seeded
# ---------------------------------------------------------------------------

def _poly_eval(coeffs, t):
    out = np.zeros_like(t)
    for c in coeffs[::-1]:
        out = out * t + c
    return out


def _candidate(rng, n):
    """One random perturbed smooth sampling (criterion 3's generator)."""
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
    return alpha, beta


def _admissible(alpha, beta):
    """Criterion 3's rejection filter: generic position, non-degenerate
    metric, and the quadrant hypothesis at every interior singular vertex."""
    try:
        net = ConormalNet(PolyCurve(alpha), PolyCurve(beta))
        if validate_generic_position(net, SIGN_TOL):
            return False
        metric = metric_field(net, DEFAULT_METRIC_EPS)
        for sv in singular_vertices(singular_edges(metric), net.domain):
            if not net.domain.is_interior_vertex(*sv.vertex):
                continue
            if sv.configuration == Configuration.INADMISSIBLE:
                return False
            if not admissibility_check(net, sv, SIGN_TOL):
                return False
    except (ValidationError, DegenerateMetric, DegenerateOrientation):
        return False
    return True


def corpus_nets(seed, nets, n, max_tries=100_000):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(max_tries):
        alpha, beta = _candidate(rng, n)
        if _admissible(alpha, beta):
            out.append((alpha, beta))
            if len(out) == nets:
                return out
    raise RuntimeError("corpus generator found too few admissible nets")


# ---------------------------------------------------------------------------
# corpus check: an independent numpy evaluation of each report
# ---------------------------------------------------------------------------

def _det_and_mag(n, x, y):
    """det[n, x, y] by LU (np.linalg.det) and the sum of the absolute
    values of its six expansion products, for relative comparisons."""
    d = np.linalg.det(np.stack(np.broadcast_arrays(n, x, y), axis=-2))
    ax, ay = np.abs(x), np.abs(y)
    mag = (np.abs(n[..., 0]) * (ax[..., 1] * ay[..., 2] + ax[..., 2] * ay[..., 1])
           + np.abs(n[..., 1]) * (ax[..., 0] * ay[..., 2] + ax[..., 2] * ay[..., 0])
           + np.abs(n[..., 2]) * (ax[..., 0] * ay[..., 1] + ax[..., 1] * ay[..., 0]))
    return d, mag


def _sign(n, x, y):
    d, mag = _det_and_mag(np.asarray(n), np.asarray(x), np.asarray(y))
    if abs(d) <= SIGN_TOL * mag:
        raise CheckFailed("independent orientation sign is ambiguous")
    return "+" if d > 0 else "-"


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _edge_key(e):
    _require(isinstance(e, dict) and set(e) == {"axis", "base_vertex"},
             "malformed edge record")
    u, v = e["base_vertex"]
    _require(e["axis"] in ("u", "v"), "edge axis is not u or v")
    return (e["axis"], u, v)


def _endpoints(edge):
    axis, u, v = edge
    return ((u, v), (u + 1, v)) if axis == "u" else ((u, v), (u, v + 1))


def _direction(edge, vertex):
    a, _ = _endpoints(edge)
    return edge[0] + ("+" if vertex == a else "-")


class CorpusCheck:
    """Checks one corpus report against values the benchmark computes
    itself: Omega = det[nu, alpha', beta'] to a relative tolerance, singular
    edges equal to Omega's sign flips, every interior singular vertex in
    A/B/C with the quadrant signatures recomputed and swallowtail <=> C."""

    OMEGA_RTOL = 1e-9

    def __init__(self, alpha, beta):
        self.alpha, self.beta = alpha, beta
        da, db = np.diff(alpha, axis=0), np.diff(beta, axis=0)
        n = alpha[:-1, None, :] - beta[None, :-1, :]
        self.omega, self.mag = _det_and_mag(n, da[:, None, :], db[None, :, :])
        w = self.omega
        edges = set()
        for i, j in np.argwhere(w[:-1, :] * w[1:, :] < 0):
            edges.add(("v", int(i) + 1, int(j)))
        for i, j in np.argwhere(w[:, :-1] * w[:, 1:] < 0):
            edges.add(("u", int(i), int(j) + 1))
        self.edges = edges
        self.incident = {}
        nu, nv = alpha.shape[0], beta.shape[0]
        for e in edges:
            for vert in _endpoints(e):
                if 0 <= vert[0] < nu and 0 <= vert[1] < nv:
                    self.incident.setdefault(vert, set()).add(e)
        self.nu, self.nv = nu, nv
        self.scale = max(float(np.abs(alpha).max()), float(np.abs(beta).max()))
        self.digest = None

    def __call__(self, data):
        digest = sha256(data)
        if self.digest is not None:
            # the first report of this net passed the full check below
            _require(digest == self.digest, "report bytes differ from an "
                     "earlier report of the same net")
            return
        self._check(data)
        self.digest = digest

    def _check(self, data):
        try:
            doc = json.loads(data)
        except ValueError as e:
            raise CheckFailed(f"report is not JSON: {e}") from None
        _require(isinstance(doc, dict) and set(doc) == {
            "smooth", "tolerances", "omega", "singular_edges", "vertices",
            "polylines", "validations"}, "report keys differ")
        _require(doc["smooth"] is False, "smooth flag")
        _require(doc["tolerances"] == {"sign_tol": SIGN_TOL,
                                       "degenerate_metric_eps": DEFAULT_METRIC_EPS,
                                       "scale": self.scale}, "tolerances")
        _require(doc["validations"] == {"generic_position": [],
                                        "admissibility": [],
                                        "degenerate_quads": []}, "validations")
        self._check_omega(doc["omega"])
        edges = [_edge_key(e) for e in doc["singular_edges"]]
        _require(edges == sorted(self.edges),
                 "singular edges differ from the sign flips of Omega")
        self._check_vertices(doc["vertices"])
        self._check_polylines(doc["polylines"])

    def _check_omega(self, omega):
        nq_u, nq_v = self.omega.shape
        _require(isinstance(omega, list) and len(omega) == nq_u * nq_v,
                 "omega entry count")
        keys = [r.get("quad") if isinstance(r, dict) else None for r in omega]
        _require(keys == [[2 * i + 1, 2 * j + 1] for i in range(nq_u)
                          for j in range(nq_v)], "omega quad keys")
        _require(all(set(r) == {"quad", "value"} for r in omega),
                 "omega record keys")
        values = np.array([r["value"] for r in omega], dtype=float)
        err = np.abs(values - self.omega.ravel())
        _require(bool(np.all(err <= self.OMEGA_RTOL * self.mag.ravel())),
                 "omega values differ from det[nu, alpha', beta']")

    def _check_vertices(self, vertices):
        got = [tuple(r.get("vertex", ())) if isinstance(r, dict) else None
               for r in vertices]
        _require(got == sorted(self.incident), "singular vertex set")
        for rec, vert in zip(vertices, got):
            _require(set(rec) == {"vertex", "configuration", "kind",
                                  "diagnostics"}, f"vertex {vert} keys")
            u, v = vert
            if not (0 < u < self.nu - 1 and 0 < v < self.nv - 1):
                _require(rec["configuration"] == "Boundary"
                         and rec["kind"] == "Unclassified"
                         and rec["diagnostics"] == {},
                         f"boundary vertex {vert}")
                continue
            self._check_interior(vert, rec)

    def _check_interior(self, vert, rec):
        config, kind, diag = rec["configuration"], rec["kind"], rec["diagnostics"]
        _require(config in ("A", "B", "C"), f"vertex {vert} is not in A/B/C")
        _require(kind in ("CuspidalEdge", "Swallowtail"), f"vertex {vert} kind")
        _require((kind == "Swallowtail") == (config == "C"),
                 f"vertex {vert}: swallowtail <=> C fails")
        _require(isinstance(diag, dict) and set(diag) == {
            "base_edge", "edge_pattern", "sig_out", "sig_in", "crossing_ab",
            "crossing_swallowtail", "star_sidedness"}, f"vertex {vert} diagnostics")
        inc = self.incident[vert]
        _require(len(inc) == 2, f"vertex {vert} has {len(inc)} singular edges")
        _require(diag["edge_pattern"] == "".join(sorted(
            _direction(e, vert) for e in inc)), f"vertex {vert} edge pattern")
        v_edges = sorted(e for e in inc if e[0] == "v")
        if v_edges:
            base = v_edges[0]
        else:
            def contrast(e):
                (i0, j0), _ = _endpoints(e)
                return abs(self.omega[i0, j0 - 1] - self.omega[i0, j0])
            base = max(sorted(inc), key=lambda e: (contrast(e), e))
        _require(tuple(diag["base_edge"]) == base, f"vertex {vert} base edge")
        u, v = vert
        n0 = self.alpha[u] - self.beta[v]
        a_p, a_m = self.alpha[u + 1] - self.alpha[u], self.alpha[u] - self.alpha[u - 1]
        b_p, b_m = self.beta[v + 1] - self.beta[v], self.beta[v] - self.beta[v - 1]
        if base[0] == "v":
            lines, out_dir, in_dir = (a_p, a_m), b_p, -b_m
        else:
            lines, out_dir, in_dir = (b_p, b_m), a_p, -a_m
        sig_out = "".join(_sign(n0, ln, out_dir) for ln in lines)
        sig_in = "".join(_sign(n0, ln, in_dir) for ln in lines)
        _require(diag["sig_out"] == sig_out and diag["sig_in"] == sig_in,
                 f"vertex {vert} quadrant signatures")
        antipodal = sig_in == "".join("-" if s == "+" else "+" for s in sig_out)
        _require((config == "A") == antipodal, f"vertex {vert}: A <=> antipodal")
        _require(diag["crossing_ab"] in (True, False)
                 and diag["crossing_swallowtail"] == (kind == "Swallowtail")
                 and diag["star_sidedness"] == (config == "C"),
                 f"vertex {vert} crossing diagnostics")
        if not antipodal:
            _require(diag["crossing_ab"] == (config == "B"),
                     f"vertex {vert}: B <=> crossing")

    def _check_polylines(self, polylines):
        seen = []
        for pl in polylines:
            _require(isinstance(pl, dict)
                     and set(pl) == {"closed", "vertices", "edges"}
                     and pl["closed"] in (True, False), "polyline record")
            verts = [tuple(p) for p in pl["vertices"]]
            edges = [_edge_key(e) for e in pl["edges"]]
            _require(len(verts) == len(edges) + 1, "polyline lengths")
            for a, b, e in zip(verts, verts[1:], edges):
                _require({a, b} == set(_endpoints(e)), "polyline edge chain")
            _require((verts[0] == verts[-1]) == pl["closed"], "polyline closure")
            seen.extend(edges)
        _require(sorted(seen) == sorted(self.edges),
                 "polylines do not cover each singular edge once")


# ---------------------------------------------------------------------------
# digest checks (grid, oracle) and the mesh geometry check
# ---------------------------------------------------------------------------

def digest_check(want):
    def check(data):
        _require(sha256(data) == want, "report SHA-256 differs from the "
                 "digest recorded in expected.json")
    return check


def obj_geometry(data):
    """(triangle count, geometry digest, polyline digest) of an OBJ file.

    Each triangle becomes its quad tag plus its three corner coordinates in
    sorted order, and the records are sorted, so the digest does not depend
    on the vertex index layout, the vertex order or the triangle order; a
    mesh weld that keeps the geometry keeps the digest.  Polylines are
    hashed as their coordinate sequences for the same reason.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise CheckFailed("OBJ is not ASCII") from None
    _require(text.endswith("\n"), "OBJ does not end with a newline")
    verts, faces, tags, polys = [], [], [], []
    tag = None
    try:
        for line in text[:-1].split("\n"):
            rec, _, rest = line.partition(" ")
            fields = rest.split(" ")
            if rec == "v" and len(fields) == 3:
                verts.append([float(x) for x in fields])
            elif rec == "f" and len(fields) == 3 and tag is not None:
                faces.append([int(x) - 1 for x in fields])
                tags.append(tag)
            elif rec == "g" and fields[0].startswith("quad_") and len(fields) == 1:
                qu, qv = fields[0][5:].split("_")
                tag = (int(qu), int(qv))
            elif rec == "l" and len(fields) >= 2:
                polys.append([int(x) - 1 for x in fields])
            else:
                raise CheckFailed(f"malformed OBJ line {line[:40]!r}")
    except ValueError:
        raise CheckFailed("OBJ line does not parse") from None
    v = np.array(verts, dtype=np.float64).reshape(-1, 3)
    f = np.array(faces, dtype=np.int64).reshape(-1, 3)
    _require(np.all(np.isfinite(v)), "non-finite OBJ vertex")
    for idx in [f] + [np.array(p) for p in polys]:
        _require(idx.size == 0 or (idx.min() >= 0 and idx.max() < len(v)),
                 "OBJ index out of range")
    corners = v[f]                                          # (M, 3, 3)
    order = np.lexsort((corners[..., 2], corners[..., 1], corners[..., 0]), axis=1)
    corners = np.take_along_axis(corners, order[..., None], axis=1)
    rec = np.concatenate([np.array(tags, dtype=np.float64).reshape(-1, 2),
                          corners.reshape(-1, 9)], axis=1)
    rec = rec[np.lexsort(rec.T[::-1])]
    geo = hashlib.sha256(np.ascontiguousarray(rec).tobytes()).hexdigest()
    ph = hashlib.sha256()
    for p in polys:
        ph.update(np.ascontiguousarray(v[p]).tobytes() + b"|")
    return len(f), geo, ph.hexdigest()


def mesh_check(want):
    def check(data):
        got = dict(zip(("triangles", "triangles_sha256", "polylines_sha256"),
                       obj_geometry(data)))
        _require(got == want, f"OBJ geometry differs: {got} != {want}")
    return check


# ---------------------------------------------------------------------------
# workload construction
# ---------------------------------------------------------------------------

def make_ops(name, workdir, seed, size="full"):
    """Write a workload's inputs under workdir and return its operations."""
    params = SIZES[name][size]
    workdir = Path(workdir)
    want = expected()[name][size] if name != "corpus" else None
    if name == "corpus":
        ops = []
        for k, (alpha, beta) in enumerate(corpus_nets(seed, params["nets"],
                                                      params["n"])):
            path = workdir / f"net{k:03d}.json"
            write_curve_file(path, alpha, beta)
            ops.append(Op(f"net{k:03d}",
                          ["analyze", "--curves", str(path), "--report"],
                          CorpusCheck(alpha, beta)))
        return ops
    if name == "oracle":
        return [Op("parabolic", ["oracle", "--pair", "parabolic", "--grid",
                                 str(params["grid"]), "--report"],
                   digest_check(want["sha256"]))]
    path = workdir / "parabolic.json"
    write_curve_file(path, *parabolic_points(params["h"]))
    if name == "grid":
        return [Op("parabolic", ["analyze", "--curves", str(path),
                                 "--metric-eps", GRID_METRIC_EPS, "--report"],
                   digest_check(want["sha256"]))]
    if name == "mesh":
        return [Op("parabolic", ["mesh", "--curves", str(path), "--subdiv",
                                 str(params["subdiv"]), "--singular", "auto",
                                 "--out"],
                   mesh_check(want))]
    raise KeyError(name)
