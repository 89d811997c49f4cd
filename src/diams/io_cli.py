"""Curve-pair files, report serialization and the command-line surface.

Curve pairs are JSON objects

    {"alpha_offset": int, "alpha": [[x, y, z], ...],
     "beta_offset": int, "beta": [[x, y, z], ...]}

and reports are JSON with sorted keys and %.17g floats, so identical
inputs produce byte-identical output.  Quads are keyed by doubled integers
[2u+1, 2v+1] so vertices [2u, 2v], edges and quads share one integer key
space.  The Omega section lists quads row-major (u, then v) and is
formatted straight from the metric grid by `_kernels.g17_text`, as byte
matrices around `_kernels.g17_field`'s digits, one per block of u-rows.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, _kernels
from .errors import (DegenerateDirection, DegenerateMetric,
                     DegenerateOrientation, InadmissibleVertex, IoFailure,
                     NonGenericCell, NonGenericChain, ParseError,
                     ValidationError)
from .net_core import (ConormalNet, PolyCurve, integrate_net,
                       validate_generic_position)
from .singularity import NetAnalysis, SingularSet, analyze_net, metric_field
from .smooth_oracle import (BUILTIN_PAIRS, builtin_pair, find_swallowtails,
                            omega_smooth_grid, trace_singular_curve)
from .surface_mesh import export_obj, tessellate

DEFAULT_TOL = 1e-9
DEFAULT_METRIC_EPS = 1e-9


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

class _RawJson(str):
    """JSON text serialized ahead of time; `_dump` writes it unchanged."""


def _dump_float(x):
    return "%.17g" % x if math.isfinite(x) else "null"


def _dump_dict(obj):
    return "{" + ",".join(f"{encode_basestring_ascii(k)}:{_dump(v)}"
                          for k, v in sorted(obj.items())) + "}"


def _dump_seq(obj):
    return "[" + ",".join(map(_dump, obj)) + "]"


# serializers keyed by exact type: one lookup instead of an isinstance
# chain; any other type (numpy values, subclasses) raises TypeError
_DUMP_EXACT = {
    float: _dump_float,
    str: encode_basestring_ascii,       # what json.dumps does for a str
    int: str,
    dict: _dump_dict,
    list: _dump_seq,
    tuple: _dump_seq,
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    _RawJson: str,
}


def _dump(obj):
    dump = _DUMP_EXACT.get(type(obj))
    if dump is None:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return dump(obj)


def write_report(report):
    """Serialize a report dict to deterministic JSON bytes."""
    return (_dump(report) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# curve-pair files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePairFile:
    alpha: PolyCurve
    beta: PolyCurve

    def to_net(self):
        return ConormalNet(self.alpha, self.beta)


def _named_curve(name, points, offset):
    """PolyCurve whose validation errors name the curve."""
    try:
        return PolyCurve(points, offset)
    except ValidationError as e:
        raise ValidationError(f"{name}: {e}") from None


def _fits_float(c):
    try:
        float(c)
    except OverflowError:
        return False
    return True


def _check_points(name, raw):
    """The JSON list of numeric triples as an (n, 3) float array; the
    curve checks themselves are PolyCurve's."""
    if not isinstance(raw, list):
        raise ValidationError(f"{name} must be a list of [x, y, z] triples")
    for i, p in enumerate(raw):
        if (not isinstance(p, list)) or len(p) != 3:
            raise ValidationError(f"{name}[{i}] is not an [x, y, z] triple")
        for c in p:
            if not isinstance(c, (int, float)) or isinstance(c, bool):
                raise ValidationError(f"{name}[{i}] has a non-numeric entry")
    try:
        return np.asarray(raw, dtype=np.float64).reshape(-1, 3)
    except OverflowError:
        bad = next(i for i, p in enumerate(raw)
                   if not all(map(_fits_float, p)))
        raise ValidationError(
            f"{name}[{bad}] has a coordinate too large for a float") from None


def parse_curves(data):
    """Parse curve-pair bytes; offsets default to 0."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and over-long integer literals
        raise ParseError(f"malformed JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("alpha", "beta"):
        if key not in doc:
            raise ValidationError(f"missing curve {key!r}")
    for key in ("alpha_offset", "beta_offset"):
        if key in doc and (not isinstance(doc[key], int)
                           or isinstance(doc[key], bool)):
            raise ValidationError(f"{key} must be an integer")
    return CurvePairFile(*(
        _named_curve(key, _check_points(key, doc[key]),
                     doc.get(key + "_offset", 0))
        for key in ("alpha", "beta")))


def write_curves(cpf):
    doc = {
        "alpha_offset": cpf.alpha.offset,
        "alpha": [[float(c) for c in p] for p in cpf.alpha.points],
        "beta_offset": cpf.beta.offset,
        "beta": [[float(c) for c in p] for p in cpf.beta.points],
    }
    return (_dump(doc) + "\n").encode("ascii")


def example_curve_pair(y, du=0.1, dv=0.1):
    """The worked three-point curve pair with one singular vertex at the
    origin; y selects the configuration (-1/2: A, -2: B, 1: C).  Options
    that overflow a coordinate or repeat a point raise ValidationError."""
    a0 = np.array([0.0, 0.0, 1.0])
    with np.errstate(over="ignore"):
        alpha = np.stack([a0 + np.array([-1.0, -1.0, 1.0]) * du,
                          a0,
                          a0 + np.array([1.0, 0.0, 0.0]) * du])
        beta = np.stack([np.array([-1.0, y, 0.0]) * dv,
                         np.array([0.0, 0.0, 0.0]),
                         np.array([2.0, 1.0, 0.0]) * dv])
    return CurvePairFile(_named_curve("alpha", alpha, -1),
                         _named_curve("beta", beta, -1))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _quad_key(quad):
    return [2 * quad[0] + 1, 2 * quad[1] + 1]


def _edge_dict(edge):
    return {"axis": edge.axis, "base_vertex": edge[1:]}


def _fill(template, values, finite):
    """template % values, where each float is written by a %.17g slot;
    unless finite, every non-str value goes through _dump_float instead,
    so nan and +-inf become null."""
    if finite:
        return template % values
    return template.replace("%.17g", "%s") % tuple(
        x if isinstance(x, str) else _dump_float(x) for x in values)


_QUAD_END = np.frombuffer(b"},", dtype=np.uint8)


def _omega_json(metric):
    """The report's "omega" list, {"quad": [2u+1, 2v+1], "value": w} per
    quad in row-major order (u, then v) like `GridDomain.quads()`, as
    JSON text, written by `_kernels.g17_text`: each value ("null" if not
    finite) between its u-row's head, its v-column's tail and "},"."""
    if metric is None or metric.values.size == 0:
        return _RawJson("[]")
    dom = metric.domain
    heads = _kernels.nul_padded([b'{"quad":[%d,' % (2 * u + 1)
                                 for u in range(dom.u_min, dom.u_max)])
    tails = _kernels.nul_padded([b'%d],"value":' % (2 * v + 1)
                                 for v in range(dom.v_min, dom.v_max)])
    text = _kernels.g17_text(metric.values, (heads[:, None], tails),
                             (_QUAD_END,), nonfinite=b"null")
    text[-1] = text[-1][:-1] + b"]"
    return _RawJson(b"".join([b"[", *text]), "ascii")


_ORACLE_POINT = ('{"configuration":null,"dvdu":%.17g,"kind":%s,'
                 '"lambda":%.17g,"vertex":[%.17g,%.17g]}')


def _oracle_points_json(points):
    """The oracle report's "vertices" list as JSON text, one `%` format
    of _ORACLE_POINT per point."""
    rows = []
    for p in points:
        floats = (p.dvdu, p.lam, p.u, p.v)
        rows.append(_fill(_ORACLE_POINT,
                          (p.dvdu, encode_basestring_ascii(p.kind), p.lam,
                           p.u, p.v),
                          all(map(math.isfinite, floats))))
    return _RawJson("[" + ",".join(rows) + "]")


def _oracle_chains_json(chains):
    """The oracle report's "polylines" list as JSON text; each chain's
    points are one `%` format of [%.17g,%.17g] rows."""
    out = []
    for c in chains:
        pts = np.asarray(c.points, dtype=np.float64)
        rows = _fill(",".join(["[%.17g,%.17g]"] * len(pts)),
                     tuple(pts.ravel().tolist()), np.isfinite(pts).all())
        out.append('{"closed":%s,"edges":[],"vertices":[%s]}'
                   % ("true" if c.closed else "false", rows))
    return _RawJson("[" + ",".join(out) + "]")


# json's C encoder, for the report sections that hold only ints, strs,
# bools and None: it writes those as _dump does and raises on numpy
# scalars.  Floats never go through it, because it would print them in
# repr digits where _dump prints %.17g.  The sections are built fresh for
# each report and hold no cycles, so no cycle check is needed.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           check_circular=False).encode


def report_from_analysis(analysis, tol, metric_eps, degenerate_quads=()):
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
    return {
        "smooth": False,
        "tolerances": {"sign_tol": tol, "degenerate_metric_eps": metric_eps,
                       "scale": analysis.net.scale},
        "omega": _omega_json(analysis.metric),
        "singular_edges": _RawJson(_encode(
            [_edge_dict(se.edge) for se in analysis.edges])),
        "vertices": _RawJson(_encode(vertices)),
        "polylines": _RawJson(_encode(polylines)),
        "validations": _RawJson(_encode({
            "generic_position": [
                {"vertex": g.vertex, "planes": [g.plane_a, g.plane_b]}
                for g in analysis.generic_violations],
            "admissibility": [
                {"vertex": v, "reason": reason}
                for v, reason in analysis.admissibility_violations],
            "degenerate_quads": list(degenerate_quads),
        })),
    }


def report_from_oracle(pair_name, grid_n, tol, chains, points):
    return {
        "smooth": True,
        "pair": pair_name,
        "grid_n": grid_n,
        "tolerances": {"trace_tol": tol},
        "omega": [],
        "singular_edges": [],
        "vertices": _oracle_points_json(points),
        "polylines": _oracle_chains_json(chains),
        "validations": {"generic_position": [], "admissibility": [],
                        "degenerate_quads": []},
    }


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e


def _write(path, data):
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


def _cmd_analyze(args):
    cpf = parse_curves(_read(args.curves))
    net = cpf.to_net()
    try:
        analysis = analyze_net(net, tol=args.tol, eps_degenerate=args.metric_eps)
    except DegenerateMetric as e:
        quad = getattr(e, "quad", None)
        empty = NetAnalysis(net=net, metric=None, edges=[],
                            vertices=[], polylines=[], generic_violations=[],
                            admissibility_violations=[])
        _write(args.report, write_report(report_from_analysis(
            empty, args.tol, args.metric_eps, degenerate_quads=[{
                "quad": _quad_key(quad) if quad else None,
                "detail": str(e)}])))
        raise
    _write(args.report, write_report(
        report_from_analysis(analysis, args.tol, args.metric_eps)))
    return _print_violations(analysis)


def _print_violations(analysis):
    """Print an analysis' violations to stderr in the report's order,
    generic position first; the exit code, 1 if there are any."""
    for g in analysis.generic_violations:
        print(f"generic position: {g.describe()}", file=sys.stderr)
    for v, reason in analysis.admissibility_violations:
        print(f"admissibility: vertex {v}: {reason}", file=sys.stderr)
    return 0 if analysis.clean else 1


def _cmd_validate(args):
    cpf = parse_curves(_read(args.curves))
    net = cpf.to_net()
    failures = 0
    for g in validate_generic_position(net, args.tol):
        print(f"generic position: {g.describe()}", file=sys.stderr)
        failures += 1
    metric = metric_field(net, args.metric_eps)   # raises DegenerateMetric
    sset = SingularSet.from_omega(metric)
    for vertex, degree in sset.inadmissible():
        print(f"admissibility: vertex {vertex}: {degree} incident singular "
              "edges", file=sys.stderr)
        failures += 1
    if failures:
        return 1
    print(f"ok: {net.domain.nu}x{net.domain.nv} vertices, "
          f"{sset.edge_count} singular edges")
    return 0


def _cmd_mesh(args):
    if args.subdiv < 1:
        print("error: --subdiv must be a positive integer", file=sys.stderr)
        return 2
    cpf = parse_curves(_read(args.curves))
    net = cpf.to_net()
    chains = []
    if args.singular == "auto":
        analysis = analyze_net(net, tol=args.tol,
                               eps_degenerate=args.metric_eps)
        if _print_violations(analysis):
            return 1
        chains = analysis.polylines
    mesh = tessellate(integrate_net(net), args.subdiv, chains)
    export_obj(mesh, args.out)
    return 0


def _cmd_example(args):
    cpf = example_curve_pair(args.y, args.du, args.dv)
    _write(args.out, write_curves(cpf))
    return 0


def _cmd_oracle(args):
    pair = builtin_pair(args.pair)
    if args.tol is not None:
        tol = args.tol
    else:
        us = np.linspace(*pair.u_range, 17)
        vs = np.linspace(*pair.v_range, 17)
        wmax = float(np.abs(omega_smooth_grid(pair, us, vs)).max())
        tol = 1e-10 * max(1.0, wmax)
    chains = trace_singular_curve(pair, args.grid, tol)
    points = []
    for chain in chains:
        points.extend(find_swallowtails(pair, chain))
    _write(args.report, write_report(
        report_from_oracle(args.pair, args.grid, tol, chains, points)))
    return 0


def _finite_float(text):
    """argparse type: a float that is neither nan nor infinite."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _tolerance(text):
    """argparse type: a finite float >= 0; below 0 no dead zone is left."""
    if (x := _finite_float(text)) < 0.0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is negative; a tolerance must be >= 0")
    return x


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diams",
        description="Discrete indefinite affine minimal surfaces: build, "
                    "classify singularities, mesh.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect and classify singularities")
    p.add_argument("--curves", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--metric-eps", type=_tolerance,
                   default=DEFAULT_METRIC_EPS)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("mesh", help="tessellate the bilinear patches to OBJ")
    p.add_argument("--curves", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subdiv", type=int, required=True)
    p.add_argument("--singular", choices=("auto", "none"), default="auto")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--metric-eps", type=_tolerance,
                   default=DEFAULT_METRIC_EPS)
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("validate", help="check a curve pair without analyzing")
    p.add_argument("--curves", required=True)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--metric-eps", type=_tolerance,
                   default=DEFAULT_METRIC_EPS)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("example", help="emit the three-point worked curve pair")
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--du", type=_finite_float, default=0.1)
    p.add_argument("--dv", type=_finite_float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("oracle", help="trace the smooth singular curve")
    p.add_argument("--pair", choices=BUILTIN_PAIRS, required=True)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--report", required=True)
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_oracle)
    return parser


# parse_args leaves the parser as it was, so one parser serves every call
_parser = functools.cache(build_parser)


def run_cli(argv):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.func(args)
    except (ParseError, IoFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValidationError, InadmissibleVertex) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DegenerateMetric, DegenerateOrientation, DegenerateDirection,
            NonGenericCell, NonGenericChain) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
