"""Curve-pair files, report serialization and the command-line surface.

Curve pairs are JSON objects

    {"alpha_offset": int, "alpha": [[x, y, z], ...],
     "beta_offset": int, "beta": [[x, y, z], ...]}

and reports are JSON with sorted keys and %.17g floats, so identical
inputs produce byte-identical output.  Quads are keyed by doubled integers
[2u+1, 2v+1] so vertices [2u, 2v], edges and quads share one integer key
space.  A report is a dict from key to an iterable of ASCII byte blocks,
and each kind of value has one writer: float arrays `_rows_json` (around
`_kernels.g17_text`; Omega row-major, u then v, one matrix per block of
u-rows), float-free values `_encode` and float scalars `_dump_float`.
`_object_json` joins blocks under sorted keys.  Sections holding float
text are `_Blocks`, which make their blocks afresh on every iteration,
so a report can be written more than once and its text exists only as
it is written.  `write_report` is the join of `report_blocks`, which the
command line streams to disk through `_kernels.write_blocks`: each block
is written as it is made, and a failure part-way leaves an empty file.
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
from .singularity import (OUTCOMES, NetAnalysis, SingularSet, analyze_net,
                          metric_field)
from .smooth_oracle import (BUILTIN_PAIRS, builtin_pair, find_swallowtails,
                            omega_smooth_grid, trace_singular_curve)
from .surface_mesh import export_obj, tessellate

DEFAULT_TOL = 1e-9
DEFAULT_METRIC_EPS = 1e-9


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

class _Blocks:
    """Byte blocks that a generator function makes afresh on every
    iteration."""

    __slots__ = ("make", "args")

    def __init__(self, make, args):
        self.make, self.args = make, args

    def __iter__(self):
        return self.make(*self.args)


def _reiterable(make):
    """A generator function of byte blocks whose calls return `_Blocks`."""
    return functools.wraps(make)(lambda *args: _Blocks(make, args))


def _dump_float(x):
    """A float scalar as one block: "%.17g", or null if not finite."""
    return [b"%.17g" % x if math.isfinite(x) else b"null"]


@_reiterable
def _object_json(members):
    """A JSON object, given as a dict from key to an iterable of byte
    blocks, as byte blocks with its keys sorted."""
    yield b"{"
    for i, key in enumerate(sorted(members)):
        yield b"%s%s:" % (b"," if i else b"",
                          encode_basestring_ascii(key).encode())
        yield from members[key]
    yield b"}"


def report_blocks(report):
    """A report's JSON text as byte blocks, a newline at the end, made as
    they are consumed."""
    yield from _object_json(report)
    yield b"\n"


def write_report(report):
    """Serialize a report to deterministic JSON bytes."""
    return b"".join(report_blocks(report))


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
    """The curve-pair file of cpf as deterministic JSON bytes."""
    return b"".join(report_blocks({
        "alpha_offset": _encode(cpf.alpha.offset),
        "alpha": _points_json(cpf.alpha.points),
        "beta_offset": _encode(cpf.beta.offset),
        "beta": _points_json(cpf.beta.points),
    }))


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


@_reiterable
def _rows_json(values, before, after):
    """The rows of a 2-D float array as the byte blocks of a JSON list,
    written by `_kernels.g17_text`: each value ("null" if not finite)
    between the pieces, the first piece of the first row (a comma)
    dropped."""
    blocks = _kernels.g17_text(values, before, after, nonfinite=b"null")
    yield b"["
    yield next(blocks, b",")[1:]
    yield from blocks
    yield b"]"


_QUAD_END = np.frombuffer(b"}", dtype=np.uint8)


def _omega_json(metric):
    """The report's "omega" list, {"quad": [2u+1, 2v+1], "value": w} per
    quad in row-major order (u, then v) like `GridDomain.quads()`, as
    byte blocks written by `_kernels.g17_text`: each value ("null" if not
    finite) between its u-row's head (after a comma), its v-column's tail
    and "}"."""
    if metric is None or metric.values.size == 0:
        return [b"[]"]
    dom = metric.domain
    heads = _kernels.nul_padded([b',{"quad":[%d,' % (2 * u + 1)
                                 for u in range(dom.u_min, dom.u_max)])
    tails = _kernels.nul_padded([b'%d],"value":' % (2 * v + 1)
                                 for v in range(dom.v_min, dom.v_max)])
    return _rows_json(metric.values, (heads[:, None], tails), (_QUAD_END,))


def _points_json(points):
    """A JSON list of the rows of a 2-D float array as [x, y, ...] lists."""
    k = points.shape[1] - 1
    return _rows_json(points, (_kernels.nul_padded([b",["] + [b","] * k),),
                      (_kernels.nul_padded([b""] * k + [b"]"]),))


# the pieces before and after an oracle point's dvdu, lambda, u and v;
# each point's kind goes in a per-row piece
_POINT_BEFORE = _kernels.nul_padded([b',{"configuration":null,"dvdu":', b"",
                                     b',"vertex":[', b","])
_POINT_AFTER = _kernels.nul_padded([b"", b"", b"", b"]}"])


def _oracle_points_json(points):
    """The oracle report's "vertices" list as byte blocks: the (dvdu,
    lambda, u, v) rows of the points between their pieces."""
    if not points:
        return [b"[]"]
    kinds = _kernels.nul_padded([b',"kind":%s,"lambda":'
                                 % encode_basestring_ascii(p.kind).encode()
                                 for p in points])
    before = np.zeros((len(points), 4, kinds.shape[1]), dtype=np.uint8)
    before[:, 1] = kinds
    return _rows_json([(p.dvdu, p.lam, p.u, p.v) for p in points],
                      (_POINT_BEFORE, before), (_POINT_AFTER,))


@_reiterable
def _oracle_chains_json(chains):
    """The oracle report's "polylines" list as byte blocks; each chain's
    points are its [u,v] rows."""
    yield b"["
    for i, c in enumerate(chains):
        if i:
            yield b","
        yield from _object_json({
            "closed": _encode(c.closed), "edges": _encode([]),
            "vertices": _points_json(c.points)})
    yield b"]"


# json's C encoder, for the values that hold only ints, strs, bools and
# None: it raises on numpy scalars.  Floats never go through it, because
# it would print them in repr digits where reports use %.17g.  The values
# are built fresh for each report and hold no cycles, so no cycle check
# is needed.
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                         check_circular=False)


def _encode(obj):
    """A float-free value as one block of JSON text."""
    return [_json.encode(obj).encode("ascii")]


# ---------------------------------------------------------------------------
# the singular set's sections, from its int arrays
# ---------------------------------------------------------------------------

def _template(record, fields):
    """_json's text of record cut at the JSON strings of the sentinels
    `fields`, in text order: len(fields) + 1 byte pieces, an empty one
    where the record holds no such sentinel."""
    text = _json.encode(record).encode("ascii")
    pieces = []
    for name in fields:
        head, mark, rest = text.partition(_json.encode(name).encode("ascii"))
        pieces.append(head if mark else b"")
        text = rest if mark else text
    return pieces + [text]


def _pieces(template):
    """A template's pieces as uint8 arrays, a comma before the first."""
    return [np.frombuffer(piece, dtype=np.uint8)
            for piece in [b"," + template[0], *template[1:]]]


def _laid_out(pieces, fields):
    """One text row per row of the fields, the pieces with the fields
    between them, as NUL-padded uint8 rows.  A piece is a uint8 array,
    one for every row or a matrix with a row per row; a field is such a
    matrix."""
    parts = [pieces[0]]
    for field, piece in zip(fields, pieces[1:]):
        parts += [field, piece]
    return _kernels.laid_out((len(fields[0]),), parts)


def _joined(rows):
    """The text of comma-led NUL-padded rows, NULs dropped, and the
    offset in it at which each row ends, 0 first."""
    text = rows != 0
    ends = np.cumsum(text.sum(axis=1)).tolist()
    return rows[text].tobytes(), [0] + ends


def _list_json(rows):
    """A JSON list of comma-led NUL-padded rows."""
    return [b"[" + rows[rows != 0].tobytes()[1:] + b"]"]


_AXIS_TEXT = _kernels.nul_padded([_json.encode(a).encode() for a in "uv"])
_EDGE = _pieces(_template({"axis": "#axis", "base_vertex": ["#u", "#v"]},
                          ("#axis", "#u", "#v")))
_POINT = _pieces(_template(["#u", "#v"], ("#u", "#v")))
_POLYLINE = [_template({"closed": closed, "edges": "#e", "vertices": "#v"},
                       ("#e", "#v")) for closed in (False, True)]
_VERTEX_FIELDS = ("#axis", "#bu", "#bv", "#u", "#v")


def _edge_rows(axis, u, v):
    """{"axis": ..., "base_vertex": [u, v]} per edge, as _laid_out rows."""
    return _laid_out(_EDGE, [_AXIS_TEXT[axis],
                             *_kernels.int_field(np.stack([u, v]))])


def _vertex_template(outcome):
    """The pieces of a vertex record with this outcome around its fields:
    the base edge's axis, u and v (where it has diagnostics), then the
    vertex' u and v."""
    if outcome is None:
        return [b""] * 6
    conf = outcome.configuration
    return _template({
        "vertex": ["#u", "#v"],
        "configuration": conf.value if conf is not None else None,
        "kind": outcome.kind.value,
        "diagnostics": ({"base_edge": ["#axis", "#bu", "#bv"],
                         **outcome.diagnostics}
                        if outcome.diagnostics else {}),
    }, _VERTEX_FIELDS)


def _vertex_pieces(outcomes):
    """Per piece of the vertex record, a NUL-padded matrix of its text
    per outcome code, and whether each outcome has a base edge."""
    templates = [_vertex_template(o) for o in outcomes]
    pieces = [_kernels.nul_padded(piece) for piece in zip(*[
        [b"," + t[0], *t[1:]] for t in templates])]
    based = np.array([bool(t[1]) for t in templates])
    for table in (*pieces, based):
        table.flags.writeable = False   # _outcome_pieces shares them
    return pieces, based


_outcome_pieces = functools.cache(lambda: _vertex_pieces(OUTCOMES))


def _vertices_json(table):
    """The report's "vertices" list: per row of the vertex table, its
    outcome's pieces with its ints between them."""
    code, axis = table.columns[2:4]
    pieces, based = (_outcome_pieces() if len(table.outcomes) == len(OUTCOMES)
                     else _vertex_pieces(table.outcomes))
    keep = based[code][:, None]
    digits = _kernels.int_field(table.columns[[4, 5, 0, 1]])
    return _list_json(_laid_out([p[code] for p in pieces], [
        _AXIS_TEXT[axis] * keep, digits[0] * keep, digits[1] * keep,
        *digits[2:]]))


def _polylines_json(chains):
    """The report's "polylines" list: per chain, its closed flag, the
    rows of its edges and the rows of its vertices."""
    edges, edge_ends = _joined(_edge_rows(*chains.edges()))
    verts, vert_ends = _joined(_laid_out(
        _POINT, _kernels.int_field(np.stack([chains.u, chains.v]))))
    out = []
    # chain k has one edge fewer than vertices, as have those before it
    for k, (lo, hi, closed) in enumerate(zip(chains.bounds, chains.bounds[1:],
                                             chains.closed)):
        head, mid, tail = _POLYLINE[closed]
        out += [b",", head, b"[", edges[edge_ends[lo - k] + 1:
                                        edge_ends[hi - k - 1]],
                b"]", mid, b"[", verts[vert_ends[lo] + 1:vert_ends[hi]],
                b"]", tail]
    return [b"[" + b"".join(out)[1:] + b"]"]


def report_from_analysis(analysis, tol, metric_eps, degenerate_quads=()):
    """A report of an analysis; its singular set's sections are written
    from the analysis' arrays, with no record per edge or vertex."""
    sset = analysis.singular_set
    dom = sset.domain
    return {
        "smooth": _encode(False),
        "tolerances": _object_json({
            "sign_tol": _dump_float(tol),
            "degenerate_metric_eps": _dump_float(metric_eps),
            "scale": _dump_float(analysis.net.scale)}),
        "omega": _omega_json(analysis.metric),
        "singular_edges": _list_json(_edge_rows(
            sset.axis, sset.i + dom.u_min, sset.j + dom.v_min)),
        "vertices": _vertices_json(analysis.table),
        "polylines": _polylines_json(analysis.chains),
        "validations": _encode({
            "generic_position": [
                {"vertex": g.vertex, "planes": [g.plane_a, g.plane_b]}
                for g in analysis.generic_violations],
            "admissibility": [
                {"vertex": v, "reason": reason}
                for v, reason in analysis.admissibility_violations],
            "degenerate_quads": list(degenerate_quads),
        }),
    }


def report_from_oracle(pair_name, grid_n, tol, chains, points):
    return {
        "smooth": _encode(True),
        "pair": _encode(pair_name),
        "grid_n": _encode(grid_n),
        "tolerances": _object_json({"trace_tol": _dump_float(tol)}),
        "omega": _encode([]),
        "singular_edges": _encode([]),
        "vertices": _oracle_points_json(points),
        "polylines": _oracle_chains_json(chains),
        "validations": _encode({"generic_position": [], "admissibility": [],
                                "degenerate_quads": []}),
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
        _kernels.write_blocks(args.report, report_blocks(report_from_analysis(
            empty, args.tol, args.metric_eps, degenerate_quads=[{
                "quad": _quad_key(quad) if quad else None,
                "detail": str(e)}])))
        raise
    _kernels.write_blocks(args.report, report_blocks(
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
          f"{len(sset.axis)} singular edges")
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
        # meshing reads the polylines alone: the analysis and the net's
        # cached Omega grid are freed before the positions are integrated
        del analysis
        net.release_omega()
    mesh = tessellate(integrate_net(net), args.subdiv, chains)
    export_obj(mesh, args.out)
    return 0


def _cmd_example(args):
    cpf = example_curve_pair(args.y, args.du, args.dv)
    _kernels.write_blocks(args.out, [write_curves(cpf)])
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
    _kernels.write_blocks(args.report, report_blocks(
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
