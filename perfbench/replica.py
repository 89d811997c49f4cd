"""Traced replicas of the CLI commands, and the per-layer metrics.

A traced operation parses the same argv as ``run_cli`` and then calls each
module's public functions in the order ``analyze_net`` and ``_cmd_analyze``,
``_cmd_mesh`` and ``_cmd_oracle`` call them, with a span around every call.
The three ``diams._kernels`` entry points are wrapped for the duration of a
traced operation only, so their spans nest inside the callers' spans.  The
replica writes the same bytes as the CLI; run.py checks that (parity), so
the per-layer numbers describe the work the untraced operation does.

Span times are self times: a span's duration minus the time of the spans
it directly contains.  ``trace.unaccounted_s`` is the operation's own self
time (file writes and glue between the traced calls).
"""

import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from diams import _kernels
from diams.errors import InadmissibleVertex
from diams.io_cli import (build_parser, parse_curves, report_from_analysis,
                          report_from_oracle, write_report)
from diams.net_core import integrate_net, validate_generic_position
from diams.singularity import (Configuration, Kind, NetAnalysis,
                               classify_vertex, extract_polylines,
                               metric_field, singular_edges, singular_vertices)
from diams.smooth_oracle import (builtin_pair, find_swallowtails, omega_smooth,
                                 trace_singular_curve)
from diams.surface_mesh import export_obj, tessellate

# span name -> metric name of its self time; "op" is the whole operation
SPAN_METRICS = {
    "op": "trace.unaccounted_s",
    "io_cli.argparse": "io_cli.argparse_s",
    "io_cli.parse": "io_cli.parse_s",
    "io_cli.report": "io_cli.report_s",
    "net_core.net": "net_core.net_s",
    "net_core.generic": "net_core.generic_s",
    "net_core.integrate": "net_core.integrate_s",
    "kernels.omega_grid": "kernels.omega_grid_s",
    "kernels.integrate_positions": "kernels.integrate_positions_s",
    "kernels.bilinear_sample": "kernels.bilinear_sample_s",
    "singularity.metric": "singularity.metric_s",
    "singularity.edges": "singularity.edges_s",
    "singularity.vertices": "singularity.vertices_s",
    "singularity.classify": "singularity.classify_s",
    "singularity.polylines": "singularity.polylines_s",
    "surface_mesh.tessellate": "surface_mesh.tessellate_s",
    "surface_mesh.export_obj": "surface_mesh.export_obj_s",
    "smooth_oracle.pair": "smooth_oracle.pair_s",
    "smooth_oracle.tol_scan": "smooth_oracle.tol_scan_s",
    "smooth_oracle.trace": "smooth_oracle.trace_s",
    "smooth_oracle.swallowtails": "smooth_oracle.swallowtails_s",
}

COUNT_METRICS = (
    "io_cli.report_bytes", "net_core.quads", "net_core.generic_violations",
    "kernels.omega_grid_bytes", "kernels.omega_grid_flops",
    "kernels.integrate_positions_bytes", "kernels.integrate_positions_flops",
    "kernels.bilinear_sample_bytes", "kernels.bilinear_sample_flops",
    "singularity.singular_edges", "singularity.classified_vertices",
    "singularity.swallowtails", "singularity.polylines",
    "surface_mesh.triangles", "surface_mesh.vertices", "surface_mesh.obj_bytes",
    "smooth_oracle.chains", "smooth_oracle.chain_points",
    "smooth_oracle.swallowtails",
)


# Kernel traffic and operation counts, computed from array shapes (not
# measured): bytes are the float64 inputs read once plus the output written
# once; flops count the arithmetic in the kernel's expression.
def _omega_grid_cost(alpha, beta):
    nu, nv = len(alpha), len(beta)
    quads = (nu - 1) * (nv - 1)
    return 8 * (3 * nu + 3 * nv + quads), 17 * quads + 3 * (nu + nv - 2)


def _integrate_cost(alpha, beta, iu, iv, base_point):
    nu, nv = len(alpha), len(beta)
    return 8 * (3 * nu + 3 * nv + 3 * nu * nv), 15 * (nu * nv - 1) + 3 * (nu + nv - 2)


def _bilinear_cost(positions, subdiv):
    nu, nv = positions.shape[0], positions.shape[1]
    samples = (nu - 1) * (nv - 1) * (subdiv + 1) ** 2
    return 8 * (3 * nu * nv + 3 * samples), 21 * samples


KERNEL_COSTS = {"omega_grid": _omega_grid_cost,
                "integrate_positions": _integrate_cost,
                "bilinear_sample": _bilinear_cost}


class ReplicaFailed(Exception):
    """The traced replica reached a state where the CLI would not exit 0."""


class Tracer:
    """Spans and counts of traced operations, kept in memory."""

    def __init__(self):
        self.spans = []           # [op, span id, parent id, name, start, end]
        self.counts = []          # one dict per traced operation
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.counts) - 1, sid, parent, name, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec[5] = perf_counter()

    def add(self, name, value):
        self.counts[-1][name] += value

    @contextmanager
    def kernels_traced(self):
        saved = {name: getattr(_kernels, name) for name in KERNEL_COSTS}

        def wrap(name, fn):
            def traced(*args):
                nbytes, flops = KERNEL_COSTS[name](*args)
                self.add(f"kernels.{name}_bytes", nbytes)
                self.add(f"kernels.{name}_flops", flops)
                with self.span(f"kernels.{name}"):
                    return fn(*args)
            return traced

        for name, fn in saved.items():
            setattr(_kernels, name, wrap(name, fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(_kernels, name, fn)

    def run(self, argv):
        """One traced operation; returns its wall time in seconds."""
        self.counts.append(defaultdict(int))
        t0 = perf_counter()
        with self.kernels_traced(), self.span("op"):
            with self.span("io_cli.argparse"):
                args = build_parser().parse_args(argv)
            COMMANDS[args.command](self, args)
        return perf_counter() - t0

    # -- per-layer metrics -------------------------------------------------

    def self_times(self):
        """Per traced operation, the self time summed by span name."""
        out = [defaultdict(float) for _ in self.counts]
        for op, _sid, parent, name, t0, t1 in self.spans:
            out[op][name] += t1 - t0
            if parent is not None:
                out[op][self.spans[parent][3]] -= t1 - t0
        return out

    def metrics(self, keys, overheads):
        """Per-layer values.  Times are medians over traced operations;
        counts are summed over the distinct inputs (keys[i] names the input
        of traced operation i), each counted once."""
        times = self.self_times()
        out = {m: statistics.median(t.get(name, 0.0) for t in times)
               for name, m in SPAN_METRICS.items()}
        first = {}
        for key, counts in zip(keys, self.counts):
            first.setdefault(key, counts)
        for m in COUNT_METRICS:
            out[m] = sum(c.get(m, 0) for c in first.values())
        classified = sum(c.get("singularity.classified_vertices", 0)
                         for c in self.counts)
        busy = sum(t.get("singularity.classify", 0.0) for t in times)
        out["singularity.classify_per_vertex_us"] = (
            1e6 * busy / classified if classified else 0.0)
        out["trace.overhead_s"] = statistics.median(overheads)
        return out

    def dump(self):
        return {"spans": [{"op": op, "id": sid, "parent": parent, "name": name,
                           "start": t0, "end": t1}
                          for op, sid, parent, name, t0, t1 in self.spans],
                "counts": [dict(c) for c in self.counts]}


# ---------------------------------------------------------------------------
# replicas of analyze_net and the CLI commands
# ---------------------------------------------------------------------------

def _analysis(tr, net, tol, metric_eps):
    """analyze_net, one traced call at a time."""
    tr.add("net_core.quads", (net.domain.nu - 1) * (net.domain.nv - 1))
    with tr.span("net_core.generic"):
        generic = validate_generic_position(net, tol)
    with tr.span("singularity.metric"):
        metric = metric_field(net, metric_eps)
    with tr.span("singularity.edges"):
        edges = singular_edges(metric)
    with tr.span("singularity.vertices"):
        verts = singular_vertices(edges, net.domain)
    with tr.span("net_core.integrate"):
        f = integrate_net(net)
    admissibility = []
    classified = []
    with tr.span("singularity.classify"):
        for sv in verts:
            if sv.configuration == Configuration.INADMISSIBLE:
                admissibility.append(
                    (sv.vertex, f"{len(sv.incident_singular_edges)} incident "
                                "singular edges at an interior vertex"))
                classified.append(sv)
                continue
            if not net.domain.is_interior_vertex(*sv.vertex):
                classified.append(replace(
                    sv, configuration=Configuration.BOUNDARY,
                    kind=Kind.UNCLASSIFIED))
                continue
            tr.add("singularity.classified_vertices", 1)
            try:
                classified.append(classify_vertex(net, f, sv, tol,
                                                  singular_edge_set=edges))
            except InadmissibleVertex:
                admissibility.append((sv.vertex,
                                      "forbidden quadrant configuration"))
                classified.append(replace(
                    sv, configuration=Configuration.INADMISSIBLE,
                    kind=Kind.UNCLASSIFIED))
    with tr.span("singularity.polylines"):
        if any(sv.configuration == Configuration.INADMISSIBLE
               for sv in classified):
            polylines = []
        else:
            polylines = extract_polylines(classified, edges, net.domain)
    analysis = NetAnalysis(net=net, f=f, metric=metric,
                           edges=sorted(edges, key=lambda se: tuple(se.edge)),
                           vertices=classified, polylines=polylines,
                           generic_violations=generic,
                           admissibility_violations=admissibility)
    tr.add("net_core.generic_violations", len(generic))
    tr.add("singularity.singular_edges", len(edges))
    tr.add("singularity.swallowtails",
           sum(sv.kind == Kind.SWALLOWTAIL for sv in classified))
    tr.add("singularity.polylines", len(polylines))
    if not analysis.clean:
        raise ReplicaFailed("net has generic-position or admissibility "
                            "violations")
    return analysis


def _net(tr, path):
    with tr.span("io_cli.parse"):
        cpf = parse_curves(Path(path).read_bytes())
    with tr.span("net_core.net"):
        return cpf.to_net()


def _analyze(tr, args):
    net = _net(tr, args.curves)
    analysis = _analysis(tr, net, args.tol, args.metric_eps)
    with tr.span("io_cli.report"):
        data = write_report(report_from_analysis(analysis, args.tol,
                                                 args.metric_eps))
    tr.add("io_cli.report_bytes", len(data))
    Path(args.report).write_bytes(data)


def _mesh(tr, args):
    if args.singular != "auto":
        raise ReplicaFailed("only --singular auto is replicated")
    net = _net(tr, args.curves)
    analysis = _analysis(tr, net, args.tol, args.metric_eps)
    with tr.span("surface_mesh.tessellate"):
        mesh = tessellate(analysis.f, args.subdiv, analysis.polylines)
    with tr.span("surface_mesh.export_obj"):
        export_obj(mesh, args.out)
    tr.add("surface_mesh.triangles", len(mesh.triangles))
    tr.add("surface_mesh.vertices", len(mesh.vertices))
    tr.add("surface_mesh.obj_bytes", Path(args.out).stat().st_size)


def _oracle(tr, args):
    with tr.span("smooth_oracle.pair"):
        pair = builtin_pair(args.pair)
    if args.tol is not None:
        tol = args.tol
    else:
        with tr.span("smooth_oracle.tol_scan"):
            us = np.linspace(*pair.u_range, 17)
            vs = np.linspace(*pair.v_range, 17)
            wmax = max(abs(omega_smooth(pair, u, v)) for u in us for v in vs)
            tol = 1e-10 * max(1.0, wmax)
    with tr.span("smooth_oracle.trace"):
        chains = trace_singular_curve(pair, args.grid, tol)
    points = []
    with tr.span("smooth_oracle.swallowtails"):
        for chain in chains:
            points.extend(find_swallowtails(pair, chain))
    with tr.span("io_cli.report"):
        data = write_report(report_from_oracle(args.pair, args.grid, tol,
                                               chains, points))
    tr.add("smooth_oracle.chains", len(chains))
    tr.add("smooth_oracle.chain_points", sum(len(c.points) for c in chains))
    tr.add("smooth_oracle.swallowtails",
           sum(p.kind == "SwallowtailCandidate" for p in points))
    tr.add("io_cli.report_bytes", len(data))
    Path(args.report).write_bytes(data)


COMMANDS = {"analyze": _analyze, "mesh": _mesh, "oracle": _oracle}
