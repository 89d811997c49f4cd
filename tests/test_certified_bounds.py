"""Certified bounds decide exactly what the whole sign grids decided.

The generic-position check, the metric's dead zone and ConormalNet's |nu|
check skip the rows that a certified bound decides, and the classification
forms its six signs from the curve points (admissibility_check its four
cross signs from Omega where the rows are certified).  `_helpers`'
reference_* functions read the whole (det, mag) grids instead, each
judged by the one rule, `_kernels.undecided`.  Library and reference must
give the same violation lists, the same DegenerateMetric quad and
message, the same ValidationError messages, the same vertex records and
the same admissibility verdicts; small block sizes send the small nets
through the bounds and their fallback as well.
"""

import numpy as np
import pytest

from diams import _kernels
from diams.errors import (DegenerateMetric, DegenerateOrientation,
                          InadmissibleVertex, ValidationError)
from diams.net_core import (ConormalNet, PolyCurve, characteristic_scale,
                            validate_generic_position)
from diams.singularity import (MetricField, SingularSet, SingularVertex,
                               _vertex_records, admissibility_check,
                               metric_field)

from _helpers import (corpus_candidates, parabolic_net, parabolic_points,
                      planted_boundary_nets, planted_coincidence_nets,
                      planted_flat_frame_nets, reference_admissibility,
                      reference_generic_violations, reference_intersection,
                      reference_metric_field, reference_sign_grids,
                      reference_vertex_records, round_off_net)

TOLS = (0.0, 1e-9, 1e-3)
BLOCKS = [1, 64, _kernels.GRID_BLOCK_VALUES]


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except (ValidationError, DegenerateMetric, DegenerateOrientation,
            InadmissibleVertex) as e:
        return type(e).__name__, str(e), getattr(e, "quad", None)
    if isinstance(result, MetricField):
        return "ok", result.values.tobytes()
    return "ok", result


def _vertex_table_records(net, sset, tol):
    return _vertex_records(net, sset, tol).records(sset.incident())


def assert_same_decisions(net, tol):
    assert (_outcome(validate_generic_position, net, tol)
            == _outcome(reference_generic_violations, net, tol))
    got = _outcome(metric_field, net, tol)
    assert got == _outcome(reference_metric_field, net, tol)
    # the singular set of Omega's signs whatever the metric's dead zone,
    # so that records and admissibility also meet undecided cross signs
    sset = SingularSet.from_omega(MetricField(net.domain, net.omega))
    assert (_outcome(_vertex_table_records, net, sset, tol)
            == _outcome(reference_vertex_records, net, sset, tol))
    omega_terms = reference_sign_grids(net)[0]
    for vert, edges, inner in zip(sset.vertices, sset.incident(),
                                  sset.interior):
        if inner:
            sv = SingularVertex(vert, edges)
            assert (_outcome(admissibility_check, net, sv, tol)
                    == _outcome(reference_admissibility, net, sv, tol,
                                omega_terms))
    return got[0]


def assert_same_intersection(alpha, beta):
    """ConormalNet's |nu| check against the whole |nu| grid; the net, if
    the curves pass it."""
    want = reference_intersection(alpha, beta)
    try:
        net = ConormalNet(alpha, beta)
    except ValidationError as e:
        assert str(e) == want
        return None
    assert want is None
    return net


@pytest.mark.parametrize("block", BLOCKS)
def test_bounds_decide_as_the_whole_grids_on_corpus_nets(block,
                                                         monkeypatch):
    # the full corpus where its frames go through the bounds (a 19 x 19
    # frame grid fits in one default block), a part of it elsewhere
    monkeypatch.setattr(_kernels, "GRID_BLOCK_VALUES", block)
    seen = set()
    for seed in range(1, 6):
        for net in corpus_candidates(seed, {1: 20, 64: 150}.get(block, 40)):
            assert assert_same_intersection(net.alpha, net.beta)
            for tol in TOLS:
                seen.add(assert_same_decisions(net, tol))
    assert seen == {"ok", "DegenerateMetric"}


@pytest.mark.parametrize("block", BLOCKS)
def test_bounds_decide_as_the_whole_grids_on_constructed_nets(block, rng,
                                                              monkeypatch):
    # planted coincidences of two frame planes, the net whose vertex
    # round-off decides, and signs planted at the dead zone's edge, in
    # the two frames and in Omega, at tol 1e-9 and 1e-3; among them
    # frames of plane curves, whose bounds have no slack to spare
    monkeypatch.setattr(_kernels, "GRID_BLOCK_VALUES", block)
    nets = list(planted_coincidence_nets(rng, count=40))
    nets.append(round_off_net())
    for tol in TOLS[1:]:
        nets += planted_boundary_nets(rng, tol, count=12)
        nets += planted_flat_frame_nets(rng, tol, count=8)
    flagged = 0
    for net in nets:
        for tol in TOLS:
            assert_same_decisions(net, tol)
        flagged += bool(validate_generic_position(net, 1e-9))
    assert flagged > 10


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("k", [-340, -300, 0, 300, 341, 342])
def test_bounds_decide_as_the_whole_grids_at_any_scale(k, block,
                                                       monkeypatch):
    # the parabolic pair scaled by 2^k: subnormal dead zones at -340, the
    # generic-position test overflowing at 342
    monkeypatch.setattr(_kernels, "GRID_BLOCK_VALUES", block)
    a, b, _ = parabolic_points(0.1)
    net = assert_same_intersection(PolyCurve(a * 2.0 ** k),
                                   PolyCurve(b * 2.0 ** k))
    for tol in TOLS:
        assert_same_decisions(net, tol)


@pytest.mark.parametrize("block", BLOCKS)
def test_intersection_bound_names_what_the_whole_grid_names(block, rng,
                                                            monkeypatch):
    # alpha(u) planted at distance t * 1e-12 * scale from beta(v), t on
    # both sides of 1 and far from it; every other net along an axis k
    # from beta's extreme point in k, moved to 0, so that the gap to
    # beta's bounding box is |nu| itself, exactly
    monkeypatch.setattr(_kernels, "GRID_BLOCK_VALUES", block)
    named = 0
    for n, net in enumerate(corpus_candidates(7, 40)):
        a, b = net.alpha.points.copy(), net.beta.points.copy()
        i, j = (int(x) for x in rng.integers(0, 21, size=2))
        t = (0.5, 1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40, 2.0)[int(
            rng.integers(4))]
        if n % 2:
            k = int(rng.integers(3))
            b[:, k] -= b[:, k].max()
            j = int(np.argmax(b[:, k]))
            a[i] = b[j]
            mantissa, exponent = np.frexp(characteristic_scale(a, b))
            a[i, k] = np.ldexp(t * (1e-12 * mantissa), exponent)
        else:
            e = rng.standard_normal(3)
            a[i] = b[j] + t * 1e-12 * net.scale * e / np.linalg.norm(e)
        named += assert_same_intersection(PolyCurve(a), PolyCurve(b)) is None
    assert named > 5


def test_no_row_of_the_parabolic_pair_runs_the_kernel(monkeypatch):
    # on a net larger than one block, the bounds certify every row of
    # both frames and of Omega: orient_terms forms per-row bounds only,
    # never a grid, and the |nu| check reads no block
    net = parabolic_net(0.01)[0]
    shapes = []
    kernel = _kernels.orient_terms

    def recorded(*args):
        d, mag = kernel(*args)
        shapes.append(np.shape(d))
        return d, mag

    monkeypatch.setattr(_kernels, "orient_terms", recorded)
    blocks = []
    row_blocks = _kernels.row_blocks

    def counted(rows, columns, limit):
        blocks.append((rows, columns))
        return row_blocks(rows, columns, limit)

    monkeypatch.setattr(_kernels, "row_blocks", counted)
    fresh = ConormalNet(net.alpha, net.beta)
    assert (0, 3 * fresh.domain.nv) in blocks
    assert validate_generic_position(fresh) == []
    metric_field(fresh)
    assert shapes and all(len(s) == 1 for s in shapes)
