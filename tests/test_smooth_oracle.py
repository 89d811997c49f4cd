import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from diams import (builtin_pair, check_regularity, curvature_gap,
                   find_swallowtails, lambda_along_curve, omega_smooth,
                   omega_smooth_grid, sample_pair, trace_singular_curve)
from diams.errors import (DegenerateDirection, DiamsError, NonGenericCell,
                          NonGenericChain, OutOfRange, ValidationError)
from diams.io_cli import report_from_oracle, run_cli, write_report
from diams.smooth_oracle import (BUILTIN_PAIRS, SmoothChain, SmoothCurvePair,
                                 _kernel_ratio, _row_dot)

from _helpers import (circle_pair, densify, one_sided_hausdorff,
                      reference_builtin_pair, reference_find_swallowtails,
                      reference_lambda, reference_trace)


def line_pair(**kw):
    return builtin_pair("flat")


def test_omega_flat_is_one(rng):
    pair = builtin_pair("flat")
    for _ in range(20):
        u, v = rng.uniform(-1, 1, size=2)
        assert omega_smooth(pair, u, v) == pytest.approx(1.0, abs=1e-14)


def test_omega_parabolic_closed_form(rng):
    pair = builtin_pair("parabolic")
    for _ in range(50):
        u, v = rng.uniform(-1, 1, size=2)
        assert omega_smooth(pair, u, v) == pytest.approx(
            3 * v * v - 2 * v - 2 * u, abs=1e-13)
    assert omega_smooth(pair, 0.0, 0.0) == 0.0
    with pytest.raises(OutOfRange):
        omega_smooth(pair, 1.5, 0.0)


def test_derivative_evaluators_are_validated():
    with pytest.raises(ValidationError, match="first derivative"):
        SmoothCurvePair(
            alpha=lambda u: np.array([u, u * u, 1.0]),
            beta=lambda v: np.array([0.0, v, 0.0]),
            d_alpha=lambda u: np.array([1.0, 0.5 * u, 0.0]),   # wrong
            d_beta=lambda v: np.array([0.0, 1.0, 0.0]),
            dd_alpha=lambda u: np.array([0.0, 2.0, 0.0]),
            dd_beta=lambda v: np.zeros(3),
            u_range=(-1, 1), v_range=(-1, 1))
    parabolic = builtin_pair("parabolic")
    with pytest.raises(ValidationError, match=r"^beta: empty parameter "
                                              r"range \(0.5, 0.5\)$"):
        dataclasses.replace(parabolic, v_range=(0.5, 0.5))
    with pytest.raises(KeyError, match="unknown builtin pair 'nope'"):
        builtin_pair("nope")


def test_builtin_pairs_are_built_once():
    # one table names the pairs; each is built and checked once, and an
    # unknown name lists the table's names
    assert BUILTIN_PAIRS == ("flat", "parabolic", "symmetric")
    for name in BUILTIN_PAIRS:
        pair = builtin_pair(name)
        assert pair.name == name and builtin_pair(name) is pair
    with pytest.raises(KeyError, match="; choose from flat, parabolic, "
                                       "symmetric"):
        builtin_pair("Flat")


def test_intersecting_curves_rejected():
    with pytest.raises(ValidationError, match="intersect"):
        SmoothCurvePair(
            alpha=lambda u: np.array([u, 0.0, 0.0]),
            beta=lambda v: np.array([0.0, v, 0.0]),
            d_alpha=lambda u: np.array([1.0, 0.0, 0.0]),
            d_beta=lambda v: np.array([0.0, 1.0, 0.0]),
            dd_alpha=lambda u: np.zeros(3),
            dd_beta=lambda v: np.zeros(3),
            u_range=(-1, 1), v_range=(-1, 1))


EVALUATORS = ("alpha", "d_alpha", "dd_alpha", "beta", "d_beta", "dd_beta")


@pytest.mark.parametrize("tag", EVALUATORS)
def test_evaluator_shape_is_validated(tag):
    # caught at construction, not later inside det3
    with pytest.raises(ValidationError, match=rf"^{tag}: evaluator returned "
                       r"shape \(2,\) at t=\S+, expected 3 floats$"):
        dataclasses.replace(builtin_pair("parabolic"),
                            **{tag: lambda t: (t, 0.0)})


def int_list_pair():
    """The parabolic pair with evaluators returning lists whose constant
    and coefficient entries are ints; each value equals the builtin's."""
    return SmoothCurvePair(
        alpha=lambda u: [u, u * u, 1],
        beta=lambda v: [v, -v * v + v ** 3, 0],
        d_alpha=lambda u: [1, 2 * u, 0],
        d_beta=lambda v: [1, -2 * v + 3 * v * v, 0],
        dd_alpha=lambda u: [0, 2, 0],
        dd_beta=lambda v: [0, -2 + 6 * v, 0],
        u_range=(-1, 1), v_range=(-1, 1))


@pytest.mark.parametrize("n", [33, 101])
def test_int_list_evaluators_trace_like_floats(n):
    pair, ref = int_list_pair(), builtin_pair("parabolic")
    us, vs = _grid(ref, n)
    assert np.array_equal(_bits(omega_smooth_grid(pair, us, vs)),
                          _bits(omega_smooth_grid(ref, us, vs)))
    chains = trace_singular_curve(pair, n, 1e-10)
    ref_chains = trace_singular_curve(ref, n, 1e-10)
    _assert_same_chains(chains, ref_chains)
    for chain, ref_chain in zip(chains, ref_chains):
        _assert_same_points(find_swallowtails(pair, chain),
                            find_swallowtails(ref, ref_chain))
    for p in ref_chains[0].points[::7]:
        assert curvature_gap(pair, p) == curvature_gap(ref, p)
        assert check_regularity(pair, p, 1e-8) == check_regularity(ref, p, 1e-8)


def test_trace_flat_pair_has_no_chains():
    assert trace_singular_curve(builtin_pair("flat"), 33, 1e-10) == []


def test_trace_parabolic_matches_closed_form():
    pair = builtin_pair("parabolic")
    chains = trace_singular_curve(pair, 101, 1e-10)
    assert len(chains) == 1
    chain = chains[0]
    assert not chain.closed
    assert chain.points.shape[0] > 40
    for u, v in chain.points:
        assert abs(omega_smooth(pair, u, v)) <= 1e-10
        assert abs(3 * v * v - 2 * v - 2 * u) <= 1e-9
    # covers the analytic arc inside the domain
    v = np.linspace(-0.548, 1.0, 400)
    arc = np.stack([1.5 * v * v - v, v], axis=1)
    arc = arc[np.abs(arc[:, 0]) <= 0.98]
    assert one_sided_hausdorff(arc, densify(chain.points)) < 0.08


def test_trace_rejects_zero_corner():
    # Omega = -u vanishes along the u = 0 grid line
    pair = SmoothCurvePair(
        alpha=lambda u: np.array([u, 0.5 * u * u, 1.0]),
        beta=lambda v: np.array([v, 0.0, 0.0]),
        d_alpha=lambda u: np.array([1.0, u, 0.0]),
        d_beta=lambda v: np.array([1.0, 0.0, 0.0]),
        dd_alpha=lambda u: np.array([0.0, 1.0, 0.0]),
        dd_beta=lambda v: np.zeros(3),
        u_range=(-1, 1), v_range=(-1, 1))
    with pytest.raises(NonGenericCell):
        trace_singular_curve(pair, 16, 1e-10)
    with pytest.raises(ValidationError):
        trace_singular_curve(pair, 8, 1e-10)


def test_lambda_on_parabolic_singular_curve():
    pair = builtin_pair("parabolic")
    for v in np.linspace(-0.5, 0.9, 15):
        u = 1.5 * v * v - v
        fit = lambda_along_curve(pair, (u, v))
        assert fit.value == pytest.approx(-1.0, abs=1e-12)
        assert fit.residual <= 1e-12


def test_lambda_opposite_parametrization_is_plus_one():
    # beta' = -alpha' pointwise, so P alpha' + lambda P beta' = 0 at lambda 1
    pair = SmoothCurvePair(
        alpha=lambda u: np.array([u, 0.0, 1.0]),
        beta=lambda v: np.array([-v, 0.0, 0.0]),
        d_alpha=lambda u: np.array([1.0, 0.0, 0.0]),
        d_beta=lambda v: np.array([-1.0, 0.0, 0.0]),
        dd_alpha=lambda u: np.zeros(3),
        dd_beta=lambda v: np.zeros(3),
        u_range=(-1, 1), v_range=(-1, 1))
    assert lambda_along_curve(pair, (0.3, 0.1)).value == pytest.approx(1.0)


def test_lambda_degenerate_direction():
    # beta runs parallel to the co-normal at u = 1, so P beta' vanishes
    pair = SmoothCurvePair(
        alpha=lambda u: np.array([u, 1.0, 0.0]),
        beta=lambda v: np.array([1.0, 1.0, v]),
        d_alpha=lambda u: np.array([1.0, 0.0, 0.0]),
        d_beta=lambda v: np.array([0.0, 0.0, 1.0]),
        dd_alpha=lambda u: np.zeros(3),
        dd_beta=lambda v: np.zeros(3),
        u_range=(-1, 1), v_range=(0.5, 1.5))
    with pytest.raises(DegenerateDirection):
        lambda_along_curve(pair, (1.0, 1.0))


def test_find_swallowtails_parabolic():
    pair = builtin_pair("parabolic")
    grid_n = 101
    chains = trace_singular_curve(pair, grid_n, 1e-10)
    points = find_swallowtails(pair, chains[0])
    cands = [p for p in points if p.kind == "SwallowtailCandidate"]
    assert len(cands) == 1
    assert abs(cands[0].u) <= 2.0 / grid_n
    assert abs(cands[0].v) <= 2.0 / grid_n
    assert cands[0].lam == pytest.approx(-1.0, abs=1e-6)
    others = [p for p in points if p.kind == "CuspidalEdge"]
    assert len(others) == chains[0].points.shape[0]
    with pytest.raises(ValidationError, match="at least 3 points"):
        find_swallowtails(pair, chains[0].points[:2])


def test_find_swallowtails_symmetric_pair_is_nongeneric():
    pair = builtin_pair("symmetric")
    chains = trace_singular_curve(pair, 33, 1e-10)
    assert len(chains) == 1
    with pytest.raises(NonGenericChain):
        find_swallowtails(pair, chains[0])


def test_check_regularity_parabolic_chain():
    pair = builtin_pair("parabolic")
    chains = trace_singular_curve(pair, 33, 1e-10)
    for p in chains[0].points[::4]:
        assert check_regularity(pair, p, 1e-8) is True


def test_check_regularity_constructed_degenerate():
    # alpha'' = 0, beta'(0) parallel to alpha', beta''(0) = 0: all three
    # projected cross products vanish at the origin
    pair = SmoothCurvePair(
        alpha=lambda u: np.array([u, 0.0, 1.0]),
        beta=lambda v: np.array([v, v ** 3, 0.0]),
        d_alpha=lambda u: np.array([1.0, 0.0, 0.0]),
        d_beta=lambda v: np.array([1.0, 3.0 * v * v, 0.0]),
        dd_alpha=lambda u: np.zeros(3),
        dd_beta=lambda v: np.array([0.0, 6.0 * v, 0.0]),
        u_range=(-1, 1), v_range=(-1, 1))
    assert check_regularity(pair, (0.0, 0.0), 1e-10) is False


def test_curvature_gap_parabolic():
    pair = builtin_pair("parabolic")
    # [Pa', Pa''] = 2 and lambda^3 [Pb', Pb''] = 2 at the origin
    assert curvature_gap(pair, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
    v = 0.5
    u = 1.5 * v * v - v
    assert abs(curvature_gap(pair, (u, v))) > 0.5


def test_curvature_gap_crossings_match_candidates():
    # the tangency indicator and the curvature gap change sign in the
    # same chain segment
    pair = builtin_pair("parabolic")
    chains = trace_singular_curve(pair, 101, 1e-10)
    pts = chains[0].points
    gaps = np.array([curvature_gap(pair, p) for p in pts])
    flips = [i for i in range(len(gaps) - 1) if gaps[i] * gaps[i + 1] < 0]
    assert len(flips) == 1
    cand = [p for p in find_swallowtails(pair, chains[0])
            if p.kind == "SwallowtailCandidate"][0]
    lo = min(pts[flips[0]][0], pts[flips[0] + 1][0]) - 1e-12
    hi = max(pts[flips[0]][0], pts[flips[0] + 1][0]) + 1e-12
    assert lo <= cand.u <= hi


def test_sample_pair_indexing():
    pair = builtin_pair("parabolic")
    alpha, beta, us, vs = sample_pair(pair, 0.25, 0.25)
    assert alpha.points.shape == (9, 3)
    assert us[0] == -1.0 and us[-1] == 1.0
    assert np.allclose(alpha.points[4], [0, 0, 1])


def test_sample_pair_steps_must_be_finite_and_positive():
    # a zero step raised ZeroDivisionError, and nan a ValueError from
    # np.arange; every one is refused by name
    pair = builtin_pair("parabolic")
    for du, dv in ((0.0, 0.25), (0.25, 0.0), (-0.25, 0.25), (np.nan, 0.25),
                   (0.25, np.inf), (0.25, "0.25"), (None, 0.25)):
        bad = "du" if du != 0.25 else "dv"
        with pytest.raises(ValidationError,
                           match=f"^{bad} must be a finite number > 0, got "):
            sample_pair(pair, du, dv)
    alpha, _, us, _ = sample_pair(pair, np.float64(0.25), 1)
    assert alpha.points.shape == (9, 3) and us[-1] == 1.0


def test_sample_pair_stays_in_range():
    # np.arange sampled past the range's end: u = v = 1.1 at a step of
    # 0.3, a last sample of 1.0000000000000018 at 0.05, and (1.05, 1.02)
    # on circle_pair at 0.05
    pair = builtin_pair("parabolic")
    for step, count in ((0.25, 9), (0.05, 41)):
        _, _, us, vs = sample_pair(pair, step, step)
        assert len(us) == len(vs) == count
        assert us[-1] == vs[-1] == 1.0
        assert np.array_equal(us[:-1], -1.0 + np.arange(count - 1) * step)
    _, _, us, _ = sample_pair(pair, 0.3, 0.3)
    assert len(us) == 7 and us[-1] == -1.0 + 6 * 0.3 == pytest.approx(0.8)
    for pair in (pair, circle_pair()):
        for du, dv in ((0.3, 0.3), (0.05, 0.05), (0.07, 0.011)):
            alpha, beta, us, vs = sample_pair(pair, du, dv)
            assert alpha.points.shape == (len(us), 3)
            assert beta.points.shape == (len(vs), 3)
            for u in us:
                pair.require(u, vs[0])
            for v in vs:
                pair.require(us[0], v)
            assert us[-1] + du > pair.u_range[1]
            assert vs[-1] + dv > pair.v_range[1]


def test_grid_n_must_be_an_integer():
    # a float grid size ended in a bare TypeError from operator.index; it
    # is refused by name, through the predicate that refuses tessellate's
    # fractional subdiv (net_core.is_index)
    pair = builtin_pair("parabolic")
    for grid_n in (20.5, np.float64(20.0), 20.0, True, "20", None, 15,
                   np.int64(8)):
        with pytest.raises(ValidationError,
                           match="^grid_n must be an integer >= 16, got "):
            trace_singular_curve(pair, grid_n, 1e-10)
    want, = trace_singular_curve(pair, 33, 1e-10)
    got, = trace_singular_curve(pair, np.int64(33), 1e-10)
    assert np.array_equal(got.points, want.points)


def _cubic(c):
    """Evaluators of the cubic curve c0 + c1 t + c2 t^2 + c3 t^3 and its
    first two derivatives."""
    c0, c1, c2, c3 = c
    d1, d2, e1 = 2.0 * c2, 3.0 * c3, 6.0 * c3
    return (lambda t: ((c3 * t + c2) * t + c1) * t + c0,
            lambda t: (d2 * t + d1) * t + c1,
            lambda t: e1 * t + d1)


def random_cubic_pair(rng):
    """Cubic curves with z near 1 (alpha) and near 0 (beta), so they never
    meet; the ranges are jittered so grid lines fall anywhere."""
    ca = rng.uniform(-1.0, 1.0, size=(4, 3)) * [1.0, 1.0, 0.1]
    cb = rng.uniform(-1.0, 1.0, size=(4, 3)) * [1.0, 1.0, 0.1]
    ca[0, 2] += 1.0
    alpha, d_alpha, dd_alpha = _cubic(ca)
    beta, d_beta, dd_beta = _cubic(cb)
    lo_u, lo_v = rng.uniform(-1.1, -0.9, size=2)
    hi_u, hi_v = rng.uniform(0.9, 1.1, size=2)
    return SmoothCurvePair(alpha=alpha, beta=beta, d_alpha=d_alpha,
                           d_beta=d_beta, dd_alpha=dd_alpha, dd_beta=dd_beta,
                           u_range=(lo_u, hi_u), v_range=(lo_v, hi_v))


def saddle_pair(u_range, v_range, s=100.0):
    """Omega = 1 - 4 s^2 u v: the zero set hugs both axes, so the cell
    around the origin has four sign-change sides."""
    return SmoothCurvePair(
        alpha=lambda u: np.array([u, s * u * u, 1.0]),
        beta=lambda v: np.array([s * v * v, v, 0.0]),
        d_alpha=lambda u: np.array([1.0, 2.0 * s * u, 0.0]),
        d_beta=lambda v: np.array([2.0 * s * v, 1.0, 0.0]),
        dd_alpha=lambda u: np.array([0.0, 2.0 * s, 0.0]),
        dd_beta=lambda v: np.array([2.0 * s, 0.0, 0.0]),
        u_range=u_range, v_range=v_range)


# at grids 16 and 33 the centre of the saddle cell has the sign of its
# lower-left corner in the first pair and the other sign in the second
SADDLE_RANGES = (((-1.0, 1.03), (-1.0, 1.05)), ((-0.99, 1.0), (-1.02, 1.0)))


def _pairs(rng):
    pairs = [builtin_pair(name) for name in ("flat", "parabolic", "symmetric")]
    pairs += [saddle_pair(*r) for r in SADDLE_RANGES] + [circle_pair()]
    pairs += [random_cubic_pair(rng) for _ in range(10)]
    return pairs


def _grid(pair, n):
    return (np.linspace(*pair.u_range, n + 1),
            np.linspace(*pair.v_range, n + 1))


def test_omega_smooth_grid_matches_scalar_bitwise(rng):
    for pair in _pairs(rng):
        for n in (16, 33, 101):
            us, vs = _grid(pair, n)
            w = omega_smooth_grid(pair, us, vs)
            ref = np.array([[omega_smooth(pair, u, v) for v in vs]
                            for u in us])
            assert w.shape == (n + 1, n + 1) and w.dtype == np.float64
            assert np.array_equal(w.view(np.int64), ref.view(np.int64))


def test_omega_smooth_grid_range_error_matches_scalar():
    pair = builtin_pair("parabolic")
    for us, vs, bad in (([0.0, 1.5], [0.0, 0.5], (1.5, 0.0)),
                        ([0.0, 0.5], [0.5, -2.0], (0.0, -2.0)),
                        ([-3.0, 0.5], [0.5, -2.0], (-3.0, 0.5))):
        with pytest.raises(OutOfRange) as grid_err:
            omega_smooth_grid(pair, np.array(us), np.array(vs))
        with pytest.raises(OutOfRange) as scalar_err:
            omega_smooth(pair, *bad)
        assert str(grid_err.value) == str(scalar_err.value)


def test_omega_smooth_grid_takes_a_list():
    pair = builtin_pair("parabolic")
    us, vs = [-0.5, 0, 0.25], [0.5, -1]
    w = omega_smooth_grid(pair, us, vs)
    ref = omega_smooth_grid(pair, np.array(us, dtype=float), np.array(vs))
    assert w.shape == (3, 2) and np.array_equal(w, ref)
    assert w[1, 0] == omega_smooth(pair, 0.0, 0.5)


def test_omega_smooth_grid_of_an_empty_sequence_is_empty():
    pair, calls = counting_pair("parabolic")
    for us, vs, shape in (([], [0.5, 2.0], (0, 2)), ([0.5], [], (1, 0)),
                          (np.array([]), (), (0, 0))):
        w = omega_smooth_grid(pair, us, vs)
        assert w.shape == shape and w.dtype == np.float64
    assert not calls


def test_omega_smooth_grid_refuses_what_is_not_one_dimensional():
    pair, calls = counting_pair("parabolic")
    for us, vs in ((np.zeros((2, 2)), [0.0]), ([0.0], [[0.0], [0.5]]),
                   (0.5, [0.0]), ([0.0], "ab"), ([0.0, [0.5, 0.5]], [0.0])):
        with pytest.raises(ValidationError,
                           match="^u?v?s must be a 1-d sequence of floats$"):
            omega_smooth_grid(pair, us, vs)
    assert not calls


def _trace_outcome(trace, pair, n, rel_tol=1e-7):
    # by default a looser tolerance than the CLI's 1e-10 keeps the
    # bisections short; both traces share it
    us, vs = _grid(pair, 16)
    tol = rel_tol * max(1.0,
                        float(np.abs(omega_smooth_grid(pair, us, vs)).max()))
    try:
        return trace(pair, n, tol)
    except DiamsError as e:
        return type(e), str(e)


def _four_side_cells(pair, n):
    """Which cells of the grid-n trace have four sign-change sides."""
    us, vs = _grid(pair, n)
    pos = omega_smooth_grid(pair, us, vs) > 0
    h = pos[:-1] != pos[1:]
    v = pos[:, :-1] != pos[:, 1:]
    return (h[:, :-1].astype(int) + h[:, 1:] + v[:-1] + v[1:]) == 4


def _saddle_centre_signs(pair, n):
    """For each cell with four sign-change sides: whether Omega at its
    centre has the sign of its lower-left corner."""
    us, vs = _grid(pair, n)
    return [(omega_smooth(pair, 0.5 * (us[i] + us[i + 1]),
                          0.5 * (vs[j] + vs[j + 1])) > 0)
            == (omega_smooth(pair, us[i], vs[j]) > 0)
            for i, j in np.argwhere(_four_side_cells(pair, n))]


def _starts_in_a_saddle(pair, n, chain):
    """Does the chain's first segment lie in a cell with four
    sign-change sides?"""
    us, vs = _grid(pair, n)
    u, v = 0.5 * (chain.points[0] + chain.points[1])
    i, j = np.searchsorted(us, u) - 1, np.searchsorted(vs, v) - 1
    return bool(_four_side_cells(pair, n)[i, j])


def jittered_saddle_pairs(rng, count=4):
    """saddle_pair at s = 100 on (-1, 1)^2 with each range end moved by
    up to 0.05, so the origin falls anywhere in its cell."""
    return [saddle_pair(*(tuple(np.add((-1.0, 1.0), rng.uniform(
        -0.05, 0.05, size=2))) for _ in range(2))) for _ in range(count)]


def two_loop_pair():
    """Omega = (D(v) - (u - R(v))^2) / 2 with D = 0.05625 - 16 v^2
    (v - 1/2)^2 and R = v^2 + v^3: two loops, around v = 0 and v = 1/2,
    whose tips nearly meet and lean so that at grid 17 the upper loop
    starts in a saddle cell that the lower loop crosses as well.

    alpha = (u, 0, u^2 / 2) and beta = (k, v, g) give Omega = Q(v) +
    u R(v) - u^2 / 2 with Q = v g' - g and R = k - v k', so a term
    c v^n of Q or R comes from c / (n - 1) v^n of g or -k.
    """
    v = Polynomial([0.0, 1.0])
    r = v ** 2 + v ** 3
    q = (0.05625 - 16 * v ** 2 * (v - 0.5) ** 2 - r ** 2) / 2
    g, k = (Polynomial([c / (n - 1) if n != 1 else 0.0
                        for n, c in enumerate(p.coef)]) for p in (q, -r))
    g1, g2, k1, k2 = g.deriv(), g.deriv(2), k.deriv(), k.deriv(2)
    return SmoothCurvePair(
        alpha=lambda u: (u, 0.0, 0.5 * u * u),
        beta=lambda t: (k(t), t, g(t)),
        d_alpha=lambda u: (1.0, 0.0, u),
        d_beta=lambda t: (k1(t), 1.0, g1(t)),
        dd_alpha=lambda u: (0.0, 0.0, 1.0),
        dd_beta=lambda t: (k2(t), 0.0, g2(t)),
        u_range=(-1.0, 1.0), v_range=(-1.0, 1.5))


def test_trace_matches_per_point_reference(rng):
    # the chain linker numbers the crossings by edge and fills the link
    # slots from a sort of the segment ends; the reference links by
    # key-labelled dict in segment order
    outcomes = []
    cases = [(pair, n) for pair in _pairs(rng) for n in (16, 33, 101)]
    saddles = jittered_saddle_pairs(rng) + [circle_pair(), two_loop_pair()]
    cases += [(pair, n) for pair in saddles for n in (16, 17, 33, 100, 101)]
    for pair, n in cases:
        got = _trace_outcome(trace_singular_curve, pair, n)
        ref = _trace_outcome(reference_trace, pair, n)
        if isinstance(ref, tuple):
            outcomes.append("error")
            assert got == ref
            continue
        outcomes += ["closed" if c.closed else "open" for c in got]
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.closed == b.closed
            assert a.points.shape == b.points.shape
            assert np.array_equal(a.points.view(np.int64),
                                  b.points.view(np.int64))
    # open and closed chains occur, and the zero-corner error (parabolic
    # at grid 16)
    assert set(outcomes) == {"open", "closed", "error"}
    # the saddle pairs reach the four-side branch with both centre signs
    signs = [_saddle_centre_signs(saddle_pair(*r), n)
             for r in SADDLE_RANGES for n in (16, 33)]
    assert signs == [[True], [True], [False], [False]]
    signs = [sign for pair in saddles[:-2] for n in (16, 17, 33, 100, 101)
             for sign in _saddle_centre_signs(pair, n)]
    assert True in signs and False in signs
    # a loop whose walk starts in a saddle cell
    loops = [c for c in trace_singular_curve(saddles[-1], 17, 1e-9)
             if c.closed]
    assert len(loops) == 2
    assert [_starts_in_a_saddle(saddles[-1], 17, c) for c in loops] == [
        False, True]


def test_trace_zero_corner_error_matches_reference():
    pair = SmoothCurvePair(
        alpha=lambda u: np.array([u, 0.5 * u * u, 1.0]),
        beta=lambda v: np.array([v, 0.0, 0.0]),
        d_alpha=lambda u: np.array([1.0, u, 0.0]),
        d_beta=lambda v: np.array([1.0, 0.0, 0.0]),
        dd_alpha=lambda u: np.array([0.0, 1.0, 0.0]),
        dd_beta=lambda v: np.zeros(3),
        u_range=(-1, 1), v_range=(-1, 1))
    # u = 0 is a grid line at these sizes
    for n in (16, 32, 100):
        got = _trace_outcome(trace_singular_curve, pair, n)
        assert got == _trace_outcome(reference_trace, pair, n)
        assert got[0] is NonGenericCell


@pytest.mark.parametrize("name", ["parabolic", "flat"])
def test_cli_oracle_report_matches_reference(name, tmp_path):
    # the parent's CLI path: the tolerance scan by scalar omega_smooth
    # calls, the per-point trace, then the same report assembly
    pair = builtin_pair(name)
    us, vs = _grid(pair, 16)
    wmax = max(abs(omega_smooth(pair, u, v)) for u in us for v in vs)
    tol = 1e-10 * max(1.0, wmax)
    chains = reference_trace(pair, 101, tol)
    points = [p for c in chains for p in find_swallowtails(pair, c)]
    expected = write_report(report_from_oracle(name, 101, tol, chains,
                                               points))
    report = tmp_path / "o.json"
    assert run_cli(["oracle", "--pair", name, "--grid", "101",
                    "--report", str(report)]) == 0
    assert report.read_bytes() == expected


def _assert_same_chains(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.closed == b.closed
        assert np.array_equal(a.points.view(np.int64), b.points.view(np.int64))


def test_trace_matches_reference_at_cli_tolerance(rng):
    # the CLI's own tolerance, 1e-10 * max(1, wmax), needs longer
    # bisections than the 1e-7 of test_trace_matches_per_point_reference
    for pair in _pairs(rng):
        for n in (16, 33, 101):
            got = _trace_outcome(trace_singular_curve, pair, n, 1e-10)
            ref = _trace_outcome(reference_trace, pair, n, 1e-10)
            if isinstance(ref, tuple):
                assert got == ref
            else:
                _assert_same_chains(got, ref)


@pytest.mark.parametrize("n", [33, 101])
def test_trace_at_zero_tolerance_matches_reference(n):
    # at tol = 0 a bisection ends only on an exact zero of Omega or at the
    # 200-round cap; both exits occur and give the reference's points
    pair = builtin_pair("parabolic")
    got = trace_singular_curve(pair, n, 0.0)
    _assert_same_chains(got, reference_trace(pair, n, 0.0))
    w = np.array([omega_smooth(pair, u, v) for c in got for u, v in c.points])
    assert (w == 0.0).any() and (w != 0.0).any()


def counting_pair(name):
    """The builtin pair with each of alpha, alpha', beta, beta' counting
    its calls (from after construction) in the returned Counter."""
    calls = Counter()
    base = builtin_pair(name)

    def counted(tag):
        f = getattr(base, tag)

        def g(t):
            calls[tag] += 1
            return f(t)
        return g

    pair = dataclasses.replace(base, **{tag: counted(tag) for tag in
                                        ("alpha", "d_alpha", "beta",
                                         "d_beta")})
    calls.clear()
    return pair, calls


def test_trace_evaluates_only_the_moving_curve():
    # grid sampling runs each evaluator once per grid line (34 times);
    # every refinement point on an edge then evaluates only the curve
    # whose parameter moves along it, 2 calls instead of omega_smooth's 4
    # at the CLI's tolerance for this pair, 1e-10 * max|Omega| = 7e-10
    pair, calls = counting_pair("parabolic")
    chains = trace_singular_curve(pair, 33, 7e-10)
    assert dict(calls) == {"alpha": 60, "d_alpha": 60,
                           "beta": 874, "d_beta": 874}
    _assert_same_chains(chains,
                        reference_trace(builtin_pair("parabolic"), 33, 7e-10))


def test_trace_nan_samples_match_reference():
    # alpha is nan on a band of u that the construction checks miss but
    # the grid line u = 1/3 of grid 33 hits: the linear guesses on the
    # edges into that line are (nan, nan), and both traces reject the
    # first of them as out of range
    def band(f):
        return lambda u: np.full(3, np.nan) if 0.3 < u < 0.36 else f(u)

    base = builtin_pair("parabolic")
    pair = dataclasses.replace(base, alpha=band(base.alpha),
                               d_alpha=band(base.d_alpha))
    got = _trace_outcome(trace_singular_curve, pair, 33)
    assert got[0] is OutOfRange and "(nan, nan)" in got[1]
    assert got == _trace_outcome(reference_trace, pair, 33)


def banded_pair(tag, bad, band):
    """The parabolic pair with evaluator `tag` returning `bad` for
    parameters inside the open interval band, which the construction
    checks miss."""
    base = builtin_pair("parabolic")
    f = getattr(base, tag)
    return dataclasses.replace(base, **{
        tag: lambda t: bad if band[0] < t < band[1] else f(t)})


@pytest.mark.parametrize("bad", [(0.0, 1.0, 0.0, 2.0), None, (0.0, "1", 0.0),
                                 np.zeros((3, 1))])
@pytest.mark.parametrize("tag, band", [("d_beta", (0.6, 0.9)),
                                       ("beta", (0.6, 0.62))])
def test_malformed_evaluator_rows_are_named(tag, band, bad):
    # numpy raised bare errors (ValueError "inhomogeneous shape",
    # IndexError, TypeError), the string "1" was read as 1.0, and
    # omega_smooth used the first 3 of 4 coordinates; the first bad row
    # in call order is refused by name, with its parameter
    good = builtin_pair("parabolic")
    pair = banded_pair(tag, bad, band)
    chain = max(trace_singular_curve(good, 401, 1e-10),
                key=lambda c: len(c.points))
    _, _, us, _ = sample_pair(good, 0.01, 0.01)
    v = 0.5 * (band[0] + band[1])
    calls = [lambda: trace_singular_curve(pair, 401, 1e-10),
             lambda: find_swallowtails(pair, chain),
             lambda: omega_smooth_grid(pair, us, us),
             lambda: omega_smooth(pair, 0.1, v),
             lambda: check_regularity(pair, (0.1, v), 1e-9),
             lambda: curvature_gap(pair, (0.1, v))]
    if tag == "beta":
        calls.append(lambda: sample_pair(pair, 0.01, 0.01))
    else:
        # sample_pair evaluates the positions only
        assert np.array_equal(sample_pair(pair, 0.01, 0.01)[1].points,
                              sample_pair(good, 0.01, 0.01)[1].points)
    for call in calls:
        with pytest.raises(ValidationError,
                           match=rf"^{tag}: evaluator returned .+ at "
                                 r"t=\S+, expected 3 floats$") as err:
            call()
        t = float(str(err.value).split("t=")[1].split(",")[0])
        assert band[0] < t < band[1]


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def opposite_pair():
    return SmoothCurvePair(
        alpha=lambda u: np.array([u, 0.0, 1.0]),
        beta=lambda v: np.array([-v, 0.0, 0.0]),
        d_alpha=lambda u: np.array([1.0, 0.0, 0.0]),
        d_beta=lambda v: np.array([-1.0, 0.0, 0.0]),
        dd_alpha=lambda u: np.zeros(3),
        dd_beta=lambda v: np.zeros(3),
        u_range=(-1, 1), v_range=(-1, 1))


def degenerate_pair():
    """P beta' vanishes on the line u = 1, where alpha - beta is parallel
    to beta'."""
    return SmoothCurvePair(
        alpha=lambda u: np.array([u, 1.0, 0.0]),
        beta=lambda v: np.array([1.0, 1.0, v]),
        d_alpha=lambda u: np.array([1.0, 0.0, 0.0]),
        d_beta=lambda v: np.array([0.0, 0.0, 1.0]),
        dd_alpha=lambda u: np.zeros(3),
        dd_beta=lambda v: np.zeros(3),
        u_range=(-1, 1), v_range=(0.5, 1.5))


def _random_points(rng, pair, k):
    return np.stack([rng.uniform(*pair.u_range, size=k),
                     rng.uniform(*pair.v_range, size=k)], axis=1)


def _lambda_outcome(f, pair, points):
    try:
        return f(pair, points)
    except DiamsError as e:
        return type(e), str(e)


def _reference_lambdas(pair, points):
    """(2, k) array of the reference's lambda and residual values."""
    return np.array([reference_lambda(pair, p) for p in points]).T


def _assert_lambdas_match(pair, points):
    """The batch, lambda_along_curve point by point, and the per-point
    reference agree bit for bit; returns how many points were checked."""
    ref = _lambda_outcome(_reference_lambdas, pair, points)
    got = _lambda_outcome(lambda p, x: np.array(_kernel_ratio(p, x)[:2]),
                          pair, points)
    if isinstance(ref, tuple):
        assert got == ref
        return 0
    assert np.array_equal(_bits(got[0]), _bits(ref[0]))
    assert np.array_equal(_bits(got[1]), _bits(ref[1]))
    for p, lam, res in zip(points, *ref):
        fit = lambda_along_curve(pair, p)
        assert type(fit.value) is float and type(fit.residual) is float
        assert _bits(fit.value) == _bits(lam)
        assert _bits(fit.residual) == _bits(res)
    return len(points)


@pytest.mark.parametrize("n", [41, 101, 401])
def test_lambda_matches_per_point_reference_on_parabolic_chains(n):
    pair = builtin_pair("parabolic")
    chains = trace_singular_curve(pair, n, 1e-10)
    assert _assert_lambdas_match(pair, chains[0].points) > 0


def test_lambda_matches_per_point_reference(rng):
    checked = 0
    for pair in _pairs(rng) + [opposite_pair(), degenerate_pair()]:
        for n in (16, 33):
            outcome = _trace_outcome(trace_singular_curve, pair, n)
            if isinstance(outcome, list):
                for chain in outcome:
                    checked += _assert_lambdas_match(pair, chain.points)
        checked += _assert_lambdas_match(pair, _random_points(rng, pair, 50))
    assert checked > 1000


DEGENERATE, OUTSIDE, NAN = (1.0, 1.0), (2.0, 1.0), (np.nan, 1.0)


@pytest.mark.parametrize("bad", [(DEGENERATE, OUTSIDE), (OUTSIDE, DEGENERATE),
                                 (NAN, DEGENERATE), (DEGENERATE, NAN)])
def test_lambda_errors_match_per_point_reference(bad):
    # the first failing point in row order decides the error
    pair = degenerate_pair()
    points = np.array([(0.2, 0.7), bad[0], (-0.5, 1.2), bad[1], (0.0, 1.0)])
    ref = _lambda_outcome(_reference_lambdas, pair, points)
    got = _lambda_outcome(_kernel_ratio, pair, points)
    assert got == ref
    assert got[0] is (DegenerateDirection if bad[0] == DEGENERATE
                      else OutOfRange)
    first = points[[1]]
    assert _lambda_outcome(lambda_along_curve, pair, first[0]) == ref
    chain = np.concatenate([points[:1], points])
    assert (_lambda_outcome(find_swallowtails, pair, chain)
            == _lambda_outcome(reference_find_swallowtails, pair, chain)
            == ref)


def test_row_dot_is_np_dot_bitwise(rng):
    p = rng.normal(size=(2000, 3)) * rng.uniform(1e-3, 1e3, size=(2000, 1))
    q = rng.normal(size=(2000, 3))
    ref = np.array([np.dot(a, b) for a, b in zip(p, q)])
    assert np.array_equal(_bits(_row_dot(p, q)), _bits(ref))
    norms = np.array([np.linalg.norm(a) for a in p])
    assert np.array_equal(_bits(np.sqrt(_row_dot(p, p))), _bits(norms))
    # rows where a plain sum of products rounds differently are covered
    assert (_bits((p * q).sum(axis=1)) != _bits(ref)).any()


def _assert_same_points(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.kind == b.kind
        fields = (a.u, a.v, a.lam, a.dvdu), (b.u, b.v, b.lam, b.dvdu)
        assert all(type(x) is float for x in fields[0])
        assert np.array_equal(_bits(fields[0]), _bits(fields[1]))


def test_find_swallowtails_matches_per_point_reference(rng):
    kinds = Counter()
    for pair in _pairs(rng):
        for n in (33, 101):
            chains = _trace_outcome(trace_singular_curve, pair, n)
            if not isinstance(chains, list):
                continue
            for chain in chains:
                got = _lambda_outcome(find_swallowtails, pair, chain)
                ref = _lambda_outcome(reference_find_swallowtails, pair,
                                      chain)
                if isinstance(ref, tuple):
                    assert got == ref
                    kinds["error"] += 1
                    continue
                _assert_same_points(got, ref)
                kinds.update(p.kind for p in got)
    assert kinds["SwallowtailCandidate"] > 0 and kinds["error"] > 0


def test_find_swallowtails_infinite_slopes_match_reference():
    # a vertical chain: every tangent has du == 0, and dv/du is +inf
    # walking up and -inf walking down; a repeated point gives a zero
    # tangent, whose dv/du is -inf
    pair = builtin_pair("parabolic")
    v = np.linspace(-0.5, 0.5, 7)
    for sign in (1.0, -1.0):
        chain = np.stack([np.full_like(v, 0.25), sign * v], axis=1)
        got = find_swallowtails(pair, chain)
        _assert_same_points(got, reference_find_swallowtails(pair, chain))
        assert {p.dvdu for p in got} == {sign * np.inf}
    chain = np.array([[0.1, 0.2], [0.1, 0.2], [0.3, 0.1], [0.4, 0.4]])
    got = find_swallowtails(pair, chain)
    _assert_same_points(got, reference_find_swallowtails(pair, chain))
    assert got[0].dvdu == -np.inf


def test_find_swallowtails_reads_a_loop_as_a_loop():
    # the seam point once, its tangent centred across the seam, and H
    # compared from the last point to the first: moving the seam to any
    # point leaves the records unchanged, bit for bit
    pair = circle_pair()
    for n in (33, 101, 401):
        chain, = trace_singular_curve(pair, n, 1e-10)
        loop = chain.points[:-1]
        assert chain.closed and np.array_equal(chain.points[-1], loop[0])
        got = find_swallowtails(pair, chain)
        _assert_same_points(got, reference_find_swallowtails(pair, chain))
        kinds = Counter(p.kind for p in got)
        assert kinds == {"CuspidalEdge": len(loop), "SwallowtailCandidate": 6}
        seam, = [p for p in got if p.kind == "CuspidalEdge"
                 and (p.u, p.v) == tuple(loop[0])]
        du, dv = 0.5 * (loop[1] - loop[-1])
        assert seam.dvdu == dv / du
        shifts = range(1, len(loop)) if n == 33 else (1, n // 3, len(loop) - 1)
        for k in shifts:
            moved = np.roll(loop, -k, axis=0)
            _assert_same_points(find_swallowtails(pair, SmoothChain(
                np.vstack([moved, moved[:1]]), True)), got)
    # an open chain or a bare array of the same points keeps the open path
    assert len(find_swallowtails(pair, SmoothChain(chain.points, False))) \
        == len(find_swallowtails(pair, chain.points)) == len(loop) + 1 + 6


def test_curvature_gap_evaluates_each_curve_once():
    pair, calls = counting_pair("parabolic")
    curvature_gap(pair, (0.1, 0.2))
    assert dict(calls) == {"alpha": 1, "d_alpha": 1, "beta": 1, "d_beta": 1}


def test_curvature_gap_matches_per_point_reference(rng):
    def reference_gap(pair, point):
        u, v = float(point[0]), float(point[1])
        pair.require(u, v)
        n = np.asarray(pair.alpha(u)) - np.asarray(pair.beta(v))
        n = n / np.linalg.norm(n)
        lam = reference_lambda(pair, point).value
        a_term = float(np.dot(n, np.cross(pair.d_alpha(u), pair.dd_alpha(u))))
        b_term = float(np.dot(n, np.cross(pair.d_beta(v), pair.dd_beta(v))))
        return a_term - lam ** 3 * b_term

    for pair in _pairs(rng) + [degenerate_pair()]:
        points = _random_points(rng, pair, 20).tolist() + [DEGENERATE,
                                                           OUTSIDE]
        for p in points:
            got = _lambda_outcome(curvature_gap, pair, p)
            assert got == _lambda_outcome(reference_gap, pair, p)


def test_omega_smooth_grid_samples_in_blocks():
    # no whole-grid temporaries: the peak of the sampling stays below
    # twice the grid it fills
    pair = builtin_pair("parabolic")
    us, vs = _grid(pair, 401)
    tracemalloc.start()
    try:
        w = omega_smooth_grid(pair, us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * w.nbytes


@pytest.mark.parametrize("name", BUILTIN_PAIRS)
def test_builtin_evaluators_match_array_reference(name):
    # the tuple-returning evaluators keep the array builtins' scalar
    # arithmetic (v ** 3 included), for np.float64 and Python float input
    ts = np.linspace(-1.0, 1.0, 200402)
    pair, ref = builtin_pair(name), reference_builtin_pair(name)
    for tag in EVALUATORS:
        new, old = getattr(pair, tag), getattr(ref, tag)
        for points in (ts, ts.tolist()):
            got = np.array(list(map(new, points)), dtype=float).tobytes()
            want = b"".join([x.tobytes() for x in map(old, points)])
            assert got == want, (tag, type(points[0]))


@pytest.mark.parametrize("name", BUILTIN_PAIRS)
@pytest.mark.parametrize("n", [33, 101])
def test_builtin_pairs_trace_like_array_reference(name, n):
    pair, ref = builtin_pair(name), reference_builtin_pair(name)
    chains = trace_singular_curve(pair, n, 1e-10)
    ref_chains = trace_singular_curve(ref, n, 1e-10)
    _assert_same_chains(chains, ref_chains)
    for chain, ref_chain in zip(chains, ref_chains):
        got = _lambda_outcome(find_swallowtails, pair, chain)
        want = _lambda_outcome(find_swallowtails, ref, ref_chain)
        if name == "symmetric":
            # (NonGenericChain, message) on both sides
            assert got == want and got[0] is NonGenericChain
        else:
            _assert_same_points(got, want)
