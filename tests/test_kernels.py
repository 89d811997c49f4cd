import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diams import _kernels
from diams.errors import ValidationError


def test_wrappers_validate_shapes():
    with pytest.raises(ValueError):
        _kernels.omega_grid(np.zeros((3, 2)), np.zeros((3, 3)))


def test_omega_grid_matches_einsum_reference(rng):
    # cross-check the structured expression against an independent
    # numpy formulation
    a = rng.standard_normal((12, 3))
    b = rng.standard_normal((9, 3))
    got = _kernels.omega_grid(a, b)
    n = a[:-1, None, :] - b[None, :-1, :]
    c = np.cross(np.diff(a, axis=0)[:, None, :], np.diff(b, axis=0)[None, :, :])
    want = np.einsum("ijk,ijk->ij", n, c)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_omega_grid_matches_scalar_determinant_bitwise(rng):
    # the grid evaluates orient_terms on component arrays, the scalar
    # paths on plain floats; all must give the same bits at any scale
    for scale in (1e-50, 1.0, 1e50):
        a = scale * rng.standard_normal((7, 3))
        b = scale * rng.standard_normal((6, 3))
        got = _kernels.omega_grid(a, b)
        for i in range(6):
            for j in range(5):
                rows = ((a[i] - b[j]).tolist(), (a[i + 1] - a[i]).tolist(),
                        (b[j + 1] - b[j]).tolist())
                assert got[i, j] == _kernels.det3(*rows)
                assert got[i, j] == _kernels.orient_terms(
                    *rows[0], *rows[1], *rows[2])[0]


def _whole_grid_omega(alpha, beta):
    """omega_grid as one orient_terms call over the whole grid."""
    a, b = alpha.T, beta.T
    return _kernels.orient_terms(*(a[:, :-1, None] - b[:, None, :-1]),
                                 *(a[:, 1:] - a[:, :-1])[:, :, None],
                                 *(b[:, 1:] - b[:, :-1])[:, None, :])[0]


@pytest.mark.parametrize("block", [1, 17, _kernels.GRID_BLOCK_VALUES])
def test_grid_kernels_equal_one_whole_grid_call_bitwise(block, rng,
                                                        monkeypatch):
    # blocks of one row, of two or three rows with a shorter last block,
    # and of the default size, on non-square nets at three scales and on
    # the 3-point example
    from _helpers import example_net
    monkeypatch.setattr(_kernels, "GRID_BLOCK_VALUES", block)
    net = example_net(1.0)
    pairs = [(net.alpha.points, net.beta.points)]
    for scale in (1e-50, 1.0, 1e50):
        for n, m in ((12, 8), (13, 8), (8, 13), (4, 30)):
            pairs.append((scale * rng.standard_normal((n, 3)),
                          scale * (rng.standard_normal((m, 3)) + 0.5)))
    short_last = False
    for a, b in pairs:
        grid = _kernels.omega_grid(a, b)
        want = _whole_grid_omega(a, b)
        assert np.array_equal(grid.view(np.uint64), want.view(np.uint64))
        rows, columns = grid.shape
        sizes = [len(range(rows)[r])
                 for r in _kernels.row_blocks(rows, columns, block)]
        assert sum(sizes) == rows
        short_last |= len(sizes) > 1 and sizes[-1] < sizes[0]
    assert short_last == (block == 17)


def test_orient_terms_matches_det3_bitwise(rng):
    # orient's determinant (its six products named for the dead zone) and
    # det3 are two writings of one expression: equal bits for floats and
    # component arrays, random and nearly degenerate, at any scale
    for scale in (1e-50, 1.0, 1e50):
        n, x, z = scale * rng.standard_normal((3, 3, 40))
        y = x + 10.0 ** rng.uniform(-15.0, -6.0, size=40) * z
        for rows in ((n, x, z), (n, x, y), (n, y, x)):
            d, mag = _kernels.orient_terms(*rows[0], *rows[1], *rows[2])
            assert d.tobytes() == _kernels.det3(*rows).tobytes()
            assert np.all(np.abs(d) <= mag)
            for k in range(40):
                fl = [float(c) for r in rows for c in r[:, k]]
                dk, mk = _kernels.orient_terms(*fl)
                assert dk == d[k] and mk == mag[k]
                assert dk == _kernels.det3(fl[0:3], fl[3:6], fl[6:9])


def test_bilinear_sample_matches_every_owning_quad_bitwise(rng):
    # the welded grid evaluates sample (I, J) in quad
    # (min(I // s, nu-2), min(J // s, nv-2)); it must equal that quad's
    # own bilinear_point, and a seam sample must equal the evaluation of
    # every other quad it lies on
    from diams import GridDomain, bilinear_point, patch_for_quad
    from diams.net_core import AsymptoticNet
    for subdiv in (1, 2, 3, 4):
        for _ in range(3):
            nu, nv = (int(n) for n in rng.integers(2, 6, size=2))
            u0, v0 = (int(n) for n in rng.integers(-3, 3, size=2))
            pos = rng.normal(size=(nu, nv, 3)) * 2.0 ** rng.integers(-60, 61)
            f = AsymptoticNet(GridDomain(u0, u0 + nu - 1, v0, v0 + nv - 1),
                              pos, (u0, v0), pos[0, 0])
            grid = _kernels.bilinear_sample(pos, subdiv)
            assert grid.shape == (subdiv * (nu - 1) + 1,
                                  subdiv * (nv - 1) + 1, 3)
            patches = {q: patch_for_quad(f, q) for q in f.domain.quads()}
            seams = 0
            for i, j in np.ndindex(grid.shape[:2]):
                qi = min(i // subdiv, nu - 2)
                qj = min(j // subdiv, nv - 2)
                owners = [(a, b) for a in {qi, (i - 1) // subdiv}
                          for b in {qj, (j - 1) // subdiv}
                          if 0 <= a <= nu - 2 and 0 <= b <= nv - 2]
                seams += len(owners) > 1
                for a, b in owners:
                    want = bilinear_point(patches[(u0 + a, v0 + b)],
                                          (i - subdiv * a) / subdiv,
                                          (j - subdiv * b) / subdiv)
                    assert grid[i, j].tobytes() == want.tobytes()
            assert seams == ((nu - 2) * (subdiv * (nv - 1) + 1)
                             + (nv - 2) * (subdiv * (nu - 1) + 1)
                             - (nu - 2) * (nv - 2))


def _assert_g17(values):
    # every row of g17_field, NULs dropped, against Python's own %.17g
    values = np.asarray(values, dtype=np.float64).ravel()
    field = _kernels.g17_field(values)
    assert field.shape == (len(values), 24) and field.dtype == np.uint8
    got = [row[row != 0].tobytes().decode("ascii") for row in field]
    wrong = [(x, g, "%.17g" % x) for x, g in zip(values.tolist(), got)
             if g != "%.17g" % x]
    assert wrong == []


def _ulps_around(x, k):
    """The doubles within k ulps of each positive double in x (clipped at
    +0.0)."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)[:, None]
    return np.maximum(bits + np.arange(-k, k + 1), 0).view(np.float64)


def test_g17_field_matches_percent_g_on_random_bit_patterns(rng):
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    # subnormals: a zero exponent field under random mantissas and signs
    bits[:2000] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
               -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
    _assert_g17(np.concatenate([bits.view(np.float64), special]))


def test_g17_field_matches_percent_g_around_powers_of_ten():
    # both ends of the exponent correction: 1e23 and 9.999999999999999e-260
    # each need the low word to tell which side of the power they lie on
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = _ulps_around(powers, 3)
    _assert_g17(np.concatenate([values.ravel(), -values.ravel()]))
    _assert_g17([1e23, 9.999999999999999e-260, 1e22, 1e16, 1e17, 1e-5, 1e-4])


def test_g17_field_matches_percent_g_on_integers_and_exact_ties(rng):
    # integers near 2^53, 1e16 and 1e17, where the 17th digit and the
    # double's spacing meet, and exact ties m/4 (m odd), which round to
    # even and so are left to Python's %.17g
    near = _ulps_around([2.0 ** 53, 1e16, 1e17], 40).ravel()
    ties = (2 * rng.integers(2 * 10 ** 15, 2 ** 52, size=20_000) + 1) / 4
    _assert_g17(np.concatenate([near, np.arange(-1000.0, 1000.0), ties]))
    row = _kernels.g17_field([1000000000000000.25])[0]
    assert row[row != 0].tobytes() == b"1000000000000000.2"
    assert _kernels.g17_field([]).shape == (0, 24)


@settings(derandomize=True, max_examples=300, deadline=None,
          database=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_g17_field_matches_percent_g_on_any_floats(values):
    _assert_g17(values)


def test_g17_fast_path_decides_every_nonzero_workload_value():
    # if the double-double path silently fell back, the bytes would stay
    # right and the speed would be lost: the 401^2 parabolic net's Omega
    # and its positions must all be decided, save exact zeros
    from diams.net_core import integrate_net
    from _helpers import parabolic_net
    net = parabolic_net(0.005)[0]
    for values in (net.omega, integrate_net(net).positions):
        decided = _kernels._decimal17(values.ravel())[2]
        assert decided.sum() == np.count_nonzero(values)


@pytest.mark.parametrize("block", [1, 5, _kernels.G17_BLOCK_VALUES])
def test_g17_text_lays_values_out_between_pieces(block, monkeypatch):
    # pieces by row, by column and by both, in blocks of less than one
    # row, of one row and of the whole array; empty arrays give no text
    monkeypatch.setattr(_kernels, "G17_BLOCK_VALUES", block)
    values = np.array([[0.1, -2.0, np.nan], [1e300, 0.0, np.inf]])
    rows = _kernels.nul_padded([b"<", b"<<"])[:, None]
    cols = _kernels.nul_padded([b"a", b"", b"ccc"])
    both = np.array([[[ord(c)] for c in "xyz"], [[0], [ord("w")], [0]]],
                    dtype=np.uint8)
    want = ("<a0.10000000000000001x;<-2y;<cccNz;"
            "<<a1.0000000000000001e+300;<<0w;<<cccN;")
    text = list(_kernels.g17_text(values, (rows, cols),
                                  (both, np.frombuffer(b";", dtype=np.uint8)),
                                  nonfinite=b"N"))
    assert b"".join(text).decode("ascii") == want
    assert len(text) == (2 if block <= 5 else 1)
    plain = b"".join(_kernels.g17_text(values, (), ()))
    assert plain.decode() == "".join("%.17g" % x for x in values.ravel())
    assert list(_kernels.g17_text(np.zeros((0, 3)), (cols,), ())) == []


@pytest.mark.parametrize("block", [1, 3, _kernels.G17_BLOCK_VALUES])
def test_int_field_matches_percent_d(block, rng, monkeypatch):
    # every digit count up to 16 on both sides of its power of ten, the
    # largest |tag| a mesh may carry, the int64 extremes and random signed
    # values of every size, in blocks of one, three and the default
    # number of values; rows are NUL-led to the widest value's width
    monkeypatch.setattr(_kernels, "G17_BLOCK_VALUES", block)
    edges = [0, 1, 9, 10] + [s * 10 ** k for k in range(2, 16)
                             for s in (1, -1)]
    edges += [10 ** k - 1 for k in range(2, 16)] + [-(10 ** 15 - 1)]
    edges += [2 ** 52 - 1, -(2 ** 52 - 1), -2 ** 63, 2 ** 63 - 1]
    signed = rng.integers(-2 ** 62, 2 ** 62, size=200) >> rng.integers(
        0, 63, size=200)
    for values in (edges, signed, signed[signed >= 0], [7], [-7]):
        values = np.asarray(values, dtype=np.int64)
        field = _kernels.int_field(values)
        want = [b"%d" % v for v in values.tolist()]
        assert field.dtype == np.uint8
        assert field.shape == (len(values), max(map(len, want)))
        assert [row[row != 0].tobytes() for row in field] == want
        lead = np.logical_or.accumulate(field != 0, axis=1)
        assert (field[lead] != 0).all()
    # any shape in, that shape out; no values give no text
    pairs = _kernels.int_field(np.array([[-3, 40], [500, 6]]))
    assert pairs.shape == (2, 2, 3)
    assert pairs[1, 0].tobytes() == b"500"
    assert _kernels.int_field(np.zeros((0, 2), dtype=np.int64)).shape[:2] \
        == (0, 2)


def test_undecided_is_where_decided_sign_reads_zero(rng):
    # the one dead-zone rule, batched and scalar: undecided's mask equals
    # decided_sign == 0 entry by entry, with |d| planted exactly at
    # tol * mag, d = 0 at tol = 0, and tol * mag overflowing to inf
    n = 600
    mag = 10.0 ** rng.uniform(-300.0, 300.0, n)
    d = mag * rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-13.0, 0.0, n)
    d[:40] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol in (0.0, 1e-12, 1e-9, 1e-3, 1.0, 1e308):
            planted = d.copy()
            if tol < 1e308:
                planted[40:80] = tol * mag[40:80] * np.sign(d[40:80])
            mask = _kernels.undecided(planted, mag, tol, "sign test")
            scalar = [_kernels.decided_sign(x, m, tol) == 0
                      for x, m in zip(planted.tolist(), mag.tolist())]
            assert mask.tolist() == scalar
            assert mask[:80].all()
            assert mask.all() == (tol >= 1.0)
            if tol == 0.0:
                assert not mask[80:].any()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_both_forms_of_the_rule_raise_on_a_non_finite_magnitude(bad, tol):
    d = np.array([1.0, -2.0, 0.5])
    mag = np.array([3.0, bad, 1.0])
    with pytest.raises(ValidationError,
                       match=r"^generic-position test: not finite"):
        _kernels.undecided(d, mag, tol, "generic-position test")
    with pytest.raises(ValidationError,
                       match=r"^orientation test: not finite"):
        _kernels.decided_sign(-2.0, float(bad), tol)
