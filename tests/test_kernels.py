import numpy as np
import pytest

from diams import _kernels


def test_wrappers_validate_shapes():
    with pytest.raises(ValueError):
        _kernels.omega_grid(np.zeros((3, 2)), np.zeros((3, 3)))


def test_omega_grid_matches_einsum_reference(rng):
    # cross-check the structured expression against an independent
    # numpy formulation
    a = rng.standard_normal((12, 3))
    b = rng.standard_normal((9, 3))
    got, mag = _kernels.omega_grid(a, b)
    n = a[:-1, None, :] - b[None, :-1, :]
    c = np.cross(np.diff(a, axis=0)[:, None, :], np.diff(b, axis=0)[None, :, :])
    want = np.einsum("ijk,ijk->ij", n, c)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    assert np.all(np.abs(got) <= mag)


def test_omega_grid_matches_scalar_determinant_bitwise(rng):
    # the grid evaluates orient_terms on component arrays, the scalar
    # paths on plain floats; all must give the same bits at any scale
    for scale in (1e-50, 1.0, 1e50):
        a = scale * rng.standard_normal((7, 3))
        b = scale * rng.standard_normal((6, 3))
        got, mag = _kernels.omega_grid(a, b)
        for i in range(6):
            for j in range(5):
                rows = ((a[i] - b[j]).tolist(), (a[i + 1] - a[i]).tolist(),
                        (b[j + 1] - b[j]).tolist())
                assert got[i, j] == _kernels.det3(*rows)
                assert (got[i, j], mag[i, j]) == _kernels.orient_terms(
                    *rows[0], *rows[1], *rows[2])


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
