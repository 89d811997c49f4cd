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
    got = _kernels.omega_grid(a, b)
    n = a[:-1, None, :] - b[None, :-1, :]
    c = np.cross(np.diff(a, axis=0)[:, None, :], np.diff(b, axis=0)[None, :, :])
    want = np.einsum("ijk,ijk->ij", n, c)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_omega_grid_matches_scalar_determinant_bitwise(rng):
    # the grid evaluates det3 on component arrays, the scalar path on
    # plain floats; both must give the same bits at any scale
    for scale in (1e-50, 1.0, 1e50):
        a = scale * rng.standard_normal((7, 3))
        b = scale * rng.standard_normal((6, 3))
        got = _kernels.omega_grid(a, b)
        for i in range(6):
            for j in range(5):
                want = _kernels.det3((a[i] - b[j]).tolist(),
                                     (a[i + 1] - a[i]).tolist(),
                                     (b[j + 1] - b[j]).tolist())
                assert got[i, j] == want
