"""Hot numeric kernels with two interchangeable backends.

The JIT backend (numba @njit, disk-cached) is used when numba imports
cleanly; setting the environment variable DIAMS_NUMBA=0 selects the pure
numpy fallback instead.  Both backends evaluate the same floating-point
expressions in the same order, so results are bit-identical and nothing
downstream (reports, meshes) depends on the choice.  The kernels' share
of pipeline time shows in the per-layer output of
``python3 perfbench/run.py --workload <name> --trace 1``;
``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

import os

import numpy as np


def _as_points(arr):
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("expected an (n, 3) array of points")
    return a


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def _np_omega_grid(alpha, beta):
    """Triple product [alpha(u)-beta(v), alpha'(u+1/2), beta'(v+1/2)]
    for every quadrangle, indexed by lower-left corner."""
    x = alpha[1:] - alpha[:-1]
    y = beta[1:] - beta[:-1]
    n = alpha[:-1, None, :] - beta[None, :-1, :]
    x0 = x[:, None, 0]
    x1 = x[:, None, 1]
    x2 = x[:, None, 2]
    y0 = y[None, :, 0]
    y1 = y[None, :, 1]
    y2 = y[None, :, 2]
    return (n[..., 0] * (x1 * y2 - x2 * y1)
            - n[..., 1] * (x0 * y2 - x2 * y0)
            + n[..., 2] * (x0 * y1 - x1 * y0))


def _np_integrate_positions(alpha, beta, iu, iv, base_point):
    """Sweep the Lelieuvre edge equations out from the base vertex.

    f_u(u+1/2, v) = (alpha(u) - beta(v)) x alpha'(u+1/2)
    f_v(u, v+1/2) = (alpha(u) - beta(v)) x beta'(v+1/2)

    The base row is swept in u, then every column in v, one coordinate at
    a time, as running sums (np.cumsum accumulates sequentially).  Sweeps
    towards lower indices add the negated edge vector, written with its
    two products swapped: x - (p - q) == x + (q - p) exactly.  Additions
    thus happen in the same element order as the JIT loop, keeping the two
    backends bit-identical.
    """
    nu = alpha.shape[0]
    nv = beta.shape[0]
    a = alpha.T
    b = beta.T
    base = np.asarray(base_point, dtype=np.float64)
    f = np.empty((nu, nv, 3))
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        # coordinate k of the u-edge vectors along the base row
        n1, n2 = a[k1][:-1] - b[k1][iv], a[k2][:-1] - b[k2][iv]
        d1, d2 = a[k1][1:] - a[k1][:-1], a[k2][1:] - a[k2][:-1]
        row = np.empty(nu)
        row[iu] = base[k]
        row[iu + 1:] = n1[iu:] * d2[iu:] - n2[iu:] * d1[iu:]
        row[:iu] = n2[:iu] * d1[:iu] - n1[:iu] * d2[:iu]
        np.cumsum(row[iu:], out=row[iu:])
        np.cumsum(row[iu::-1], out=row[iu::-1])
        # coordinate k of the v-edge vectors, one row per v step
        n1 = a[k1][None, :] - b[k1][:-1, None]
        n2 = a[k2][None, :] - b[k2][:-1, None]
        d1 = (b[k1][1:] - b[k1][:-1])[:, None]
        d2 = (b[k2][1:] - b[k2][:-1])[:, None]
        col = np.empty((nv, nu))
        col[iv] = row
        col[iv + 1:] = n1[iv:] * d2[iv:] - n2[iv:] * d1[iv:]
        col[:iv] = n2[:iv] * d1[:iv] - n1[:iv] * d2[:iv]
        np.cumsum(col[iv:], axis=0, out=col[iv:])
        np.cumsum(col[iv::-1], axis=0, out=col[iv::-1])
        f[:, :, k] = col.T
    return f


def _np_bilinear_sample(positions, subdiv):
    """Sample each quad's bilinear patch on a (subdiv+1)^2 parameter grid."""
    nu, nv = positions.shape[0], positions.shape[1]
    s = np.arange(subdiv + 1) / subdiv
    w = s[:, None]                      # s down, t across
    t = s[None, :]
    w00 = (1.0 - w) * (1.0 - t)
    w10 = w * (1.0 - t)
    w01 = (1.0 - w) * t
    w11 = w * t
    c00 = positions[:-1, :-1][:, :, None, None, :]
    c10 = positions[1:, :-1][:, :, None, None, :]
    c01 = positions[:-1, 1:][:, :, None, None, :]
    c11 = positions[1:, 1:][:, :, None, None, :]
    ww = w00[None, None, :, :, None]
    out = c00 * ww
    out = out + c10 * w10[None, None, :, :, None]
    out = out + c01 * w01[None, None, :, :, None]
    out = out + c11 * w11[None, None, :, :, None]
    return out


# ---------------------------------------------------------------------------
# numba implementations (same expressions, scalar loops)
# ---------------------------------------------------------------------------

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via DIAMS_NUMBA=0 instead
    numba = None
    HAVE_NUMBA = False


def _build_numba_kernels():
    njit = numba.njit

    @njit(cache=True)
    def omega_grid(alpha, beta):
        nu = alpha.shape[0]
        nv = beta.shape[0]
        out = np.empty((nu - 1, nv - 1))
        for i in range(nu - 1):
            x0 = alpha[i + 1, 0] - alpha[i, 0]
            x1 = alpha[i + 1, 1] - alpha[i, 1]
            x2 = alpha[i + 1, 2] - alpha[i, 2]
            for j in range(nv - 1):
                n0 = alpha[i, 0] - beta[j, 0]
                n1 = alpha[i, 1] - beta[j, 1]
                n2 = alpha[i, 2] - beta[j, 2]
                y0 = beta[j + 1, 0] - beta[j, 0]
                y1 = beta[j + 1, 1] - beta[j, 1]
                y2 = beta[j + 1, 2] - beta[j, 2]
                out[i, j] = (n0 * (x1 * y2 - x2 * y1)
                             - n1 * (x0 * y2 - x2 * y0)
                             + n2 * (x0 * y1 - x1 * y0))
        return out

    @njit(cache=True)
    def integrate_positions(alpha, beta, iu, iv, base_point):
        nu = alpha.shape[0]
        nv = beta.shape[0]
        f = np.empty((nu, nv, 3))
        for k in range(3):
            f[iu, iv, k] = base_point[k]
        for i in range(iu + 1, nu):
            n0 = alpha[i - 1, 0] - beta[iv, 0]
            n1 = alpha[i - 1, 1] - beta[iv, 1]
            n2 = alpha[i - 1, 2] - beta[iv, 2]
            d0 = alpha[i, 0] - alpha[i - 1, 0]
            d1 = alpha[i, 1] - alpha[i - 1, 1]
            d2 = alpha[i, 2] - alpha[i - 1, 2]
            f[i, iv, 0] = f[i - 1, iv, 0] + (n1 * d2 - n2 * d1)
            f[i, iv, 1] = f[i - 1, iv, 1] + (n2 * d0 - n0 * d2)
            f[i, iv, 2] = f[i - 1, iv, 2] + (n0 * d1 - n1 * d0)
        for i in range(iu - 1, -1, -1):
            n0 = alpha[i, 0] - beta[iv, 0]
            n1 = alpha[i, 1] - beta[iv, 1]
            n2 = alpha[i, 2] - beta[iv, 2]
            d0 = alpha[i + 1, 0] - alpha[i, 0]
            d1 = alpha[i + 1, 1] - alpha[i, 1]
            d2 = alpha[i + 1, 2] - alpha[i, 2]
            f[i, iv, 0] = f[i + 1, iv, 0] - (n1 * d2 - n2 * d1)
            f[i, iv, 1] = f[i + 1, iv, 1] - (n2 * d0 - n0 * d2)
            f[i, iv, 2] = f[i + 1, iv, 2] - (n0 * d1 - n1 * d0)
        for j in range(iv + 1, nv):
            d0 = beta[j, 0] - beta[j - 1, 0]
            d1 = beta[j, 1] - beta[j - 1, 1]
            d2 = beta[j, 2] - beta[j - 1, 2]
            for i in range(nu):
                n0 = alpha[i, 0] - beta[j - 1, 0]
                n1 = alpha[i, 1] - beta[j - 1, 1]
                n2 = alpha[i, 2] - beta[j - 1, 2]
                f[i, j, 0] = f[i, j - 1, 0] + (n1 * d2 - n2 * d1)
                f[i, j, 1] = f[i, j - 1, 1] + (n2 * d0 - n0 * d2)
                f[i, j, 2] = f[i, j - 1, 2] + (n0 * d1 - n1 * d0)
        for j in range(iv - 1, -1, -1):
            d0 = beta[j + 1, 0] - beta[j, 0]
            d1 = beta[j + 1, 1] - beta[j, 1]
            d2 = beta[j + 1, 2] - beta[j, 2]
            for i in range(nu):
                n0 = alpha[i, 0] - beta[j, 0]
                n1 = alpha[i, 1] - beta[j, 1]
                n2 = alpha[i, 2] - beta[j, 2]
                f[i, j, 0] = f[i, j + 1, 0] - (n1 * d2 - n2 * d1)
                f[i, j, 1] = f[i, j + 1, 1] - (n2 * d0 - n0 * d2)
                f[i, j, 2] = f[i, j + 1, 2] - (n0 * d1 - n1 * d0)
        return f

    @njit(cache=True)
    def bilinear_sample(positions, subdiv):
        nu = positions.shape[0]
        nv = positions.shape[1]
        out = np.empty((nu - 1, nv - 1, subdiv + 1, subdiv + 1, 3))
        for i in range(nu - 1):
            for j in range(nv - 1):
                for si in range(subdiv + 1):
                    s = si / subdiv
                    for ti in range(subdiv + 1):
                        t = ti / subdiv
                        w00 = (1.0 - s) * (1.0 - t)
                        w10 = s * (1.0 - t)
                        w01 = (1.0 - s) * t
                        w11 = s * t
                        for k in range(3):
                            out[i, j, si, ti, k] = (
                                positions[i, j, k] * w00
                                + positions[i + 1, j, k] * w10
                                + positions[i, j + 1, k] * w01
                                + positions[i + 1, j + 1, k] * w11)
        return out

    return omega_grid, integrate_positions, bilinear_sample


_env = os.environ.get("DIAMS_NUMBA", "").strip().lower()
USE_NUMBA = HAVE_NUMBA and _env not in ("0", "false", "off", "no")

if USE_NUMBA:
    _omega_grid, _integrate_positions, _bilinear_sample = _build_numba_kernels()
    ACTIVE_BACKEND = "numba"
else:
    _omega_grid = _np_omega_grid
    _integrate_positions = _np_integrate_positions
    _bilinear_sample = _np_bilinear_sample
    ACTIVE_BACKEND = "numpy"


# ---------------------------------------------------------------------------
# public wrappers
# ---------------------------------------------------------------------------

def omega_grid(alpha, beta):
    return _omega_grid(_as_points(alpha), _as_points(beta))


def integrate_positions(alpha, beta, iu, iv, base_point):
    base = np.ascontiguousarray(base_point, dtype=np.float64)
    return _integrate_positions(_as_points(alpha), _as_points(beta),
                                int(iu), int(iv), base)


def bilinear_sample(positions, subdiv):
    p = np.ascontiguousarray(positions, dtype=np.float64)
    return _bilinear_sample(p, int(subdiv))


def warmup():
    """Trigger JIT compilation (a no-op on the numpy backend)."""
    a = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [2.0, 1.0, 1.0]])
    b = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
    omega_grid(a, b)
    f = integrate_positions(a, b, 0, 0, np.zeros(3))
    bilinear_sample(f, 2)
