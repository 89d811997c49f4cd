"""Hot numeric kernels, written as whole-array numpy expressions.

Every discrete decision of the pipeline is the sign of one determinant,
[n, x, y].  ``det3`` writes it out for the scalar values; ``orient_terms``
writes the same expression, bit for bit, with the six products that set
orient's dead zone, for ``orient``, ``halfplane_grid``, the metric grid
``omega_grid``, the vertex-frame grids ``frame_pair_grids`` and the star
sidedness signs.  ``ConormalNet`` computes the two grids once per net
(``omega_terms``, ``frame_terms``); generic position and classification
read all six signs of every vertex from them.
The kernels' share of pipeline time shows in the per-layer output of
``python3 perfbench/run.py --workload <name> --trace 1``;
``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

import numpy as np


def det3(n, x, y):
    """Determinant of the rows (n, x, y); each argument is a vector or an
    [x, y, z] list of broadcasting component arrays."""
    return (n[0] * (x[1] * y[2] - x[2] * y[1])
            - n[1] * (x[0] * y[2] - x[2] * y[0])
            + n[2] * (x[0] * y[1] - x[1] * y[0]))


def orient_terms(n0, n1, n2, x0, x1, x2, y0, y1, y2):
    """[n, x, y] and the sum of the absolute values of its six products,
    for floats or broadcasting component arrays alike."""
    p0 = x1 * y2
    p1 = x2 * y1
    p2 = x0 * y2
    p3 = x2 * y0
    p4 = x0 * y1
    p5 = x1 * y0
    d = n0 * (p0 - p1) - n1 * (p2 - p3) + n2 * (p4 - p5)
    mag = (abs(n0) * (abs(p0) + abs(p1)) + abs(n1) * (abs(p2) + abs(p3))
           + abs(n2) * (abs(p4) + abs(p5)))
    return d, mag


def _as_points(arr):
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("expected an (n, 3) array of points")
    return a


def omega_grid(alpha, beta):
    """orient_terms of [alpha(u)-beta(v), alpha'(u+1/2), beta'(v+1/2)]
    for every quadrangle, indexed by lower-left corner: one array holding
    the grid of Omega and the grid of its dead-zone magnitudes.

    Nets keep the result, so it is allocated before the temporaries: a
    long-lived grid placed between them keeps the freed heap from being
    reused and raises the peak RSS of repeated runs by several MB."""
    a = _as_points(alpha).T
    b = _as_points(beta).T
    out = np.empty((2, a.shape[1] - 1, b.shape[1] - 1))
    x = (a[:, 1:] - a[:, :-1])[:, :, None]
    y = (b[:, 1:] - b[:, :-1])[:, None, :]
    out[0], out[1] = orient_terms(*(a[:, :-1, None] - b[:, None, :-1]),
                                  *x, *y)
    return out


def frame_pair_grids(alpha, beta):
    """orient_terms of [alpha(u)-beta(v), alpha'(u+1/2), alpha'(u-1/2)] and
    of [alpha(u)-beta(v), beta'(v+1/2), beta'(v-1/2)] at every vertex with
    both neighbours on each curve, indexed from the vertex (1, 1) of the
    grid: one array of two (det, mag) pairs, allocated first as in
    omega_grid."""
    a = _as_points(alpha).T
    b = _as_points(beta).T
    a0 = a[:, 1:-1, None]
    b0 = b[:, None, 1:-1]
    out = np.empty((2, 2, a0.shape[1], b0.shape[2]))
    n = a0 - b0
    out[0, 0], out[0, 1] = orient_terms(*n, *(a[:, 2:, None] - a0),
                                        *(a0 - a[:, :-2, None]))
    out[1, 0], out[1, 1] = orient_terms(*n, *(b[:, None, 2:] - b0),
                                        *(b0 - b[:, None, :-2]))
    return out


def integrate_positions(alpha, beta, iu, iv, base_point):
    """Sweep the Lelieuvre edge equations out from the base vertex.

    f_u(u+1/2, v) = (alpha(u) - beta(v)) x alpha'(u+1/2)
    f_v(u, v+1/2) = (alpha(u) - beta(v)) x beta'(v+1/2)

    The base row is swept in u, then every column in v, one coordinate at
    a time, as running sums (np.cumsum accumulates sequentially), so each
    position is its neighbour towards the base plus one edge vector.
    Sweeps towards lower indices add the negated edge vector, written
    with its two products swapped: x - (p - q) == x + (q - p) exactly.
    """
    alpha, beta = _as_points(alpha), _as_points(beta)
    iu, iv = int(iu), int(iv)
    nu = alpha.shape[0]
    nv = beta.shape[0]
    a = alpha.T
    b = beta.T
    base = np.ascontiguousarray(base_point, dtype=np.float64)
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


def bilinear_sample(positions, subdiv):
    """Sample the bilinear patches on one welded grid of shape
    (subdiv*(nu-1)+1, subdiv*(nv-1)+1, 3).  Sample (I, J) is evaluated in
    quad (min(I // subdiv, nu-2), min(J // subdiv, nv-2)) at its local
    parameters, c00*w00 + c10*w10 + c01*w01 + c11*w11 in that order."""
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    subdiv = int(subdiv)
    i = np.arange(subdiv * (positions.shape[0] - 1) + 1)
    j = np.arange(subdiv * (positions.shape[1] - 1) + 1)
    qi = np.minimum(i // subdiv, positions.shape[0] - 2)[:, None]
    qj = np.minimum(j // subdiv, positions.shape[1] - 2)[None, :]
    w = ((i[:, None] - subdiv * qi) / subdiv)[:, :, None]   # s down
    t = ((j[None, :] - subdiv * qj) / subdiv)[:, :, None]   # t across
    out = positions[qi, qj] * ((1.0 - w) * (1.0 - t))
    out = out + positions[qi + 1, qj] * (w * (1.0 - t))
    out = out + positions[qi, qj + 1] * ((1.0 - w) * t)
    return out + positions[qi + 1, qj + 1] * (w * t)
