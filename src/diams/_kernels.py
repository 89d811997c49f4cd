"""Hot numeric kernels, written as whole-array numpy expressions.

Every discrete decision of the pipeline is the sign of one determinant,
[n, x, y].  ``det3`` writes it out for the scalar values; ``orient_terms``
writes the same expression, bit for bit, with the six products that set
orient's dead zone, for ``orient``, ``halfplane_grid``, the metric grid
``omega_grid``, the vertex-frame grids ``frame_pair_grids`` and the star
sidedness signs.  ``ConormalNet`` computes the two grids once per net
(``omega_terms``, ``frame_terms``); generic position and classification
read all six signs of every vertex from them.

``g17_field`` writes the "%.17g" text of a whole float array as one
NUL-padded uint8 matrix: the digits come from a double-double product
with a table of powers of ten, and Python's own "%.17g" writes only the
values that product cannot decide (zero, non-finite, extreme magnitudes,
near ties).  ``g17_text`` lays a 2-D array's rows out between fixed byte
pieces, ``G17_BLOCK_VALUES`` values at a time, and drops the NULs; the
report's Omega section and the OBJ vertex block are written through it
at every size.

The kernels' share of pipeline time shows in the per-layer output of
``python3 perfbench/run.py --workload <name> --trace 1``;
``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

import functools

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


# ---------------------------------------------------------------------------
# "%.17g" text of whole arrays
# ---------------------------------------------------------------------------

# g17_text formats blocks of whole rows holding at most this many values
# (one row if a row holds more), so the byte matrices around g17_field's
# rows and g17_field's own arrays stay near 1 MB, below the 4 MiB from
# which numpy asks for huge pages, however large the array.
G17_BLOCK_VALUES = 1 << 14

_SPLIT = 134217729.0                # 2**27 + 1, Veltkamp's splitting constant
_P10_MIN = -300                     # the power of ten in row 0 of the table


@functools.cache
def _g17_tables():
    """The read-only tables of g17_field: 10**k for k in [-300, 300] as
    double-doubles (hi the nearest double, lo the remainder rounded to
    the nearest double), and the four ASCII digits of each n < 10**4 as
    one uint32, at index n as written and at index n + 10**4 with its
    trailing zeros as NULs."""
    hi, lo = [], []
    for k in range(_P10_MIN, 1 - _P10_MIN):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den                       # int division rounds correctly
        m, e = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * e - m * den) / (den * e))
    # uint8 digits keep every temporary below glibc's 128 KiB mmap
    # threshold; freeing a larger one would raise that threshold for the
    # rest of the process and so change the speed of unrelated code
    n = np.arange(10 ** 4, dtype=np.uint16)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10],
                      1).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, 1)[:, ::-1]
    ascii4 = np.concatenate([digits + 48, (digits + 48) * ~trailing])
    tables = (np.array(hi), np.array(lo), ascii4.view(np.uint32).ravel())
    for table in tables:
        table.flags.writeable = False
    return tables


def _two_prod(a, b):
    """(p, e) with p + e == a * b exactly (Dekker 1971), unless a
    Veltkamp split overflows (|a| or |b| above about 1e300)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled(ax, k):
    """ax * 10**k as a normalized double-double (qh, ql), |ql| at most
    half an ulp of qh; its error is below 1e-30 * ax * 10**k."""
    hi, lo = _g17_tables()[:2]
    p, e = _two_prod(ax, hi[k - _P10_MIN])
    low = e + ax * lo[k - _P10_MIN]
    qh = p + low
    return qh, low - (qh - p)


def _decimal17(x):
    """|x| rounded to 17 significant digits, as D * 10**(X - 16) with D
    in [1e16, 1e17): (D, X, decided).  decided is False where the double-
    double product cannot decide the rounding: x zero, not finite or
    outside [1e-280, 1e280], or the rounded-off fraction within 1e-9 of
    one half (exact ties included); D and X mean nothing there."""
    ax = np.abs(x)
    decided = (ax >= 1e-280) & (ax <= 1e280)       # false for nan
    ax = np.where(decided, ax, 1.0)
    X = np.floor(np.log10(ax)).astype(np.int64)
    qh, ql = _scaled(ax, 16 - X)
    # log10 may be one off near a power of ten: one step of X puts the
    # product in [1e16, 1e17), judged on both words; a product that
    # rounds up to 1e17 carries into X below
    step = (((qh > 1e17) | ((qh == 1e17) & (ql >= 0))).astype(np.int64)
            - ((qh < 1e16) | ((qh == 1e16) & (ql < 0))))
    redo = np.flatnonzero(step)
    if redo.size:
        X[redo] += step[redo]
        qh[redo], ql[redo] = _scaled(ax[redo], 16 - X[redo])
    # qh >= 2**53 is an integer, so the fraction is that of ql
    whole = np.floor(ql)
    frac = ql - whole
    decided &= np.abs(frac - 0.5) >= 1e-9
    D = qh.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X += carry
    return D, X, decided


def g17_field(values):
    """An (N, 24) uint8 matrix whose row i, once its NUL bytes are
    dropped, is the ASCII of "%.17g" % values[i] (values flattened).

    The 17 digits come from _decimal17.  Trailing zeros after the point
    are NULs, and so is the point when no fraction is left.  Rows are
    sorted by exponent, and each exponent's block is laid out as printf
    lays it out: fixed for exponents -4..16, d.ddde+XX otherwise.
    Python's own "%.17g" writes the values _decimal17 cannot decide."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not len(x):
        return np.zeros((0, 24), dtype=np.uint8)
    D, X, decided = _decimal17(x)
    X = X.astype(np.int16)
    order = np.argsort(X, kind="stable")
    D, X = D[order], X[order]
    ascii4 = _g17_tables()[2]
    # the leading digit, then the other 16 in four groups of four
    high, low = np.divmod(D, 10 ** 8)
    lead, high = np.divmod(high.astype(np.uint32), 10 ** 8)
    quads = np.empty((len(x), 4), dtype=np.uint32)
    quads[:, 0], quads[:, 1] = np.divmod(high, 10 ** 4)
    quads[:, 2], quads[:, 3] = np.divmod(low.astype(np.uint32), 10 ** 4)
    # a group all of whose successors are zero loses its trailing zeros
    strip = np.empty((len(x), 4), dtype=bool)
    strip[:, 0] = (low == 0) & (quads[:, 1] == 0)
    strip[:, 1] = low == 0
    strip[:, 2] = quads[:, 3] == 0
    strip[:, 3] = True
    stripped = ascii4[quads + strip * np.uint32(10 ** 4)].view(np.uint8)
    rows = np.zeros((len(x), 24), dtype=np.uint8)
    rows[:, 0] = np.signbit(x[order]) * np.uint8(ord("-"))
    lead = (lead + ord("0")).astype(np.uint8)
    ends = (np.flatnonzero(np.diff(X)) + 1).tolist() + [len(x)]
    for start, end in zip([0] + ends, ends):
        e = int(X[start])
        block, d, s = rows[start:end], lead[start:end], stripped[start:end]
        if e < -4 or e > 16:                # d.ddde-XX, d.ddde+XXX
            block[:, 1] = d
            block[:, 2] = (s[:, 0] != 0) * np.uint8(ord("."))
            block[:, 3:19] = s
            tail = b"e%+03d" % e
            block[:, 19:19 + len(tail)] = np.frombuffer(tail, dtype=np.uint8)
        elif e < 0:                         # 0.000ddd
            block[:, 1:2 - e] = ord("0")
            block[:, 2] = ord(".")
            block[:, 2 - e] = d
            block[:, 3 - e:19 - e] = s
        else:                               # ddd.ddd
            block[:, 1] = d
            if e > 0:
                full = ascii4[quads[start:end]].view(np.uint8)
                block[:, 2:e + 2] = full[:, :e]
            if e < 16:
                block[:, e + 2] = (s[:, e] != 0) * np.uint8(ord("."))
                block[:, e + 3:19] = s[:, e:]
    out = np.empty_like(rows)
    out.view("V24")[order] = rows.view("V24")
    for i in np.flatnonzero(~decided).tolist():
        text = b"%.17g" % x[i]
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def nul_padded(texts):
    """Byte strings as the rows of a uint8 matrix, NUL-padded to the
    longest."""
    return np.array(texts, dtype=bytes).view(np.uint8).reshape(len(texts), -1)


def g17_text(values, before, after, nonfinite=None):
    """The text of a 2-D float array as a list of ASCII byte blocks.

    Value (r, c) is written as "%.17g" (as nonfinite, if given, where it
    is not finite) after every piece in before and before every piece in
    after, in row-major order.  A piece is a NUL-padded uint8 array: one
    of three dimensions is (rows, 1 or columns, width) and varies by
    row; any other broadcasts to (columns, width).  NULs are dropped.
    Each block holds whole rows and at most G17_BLOCK_VALUES values,
    unless one row holds more."""
    values = np.asarray(values, dtype=np.float64)
    width = 24 + sum(p.shape[-1] for p in (*before, *after))
    if nonfinite is not None:
        nonfinite = np.frombuffer(nonfinite.ljust(24, b"\0"), dtype=np.uint8)
    step = max(1, G17_BLOCK_VALUES // max(1, values.shape[1]))
    blocks = []
    for lo in range(0, len(values), step):
        block = values[lo:lo + step]
        field = g17_field(block).reshape(*block.shape, 24)
        if nonfinite is not None:
            field[~np.isfinite(block)] = nonfinite
        parts = [p[lo:lo + step] if p.ndim == 3 else p
                 for p in (*before, *after)]
        parts.insert(len(before), field)
        rows = np.empty((*block.shape, width), dtype=np.uint8)
        at = 0
        for part in parts:
            rows[:, :, at:at + part.shape[-1]] = part
            at += part.shape[-1]
        blocks.append(rows[rows != 0].tobytes())
    return blocks
