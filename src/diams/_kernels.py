"""Hot numeric kernels, written as numpy array expressions.

Every discrete decision of the pipeline is the sign of one determinant,
[n, x, y].  ``det3`` writes it out for the scalar values; ``orient_terms``
writes the same expression, bit for bit, with the six products that set
orient's dead zone, for ``orient``, ``halfplane_grid``, the metric grid
``omega_grid`` and the vertex-frame grids ``frame_pair_grids``.
``ConormalNet`` computes the two grids once per net (``omega_terms``,
``frame_terms``); generic position and classification read the six
signs of every vertex from them (``sign_terms``), star sidedness included.
``decided_sign`` (one pair) and ``undecided`` (arrays) decide every sign
by one rule, |d| > tol * mag; an undecided overflow raises ValidationError.

``g17_field`` writes the "%.17g" text of a whole float array as one
NUL-padded uint8 matrix: the digits come from a double-double product
with a table of powers of ten, and Python's own "%.17g" writes only the
values that product cannot decide (zero, non-finite, extreme magnitudes,
near ties).  ``g17_text`` lays a 2-D array's rows out between byte
pieces, ``G17_BLOCK_VALUES`` values at a time, and drops the NULs.  It is
the one writer of float arrays: the report's Omega section, the oracle
report's points and chains, the curve file's points and the OBJ vertex
block go through it at every size.  ``int_field`` writes the "%d" text of
an int64 array as NUL-led uint8 rows, and ``laid_out`` puts byte pieces
side by side for both; the OBJ face block is built from the two.
``write_blocks`` alone opens output files: reports, curve files and OBJ
text are streamed to disk, each block written as soon as it is made and
freed before the next round of blocks, so the text is never held whole.
A failure part-way truncates a regular file back to empty.

The grid kernels, and ConormalNet's |nu| check, work ``row_blocks`` at
a time: no temporary exceeds 64 KiB (``GRID_BLOCK_VALUES`` floats), below
glibc's 128 KiB mmap threshold, so the heap reuses it instead of
page-faulting it afresh on every call, and the grids keep their bits.
``row_blocks`` is also the block rule of ``g17_text``, ``int_field``, the
OBJ face block and the mesh's area filter, each with its own limit.
``blockwise`` lazily maps a function over blocks on up to ``_WORKERS``
(two) cores (numpy releases the GIL inside its loops), in rounds of one
block per core; ``g17_text`` and the OBJ face block write through it
with the bytes of one loop, and its ``_pool`` is the one place that
starts threads.

The kernels' share of pipeline time shows in the per-layer output of
``python3 perfbench/run.py --workload <name> --trace 1``;
``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

import functools
import os
import stat

import numpy as np

from .errors import IoFailure, ValidationError


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


def require_finite(values, what):
    """Raise ValidationError unless every entry of values is finite.  A
    product of k finite coordinates overflows once their scale passes
    about 2^(1024/k); stages form such products under np.errstate and end
    in this named error instead of inf/nan results and numpy warnings."""
    if not np.isfinite(values).all():
        raise ValidationError(f"{what}: not finite (the net overflows at "
                              "this coordinate scale)")


def decided_sign(d, mag, tol):
    """orient's sign of one (det, magnitude) pair from orient_terms: +1 or
    -1 where |d| > tol * mag, else 0.  An undecided magnitude that is not
    finite is an overflow and raises ValidationError."""
    if abs(d) > tol * mag:
        return 1 if d > 0.0 else -1
    require_finite(mag, "orientation test")
    return 0


def undecided(d, mag, tol, what):
    """decided_sign's zeros over arrays: the mask |d| <= tol * mag, nan
    included; a product tol * mag that overflows leaves the sign undecided.
    An undecided magnitude that is not finite raises ValidationError
    naming `what`; every non-finite magnitude is undecided at tol >= 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = ~(np.abs(d) > tol * mag)
    if out.any():
        require_finite(mag, what)
    return out


def _as_points(arr):
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("expected an (n, 3) array of points")
    return a


# The grid kernels work on blocks of whole rows holding at most this many
# values (or one row), so each float64 temporary takes at most 64 KiB,
# whatever the grid size.
GRID_BLOCK_VALUES = 1 << 13


def row_blocks(rows, columns, limit):
    """Slices of whole rows of a (rows, columns) grid, each holding at
    most limit values, or one row if a row holds more."""
    step = max(1, limit // max(1, columns))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def omega_grid(alpha, beta):
    """orient_terms of [alpha(u)-beta(v), alpha'(u+1/2), beta'(v+1/2)]
    for every quadrangle, indexed by lower-left corner: one array holding
    the grid of Omega and the grid of its dead-zone magnitudes, filled
    row_blocks at a time.

    Nets keep the result, so it is allocated before the temporaries: a
    long-lived grid placed between them keeps the freed heap from being
    reused and raises the peak RSS of repeated runs by several MB."""
    a = _as_points(alpha).T
    b = _as_points(beta).T
    out = np.empty((2, a.shape[1] - 1, b.shape[1] - 1))
    x = (a[:, 1:] - a[:, :-1])[:, :, None]
    y = (b[:, 1:] - b[:, :-1])[:, None, :]
    n = a[:, :-1, None]
    for r in row_blocks(*out.shape[1:], GRID_BLOCK_VALUES):
        out[0, r], out[1, r] = orient_terms(*(n[:, r] - b[:, None, :-1]),
                                            *x[:, r], *y)
    return out


def frame_pair_grids(alpha, beta):
    """orient_terms of [alpha(u)-beta(v), alpha'(u+1/2), alpha'(u-1/2)] and
    of [alpha(u)-beta(v), beta'(v+1/2), beta'(v-1/2)] at every vertex with
    both neighbours on each curve, indexed from the vertex (1, 1) of the
    grid: one array of two (det, mag) pairs, allocated first and filled
    row_blocks at a time as in omega_grid."""
    a = _as_points(alpha).T
    b = _as_points(beta).T
    a0 = a[:, 1:-1, None]
    b0 = b[:, None, 1:-1]
    out = np.empty((2, 2, a0.shape[1], b0.shape[2]))
    xa = a[:, 2:, None] - a0
    ya = a0 - a[:, :-2, None]
    xb = b[:, None, 2:] - b0
    yb = b0 - b[:, None, :-2]
    for r in row_blocks(*out.shape[2:], GRID_BLOCK_VALUES):
        n = a0[:, r] - b0
        out[0, 0, r], out[0, 1, r] = orient_terms(*n, *xa[:, r], *ya[:, r])
        out[1, 0, r], out[1, 1, r] = orient_terms(*n, *xb, *yb)
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

# blockwise's round width: the calling thread and, given a second core,
# one pool thread.  Two are what was measured; each further thread adds
# a malloc arena of about 3.4 MB to the peak RSS.
_WORKERS = min(2, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

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
    """The text of a 2-D float array as a `blockwise` iterator of ASCII
    byte blocks, each made as the consumer asks for it.

    Value (r, c) is written as "%.17g" (as nonfinite, if given, where it
    is not finite) after every piece in before and before every piece in
    after, in row-major order.  A piece is a NUL-padded uint8 array: one
    of three dimensions is (rows, 1 or columns, width) and varies by
    row; any other broadcasts to (columns, width).  NULs are dropped.
    Each block holds whole rows and at most G17_BLOCK_VALUES values,
    unless one row holds more."""
    values = np.asarray(values, dtype=np.float64)
    if nonfinite is not None:
        nonfinite = np.frombuffer(nonfinite.ljust(24, b"\0"), dtype=np.uint8)

    def text(r):
        block = values[r]
        field = g17_field(block).reshape(*block.shape, 24)
        if nonfinite is not None:
            field[~np.isfinite(block)] = nonfinite
        parts = [p[r] if p.ndim == 3 else p for p in (*before, *after)]
        parts.insert(len(before), field)
        rows = laid_out(block.shape, parts)
        return rows[rows != 0].tobytes()

    return blockwise(text, row_blocks(*values.shape, G17_BLOCK_VALUES))


@functools.cache
def _pool():
    """The one thread pool of the process, with _WORKERS - 1 threads;
    concurrent.futures is imported on first use, so a run that never has
    two blocks to share starts no thread and imports no thread module."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(_WORKERS - 1,
                              thread_name_prefix="diams-blockwise")


# A forked child inherits the pool but not its threads: the pool would
# count a worker that no longer exists and never start one, so the child
# builds its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def blockwise(fn, blocks):
    """fn(b) for each b of blocks (a sequence), yielded in block order.

    The blocks run in rounds of min(_WORKERS, len(blocks)): the calling
    thread runs the first block of each round and _pool threads the
    others.  The pool blocks of the next round are submitted as soon as
    the calling thread has finished its own, so at most two rounds are
    in flight and the pool does not wait while the consumer writes.  With
    one block or one core this is a plain loop and starts no thread.  fn
    must be safe to run on several threads at once.

    An exception reaches the consumer at its block's place; then, or when
    the consumer stops early, blocks not yet started are cancelled and
    those running are waited for."""
    width = min(_WORKERS, len(blocks))
    if width < 2:
        yield from map(fn, blocks)
        return
    pool = _pool()
    rounds = [blocks[i:i + width] for i in range(0, len(blocks), width)]
    current, ahead = [], [pool.submit(fn, b) for b in rounds[0][1:]]
    try:
        for k, batch in enumerate(rounds, 1):
            current, ahead = ahead, []
            first = fn(batch[0])
            if k < len(rounds):
                ahead = [pool.submit(fn, b) for b in rounds[k][1:]]
            # keep no reference to a block once it is handed on, so the
            # consumer's write frees it
            yield first
            del first
            while current:
                yield current.pop(0).result()
    finally:
        for future in current + ahead:
            if not future.cancel():
                future.exception()      # waits for a running block to end


def laid_out(shape, parts):
    """Pieces side by side along a new last axis: a uint8 array of shape
    (*shape, the sum of their widths), each piece broadcast to (*shape,
    its own width)."""
    rows = np.empty((*shape, sum(p.shape[-1] for p in parts)), dtype=np.uint8)
    at = 0
    for part in parts:
        rows[..., at:at + part.shape[-1]] = part
        at += part.shape[-1]
    return rows


def int_field(values, width=None):
    """The ASCII of "%d" % v for every v of an int64 array, as a uint8
    array of shape (*values.shape, W): digits right-aligned behind NULs, a
    minus sign just before the first digit, W the width of the widest
    unless a width that holds them all is given.  Built one digit column
    at a time, G17_BLOCK_VALUES values at a time."""
    values = np.asarray(values, dtype=np.int64)
    x = values.ravel()
    width = width or max(len(b"%d" % v)
                         for v in (x.min(initial=0), x.max(initial=0)))
    out = np.zeros((len(x), width), dtype=np.uint8)
    for r in row_blocks(len(x), 1, G17_BLOCK_VALUES):
        block, rows = x[r], out[r]
        # |-2**63| wraps to itself, which reads as 2**63 unsigned
        rest = np.abs(block).view(np.uint64)
        for c in range(width - 1, -1, -1):
            rest, digit = np.divmod(rest, 10)
            rows[:, c] = (digit + 48) * ((rest | digit) > 0)
        rows[:, -1] |= 48                   # 0 is written as one digit
        minus = np.flatnonzero(block < 0)
        rows[minus, -1 - np.count_nonzero(rows[minus], axis=1)] = ord("-")
    return out.reshape(*values.shape, width)


def write_blocks(path, blocks):
    """Write byte blocks to the file at path, each as it arrives, and
    close the iterator of blocks on the way out.

    If anything raises once the file is open, a regular file is
    truncated back to empty, so no partial output is left that could
    read as a smaller whole, and the exception propagates; an OSError,
    from opening, writing or truncating, becomes IoFailure."""
    blocks = iter(blocks)
    try:
        with open(path, "wb") as fh:
            try:
                fh.writelines(blocks)   # holds no block past its write
            except BaseException:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    os.ftruncate(fh.fileno(), 0)
                fh.raw.close()          # drops what is still buffered
                raise
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e
    finally:
        if hasattr(blocks, "close"):
            blocks.close()
