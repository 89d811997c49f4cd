"""Output is streamed: `_kernels.write_blocks` writes each block as it
arrives and leaves no partial file, and the report and OBJ writers hold a
few blocks of text at a time, whatever the size of the output."""

import dataclasses
import io
import os
import threading
import tracemalloc

import numpy as np
import pytest

from diams import (ConormalNet, GridDomain, PolyCurve, _kernels,
                   analyze_net)
from diams.errors import IoFailure, ParameterOutOfRange
from diams.io_cli import report_blocks, report_from_analysis
from diams.net_core import integrate_net
from diams.surface_mesh import MeshPolyline, export_obj, tessellate

from _helpers import example_net

BLOCK = 1 << 16


def _failing_blocks(path=None):
    """A large block, a small one, then an error; with a path, the large
    block is on disk by the time the small one is asked for."""
    yield b"a" * BLOCK
    if path is not None:
        assert os.path.getsize(path) >= BLOCK
    yield b"b"
    raise KeyError("made up")


def test_write_blocks_writes_each_block_as_it_arrives(tmp_path):
    path = tmp_path / "out.bin"

    def blocks():
        for i in range(4):
            # the blocks before this one are on disk, bar the buffer
            assert path.stat().st_size >= i * BLOCK - io.DEFAULT_BUFFER_SIZE
            yield bytes([65 + i]) * BLOCK

    _kernels.write_blocks(path, blocks())
    assert path.read_bytes() == b"".join(bytes([65 + i]) * BLOCK
                                         for i in range(4))


def test_a_failing_iterator_leaves_an_empty_file(tmp_path):
    # the block on disk is truncated away and the one still buffered is
    # dropped; the iterator's own exception reaches the caller
    path = tmp_path / "out.bin"
    path.write_bytes(b"an earlier file")
    with pytest.raises(KeyError, match="made up"):
        _kernels.write_blocks(path, _failing_blocks(path))
    assert path.read_bytes() == b""


def test_a_failure_writing_to_a_device_is_not_followed_by_a_truncation():
    # /dev/null cannot be truncated; writing to it works, and a failure
    # there propagates as it is, with no second error
    _kernels.write_blocks(os.devnull, [b"a" * BLOCK, b"b"])
    with pytest.raises(KeyError, match="made up"):
        _kernels.write_blocks(os.devnull, _failing_blocks())


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this platform")
def test_a_write_error_is_io_failure_and_closes_the_iterator(monkeypatch):
    # /dev/full refuses every write: the OSError becomes IoFailure, the
    # blockwise iterator is closed, no block is left running and none
    # still queued starts later
    monkeypatch.setattr(_kernels, "_WORKERS", 2)
    lock = threading.Lock()
    started, running = [], set()

    def fn(b):
        with lock:
            started.append(b)
            running.add(b)
        try:
            return bytes(BLOCK)
        finally:
            with lock:
                running.discard(b)

    blocks = _kernels.blockwise(fn, list(range(20)))
    with pytest.raises(IoFailure, match="cannot write /dev/full"):
        _kernels.write_blocks("/dev/full", blocks)
    assert blocks.gi_frame is None
    assert not running
    seen = list(started)
    _kernels._pool().submit(int).result()   # after anything queued before
    assert started == seen and len(seen) < 20


def test_a_refused_mesh_leaves_an_existing_obj_as_it_was(tmp_path):
    # every check runs before the file is opened
    mesh = tessellate(integrate_net(example_net(1.0)), 2)
    path = tmp_path / "m.obj"
    export_obj(mesh, path)
    before = path.read_bytes()
    n = len(mesh.vertices)
    for bad in (dict(polylines=(MeshPolyline((0, 1), False),
                                MeshPolyline((0, n), True))),
                dict(polylines=(MeshPolyline((3,), False),)),
                dict(quad_tags=mesh.quad_tags[:-1]),
                dict(triangles=mesh.triangles + n)):
        with pytest.raises(ParameterOutOfRange):
            export_obj(dataclasses.replace(mesh, **bad), path)
        assert path.read_bytes() == before


# The memory tests below write blocks of 2,048 values, so that both sizes
# are many blocks long and each peak is that of the steady state, a few
# blocks in flight; holding the text until it was written put all of the
# extra text on the peak.

def _peak_above_held(write):
    """The tracemalloc peak of write() above what was held before it,
    after one untraced run that builds the tables and the pool."""
    write()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def _one_signed_net(h):
    """alpha(u) = (u, u^2, 1), beta(v) = (v, 5v + v^2, 0) on [-1, 1]:
    Omega is positive on every quad, so the report's only section that
    grows with the net is Omega's text."""
    t = np.arange(-1.0, 1.0 + h / 2, h)
    return ConormalNet(
        PolyCurve(np.stack([t, t ** 2, np.ones_like(t)], axis=1)),
        PolyCurve(np.stack([t, 5 * t + t ** 2, np.zeros_like(t)], axis=1)))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_report_write_holds_no_more_as_the_net_grows(
        workers, monkeypatch, tmp_path):
    # building and writing the report of a 101^2 and of a 401^2 net as
    # `analyze` does: the peak grows by less than a tenth of the extra
    # report text
    monkeypatch.setattr(_kernels, "_WORKERS", workers)
    monkeypatch.setattr(_kernels, "G17_BLOCK_VALUES", 1 << 11)
    path = tmp_path / "r.json"
    sizes, peaks = [], []
    for h in (0.02, 0.005):
        analysis = analyze_net(_one_signed_net(h))
        assert not analysis.edges
        peaks.append(_peak_above_held(lambda: _kernels.write_blocks(
            path, report_blocks(report_from_analysis(analysis, 1e-9, 1e-9)))))
        sizes.append(path.stat().st_size)
    assert sizes[1] > 10 * sizes[0]
    assert peaks[1] - peaks[0] < 0.1 * (sizes[1] - sizes[0])


@pytest.mark.parametrize("workers", [1, 2])
def test_an_obj_write_holds_no_more_as_the_mesh_grows(
        workers, rng, monkeypatch, tmp_path):
    # the same for export_obj of a 201 x 201 and a 201 x 401 mesh; what
    # grows is the per-vertex index text, about 6 bytes of a vertex's 110
    monkeypatch.setattr(_kernels, "_WORKERS", workers)
    monkeypatch.setattr(_kernels, "G17_BLOCK_VALUES", 1 << 11)
    f = integrate_net(example_net(1.0))
    path = tmp_path / "m.obj"
    sizes, peaks = [], []
    for nv in (201, 401):
        mesh = tessellate(dataclasses.replace(
            f, domain=GridDomain(0, 200, 0, nv - 1),
            positions=rng.normal(size=(201, nv, 3))), 1)
        peaks.append(_peak_above_held(lambda: export_obj(mesh, path)))
        sizes.append(path.stat().st_size)
    assert peaks[1] - peaks[0] < 0.1 * (sizes[1] - sizes[0])
