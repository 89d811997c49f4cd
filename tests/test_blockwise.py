"""`_kernels.blockwise`: the float text made lazily on up to two cores, in
rounds, with the bytes of one loop."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import diams
from diams import _kernels, analyze_net
from diams.io_cli import (CurvePairFile, report_from_analysis, write_curves,
                          write_report)
from diams.net_core import integrate_net
from diams.surface_mesh import export_obj, tessellate

from _helpers import parabolic_net, reference_obj_text, reference_report_bytes


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_blockwise_returns_the_loop_in_block_order(workers, monkeypatch):
    monkeypatch.setattr(_kernels, "_WORKERS", workers)
    for n in range(10):
        assert list(_kernels.blockwise(lambda b: b * b, range(n))) == [
            b * b for b in range(n)]
        assert list(_kernels.blockwise(str, list(range(n)))) == [
            str(b) for b in range(n)]


@pytest.mark.parametrize("block", [1, 5, _kernels.G17_BLOCK_VALUES])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_report_and_obj_bytes_are_the_same_on_any_number_of_stripes(
        workers, block, monkeypatch, tmp_path):
    # 40 values per u-row of Omega and 3 per vertex: blocks of less than a
    # row, of one row and of the whole array, in rounds of one, two and
    # three blocks
    monkeypatch.setattr(_kernels, "_WORKERS", workers)
    monkeypatch.setattr(_kernels, "G17_BLOCK_VALUES", block)
    net = parabolic_net(0.05)[0]
    analysis = analyze_net(net)
    report = report_from_analysis(analysis, 1e-9, 1e-9)
    assert write_report(report) == reference_report_bytes(report,
                                                          analysis.metric)
    mesh = tessellate(integrate_net(net), 1, analysis.polylines)
    path = tmp_path / "m.obj"
    export_obj(mesh, path)
    assert path.read_bytes() == reference_obj_text(mesh).encode("ascii")


@pytest.mark.parametrize("bad", [0, 4])
def test_an_exception_in_any_stripe_reaches_the_caller(bad, monkeypatch):
    # rounds of three take blocks 0-2, 3-5 and 6-8; block 0 fails on the
    # calling thread, block 4 on a pool thread.  The error arrives at the
    # failing block's place, after the blocks before it, once every block
    # that started has ended; no later round starts, save the pool blocks
    # of the next round, which are submitted when the calling thread ends
    # its own block of the failing round
    monkeypatch.setattr(_kernels, "_WORKERS", 3)
    lock = threading.Lock()
    started, running = [], set()

    def fn(b):
        with lock:
            started.append(b)
            running.add(b)
        try:
            if b == bad:
                raise KeyError(b)
            return b
        finally:
            with lock:
                running.discard(b)

    got = []
    with pytest.raises(KeyError, match=str(bad)):
        for b in _kernels.blockwise(fn, range(9)):
            got.append(b)
    assert got == list(range(bad))
    assert not running
    first = bad - bad % 3
    assert bad in started and first in started
    ahead = set(range(first + 4, first + 6)) if bad != first else set()
    assert set(started) <= set(range(first + 3)) | ahead
def test_blockwise_under_fast_thread_switching(monkeypatch):
    # rounds of four on a fresh pool of three threads, the interpreter
    # switching threads every microsecond: the blocks come in order, and a
    # consumer that stops early leaves no block running
    monkeypatch.setattr(_kernels, "_WORKERS", 4)
    lock = threading.Lock()
    running = set()

    def fn(b):
        with lock:
            running.add(b)
        try:
            return sum(range(b % 7 * 100)) + b
        finally:
            with lock:
                running.discard(b)

    want = [fn(b) for b in range(300)]
    interval = sys.getswitchinterval()
    _kernels._pool.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        assert list(_kernels.blockwise(fn, range(300))) == want
        for stop in (0, 1, 5, 150):
            blocks = _kernels.blockwise(fn, range(300))
            got = [next(blocks) for _ in range(stop)]
            blocks.close()
            assert got == want[:stop] and not running
    finally:
        sys.setswitchinterval(interval)
        _kernels._pool().shutdown()
        _kernels._pool.cache_clear()


def test_a_small_analyze_starts_no_thread(tmp_path):
    # a 21^2 net's Omega section is one block: blockwise is a plain loop,
    # and the thread pool module is never imported
    net = parabolic_net(0.1)[0]
    curves = tmp_path / "c.json"
    curves.write_bytes(write_curves(CurvePairFile(net.alpha, net.beta)))
    code = ("import sys, threading\n"
            "from diams.io_cli import run_cli\n"
            "code = run_cli(['analyze', '--curves', sys.argv[1],\n"
            "                '--report', sys.argv[2]])\n"
            "print(code, threading.active_count(),\n"
            "      'concurrent.futures' in sys.modules)\n")
    src = str(Path(diams.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, str(curves), str(tmp_path / "r.json")],
        env={"PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120, check=True)
    assert out.stdout.split() == ["0", "1", "False"]


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="os.fork is not on this platform")
def test_a_forked_child_writes_text_of_many_blocks():
    # a child forked after the parent wrote text of ten blocks writes the
    # same text: the pool it inherits counted a thread the child does not
    # have, and the child's first pool block waited for it forever
    code = ("import os, signal\n"
            "import numpy as np\n"
            "from diams import _kernels\n"
            "_kernels._WORKERS = 2\n"
            "x = np.arange(160000.0).reshape(400, 400) + 0.5\n"
            "text = b''.join(_kernels.g17_text(x, (), ()))\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(10)\n"
            "    same = b''.join(_kernels.g17_text(x, (), ())) == text\n"
            "    os._exit(0 if same else 1)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n")
    src = str(Path(diams.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code],
                         env={"PYTHONPATH": src}, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["0"]


@pytest.mark.parametrize("affinity", [True, False])
def test_at_most_two_stripes_with_or_without_sched_getaffinity(affinity):
    # two threads are what was measured; a platform without
    # os.sched_getaffinity (macOS, Windows) counts os.cpu_count() instead
    if affinity and not hasattr(os, "sched_getaffinity"):
        pytest.skip("os.sched_getaffinity is not on this platform")
    code = ("import os, sys\n"
            "if sys.argv[1] == 'False':\n"
            "    del os.sched_getaffinity\n"
            "from diams import _kernels\n"
            "print(_kernels._WORKERS)\n")
    src = str(Path(diams.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, str(affinity)],
                         env={"PYTHONPATH": src}, capture_output=True,
                         text=True, timeout=120, check=True)
    cores = (len(os.sched_getaffinity(0)) if affinity
             else os.cpu_count() or 1)
    assert int(out.stdout) == min(2, cores)
