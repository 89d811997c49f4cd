"""`_kernels.blockwise`: the float text written on up to two cores, with the
bytes of one loop."""

import os
import subprocess
import sys
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
        assert _kernels.blockwise(lambda b: b * b, range(n)) == [
            b * b for b in range(n)]
        assert _kernels.blockwise(str, list(range(n))) == [
            str(b) for b in range(n)]


@pytest.mark.parametrize("block", [1, 5, _kernels.G17_BLOCK_VALUES])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_report_and_obj_bytes_are_the_same_on_any_number_of_stripes(
        workers, block, monkeypatch, tmp_path):
    # 40 values per u-row of Omega and 3 per vertex: blocks of less than a
    # row, of one row and of the whole array, on one, two and three stripes
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
    # three stripes take blocks 0, 3, 6 / 1, 4, 7 / 2, 5, 8; block 0 fails
    # on the calling thread, block 4 on a pool thread.  Each stripe has
    # ended when the error arrives: only the failing one stopped early
    monkeypatch.setattr(_kernels, "_WORKERS", 3)
    done = []

    def fn(b):
        if b == bad:
            raise KeyError(b)
        done.append(b)
        return b

    with pytest.raises(KeyError, match=str(bad)):
        _kernels.blockwise(fn, range(9))
    stopped = set(range(bad, 9, 3))
    assert sorted(done) == [b for b in range(9) if b not in stopped]


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


@pytest.mark.parametrize("affinity", [True, False])
def test_at_most_two_stripes_with_or_without_sched_getaffinity(affinity):
    # two stripes are what was measured; a platform without
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
