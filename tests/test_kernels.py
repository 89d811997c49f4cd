import os
import subprocess
import sys

import numpy as np
import pytest

import diams
from diams import _kernels

from _helpers import example_net, random_net_candidate


def _child_env(**extra):
    # a child interpreter imports diams from where this one did, also when
    # pytest put src/ on the path and PYTHONPATH is unset
    src = os.path.dirname(os.path.dirname(diams.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_active_backend_reported():
    assert _kernels.ACTIVE_BACKEND in ("numba", "numpy")
    if _kernels.HAVE_NUMBA and os.environ.get("DIAMS_NUMBA", "") not in (
            "0", "false", "off", "no"):
        assert _kernels.ACTIVE_BACKEND == "numba"


def test_backends_bit_identical(rng):
    if not _kernels.HAVE_NUMBA:
        pytest.skip("numba unavailable")
    numba_k = _kernels._build_numba_kernels()
    for _ in range(10):
        a = rng.standard_normal((rng.integers(3, 40), 3))
        b = rng.standard_normal((rng.integers(3, 40), 3))
        assert np.array_equal(numba_k[0](a, b), _kernels._np_omega_grid(a, b))
        iu = int(rng.integers(0, len(a)))
        iv = int(rng.integers(0, len(b)))
        base = rng.standard_normal(3)
        assert np.array_equal(
            numba_k[1](a, b, iu, iv, base),
            _kernels._np_integrate_positions(a, b, iu, iv, base))
        f = _kernels._np_integrate_positions(a, b, iu, iv, base)
        assert np.array_equal(numba_k[2](f, 3),
                              _kernels._np_bilinear_sample(f, 3))


def test_env_flag_selects_numpy_backend(tmp_path):
    env = _child_env(DIAMS_NUMBA="0")
    out = subprocess.run(
        [sys.executable, "-c",
         "from diams import _kernels; print(_kernels.ACTIVE_BACKEND)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "numpy"


def test_reports_identical_across_backends(tmp_path):
    # the fallback evaluates the same expressions in the same order, so
    # report bytes cannot depend on the backend
    curves = tmp_path / "c.json"
    script = (
        "import sys; from diams.io_cli import run_cli; "
        "sys.exit(run_cli(sys.argv[1:]))")
    subprocess.run([sys.executable, "-c", script, "example", "--y", "1",
                    "--out", str(curves)], check=True, env=_child_env())
    reports = []
    for flag in ("1", "0"):
        rp = tmp_path / f"r{flag}.json"
        env = _child_env(DIAMS_NUMBA=flag)
        subprocess.run([sys.executable, "-c", script, "analyze",
                        "--curves", str(curves), "--report", str(rp)],
                       check=True, env=env)
        reports.append(rp.read_bytes())
    assert reports[0] == reports[1]


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
