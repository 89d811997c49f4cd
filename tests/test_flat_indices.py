"""Entries of a mask are found with flatnonzero, never with nd nonzero.

numpy's `np.nonzero`, `np.argwhere` and `ndarray.nonzero()` return one
index array per dimension; on a 401 x 400 mask they took 0.53 ms against
0.055 ms for `np.flatnonzero` plus a divmod by the row length (numpy
2.4, 2-core x86-64).  Every module of the package finds entries the flat
way, in row-major order as before.  The guard reads the modules' syntax
trees, so a docstring or comment may name the functions.
"""

import ast
from pathlib import Path

import diams

SRC = Path(diams.__file__).resolve().parent
ND_NONZERO = {"nonzero", "argwhere"}


def nd_nonzero_calls(src):
    """(module, line, callee) of every call of nonzero or argwhere, as a
    function or a method, in the modules of the directory src."""
    out = []
    for path in sorted(Path(src).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in ND_NONZERO:
                out.append((path.name, node.lineno, ast.unparse(f)))
    return sorted(out)


def test_no_module_calls_nd_nonzero():
    assert nd_nonzero_calls(SRC) == []


def test_nd_nonzero_calls_flags_each_form(tmp_path):
    (tmp_path / "kernels.py").write_text(
        '"""Docstrings may say np.nonzero(mask)."""\n'
        "from numpy import argwhere\n"
        "def rows(mask, grid):\n"
        "    i, j = np.nonzero(mask)  # np.argwhere(mask) in a comment\n"
        "    k = np.flatnonzero(mask), np.count_nonzero(mask)\n"
        "    return grid.nonzero(), argwhere(mask)[0], numpy.argwhere(k)\n")
    (tmp_path / "clean.py").write_text(
        "def flat(mask):\n"
        "    return np.divmod(np.flatnonzero(mask), mask.shape[1])\n")
    assert nd_nonzero_calls(tmp_path) == [
        ("kernels.py", 4, "np.nonzero"),
        ("kernels.py", 6, "argwhere"),
        ("kernels.py", 6, "grid.nonzero"),
        ("kernels.py", 6, "numpy.argwhere"),
    ]
