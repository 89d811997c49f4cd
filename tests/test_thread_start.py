"""Threads start in one place.

`threading` and `concurrent.futures` (and `_thread` below them) are
imported only inside `_kernels._pool`, the thread pool of
`_kernels.blockwise`.  Any other import of them, at module level or in a
function, is a second place that could start threads.
"""

import ast
from pathlib import Path

import diams

SRC = Path(diams.__file__).resolve().parent

ALLOWED = {("_kernels.py", "_pool")}

THREAD_MODULES = ("threading", "_thread", "concurrent")


def _is_thread_module(name):
    return any(name == m or name.startswith(m + ".") for m in THREAD_MODULES)


def _thread_imports(tree):
    """(innermost enclosing def or None, line) of every import statement
    that names a thread module."""

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Import):
            if any(_is_thread_module(a.name) for a in node.names):
                yield where, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and _is_thread_module(node.module or ""):
                yield where, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return list(visit(tree, None))


def thread_imports(src):
    """(module, enclosing def, line) of each thread-module import in
    src/*.py outside ALLOWED."""
    return [(path.name, where, line)
            for path in sorted(Path(src).glob("*.py"))
            for where, line in _thread_imports(
                ast.parse(path.read_text(), str(path)))
            if (path.name, where) not in ALLOWED]


def test_one_function_imports_the_thread_modules():
    assert thread_imports(SRC) == []
    # and that function does import them
    tree = ast.parse((SRC / "_kernels.py").read_text())
    assert [where for where, _ in _thread_imports(tree)] == ["_pool"]


def test_thread_imports_flags_every_form(tmp_path):
    (tmp_path / "_kernels.py").write_text(
        "import functools\n"
        "def _pool():\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "    return ThreadPoolExecutor(1)\n"
        "def blockwise(fn, blocks):\n"
        "    import concurrent.futures as cf\n")
    (tmp_path / "io_cli.py").write_text(
        "import threading\n"
        "import os, _thread\n"
        "from concurrent import futures\n"
        "from . import threading_free\n"
        "from .threading import x\n"
        "import threadingish\n"
        "def run():\n"
        "    from threading import Thread\n")
    assert thread_imports(tmp_path) == [
        ("_kernels.py", "blockwise", 6), ("io_cli.py", None, 1),
        ("io_cli.py", None, 2), ("io_cli.py", None, 3),
        ("io_cli.py", "run", 8)]
