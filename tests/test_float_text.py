"""Float arrays leave the package through one writer.

`_kernels.g17_text` writes every float array of a report or an OBJ file;
Python's "%.17g" appears in code only where `_kernels.g17_field` falls back
to it for the values its digits cannot decide, and where `io_cli._dump_float`
writes a scalar.  A "%.17g" string or bytes constant anywhere else is a
second writer.  Docstrings and comments do not count.
"""

import ast
from pathlib import Path

import diams

SRC = Path(diams.__file__).resolve().parent

ALLOWED = {("_kernels.py", "g17_field"), ("io_cli.py", "_dump_float")}


def _docstrings(tree):
    """The constant nodes that are docstrings."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first.value


def _g17_constants(tree):
    """(innermost enclosing def or None, line) of every "%.17g" str or
    bytes constant outside docstrings."""
    docs = set(map(id, _docstrings(tree)))

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Constant) and id(node) not in docs
                and isinstance(node.value, (str, bytes))
                and ("%.17g" in node.value if isinstance(node.value, str)
                     else b"%.17g" in node.value)):
            yield where, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return list(visit(tree, None))


def g17_formats(src):
    """(module, enclosing def, line) of each "%.17g" constant in src/*.py
    outside ALLOWED."""
    return [(path.name, where, line)
            for path in sorted(Path(src).glob("*.py"))
            for where, line in _g17_constants(
                ast.parse(path.read_text(), str(path)))
            if (path.name, where) not in ALLOWED]


def test_g17_formats_only_in_the_fallback_and_the_scalar_writer():
    assert g17_formats(SRC) == []


def test_g17_formats_flags_templates_not_docstrings(tmp_path):
    (tmp_path / "io_cli.py").write_text(
        '"""Floats are written as "%.17g"."""\n'
        "# a comment: %.17g\n"
        "_ROW = '[%.17g,%.17g]'\n"
        "def _dump_float(x):\n"
        "    '''\"%.17g\" % x'''\n"
        "    return '%.17g' % x\n"
        "def _fill(template):\n"
        "    return template.replace(b'%.17g', b'%s')\n")
    assert g17_formats(tmp_path) == [("io_cli.py", None, 3),
                                     ("io_cli.py", "_fill", 8)]
