"""Output files are opened in one place.

Reports, curve files and OBJ text reach disk through
`_kernels.write_blocks`; every other `open` call in the package reads
("rb").  Any other mode, and any `write_bytes`/`write_text` call, is a
second file writer.
"""

import ast
from pathlib import Path

import diams

SRC = Path(diams.__file__).resolve().parent

ALLOWED = {("_kernels.py", "write_blocks")}


def _mode(call):
    """The mode of an open(path, mode) call: "r" if it is not given, None
    if it is not a constant."""
    if len(call.args) > 1:
        node = call.args[1]
    else:
        node = next((k.value for k in call.keywords if k.arg == "mode"), None)
        if node is None:
            return "r"
    return node.value if isinstance(node, ast.Constant) else None


def _file_calls(tree):
    """(innermost enclosing def or None, line, mode) of every call named
    open, write_bytes or write_text; the last two have mode None."""

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name == "open":
                yield where, node.lineno, _mode(node)
            elif name in ("write_bytes", "write_text"):
                yield where, node.lineno, None
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return list(visit(tree, None))


def file_writers(src):
    """(module, enclosing def, line) of each file call in src/*.py that
    does not open for reading in binary ("rb"), outside ALLOWED."""
    return [(path.name, where, line)
            for path in sorted(Path(src).glob("*.py"))
            for where, line, mode in _file_calls(
                ast.parse(path.read_text(), str(path)))
            if mode != "rb" and (path.name, where) not in ALLOWED]


def test_one_function_opens_output_files():
    assert file_writers(SRC) == []


def test_file_writers_flags_every_mode_but_rb(tmp_path):
    (tmp_path / "_kernels.py").write_text(
        "def write_blocks(path, blocks):\n"
        "    with open(path, 'wb') as fh:\n"
        "        fh.writelines(blocks)\n")
    (tmp_path / "io_cli.py").write_text(
        "import io\n"
        "def _read(path):\n"
        "    with open(path, mode='rb') as fh:\n"
        "        return fh.read()\n"
        "def _write(path, data):\n"
        "    with open(path, 'wb') as fh:\n"
        "        fh.write(data)\n"
        "def export(path, mode):\n"
        "    open(path, mode=mode)\n"
        "    io.open(path)\n"
        "    path.write_bytes(b'')\n"
        "    return open(path, encoding='ascii', mode='w')\n")
    assert file_writers(tmp_path) == [
        ("io_cli.py", "_write", 6), ("io_cli.py", "export", 9),
        ("io_cli.py", "export", 10), ("io_cli.py", "export", 11),
        ("io_cli.py", "export", 12)]
