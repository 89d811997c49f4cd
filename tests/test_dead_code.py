"""Every private module-level helper of the package is used by the package.

A private function, class or constant that only the tests read belongs in
tests/_helpers.py, and one that nothing reads is dead.  Uses are name and
attribute loads in the package's syntax trees, so a name that appears only
in docstrings or comments does not count.
"""

import ast
from pathlib import Path

import diams

SRC = Path(diams.__file__).resolve().parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined(tree):
    """Private names bound at module level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _loaded(tree):
    """Names and attributes read anywhere in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr


def unused_private_names(src):
    """(module, name) of each private module-level name in src/*.py that no
    module of src loads."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(src).glob("*.py"))}
    loaded = {name for tree in trees.values() for name in _loaded(tree)}
    return [(module, name) for module, tree in trees.items()
            for name in _defined(tree)
            if _private(name) and name not in loaded]


def test_every_private_helper_is_used_in_the_package():
    assert unused_private_names(SRC) == []


def test_unused_private_names_flags_only_unread_helpers(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""_dead_doc is named here, and in a comment, but never read."""\n'
        "# _dead_doc\n"
        "_USED = 1\n"
        "_dead_doc = 2\n"
        "__all__ = []\n"
        "def _called():\n"
        "    return _USED\n"
        "class _Unused:\n"
        "    pass\n")
    (tmp_path / "b.py").write_text("import a\na._called()\n")
    assert unused_private_names(tmp_path) == [("a.py", "_dead_doc"),
                                              ("a.py", "_Unused")]
