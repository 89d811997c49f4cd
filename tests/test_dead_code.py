"""Every private module-level helper and every import of the package is
used by the package, and every function reads its parameters.

A private function, class or constant that only the tests read belongs in
tests/_helpers.py, and one that nothing reads is dead.  An import is used
when its own module reads the name or lists it in __all__.  Uses are name
and attribute loads in the package's syntax trees, so a name that appears
only in docstrings or comments does not count.  A parameter is read when
its function's body, nested functions included, loads its name; a
method's first parameter (self or cls) is exempt, and so are lambdas, the
package's curve evaluators, whose parameter is the evaluator protocol's.
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


def _imported(tree):
    """Names bound at module level by import statements."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _exported(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    yield sub.value


def _trees(src):
    """Syntax tree of each src/*.py, by file name."""
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(Path(src).glob("*.py"))}


def unused_private_names(src):
    """(module, name) of each private module-level name in src/*.py that no
    module of src loads."""
    trees = _trees(src)
    loaded = {name for tree in trees.values() for name in _loaded(tree)}
    return [(module, name) for module, tree in trees.items()
            for name in _defined(tree)
            if _private(name) and name not in loaded]


# (module, function, parameter) that may stay unread, each with its reason
UNREAD_PARAMETERS = {
    ("net_core.py", "__exit__", "error"): "the context manager protocol",
    ("net_core.py", "__exit__", "traceback"): "the context manager protocol",
    ("singularity.py", "classify_vertex", "f"):
        "perfbench/replica.py still passes the net's positions "
        "(ROADMAP item 5)",
    ("singularity.py", "classify_vertex", "singular_edge_set"):
        "perfbench/replica.py still passes the edge set (ROADMAP item 5)",
}


def _functions(tree):
    """(function, is a method) for each def in the tree."""
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, id(node) in methods


def unread_parameters(src):
    """(module, function, parameter) of each parameter of a def in
    src/*.py that its body never loads, a method's first one aside."""
    out = []
    for module, tree in _trees(src).items():
        for node, method in _functions(tree):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            loaded = {name for stmt in node.body for name in _loaded(stmt)}
            out += [(module, node.name, p) for p in params[method:]
                    if p not in loaded]
    return out


def unused_imports(src):
    """(module, name) of each module-level import in src/*.py that its own
    module neither loads nor lists in __all__."""
    return [(module, name) for module, tree in _trees(src).items()
            for name in _imported(tree)
            if name not in {*_loaded(tree), *_exported(tree)}]


def test_every_private_helper_is_used_in_the_package():
    assert unused_private_names(SRC) == []


def test_every_import_is_used_in_its_module():
    assert unused_imports(SRC) == []


def test_every_parameter_is_read_or_allowed_with_a_reason():
    unread = unread_parameters(SRC)
    assert [p for p in unread if p not in UNREAD_PARAMETERS] == []
    # an allowance whose parameter is gone or read again is stale
    assert sorted(UNREAD_PARAMETERS) == sorted(unread)


def test_unread_parameters_flags_only_unread_parameters(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""planted is named here, and in a comment, but never read."""\n'
        "# planted\n"
        "def f(used, planted, *args, key=None, **kw):\n"
        "    def g(x):\n"
        "        return used + x\n"
        "    planted = 1\n"
        "    return g(2) + len(args) + len(kw)\n"
        "def h(a, /, b, *, c):\n"
        "    return (lambda unread: a)(b)\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        return None\n"
        "    @classmethod\n"
        "    def n(cls, y):\n"
        "        return y\n")
    assert unread_parameters(tmp_path) == [("a.py", "f", "planted"),
                                           ("a.py", "f", "key"),
                                           ("a.py", "h", "c"),
                                           ("a.py", "m", "x")]


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


def test_unused_imports_flags_only_unread_imports(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""os is named here, and in a comment, but never read."""\n'
        "# os.path\n"
        "import os\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from math import pi, tau\n"
        "from json import dumps as _dumps, loads\n"
        "from .b import shown\n"
        "__all__ = ['shown', 'tau']\n"
        "def f():\n"
        "    return np.pi + pi + xml.dom.Node + _dumps(0)\n")
    (tmp_path / "b.py").write_text("from a import loads\nshown = loads\n")
    assert unused_imports(tmp_path) == [("a.py", "os"), ("a.py", "loads")]
