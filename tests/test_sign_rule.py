"""Every orient sign is decided by one rule, in `_kernels`.

`_kernels.decided_sign` (one pair) and `_kernels.undecided` (arrays) hold
the dead-zone test |d| > tol * mag and the overflow check on its
magnitudes; `_kernels.certified` holds its bound form, low > tol * bound.
In `net_core` and `singularity` a comparison of an absolute value against
a product (the dead zone's shape), a comparison against a product with a
tolerance in it (the bound's shape), or a `require_finite` call is a
second copy of that rule.  The one `require_finite` call left there checks
`integrate_net`'s positions, which are not a magnitude.
"""

import ast
from pathlib import Path

import diams

SRC = Path(diams.__file__).resolve().parent

MODULES = ("net_core.py", "singularity.py")
ALLOWED = {("net_core.py", "integrate_net", "require_finite(positions)")}


def _is_abs(node):
    """abs(x), np.abs(x) or np.absolute(x)."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return ((isinstance(f, ast.Name) and f.id == "abs")
            or (isinstance(f, ast.Attribute)
                and f.attr in ("abs", "absolute")))


def _is_product(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def _is_tolerance_product(node):
    """A product with a tolerance (a name holding "tol" or "eps") in it."""
    return _is_product(node) and any(
        isinstance(n, ast.Name) and ("tol" in n.id or "eps" in n.id)
        for n in ast.walk(node))


def _rule_copies(tree):
    """(innermost enclosing def or None, line, what) of every dead-zone
    or bound comparison and every require_finite call in tree."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(_is_abs, sides)) and any(map(_is_product, sides)):
                yield where, node.lineno, "dead-zone comparison"
            elif any(map(_is_tolerance_product, sides)):
                yield where, node.lineno, "bound comparison"
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name == "require_finite":
                args = ", ".join(map(ast.unparse, node.args[:1]))
                yield where, node.lineno, f"require_finite({args})"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return list(visit(tree, None))


def sign_rule_copies(src):
    """(module, enclosing def, line, what) of each copy of the sign rule
    in src's MODULES outside ALLOWED."""
    out = []
    for name in MODULES:
        path = Path(src) / name
        if not path.exists():
            continue
        for where, line, what in _rule_copies(
                ast.parse(path.read_text(), str(path))):
            if (name, where, what) not in ALLOWED:
                out.append((name, where, line, what))
    return out


def test_the_sign_rule_is_written_only_in_kernels():
    assert sign_rule_copies(SRC) == []


def test_sign_rule_copies_flags_dead_zones_and_magnitude_checks(tmp_path):
    (tmp_path / "net_core.py").write_text(
        "def integrate_net(net):\n"
        "    require_finite(positions, 'integrated positions')\n"
        "    _kernels.require_finite(mag, 'mag')\n"
        "def check(d, mag, tol):\n"
        "    bad = ~(np.abs(d) > tol * mag)\n"
        "    return abs(d) <= mag, abs(d - e) >= abs(f - g), bad\n"
        "def rows(low, err, bound, tol, scale):\n"
        "    ok = low - err > tol * bound\n"
        "    return ok, low > 1e-12 * scale, floor * 2 < low\n")
    (tmp_path / "singularity.py").write_text(
        '"""Docstrings may say abs(d) > tol * mag."""\n'
        "def sign(d, mag, tol):\n"
        "    if tol * mag < abs(d):\n"
        "        return 1\n"
        "    require_finite(mag, 'orientation test')\n"
        "def metric(low, bound, eps_degenerate):\n"
        "    return (max(eps_degenerate, 1.0) * bound < low).all()\n")
    (tmp_path / "_kernels.py").write_text(
        "def undecided(d, mag, tol, what):\n"
        "    return ~(np.abs(d) > tol * mag)\n"
        "def certified(low, bound, tol):\n"
        "    return low > tol * bound\n")
    assert sign_rule_copies(tmp_path) == [
        ("net_core.py", "integrate_net", 3, "require_finite(mag)"),
        ("net_core.py", "check", 5, "dead-zone comparison"),
        ("net_core.py", "rows", 8, "bound comparison"),
        ("singularity.py", "sign", 3, "dead-zone comparison"),
        ("singularity.py", "sign", 5, "require_finite(mag)"),
        ("singularity.py", "metric", 7, "bound comparison"),
    ]
