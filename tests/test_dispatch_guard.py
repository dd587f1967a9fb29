"""A static guard on the float64 routes whose bits depend on numpy's SIMD dispatch.

Measured on numpy 2.4.6, 200 000 random float64 inputs each: `exp`, `log`
and `power` change bits when numpy's X86_V4 and AVX-512 loops are hidden,
while `cos`, `sin`, `sqrt` and complex `exp` keep them.  A package module
may use the allowed ones (`np.cos`, `np.sin`, `np.sqrt`, and `np.exp` of a
complex argument), but no syntax tells a complex argument from a real one,
so the guard refuses every `np.exp`, `np.log`, `np.log1p`, `np.expm1` and
`np.power`, and every `**` whose exponent is not a number literal, which
numpy runs as `power`.  The sites that stand are listed by module and
function, with their reason, so that any new one fails.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "qwtopo")

#: The numpy functions refused: the three measured to change bits with
#: dispatch, and their kin `log1p` and `expm1`, refused unmeasured.
REFUSED = {"exp", "log", "log1p", "expm1", "power"}

#: (module, function) -> the refused routes that stand there, until ROADMAP
#: item 1 computes the apparatus's loss factors by a route dispatch leaves alone.
STANDING = {
    ("apparatus", "_intensities"): ["** steps", "** steps"],  # (1 -+ loss) ** steps
    ("apparatus", "_readout"): ["** steps + 1"],  # the V-path gain (1 + loss) ** (steps + 1)
}


def _literal(node) -> bool:
    """A number literal, signed or not, as `2`, `-1` or `0.5`."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def refused_sites(tree) -> list:
    """(function, line, what) of each refused route in a module's syntax tree,
    function being the innermost enclosing def, "" at module level."""
    numpy = {"numpy"} | {alias.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                         for alias in node.names if alias.name == "numpy" and alias.asname}
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in REFUSED \
                and isinstance(node.value, ast.Name) and node.value.id in numpy:
            sites.append((function, node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            sites.extend((function, node.lineno, f"numpy.{alias.name}") for alias in node.names
                         if alias.name in REFUSED | {"*"})
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                and not _literal(node.right):
            sites.append((function, node.lineno, "** " + ast.unparse(node.right)))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow) \
                and not _literal(node.value):
            sites.append((function, node.lineno, "**= " + ast.unparse(node.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return sites


def package_sites() -> dict:
    """(module, function) -> [what] of every refused route in the package."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for function, _, what in refused_sites(tree):
                found.setdefault((name.removesuffix(".py"), function), []).append(what)
    return found


def test_no_module_takes_a_float_route_that_dispatch_changes():
    """The refused routes are those `STANDING` lists, function by function:
    a new site fails, and so does a listing left behind once its site is gone."""
    assert package_sites() == STANDING


@pytest.mark.parametrize("source, refused", [
    ("import numpy as np\ndef f(x):\n    return np.exp(x)", [("f", 3, "np.exp")]),
    ("import numpy as xp\nf = xp.log1p", [("", 2, "xp.log1p")]),
    ("from numpy import power", [("", 1, "numpy.power")]),
    ("def f(x, n):\n    return (1.0 + x) ** n", [("f", 2, "** n")]),
    ("def f(x):\n    x **= x\n    return x", [("f", 2, "**= x")]),
    ("import numpy as np\nimport math\nf = lambda x: np.cos(x) + np.sqrt(x) ** 2 + x ** -1"
     " + 2**20 + math.log(x) + np.square(x)", []),
])
def test_the_guard_refuses_each_route_it_names_and_passes_the_rest(source, refused):
    """The guard's own cases: each refused route is found with its function
    and line, under any alias of numpy, and `cos`, `sqrt`, `square`, a
    literal exponent and the scalar `math` functions pass."""
    assert refused_sites(ast.parse(source)) == refused
