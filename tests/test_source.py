"""Source hygiene checks on the package itself, with the stdlib `ast` only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ammlab"

# the package's `__init__` imports are its public names, used by importers
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def private_names(tree: ast.Module) -> dict[str, int]:
    """Each single-underscore name a module's top-level statements define,
    with the line that defines it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [
                leaf.id
                for target in node.targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            ]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, reads as an attribute, or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_private_name_is_used():
    """A private helper that no module of the package refers to is dead code."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = set().union(*map(referenced_names, trees.values()))
    unused = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in private_names(tree).items()
        if name not in used
    ]
    assert not unused, f"private names nothing in the package uses: {unused}"


# the public curve functions: the quotes and the spot check their legs and
# amount on every call, which the package's hot paths must not pay again,
# and `invariant_value` is one call more than the spec's `invariant` that it
# forwards to
PUBLIC_CURVE_FUNCTIONS = frozenset(
    {"quote_exact_in", "quote_exact_out", "spot_price", "invariant_value"}
)


def called_names(tree: ast.Module) -> dict[str, int]:
    """Each name a call reads as its function, bare or as an attribute, with
    the line of the call."""
    calls = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                calls.setdefault(name, node.lineno)
    return calls


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_curves_calls_the_checked_curve_functions(path):
    """The pricing family calls the curve specs' closed forms and their
    `invariant` directly, on legs checked where they enter; a public curve
    function called from elsewhere in the package would put its checks, or
    a call that checks nothing, back on a hot path."""
    if path.name == "curves.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {
        name: line for name, line in called_names(tree).items() if name in PUBLIC_CURVE_FUNCTIONS
    }
    assert not found, f"{path.name} calls public curve functions: {found}"


def test_the_checked_curve_function_rule_sees_a_call():
    tree = ast.parse(
        "from .curves import spot_price\nx = curves.quote_exact_in(1)\ny = spot_price(2)\n"
        "z = invariant_value(spec, r)\nw = spec.invariant(r)\n"
    )
    assert set(called_names(tree)) & PUBLIC_CURVE_FUNCTIONS == {
        "quote_exact_in", "spot_price", "invariant_value"
    }


def builtin_sum_calls(tree: ast.Module) -> list[int]:
    """The line of each call of the builtin `sum`, by its bare name."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_builtin_sum(path):
    """From Python 3.12 `sum()` compensates its rounding, so a sum of
    floats has other bits there than on 3.10 and 3.11; the package sums
    with `math.fsum`, exact on every Python, or with a left-to-right loop."""
    found = builtin_sum_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} calls the builtin sum() on lines {found}"


def test_the_builtin_sum_rule_sees_a_call():
    tree = ast.parse("x = sum(v)\ny = math.fsum(v)\nz = totals.sum()\nw = [sum(u) for u in v]\n")
    assert builtin_sum_calls(tree) == [1, 4]


class _SolverErrorRaises(ast.NodeVisitor):
    """The function around each `raise SolverError`, dotted through any
    functions it is nested in."""

    def __init__(self):
        self.where: list[str] = []
        self.raises: list[str] = []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
        if name == "SolverError":
            self.raises.append(".".join(self.where) or "<module>")


def solver_error_raises(tree: ast.Module) -> list[str]:
    visitor = _SolverErrorRaises()
    visitor.visit(tree)
    return visitor.raises


def test_only_the_d_solve_raises_solver_error():
    """Every quote and every arbitrage size is a closed form; the one root
    solve left is the product-sum level D of three or more tokens, whose
    Newton lives in `solve_stableswap_d`.  A `raise SolverError` anywhere
    else is a generic solver coming back."""
    found = {
        f"{path.name}:{where}"
        for path in SOURCES
        for where in solver_error_raises(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {"curves.py:solve_stableswap_d"}


def test_the_solver_error_rule_sees_a_raise():
    tree = ast.parse(
        "def solve():\n"
        "    def step():\n"
        "        raise core.SolverError('nested')\n"
        "    raise SolverError\n"
    )
    assert solver_error_raises(tree) == ["solve.step", "solve"]


def private_engine_imports(tree: ast.Module) -> set[str]:
    """The single-underscore names a module imports from `.engine`."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "engine" and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_sim_reaches_the_engine_through_its_public_functions():
    """Each pool state binds its pricing family once, when it is built, so
    the simulator trades through the public `execute_swap` and prices the
    arbitrage step's own trade only to settle it: no private pricing path
    runs past what wraps the public functions."""
    tree = ast.parse((PACKAGE / "sim.py").read_text(encoding="utf-8"))
    assert private_engine_imports(tree) <= {"_settle_trade"}


def test_the_private_engine_import_rule_sees_an_import():
    tree = ast.parse("from .engine import _priced, quote\nfrom .core import _x\n")
    assert private_engine_imports(tree) == {"_priced"}
