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


class _Where(ast.NodeVisitor):
    """A visitor that knows the class and function around the node it
    visits, dotted through any they are nested in (`here`)."""

    def __init__(self):
        self.where: list[str] = []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_ClassDef = visit_FunctionDef

    def here(self) -> str:
        return ".".join(self.where) or "<module>"


class _SolverErrorRaises(_Where):
    """Where each `raise SolverError` is."""

    def __init__(self):
        super().__init__()
        self.raises: list[str] = []

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
        if name == "SolverError":
            self.raises.append(self.here())


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


class _MethodCalls(_Where):
    """Where each call of a method named in `names` is, as `.name in where`."""

    def __init__(self, names):
        super().__init__()
        self.names, self.calls = names, []

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr in self.names:
            self.calls.append(f".{node.func.attr} in {self.here()}")
        self.generic_visit(node)


def method_calls(tree: ast.Module, names: set[str]) -> list[str]:
    visitor = _MethodCalls(names)
    visitor.visit(tree)
    return visitor.calls


def test_one_path_settles_a_trade():
    """Every trade settles through `_settle_trade`, which `execute_swap`,
    `curve_buy`, `curve_sell` and the arbitrage step share: a second
    caller of a family's `settle` or `apply` is a second trade path, which
    can settle by other rules.  A bonding pool primed at creation is the
    one state `apply` builds outside a trade."""
    found = {
        f"{path.name}: {call}"
        for path in SOURCES
        for call in method_calls(ast.parse(path.read_text(encoding="utf-8")), {"settle", "apply"})
    }
    assert found == {
        "engine.py: .settle in _settle_trade",
        "engine.py: .apply in _settle_trade",
        "engine.py: .apply in BondingFamily.materialize",
    }


def test_the_settlement_rule_sees_a_call():
    tree = ast.parse(
        "class Family:\n"
        "    def materialize(self, pool):\n"
        "        return self.apply(pool)\n"
        "def bond(family):\n"
        "    settle(1)\n"
        "    return family.settle(lambda: x.apply(2))\n"
        "state = Family().apply(3)\n"
    )
    assert method_calls(tree, {"settle", "apply"}) == [
        ".apply in Family.materialize", ".settle in bond", ".apply in bond", ".apply in <module>"
    ]


def test_the_trade_step_prices_each_order_kind_once():
    """`PricingFamily.trade` prices every quote, swap, arbitrage step and
    probe trial, with one branch per order kind: each names what the curve
    takes in and pays out, calls the curve's closed form once, and the fee
    rule is written once after both.  A second call of either closed form
    is a second branch, which can book the fee by other rules."""
    engine = ast.parse((PACKAGE / "engine.py").read_text(encoding="utf-8"))
    assert method_calls(engine, {"quote_in", "quote_out"}) == [
        ".quote_in in PricingFamily.trade", ".quote_out in PricingFamily.trade"
    ]


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


def family_leaks(tree: ast.Module) -> set[str]:
    """Each `*Family` name other than `PricingFamily` that a module imports
    from `.engine`, and each class it bases on a `*Family` name."""
    leaks = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "engine" and node.level == 1:
            leaks.update(
                f"import {alias.name}"
                for alias in node.names
                if alias.name.endswith("Family") and alias.name != "PricingFamily"
            )
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                if name.endswith("Family"):
                    leaks.add(f"class {node.name}({name})")
    return leaks


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_engine_defines_a_family(path):
    """Everything that differs between the pricing families lives in the
    family table in `engine.py`; a module that names one family's class, or
    subclasses a family, keeps a second table that a new family must also
    be written into."""
    if path.name == "engine.py":
        return
    found = family_leaks(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} reaches past PricingFamily: {sorted(found)}"


def test_the_family_rule_sees_an_import_and_a_subclass():
    tree = ast.parse(
        "from .engine import PricingFamily, ScoringFamily, quote\n"
        "from .curves import BondingFamily\n"
        "class _Probe(engine.AdoptionFamily):\n    pass\n"
        "class _Other(PricingFamily):\n    pass\n"
        "class _Plain(object):\n    pass\n"
    )
    assert family_leaks(tree) == {
        "import ScoringFamily", "class _Probe(AdoptionFamily)", "class _Other(PricingFamily)"
    }


def admissions(tree: ast.AST) -> set[str]:
    """Each place a tree names `check_opening` (imported, bare or as an
    attribute) or reads a `.check` attribute, as `line: name`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = f".{node.attr}"
        else:
            continue
        if name in ("check_opening", ".check_opening", ".check"):
            found.add(f"{node.lineno}: {name}")
    return found


def function_named(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_a_pool_is_admitted_once_where_it_is_built():
    """`materialize_pool` admits a config (`check_opening`, then the
    family's `open`), and a pool state checks its shape when it is built.
    The probe opens its pool through `materialize_pool` and the arbitrage
    step trades pool states, so neither runs an admission check of its
    own: a second one would let them refuse, or admit, other specs than
    every other command does."""
    probe = ast.parse((PACKAGE / "probe.py").read_text(encoding="utf-8"))
    sim = ast.parse((PACKAGE / "sim.py").read_text(encoding="utf-8"))
    assert admissions(probe) == set(), "probe.py runs an admission check of its own"
    assert admissions(function_named(sim, "arbitrage_step")) == set()


def test_the_admission_rule_sees_a_check():
    tree = ast.parse(
        "from .engine import check_opening, PricingFamily\n"
        "def step(pool):\n"
        "    family.check(pool.archetype, 2)\n"
        "    engine.check_opening(config)\n"
        "    family.check_probe()\n"
        "    return check_opening\n"
        "checked = check\n"
    )
    assert admissions(tree) == {
        "1: check_opening", "3: .check", "4: .check_opening", "6: check_opening"
    }
    assert admissions(function_named(tree, "step")) == {
        "3: .check", "4: .check_opening", "6: check_opening"
    }


class _LpShareCopies(_Where):
    """Where each copy of an `lp_shares` mapping is made, by its `copy`
    method or by `dict(...)`."""

    def __init__(self):
        super().__init__()
        self.copies: list[str] = []

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "copy":
            copied = func.value
        elif isinstance(func, ast.Name) and func.id == "dict" and len(node.args) == 1:
            copied = node.args[0]
        else:
            copied = None
        if isinstance(copied, ast.Attribute) and copied.attr == "lp_shares":
            self.copies.append(self.here())
        self.generic_visit(node)


def lp_share_copies(tree: ast.Module) -> list[str]:
    visitor = _LpShareCopies()
    visitor.visit(tree)
    return visitor.copies


def test_one_liquidity_rule():
    """The geometric-mean mint (`math.prod`) is written once, in the
    family's `open`, which a new pool and a deposit into a pool with no
    shares both mint by; and every deposit and withdrawal builds its
    successor state in `_lp_moved`, the one place that copies the LP
    holdings to change them.  A pool state built by hand freezes a copy
    of the holdings it is given, in its constructor."""
    engine = ast.parse((PACKAGE / "engine.py").read_text(encoding="utf-8"))
    assert method_calls(engine, {"prod"}) == [".prod in PricingFamily.open"]
    found = {
        f"{path.name}: {where}"
        for path in SOURCES
        for where in lp_share_copies(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {"engine.py: _lp_moved", "engine.py: PoolState.__post_init__"}


def test_the_liquidity_rule_sees_a_mint_and_a_copy():
    tree = ast.parse(
        "class Family:\n"
        "    def open(self, deposit):\n"
        "        return math.prod(deposit)\n"
        "def deposit(pool):\n"
        "    minted = math.prod(amounts) ** 0.5\n"
        "    shares = pool.lp_shares.copy()\n"
        "    return dict(pool.lp_shares), dict(pool.reserves), pool.reserves.copy()\n"
        "held = dict(state.lp_shares)\n"
    )
    assert method_calls(tree, {"prod"}) == [".prod in Family.open", ".prod in deposit"]
    assert lp_share_copies(tree) == ["deposit", "deposit", "<module>"]
