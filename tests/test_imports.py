"""Import-weight and concurrency guards on the package source, and the
names the benchmark and the demos import from it, with the keywords they
pass to them."""

from __future__ import annotations

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from checkout import SRC, checkout_env


#: The public API. A name added or removed here is a deliberate API change.
PUBLIC_NAMES = [
    "ContractSpec",
    "CumulantSet",
    "DegenerateVolatilityError",
    "EdgeworthParams",
    "GridPoint",
    "MarketParams",
    "McConfig",
    "McResult",
    "MomentSet",
    "NonpositiveVarianceError",
    "PriceBreakdown",
    "QuadratureConvergenceError",
    "ValidationReport",
    "aggregate",
    "bs_call",
    "capped_floored_moment_closed",
    "capped_moment_closed",
    "closed_form_moments",
    "cumulants_from_moments",
    "default_grid",
    "edgeworth_params",
    "empirical_cumulants",
    "moment_quadrature",
    "ms_correction_closed",
    "ms_correction_quadrature",
    "ms_leading",
    "price_ms",
    "quadrature_moments",
    "run_validation",
    "simulate_ms",
    "simulate_msln",
    "write_discrepancy_log",
]


def test_public_names_are_pinned():
    import monthlysum

    assert monthlysum.__all__ == PUBLIC_NAMES
    assert all(hasattr(monthlysum, name) for name in PUBLIC_NAMES)


def test_import_leaves_scipy_stats_unloaded():
    # a cold `mc` needs no quadrature; `price` loads scipy.integrate at its first one.
    # The package import leaves the CLI (and its parser) unbuilt.
    probe = (
        "import sys, monthlysum\n"
        "cli_loaded = 'monthlysum.cli' in sys.modules\n"
        "from monthlysum import cli\n"
        "def loaded(): return [m in sys.modules for m in ('scipy.stats', 'scipy.integrate')]\n"
        "states = [loaded()]\n"
        "cli.main(['mc', '--mc-paths', '4096'])\n"
        "states.append(loaded())\n"
        "cli.main(['price'])\n"
        "states.append(loaded())\n"
        "print(cli_loaded, states)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=checkout_env(),
    )
    states = out.stdout.strip().splitlines()[-1]
    assert states == "False [[False, False], [False, False], [False, True]]"


def test_default_price_leaves_scipy_integrate_unloaded():
    # price_ms defaults to the closed correction, so a quote, cap-only or
    # floored, at either order, never reaches the quadrature oracle
    probe = (
        "import sys, monthlysum\n"
        "from monthlysum import ContractSpec, MarketParams, price_ms\n"
        "market = MarketParams(0.03, 0.02, 0.2, 1.0, 12)\n"
        "for contract in (ContractSpec(cap=0.025), ContractSpec(cap=0.025, floor=-0.05)):\n"
        "    price_ms(contract, market)\n"
        "    price_ms(contract, market, order=0)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=checkout_env(),
    )
    assert out.stdout.strip().splitlines()[-1] == "False"


def _imported_modules(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
    return names


def test_no_module_imports_concurrent_futures():
    sources = sorted((SRC / "monthlysum").glob("*.py"))
    assert sources
    for path in sources:
        for module in _imported_modules(path):
            assert not module.startswith("concurrent"), f"{path.name} imports {module}"


@pytest.mark.parametrize("name", ("moments.py", "pricer.py"))
def test_closed_form_imports_no_numpy(name):
    # the closed form is scalar: its normal density is math.exp, so a price
    # does not depend on which exp kernel numpy dispatches to
    modules = _imported_modules(SRC / "monthlysum" / name)
    assert not [m for m in modules if m == "numpy" or m.startswith("numpy.")]


def test_only_contracts_holds_the_integer_rule():
    # contracts._require_integer is the one integer check: a copy elsewhere
    # drifts from it, as the moment order's copies had
    sources = sorted((SRC / "monthlysum").glob("*.py"))
    users = [
        path.name
        for path in sources
        if "numbers" in _imported_modules(path) or "Integral" in path.read_text(encoding="utf-8")
    ]
    assert users == ["contracts.py"]


def _package_imports(tree: ast.AST):
    """(module, name, local) per name a file imports from monthlysum.

    ``name`` is None for ``import``. ``local`` is the name the import binds,
    or the dotted module for an unaliased ``import monthlysum.x``, which no
    call's plain name matches.
    """
    def ours(module: str) -> bool:
        return module == "monthlysum" or module.startswith("monthlysum.")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if ours(alias.name):
                    yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level and ours(node.module or ""):
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def _imported(module: str, name: str | None):
    """The object ``from module import name`` (or ``import module``) binds."""
    mod = importlib.import_module(module)
    if name is None:
        return mod
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def _resolves(module: str, name: str | None) -> bool:
    """Whether ``from module import name`` (or ``import module``) would succeed."""
    try:
        _imported(module, name)
        return True
    except ImportError:
        return False


def _callee(func: ast.expr, bound: dict[str, object]):
    """The imported object a call's ``func`` names (``f`` or ``mod.f``), else None."""
    if isinstance(func, ast.Name):
        return bound.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = _callee(func.value, bound)
        return getattr(owner, func.attr, None)
    return None


def _unknown_keywords(path: Path, tree: ast.AST):
    """(file, line, callee, keyword) per keyword an imported callable does not take."""
    bound = {
        local: _imported(module, name)
        for module, name, local in _package_imports(tree)
        if _resolves(module, name)
    }
    for node in ast.walk(tree):
        target = _callee(node.func, bound) if isinstance(node, ast.Call) else None
        if not callable(target):
            continue
        params = inspect.signature(target).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in params):
            continue
        names = {p.name for p in params if p.kind is not p.POSITIONAL_ONLY}
        for kw in node.keywords:
            if kw.arg is not None and kw.arg not in names:
                yield path.name, node.lineno, ast.unparse(node.func), kw.arg


@pytest.mark.parametrize("folder", ("perfbench", "demos"))
def test_benchmark_and_demo_imports_exist(folder):
    # reads the source only; no benchmark or demo code runs
    sources = sorted((SRC.parent / folder).glob("*.py"))
    assert sources
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    imports = [
        (path.name, module, name)
        for path, tree in trees.items()
        for module, name, _ in _package_imports(tree)
    ]
    assert imports
    missing = [entry for entry in imports if not _resolves(*entry[1:])]
    assert not missing, f"names no longer in monthlysum: {missing}"
    unknown = [entry for path, tree in trees.items() for entry in _unknown_keywords(path, tree)]
    assert not unknown, f"keywords the callable does not take: {unknown}"
