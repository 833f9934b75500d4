"""Import-weight and concurrency guards on the package source, and the
names the benchmark and the demos import from it."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from checkout import SRC, checkout_env


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


def _package_imports(path: Path):
    """(module, name) per name a file imports from monthlysum; name None for ``import``."""
    def ours(module: str) -> bool:
        return module == "monthlysum" or module.startswith("monthlysum.")

    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if ours(alias.name))
        elif isinstance(node, ast.ImportFrom) and not node.level and ours(node.module or ""):
            yield from ((node.module, alias.name) for alias in node.names)


def _resolves(module: str, name: str | None) -> bool:
    """Whether ``from module import name`` (or ``import module``) would succeed."""
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")
        return True
    except ImportError:
        return False


@pytest.mark.parametrize("folder", ("perfbench", "demos"))
def test_benchmark_and_demo_imports_exist(folder):
    # reads the import statements only; no benchmark or demo code runs
    sources = sorted((SRC.parent / folder).glob("*.py"))
    assert sources
    imports = [
        (path.name, module, name) for path in sources for module, name in _package_imports(path)
    ]
    assert imports
    missing = [entry for entry in imports if not _resolves(*entry[1:])]
    assert not missing, f"names no longer in monthlysum: {missing}"
