"""Import-weight and concurrency guards on the package source."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

from checkout import SRC, checkout_env


def test_import_leaves_scipy_stats_unloaded():
    probe = "import sys, monthlysum; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=checkout_env(),
    )
    assert out.stdout.strip() == "False"


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
