"""Import-weight and concurrency guards on the package source."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "monthlysum"


def test_import_leaves_scipy_stats_unloaded():
    probe = "import sys, monthlysum; print('scipy.stats' in sys.modules)"
    # put this checkout's src/ first so the probe imports the code under test
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=env,
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
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for module in _imported_modules(path):
            assert not module.startswith("concurrent"), f"{path.name} imports {module}"
