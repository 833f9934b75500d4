"""Import-weight and concurrency guards on the package source, and the
names the benchmark and the demos import from it, with the arguments they
pass to them."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
from pathlib import Path

import pytest

from checkout import SRC, probe


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
    # a cold `mc` needs no quadrature, and `price`'s quadrature correction
    # loads QUADPACK's extension alone, not scipy.integrate. The package
    # import leaves the CLI (and its parser) unbuilt.
    source = (
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
    out = probe(source)
    states = out.strip().splitlines()[-1]
    assert states == "False [[False, False], [False, False], [False, False]]"


#: scipy.integrate and the subpackages its import pulls in
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse")


@pytest.mark.parametrize(
    "argv, loads",
    (
        (["price"], []),
        (["price", "--floor", "-0.05", "--format", "csv"], []),
        (["sweep", "--axis", "cap", "--from", "0.01", "--to", "0.05", "--step", "0.01"], []),
        (["validate"], []),
        (["mc", "--mc-paths", "4096"], []),
    ),
)
def test_cold_commands_load_only_the_scipy_they_use(argv, loads):
    # the quadrature oracle needs QUADPACK's compiled module alone, and the
    # Monte Carlo draws' ndtri scipy.special's compiled modules alone
    source = (
        "import contextlib, io, sys\n"
        "from monthlysum import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(code, [m for m in {HEAVY_SCIPY!r} if m in sys.modules])\n"
    )
    out = probe(source)
    assert out.strip().splitlines()[-1] == f"0 {loads!r}"


def test_default_price_leaves_scipy_integrate_unloaded():
    # price_ms defaults to the closed correction, so a quote, cap-only or
    # floored, at either order, never reaches the quadrature oracle
    source = (
        "import sys, monthlysum\n"
        "from monthlysum import ContractSpec, MarketParams, price_ms\n"
        "market = MarketParams(0.03, 0.02, 0.2, 1.0, 12)\n"
        "for contract in (ContractSpec(cap=0.025), ContractSpec(cap=0.025, floor=-0.05)):\n"
        "    price_ms(contract, market)\n"
        "    price_ms(contract, market, order=0)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    out = probe(source)
    assert out.strip().splitlines()[-1] == "False"


def test_closed_form_leaves_scipy_special_unloaded_until_a_draw():
    # the normal CDF is a Cephes port on math.exp; only the Monte Carlo
    # draws' ndtri loads scipy.special's compiled _ufuncs, at the first one,
    # and never the scipy.special package
    source = (
        "import sys, monthlysum\n"
        "from monthlysum import ContractSpec, MarketParams, price_ms\n"
        "from monthlysum.rng import path_normals\n"
        "market = MarketParams(0.03, 0.02, 0.2, 1.0, 12)\n"
        "for contract in (ContractSpec(cap=0.025), ContractSpec(cap=0.025, floor=-0.05)):\n"
        "    price_ms(contract, market)\n"
        "    price_ms(contract, market, order=0)\n"
        "def loaded(): return [m in sys.modules for m in ('scipy.special', 'scipy.special._ufuncs')]\n"
        "states = [loaded()]\n"
        "path_normals(1, 0, 2, 3, 0)\n"
        "states.append(loaded())\n"
        "print(states)\n"
    )
    out = probe(source)
    assert out.strip().splitlines()[-1] == "[[False, False], [False, True]]"


def _imports(tree: ast.AST):
    """(node, module, name, local) per name an import binds.

    A relative import reads as monthlysum's: ``from .x import y`` gives module
    ``monthlysum.x``, ``from . import x`` gives ``monthlysum`` and name ``x``.
    ``name`` is None for ``import``. ``local`` is the name the import binds,
    or the dotted module for an unaliased ``import a.b``, which no call's
    plain name matches.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                module = "monthlysum" + (f".{module}" if module else "")
            for alias in node.names:
                yield node, module, alias.name, alias.asname or alias.name


def _imported_modules(path: Path) -> set[str]:
    return {module for _, module, _, _ in _imports(ast.parse(path.read_text(encoding="utf-8")))}


def test_only_rng_starts_a_thread():
    # rng's one ndtri helper is the package's only thread; a pool over whole
    # blocks fought over the GIL and lost. _compiled takes threading's Lock
    # alone, to load each compiled scipy module once
    concurrency = {"threading", "_thread", "queue", "concurrent", "multiprocessing"}
    sources = sorted((SRC / "monthlysum").glob("*.py"))
    users = [
        path.name
        for path in sources
        if any(module.split(".")[0] in concurrency for module in _imported_modules(path))
    ]
    assert users == ["_compiled.py", "rng.py"]
    compiled = SRC / "monthlysum" / "_compiled.py"
    assert _imported_modules(compiled) & concurrency == {"threading"}
    used = {
        node.attr
        for node in ast.walk(ast.parse(compiled.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "threading"
    }
    assert used == {"Lock"}


def test_montecarlo_takes_only_the_walk_from_rng():
    # rng owns the draw schedule (helper, look-ahead, split, scratch roles): montecarlo
    # reads blocks from its one walk and borrows a scratch array for its returns
    tree = ast.parse((SRC / "monthlysum" / "montecarlo.py").read_text(encoding="utf-8"))
    names = [
        name or module
        for _, module, name, _ in _imports(tree)
        if module == "monthlysum.rng" or (module, name) == ("monthlysum", "rng")
    ]
    assert sorted(names) == ["BLOCK", "_blocks", "_scratch_array"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_threads_start_a_thread_only_where_it_can_pay():
    # threads=1, or threads=2 on one allowed CPU, starts nothing; threads=2 on
    # two CPUs starts the one helper, and later calls reuse it
    source = (
        "import os, threading\n"
        "from monthlysum import ContractSpec, MarketParams, McConfig, simulate_ms\n"
        "market = MarketParams(0.03, 0.02, 0.2, 1.0, 12)\n"
        "args = ContractSpec(cap=0.025), market, McConfig(paths=5000)\n"
        "cpus = os.sched_getaffinity(0)\n"
        "counts = [threading.active_count()]\n"
        "simulate_ms(*args, threads=1)\n"
        "counts.append(threading.active_count())\n"
        "os.sched_setaffinity(0, {min(cpus)})\n"
        "simulate_ms(*args, threads=2)\n"
        "counts.append(threading.active_count())\n"
        "os.sched_setaffinity(0, cpus)\n"
        "for _ in range(2):\n"
        "    simulate_ms(*args, threads=2)\n"
        "    counts.append(threading.active_count())\n"
        "print(counts)\n"
    )
    out = probe(source)
    helper = 1 if len(os.sched_getaffinity(0)) >= 2 else 0
    assert out.strip().splitlines()[-1] == str([1, 1, 1, 1 + helper, 1 + helper])


@pytest.mark.parametrize("name", ("moments.py", "pricer.py", "_reference.py", "_compiled.py"))
def test_closed_form_imports_no_numpy(name):
    # the closed form and its references are scalar: the normal density is
    # math.exp, so a price does not depend on which exp kernel numpy
    # dispatches to
    modules = _imported_modules(SRC / "monthlysum" / name)
    assert not [m for m in modules if m == "numpy" or m.startswith("numpy.")]


@pytest.mark.parametrize("name", ("moments.py", "pricer.py"))
def test_closed_form_names_no_scipy_module(name):
    # the closed form runs on the standard library alone, at any depth of the file
    modules = _imported_modules(SRC / "monthlysum" / name)
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def _sibling_imports(tree: ast.AST):
    """(node, module) per package module an import names.

    The module is ``x`` for ``from .x``, ``from . import x``,
    ``from monthlysum.x`` and ``import monthlysum.x``.
    """
    for node, module, name, _ in _imports(tree):
        if module.startswith("monthlysum."):
            yield node, module.split(".")[1]
        elif module == "monthlysum" and node.level:
            yield node, name


def _package_sources() -> dict[str, ast.AST]:
    sources = sorted((SRC / "monthlysum").glob("*.py"))
    assert sources
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def test_no_function_imports_a_package_module():
    # every package import sits at module level, so the import order is the
    # one the module headers state and no late import hides a cycle
    late = []
    for name, tree in _package_sources().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [(f"{name}.py", node.lineno) for node, _ in _sibling_imports(fn)]
    assert not late, f"function-level package imports: {late}"


def test_package_imports_have_no_cycle():
    # contracts -> moments -> edgeworth -> _reference -> pricer -> validation
    graph = {
        name: {module for _, module in _sibling_imports(tree)} - {name}
        for name, tree in _package_sources().items()
    }
    done: set[str] = set()
    while len(done) < len(graph):
        ready = {name for name, deps in graph.items() if name not in done and deps <= done}
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done |= ready
    assert "_reference" in graph["pricer"] and "_reference" in graph["validation"]


@pytest.mark.parametrize("name", ("moments", "edgeworth"))
def test_closed_form_imports_nothing_from_the_reference(name):
    # the oracle and the printed transcriptions check the closed form; the
    # closed form does not reach back into them
    modules = {module for _, module in _sibling_imports(_package_sources()[name])}
    assert "_reference" not in modules


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
    """(module, name, local) per name a file imports from monthlysum (see :func:`_imports`)."""
    for _, module, name, local in _imports(tree):
        if module == "monthlysum" or module.startswith("monthlysum."):
            yield module, name, local


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


def _unbound_calls(path: Path, tree: ast.AST):
    """(file, line, callee, error) per call an imported callable's signature refuses.

    Each argument is a placeholder. A call that unpacks ``*`` or ``**`` is
    checked with ``bind_partial`` on the positionals before its first ``*``
    and its named keywords, since the unpacked values may fill any parameter.
    """
    bound = {
        local: _imported(module, name)
        for module, name, local in _package_imports(tree)
        if _resolves(module, name)
    }
    for node in ast.walk(tree):
        target = _callee(node.func, bound) if isinstance(node, ast.Call) else None
        if not callable(target):
            continue
        signature = inspect.signature(target)
        starred = [isinstance(arg, ast.Starred) for arg in node.args] + [True]
        args = [None] * starred.index(True)
        keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        unpacks = len(args) < len(node.args) or len(keywords) < len(node.keywords)
        try:
            (signature.bind_partial if unpacks else signature.bind)(*args, **keywords)
        except TypeError as exc:
            yield path.name, node.lineno, ast.unparse(node.func), str(exc)


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
    unbound = [entry for path, tree in trees.items() for entry in _unbound_calls(path, tree)]
    assert not unbound, f"calls the callable's signature refuses: {unbound}"
