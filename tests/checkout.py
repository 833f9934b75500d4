"""What two or more test files share: the default inputs, the benchmark's quote
ranges, a Monte Carlo pin, and fresh interpreters that run this checkout's code,
with source snippets for their probes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

from monthlysum import ContractSpec, MarketParams, McResult

SRC = Path(__file__).resolve().parent.parent / "src"

#: The CLI's default market and contract, and that contract with a floor.
MARKET = MarketParams(rate=0.03, dividend_yield=0.02, sigma=0.20, term=1.0, periods=12)
CAP_ONLY = ContractSpec(cap=0.025)
CAP_FLOOR = ContractSpec(cap=0.025, floor=-0.05)

#: ``simulate_ms(CAP_ONLY, MARKET, McConfig(paths=10_000, seed=42))``, bit for
#: bit: two full engine blocks and a partial third.
MS_PIN = McResult(0.008112822472706211, 0.00026454484491526137, 10_000)

#: The benchmark's quote ranges (perfbench's ``quote`` workload), as
#: Hypothesis strategies: contracts, and markets with ``term`` replaceable.
CONTRACTS = st.builds(
    ContractSpec, cap=st.floats(0.005, 0.10), floor=st.one_of(st.none(), st.floats(-0.10, 0.0))
)


def markets(term=st.floats(1.0, 10.0)):
    return st.builds(
        MarketParams,
        rate=st.floats(0.0, 0.06),
        dividend_yield=st.floats(0.0, 0.03),
        sigma=st.floats(0.05, 0.5),
        term=term,
        periods=st.sampled_from((4, 12, 52, 252)),
    )


#: numpy's AVX-512 kernels, for NPY_DISABLE_CPU_FEATURES to switch off;
#: naming one the CPU lacks is accepted.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

#: Defines ``refuse(package)``: from then on, importing ``package`` or any of
#: its submodules raises ``ModuleNotFoundError``.
REFUSE = (
    "import sys\n"
    "def refuse(package):\n"
    "    class Refuse:\n"
    "        def find_spec(self, name, path=None, target=None):\n"
    "            if name == package or name.startswith(package + '.'):\n"
    "                raise ModuleNotFoundError(f'{name} is blocked', name=name)\n"
    "    sys.meta_path.insert(0, Refuse())\n"
)

#: Defines ``hide(*names)``: from then on, ``_compiled``'s direct load finds
#: none of the named compiled modules (as another scipy may lay them out
#: elsewhere) and takes its fallback.
HIDE = (
    "from importlib.machinery import PathFinder\n"
    "from monthlysum import _compiled\n"
    "def hide(*names):\n"
    "    class Missing:\n"
    "        @staticmethod\n"
    "        def find_spec(name, path):\n"
    "            return None if name in names else PathFinder.find_spec(name, path)\n"
    "    _compiled.PathFinder = Missing\n"
)

#: Reads ``pairs``, a list of (ContractSpec, MarketParams), from the JSON
#: list of [contract dict, market dict] on stdin.
PAIRS = (
    "import json, sys\n"
    "from monthlysum import ContractSpec, MarketParams\n"
    "pairs = [(ContractSpec(**c), MarketParams(**m)) for c, m in json.load(sys.stdin)]\n"
)


def checkout_env() -> dict[str, str]:
    """``os.environ`` with this checkout's ``src/`` first on ``PYTHONPATH``."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def python(*args: str, stdin: str | None = None, cwd=None, preexec_fn=None, **env: str):
    """``[sys.executable, *args]`` on this checkout, output captured as bytes, 120 s at most.

    ``stdin`` is sent as the child's input; ``env`` adds to :func:`checkout_env`.
    """
    return subprocess.run(
        [sys.executable, *args],
        input=None if stdin is None else stdin.encode(),
        capture_output=True,
        timeout=120,
        env=dict(checkout_env(), **env),
        cwd=cwd,
        preexec_fn=preexec_fn,
    )


def probe(source: str, *argv: str, **kwargs) -> str:
    """The stdout of ``python -c source *argv``, which must exit 0; its stderr shows if not."""
    proc = python("-c", source, *argv, **kwargs)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()
