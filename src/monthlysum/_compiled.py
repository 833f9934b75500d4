"""scipy's compiled modules, loaded by path without running their subpackage's ``__init__``.

The package uses two compiled scipy functions: QUADPACK's ``qagse`` for the
quadrature oracle and Cephes' ``ndtri`` for the Monte Carlo draws. Importing
``scipy.integrate`` or ``scipy.special`` for either costs hundreds of modules
that neither function needs, so :func:`_load` executes the extension modules
themselves, each found by ``PathFinder`` in the subpackage's directory and
registered in ``sys.modules`` under its own name. A later ``import`` of the
subpackage reuses them, and a module already imported is reused here. If the
direct load fails (another scipy may lack a leaf, or a leaf may import its
package), the normal import runs instead, so the functions are the same
compiled objects on either route.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
from importlib.machinery import PathFinder

#: Held for every load: a compiled module executed twice at once raises
#: "Re-initialisation is not supported".
_lock = threading.Lock()


def _load(subpackage: str, leaves: tuple[str, ...]):
    """The compiled module ``scipy.<subpackage>.<leaves[-1]>``, after each leaf before it.

    The leaves are loaded in order, so that each finds in ``sys.modules`` the
    siblings it imports.
    """
    with _lock:
        try:
            import scipy  # deferred: only a quadrature or a draw needs it

            where = [os.path.join(scipy.__path__[0], subpackage)]
            for leaf in leaves:
                module = _load_leaf(f"scipy.{subpackage}.{leaf}", where)
        except Exception:  # the normal import, which runs the subpackage's __init__
            return importlib.import_module(f"scipy.{subpackage}.{leaves[-1]}")
    return module


def _load_leaf(name: str, where: list[str]):
    """``sys.modules[name]``, executed from the extension in ``where`` unless already there."""
    module = sys.modules.get(name)
    if module is None:
        spec = PathFinder.find_spec(name, where)
        if spec is None:
            raise ModuleNotFoundError(f"no module {name} in {where[0]}", name=name)
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except BaseException:
            # a half-made module (Cython registers itself before its body runs)
            # would meet the fallback's import
            if sys.modules.get(name) is module:
                del sys.modules[name]
            raise
        module = sys.modules.setdefault(name, module)
    return module
