"""Package exports that import their home module on first access.

A package ``__init__`` lists each public name once, under its home module::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.dag": "DagCore Sample SampleDAG",
    })

Importing the package imports none of its home modules.  Reading
``package.Name`` (or ``from package import Name``) imports ``Name``'s home
module then (PEP 562) and binds the name in the package, so later reads are
plain attribute lookups.  An unknown name raises ``AttributeError``, so
``hasattr`` and ``from package import missing`` behave as for any module,
and ``dir(package)`` lists the exports before they are read.  Subpackages
are not exports: ``import repro`` binds none, so import ``repro.kernel``
before reading ``repro.kernel.System``.
"""

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose ``table``
    maps each home module to its exported names, space-separated."""
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in table.items() for name in names.split()}

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value = getattr(importlib.import_module(home[name]), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__
