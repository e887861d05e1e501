"""Lazy package exports (PEP 562): one table per package, one mechanism.

A package ``__init__`` names each export once, in a table from the
module it comes from to its names, written as an import statement
would write them::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".": ("dsp",),                                  # a submodule
        ".fm0": ("Fm0Decoder", "encode_levels as fm0_encode_levels"),
        "..errors": ("FaultPlanError",),
    })

Importing the package imports none of those modules.  The first read
of a name imports its module and stores the value on the package, so
later reads are plain attribute lookups; a process therefore loads
only the modules it reaches.  ``__all__`` is the table's names in the
order written.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from ``table``.

    A key is a module relative to ``package`` (``"."`` for the package
    itself, whose names are then its submodules); each name is
    ``"attr"`` or ``"attr as alias"``.  A name listed twice raises.
    """
    sources: Dict[str, Tuple[str, str]] = {}
    for module, names in table.items():
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            name = alias or attr
            if name in sources:
                raise ValueError(f"{package} exports {name!r} twice")
            sources[name] = (module, attr)

    def __getattr__(name: str) -> Any:
        try:
            module, attr = sources[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module == ".":
            value = importlib.import_module(f".{attr}", package)
        else:
            value = getattr(importlib.import_module(module, package), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(sources))

    return __getattr__, __dir__, list(sources)
