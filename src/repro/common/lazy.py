"""Package namespaces that import their public names on first use.

A ``repro`` process should load only the code its command runs: a warm
``repro run figure6`` never touches the replay model, the compiler or the
loader, so it should not pay to import them.  Every package ``__init__``
therefore declares which submodule provides each public name and resolves
the name through a :pep:`562` module ``__getattr__`` the first time it is
read; ``from repro.sim import SystemSimulator`` and ``from repro import *``
keep working, and import only what they name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule, relative to ``package`` (``".config"``),
    to the public names it provides.  A name is imported from its submodule
    when first read and then bound on the package, so later reads are plain
    attribute lookups.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
