"""Lazy package exports (PEP 562).

A package ``__init__`` that imports every submodule to re-export its
public names makes *any* import of the package pay for all of them:
``import repro.ir`` used to load the event driver, the lockstep
simulator, the chaos harness and the replay/trace sinks for a fused run
that builds none of them.  :func:`lazy_exports` keeps the public surface
(``from repro.dataflow import FluxProgram``, ``dir()``, ``__all__``) and
defers each submodule import to the first access of one of its names.
"""

from __future__ import annotations

from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """Module-level ``(__getattr__, __dir__)`` for a package *namespace*
    (its ``globals()``) whose public names live in submodules.

    *exports* maps a submodule name to the public names it defines.  A
    name is resolved on first access — importing its submodule — and
    then bound in the namespace, so the hook runs once per name.
    """
    package = namespace["__name__"]
    home = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        sub = home.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f"{package}.{sub}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
