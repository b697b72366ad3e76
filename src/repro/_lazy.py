"""Package exports that load on first use (PEP 562 module ``__getattr__``).

Every :mod:`repro` package ``__init__`` binds the ``__getattr__`` and
``__dir__`` that :func:`attach` builds over a table mapping each
exported name to the module that defines it. So ``import repro.api``
loads nothing below it, and ``from repro.api import ReproEngine`` loads
only the modules ``ReproEngine`` needs. A served process never loads
the SQL checker, the user-study simulator, the bench harnesses, the
training, online and deployment loops, or the provenance, highlight,
sampling and rendering code before a highlight is read, and it never
loads ``sqlite3``. Scientific Python's SPEC 1 describes the same idea.

The price: the first access to a lazily exported name pays its module's
import at that point (the first ``engine.server()``, the first process
pool, the first SQL check), and a broken optional module now fails at
its first use, not at ``import repro``.

One pitfall: importing a submodule binds the package attribute of the
same name to that module. A package that exports a non-module name equal
to one of its submodule names would see its export shadowed whenever the
submodule is imported before the name is first read. :mod:`repro.core`
exports the function ``utterance`` and has the submodule
``repro.core.utterance``, so it imports that module's exports eagerly,
before anything else can import the submodule (every process that
parses loads it anyway), and leaves the rest lazy.
``tests/test_public_api.py`` checks in a fresh interpreter that every
exported name is the object its defining module binds.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``'s lazy exports.

    ``exports`` maps a module, relative to ``package`` (``".engine"``,
    ``"..dcs.memo"``), to the names the package re-exports from it. A
    name in the table is read from its module on first access. Any other
    name but a dunder loads the submodule of that name, if there is one,
    as an eager ``from . import name`` did. Either way the value is then
    bound in the package namespace, so a later read is a plain attribute
    lookup.
    """
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        if name in origin:
            value = getattr(importlib.import_module(origin[name], package), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f".{name}", package)
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        namespace = vars(sys.modules[package])
        return sorted(set(namespace) | set(origin) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
