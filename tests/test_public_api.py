"""The public API surface: everything advertised in ``__all__`` exists."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.tables",
    "repro.dcs",
    "repro.sql",
    "repro.core",
    "repro.parser",
    "repro.dataset",
    "repro.users",
    "repro.interface",
    "repro.perf",
    "repro.retrieval",
    "repro.compose",
    "repro.serving",
    "repro.api",
]

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter and decode the JSON it prints."""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_imports(package_name):
    module = importlib.import_module(package_name)
    assert module is not None


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{package_name} should declare __all__"
    for name in exported:
        assert hasattr(module, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_dir_lists_exports_and_unknown_names_stay_attribute_errors(package_name):
    module = importlib.import_module(package_name)
    assert set(module.__all__) <= set(dir(module))
    assert not hasattr(module, "no_such_name")


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_docstrings_on_public_modules():
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        assert module.__doc__, f"{package_name} lacks a module docstring"


def test_core_entry_points_exist():
    from repro.core import explain, highlight, utterance, compute_provenance
    from repro.parser import SemanticParser
    from repro.interface import NLInterface

    assert callable(explain) and callable(highlight)
    assert callable(utterance) and callable(compute_provenance)
    assert SemanticParser and NLInterface


#: Imports every repro module, then checks each package's ``__all__``
#: against the top-level definitions in the modules' source: a non-module
#: export must be the very object a defining module binds, and a module
#: export must be the submodule of that name.
_EXPORT_IDENTITY = """
import ast, importlib, inspect, json, pkgutil, sys
import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
modules = {name: module for name, module in sys.modules.items()
           if name == "repro" or name.startswith("repro.")}

def top_level_names(module):
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            for leaf in getattr(target, "elts", [target]):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
    return names

defined = {name: top_level_names(module) for name, module in modules.items()}
problems = []
for package, module in sorted(modules.items()):
    if not hasattr(module, "__path__"):
        continue
    for export in module.__all__:
        value = getattr(module, export)
        definers = [name for name, names in defined.items() if export in names]
        if definers:
            if not any(value is getattr(modules[name], export) for name in definers):
                problems.append(f"{package}.{export} is {value!r}, not the object "
                                f"{definers} define")
        elif value is not modules.get(f"{package}.{export}"):
            problems.append(f"{package}.{export} is neither defined nor a submodule")
print(json.dumps({"modules": len(modules), "problems": problems}))
"""


def test_every_export_is_the_object_its_module_defines():
    """A package export is never shadowed by a same-named submodule.

    ``repro.core`` exports the function ``utterance`` and has the
    submodule ``repro.core.utterance``; importing every module first
    gives a lazily exported name every chance to be shadowed.
    """
    report = run_fresh(_EXPORT_IDENTITY)
    assert report["modules"] > 80
    assert report["problems"] == []


#: A minimal serving session: a thread-backend engine sized for two
#: workers over one in-memory table, two concurrent routed reads (one
#: dispatcher batch of two units) and one corpus-wide read through
#: ``aquery``, the threads alive while the server runs, the stats reads
#: an operator makes, the modules loaded by then, and last one
#: explanation's text, which reads its highlight.
_SERVING_SESSION = """
import asyncio, json, sys, threading
from repro.api import QueryRequest, ReproEngine
from repro.interface import NLInterface
from repro.parser import LogLinearModel, SemanticParser
from repro.tables import Table

table = Table(
    columns=["Year", "Country", "City"],
    rows=[[1896, "Greece", "Athens"], [2004, "Greece", "Athens"], [2008, "China", "Beijing"]],
    name="olympics",
)
parser = SemanticParser(model=LogLinearModel())
engine = ReproEngine(interface=NLInterface(parser=parser, k=3), k=3, backend="thread", workers=2)
engine.register(table)
threads = set()

async def serve():
    server = engine.server()
    await server.start()
    try:
        question = "which country hosted in 2004"
        routed, other = await asyncio.gather(
            server.aquery(QueryRequest(question=question, target="olympics")),
            server.aquery(QueryRequest(question="which city hosted in 2008", target="olympics")),
        )
        anywhere = await server.aquery(QueryRequest(question=question, target=None))
        threads.update(thread.name for thread in threading.enumerate())
    finally:
        await server.stop()
    return routed, other, anywhere

routed, other, anywhere = asyncio.run(serve())
engine.cache_stats()
engine.stats()
engine.close()
modules = sorted(name for name in sys.modules
                 if name.startswith(("repro", "sqlite3", "multiprocessing", "pickle", "html")))
text = routed.raw.as_text()
print(json.dumps({
    "ok": [routed.ok, other.ok, anywhere.ok],
    "threads": sorted(threads),
    "modules": modules,
    "text": text,
    "highlights_after_text": "repro.core.highlights" in sys.modules,
}))
"""

#: What serving on threads never runs, so never loads.
NOT_LOADED_BY_SERVING = [
    "sqlite3",
    "multiprocessing",
    "pickle",
    "html",
    "repro.sql",
    "repro.users",
    "repro.dataset",
    "repro.compose",
    "repro.core.highlights",
    "repro.core.provenance",
    "repro.core.sampling",
    "repro.core.rendering",
    "repro.core.grammar_templates",
    "repro.perf.bench",
    "repro.perf.churn",
    "repro.perf.discovery",
    "repro.perf.join",
    "repro.perf.diskcache",
    "repro.interface.deployment",
    "repro.interface.online",
    "repro.interface.retraining",
    "repro.interface.session",
    "repro.parser.training",
    "repro.parser.evaluation",
    "repro.api.client",
    "repro.tables.knowledge_base",
]


@pytest.fixture(scope="module")
def serving_session():
    return run_fresh(_SERVING_SESSION)


def test_serving_on_threads_loads_only_what_it_runs(serving_session):
    report = serving_session
    assert report["ok"] == [True, True, True]
    assert "repro.serving.server" in report["modules"]
    loaded = set(report["modules"])
    assert [name for name in NOT_LOADED_BY_SERVING if name in loaded] == []


def test_serving_on_threads_parses_on_the_threads_it_has(serving_session):
    """The thread backend parses on the thread that asked, even with
    ``workers=2`` and a two-unit batch: no pool thread ever starts."""
    threads = serving_session["threads"]
    assert any(name.startswith("repro-serve") for name in threads)
    assert [name for name in threads if name.startswith("repro-pool")] == []


def test_the_first_highlight_read_loads_the_highlight_modules(serving_session):
    text = serving_session["text"]
    assert text.startswith("question: which country hosted in 2004")
    assert "utterance: " in text and "Greece" in text
    assert serving_session["highlights_after_text"] is True
