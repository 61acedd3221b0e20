"""Documentation quality gates.

Every module and every public item must carry a docstring — the
"doc comments on every public item" deliverable, enforced.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [repro] + [
    importlib.import_module(name)
    for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro.")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module):
    public = getattr(module, "__all__", [])
    undocumented = []
    for name in public:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module.__name__}: {undocumented}"


def test_public_classes_document_their_methods():
    """Public methods of the flagship classes carry docstrings."""
    from repro.engine import SympleGraphEngine
    from repro.graph import CSRGraph
    from repro.runtime import CostModel
    from repro.engine.state import StateStore
    from repro.partition.base import Partition

    for cls in (CSRGraph, CostModel, SympleGraphEngine, Partition, StateStore):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} undocumented"


def test_readme_and_design_exist():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    for doc in (
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "docs/API.md",
        "docs/TUTORIAL.md",
    ):
        path = root / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 500, f"{doc} too thin"


def test_fallback_rules_name_every_fast_path():
    """docs/API.md's *Fallback rules* has a row for every row of
    ``repro.engine.fastpath.PATHS``, with its obligation."""
    import pathlib

    from repro.engine.fastpath import PATHS

    root = pathlib.Path(__file__).resolve().parent.parent
    api = (root / "docs" / "API.md").read_text()
    section = api.split("### Fallback rules", 1)[1].split("\n## ", 1)[0]
    for path in PATHS:
        assert f"| `{path.name}` |" in section, path.name
        assert f"`{path.obligation}`" in section, path.obligation
