"""API-quality enforcement: every public item documented, exports sane.

These tests turn the documentation deliverable into an invariant: adding
an undocumented public class/function anywhere in the library fails CI.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.engine.column import Column

PACKAGES = [
    "repro",
    "repro.core",
    "repro.engine",
    "repro.explore",
    "repro.indexing",
    "repro.interface",
    "repro.loading",
    "repro.prefetch",
    "repro.sampling",
    "repro.storage",
    "repro.synopses",
    "repro.viz",
    "repro.workloads",
]


def _walk_modules():
    seen = set()
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if not hasattr(package, "__path__"):
            continue
        for info in pkgutil.iter_modules(package.__path__):
            full = f"{package_name}.{info.name}"
            if full not in seen:
                seen.add(full)
                yield importlib.import_module(full)


ALL_MODULES = list({module.__name__: module for module in _walk_modules()}.values())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module) -> None:
    assert module.__doc__ and module.__doc__.strip(), f"{module.__name__} lacks a docstring"


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module) -> None:
    undocumented = []
    for name, item in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if not (item.__doc__ and item.__doc__.strip()):
            undocumented.append(f"{module.__name__}.{name}")
        if inspect.isclass(item):
            for method_name, method in vars(item).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                # getdoc follows the MRO: overrides of documented base
                # methods (e.g. Expression.evaluate) inherit their docs
                if not inspect.getdoc(getattr(item, method_name)):
                    undocumented.append(f"{module.__name__}.{name}.{method_name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_all_exports_resolve() -> None:
    for module in ALL_MODULES:
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


def test_version_string() -> None:
    assert repro.__version__.count(".") == 2


def test_only_the_column_module_touches_column_slots() -> None:
    """No module but ``engine/column.py`` reads or writes a ``Column``'s
    private slots on another object (``obj._dictionary``; ``self._data`` of
    some other class is its own).  ``_backing`` is the one exception: the
    storage layer sets it on a column it opened mapped."""
    private = set(Column.__slots__) - {"_backing"}
    root = Path(repro.__file__).parent
    reached = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "engine" / "column.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in private
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                reached.append(f"{path.relative_to(root)}:{node.lineno} .{node.attr}")
    assert not reached, f"Column slots touched outside engine/column.py: {reached}"
