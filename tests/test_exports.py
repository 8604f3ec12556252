"""Every name the package and its modules export resolves, and the
hand-kept tables of library names name only exported ones."""

import importlib
import pkgutil

import pytest

import smalldet
from smalldet import cli

MODULES = ["smalldet"] + [f"smalldet.{m.name}" for m in pkgutil.iter_modules(smalldet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("table", [smalldet._EXPORTS, cli._LIBRARY], ids=["smalldet", "cli"])
def test_library_tables_name_only_exported_names(table):
    for module, names in table.items():
        exported = importlib.import_module(f"smalldet.{module}").__all__
        assert [n for n in names if n not in exported] == [], module
