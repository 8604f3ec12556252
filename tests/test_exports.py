"""Every name the package and its modules export resolves, the package's
table of library names names only exported ones, and every global name
the CLI's code reads is bound once its modules are."""

import builtins
import dis
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import smalldet
from smalldet import cli

MODULES = ["smalldet"] + [f"smalldet.{m.name}" for m in pkgutil.iter_modules(smalldet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_export_table_names_only_exported_names():
    for module, names in smalldet._EXPORTS.items():
        exported = importlib.import_module(f"smalldet.{module}").__all__
        assert [n for n in names if n not in exported] == [], module


def code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def test_cli_reads_only_names_its_modules_bind():
    # cli binds library names from smalldet._EXPORTS, so a command that
    # read a name outside that table would raise NameError only when run.
    path = Path(cli.__file__)
    module_code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    read = {
        ins.argval
        for code in code_objects(module_code)
        for ins in dis.get_instructions(code)
        if ins.opname == "LOAD_GLOBAL"
    }
    cli._bind(*smalldet._EXPORTS)
    assert sorted(n for n in read if n not in vars(cli) and not hasattr(builtins, n)) == []
