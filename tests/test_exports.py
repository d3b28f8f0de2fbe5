"""The package's export lists: every name in a module's ``__all__`` exists,
and every public function or class a module defines is listed.  ``cli``
exports only ``main``; its ``cmd_*`` handlers are reached through it."""

import importlib
import inspect
import pkgutil

import pytest

import optionlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(optionlab.__path__))


def _module(name):
    return importlib.import_module(f"optionlab.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = _module(name)
    assert len(set(module.__all__)) == len(module.__all__), "a name is listed twice"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_every_public_definition_is_exported(name):
    module = _module(name)
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []
