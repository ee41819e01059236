import importlib
import pkgutil

import pytest

import hahnramsey

MODULES = ["hahnramsey", *(f"hahnramsey.{m.name}"
                           for m in pkgutil.iter_modules(hahnramsey.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name deleted from a module but left in its __all__ breaks star imports
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
