import importlib
import inspect
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


@pytest.mark.parametrize("name", [m for m in MODULES if "._" not in m])
def test_public_functions_of_public_modules_are_defined_in_public_modules(name):
    # the benchmark's tracer files a span under the module that defines the
    # function, and knows no private module
    module = importlib.import_module(name)
    homes = {n: f.__module__ for n, f in vars(module).items()
             if not n.startswith("_") and inspect.isfunction(f)
             and f.__module__.startswith("hahnramsey.")}
    assert {n: h for n, h in homes.items() if "._" in h} == {}
