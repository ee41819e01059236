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


def test_only_cli_holds_the_csv_writers():
    # every output format lives in cli: no other module holds a function of
    # the private writer module, under any name
    holders = {(name, n) for name in MODULES
               if name not in ("hahnramsey.cli", "hahnramsey._datafile")
               for n, f in vars(importlib.import_module(name)).items()
               if inspect.isfunction(f) and f.__module__ == "hahnramsey._datafile"}
    assert holders == set()


def test_plain_values_cross_the_layers():
    # a drive is (rabi, detuning), a bias a float or array, a sequence a
    # tuple of elements, a Monte Carlo run its count, seed, rabi and step,
    # and a curve its arrays: no module holds a wrapper class for one
    gone = ("DrivingParams", "BiasParams", "PulseSequence", "McConfig", "SignalCurve")
    assert {(name, n) for name in MODULES for n in gone
            if hasattr(importlib.import_module(name), n)} == set()


def test_analysis_binds_nothing_from_montecarlo():
    # the fits read data, not the engine: no name of analysis comes from it
    analysis = importlib.import_module("hahnramsey.analysis")
    montecarlo = importlib.import_module("hahnramsey.montecarlo")
    assert [n for n, v in vars(analysis).items() if v is montecarlo
            or getattr(v, "__module__", None) == montecarlo.__name__] == []
