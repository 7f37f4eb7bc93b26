"""The package's exported names resolve."""

import importlib
import pkgutil

import erfe


def test_every_exported_name_resolves():
    modules = [erfe, *(importlib.import_module(f"erfe.{info.name}")
                       for info in pkgutil.iter_modules(erfe.__path__))]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    namespace = {}
    exec("from erfe import *", namespace)
    assert set(erfe.__all__) <= set(namespace)
