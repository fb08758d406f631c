import importlib
import pkgutil

import pytest

import sadmm

MODULES = sorted(m.name for m in pkgutil.iter_modules(sadmm.__path__))


def test_every_layer_module_is_listed():
    # the layers the benchmark's tracer wraps through their __all__
    layers = {"config", "libsvm", "problems", "losses", "linops", "regularizers",
              "rng", "estimators", "solver", "diagnostics", "trace"}
    assert layers <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sadmm.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
