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


@pytest.mark.parametrize("name, base, public", [
    ("linops", "LinearOperator", {"apply", "adjoint"}),
    ("regularizers", "Regularizer", {"prox"}),
])
def test_only_the_base_class_defines_the_checked_entries(name, base, public):
    # a subclass implements the unchecked cores; redefining a public entry
    # would add a second place where inputs are checked, or none
    module = importlib.import_module(f"sadmm.{name}")
    classes = [c for c in vars(module).values()
               if isinstance(c, type) and c.__module__ == module.__name__]
    assert base in {c.__name__ for c in classes}
    offenders = [(c.__name__, m) for c in classes if c.__name__ != base
                 for m in sorted(public & set(vars(c)))]
    assert offenders == []
