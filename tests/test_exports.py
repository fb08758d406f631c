import ast
import importlib
import pkgutil
from pathlib import Path

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


def _checks_by_scope(path):
    """(class or None, function) for each reference to a loss input check."""
    found = []

    def walk(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in ("_check_x", "_check_idx"):
                found.append((cls, fn))
            if isinstance(child, ast.ClassDef):
                walk(child, child.name, None)
            elif isinstance(child, ast.FunctionDef):
                walk(child, cls, fn or child.name)
            else:
                walk(child, cls, fn)

    walk(ast.parse(path.read_text()), None, None)
    return found


def test_loss_inputs_are_checked_only_at_the_public_entries():
    # FiniteSumLoss's public methods, each backend's estimate and
    # init_estimator take x from callers; everything else calls the cores
    from sadmm.estimators import _BACKENDS

    backends = {cls.__name__ for cls in _BACKENDS.values()}
    allowed = {("FiniteSumLoss", m) for m in dir(sadmm.FiniteSumLoss) if not m.startswith("_")}
    allowed |= {(name, "estimate") for name in backends} | {(None, "init_estimator")}
    src = Path(sadmm.__file__).parent
    found = {path.name: _checks_by_scope(path) for path in sorted(src.glob("*.py"))}
    offenders = [(name, scope) for name, scopes in found.items() for scope in scopes
                 if scope not in allowed]
    assert offenders == []
    # the walk sees the checks it allows
    assert {("FiniteSumLoss", "full_value"), (None, "init_estimator")} <= set(sum(found.values(), []))


_THEORY = ("ETA_GRID", "descent_coefficient", "ParamReport", "validate_params",
           "_variance_constants", "VarianceConstants", "theoretical_constants",
           "stability_constants", "_square", "_quot")


def _defined_names(tree):
    """Names a module's top level binds by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def test_the_parameter_theory_lives_in_diagnostics():
    # the constants of the convergence argument have one home, so solver
    # only iterates and estimators only estimate
    src = Path(sadmm.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    owners = {name: sorted(m for m, tree in trees.items() if name in _defined_names(tree))
              for name in _THEORY}
    assert owners == {name: ["diagnostics"] for name in _THEORY}
    imports = [node for node in ast.walk(trees["estimators"]) if isinstance(node, ast.ImportFrom)]
    sources = {node.module for node in imports} | {a.name for node in imports for a in node.names}
    assert "diagnostics" not in sources
    diagnostics = importlib.import_module("sadmm.diagnostics")
    unresolved = [name for name in _THEORY
                  if not hasattr(sadmm, name) and not hasattr(diagnostics, name)]
    assert unresolved == []


def _self_stores(tree, attr):
    """Names of the functions that assign ``self.<attr>``."""
    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def test_each_fact_is_stored_once():
    # the memo holds link terms and a gradient, not a value nobody reads;
    # the Lipschitz bound is read off the cached row norms; a diagnostics
    # record does not copy its iteration record's fields
    from dataclasses import fields

    tree = ast.parse(Path(sadmm.losses.__file__).read_text())
    assert _self_stores(tree, "_memo") == {"_all_rows", "_full_gradient", "drop_memo"}
    assert _self_stores(tree, "_lipschitz") == set()
    assert not hasattr(sadmm.FiniteSumLoss, "_lipschitz")
    shared = ({f.name for f in fields(sadmm.DiagnosticsRecord)}
              & {f.name for f in fields(sadmm.IterationRecord)})
    assert shared == set()


def test_svrg_is_saga_with_another_update_policy():
    # SVRG keeps SAGA's memory, combine and error bound, and moves the
    # memory whole at each anchor; only its set-up and its estimate differ
    from sadmm.estimators import SagaEstimator, SvrgEstimator

    assert SvrgEstimator.__bases__ == (SagaEstimator,)
    methods = {k for k, v in vars(SvrgEstimator).items() if callable(v) or isinstance(v, property)}
    assert methods == {"__init__", "estimate"}
