"""In-memory spans around the program's public functions and methods.

``Instrumentation`` wraps, from outside the package, every public function
and every public method of the public classes of each ``sadmm`` module
(its ``__all__``), and rebinds each wrapped function in every package
module that imported it. ``uninstall`` puts the originals back, so
untraced rounds run the program untouched.

A call is a layer boundary when it enters a module from another module.
A call from a module into itself (``VerticalStack.apply`` into its
members, ``full_gradient`` into ``component_gradients``) is not recorded,
so counts such as A-applies per iteration count what the caller asked
for. The solver is the exception: its per-step phases (``step`` and the
z/x/u updates) are the breakdown of one iteration.
"""

import gzip
import importlib
import time
import types
from contextlib import contextmanager

LAYERS = (
    "config",
    "libsvm",
    "problems",
    "losses",
    "linops",
    "regularizers",
    "rng",
    "estimators",
    "solver",
    "diagnostics",
    "trace",
)

_NESTED_LAYERS = frozenset({"solver"})


class SpanLog:
    """Spans as parallel lists: name, layer, start and end (ns), parent index."""

    def __init__(self):
        self.name = []
        self.layer = []
        self.start = []
        self.end = []
        self.parent = []
        self._open = []

    def __len__(self):
        return len(self.name)

    def begin(self, name, layer):
        i = len(self.name)
        self.name.append(name)
        self.layer.append(layer)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i):
        self.end[i] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name):
        i = self.begin(name, "bench")
        try:
            yield
        finally:
            self.finish(i)

    def dump(self, path):
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.name[i]},{self.start[i]},{self.end[i]},{self.parent[i]}\n")


def _traced(log, fn, name, layer):
    nested_ok = layer in _NESTED_LAYERS

    def traced(*args, **kwargs):
        open_spans = log._open
        if open_spans and not nested_ok and log.layer[open_spans[-1]] == layer:
            return fn(*args, **kwargs)
        i = log.begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            log.finish(i)

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__doc__ = fn.__doc__
    return traced


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return names


class Instrumentation:
    """Installs and removes the span wrappers on the ``sadmm`` package."""

    def __init__(self, log):
        self.log = log
        self._saved = []

    def install(self):
        modules = {layer: importlib.import_module(f"sadmm.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("sadmm"), importlib.import_module("sadmm.cli")]
        namespaces += modules.values()
        for layer, module in modules.items():
            for attr in _public_names(module):
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped = _traced(self.log, obj, f"{layer}.{attr}", layer)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, wrapped)
                elif isinstance(obj, type):
                    for key, value in list(vars(obj).items()):
                        if not key.startswith("_") and isinstance(value, types.FunctionType):
                            name = f"{layer}.{obj.__name__}.{key}"
                            self._patch(obj, key, _traced(self.log, value, name, layer))

    def _patch(self, owner, key, value):
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()
