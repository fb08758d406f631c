"""Run-configuration files.

Configs are INI files with three sections: ``[problem]`` selects a
builder and its parameters, ``[solver]`` carries the iteration
parameters, and ``[output]`` names the trace path plus diagnostics and
plot-data toggles. The schema is strict: unknown sections or keys are
rejected, naming the offender. Relative paths are resolved against the
directory containing the config file.

Each section's keys are declared once, in the tables below: a key's type
and its default, or ``REQUIRED``.
"""

import configparser
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .estimators import EstimatorSpec, _check_batch_size
from .exceptions import ConfigError, ParameterError
from .libsvm import parse_libsvm
from .problems import (
    build_fused_lasso,
    build_graph,
    build_toy_reconstruction,
    generate_synthetic_quadratic,
)
from .solver import SolverConfig

__all__ = ["RunConfig", "load_run_config", "build_problem"]

REQUIRED = object()


def _path(raw):
    """Key type of a file path, resolved against the config's directory."""
    return raw


class _Key(NamedTuple):
    kind: object
    default: object = None
    arg: Optional[str] = None  # the builder argument fed, when not the key itself
    owner: Optional[str] = None  # the only estimator the key applies to


_PROBLEM = {
    "fused_lasso": {
        "data": _Key(_path, REQUIRED),
        "lambda1": _Key(float, 1e-5),
        "rho_c": _Key(float, 0.9),
        "n_features": _Key(int),
        "test_data": _Key(_path),
        "name": _Key(str, "fused_lasso"),
    },
    "toy_reconstruction": {
        "height": _Key(int, REQUIRED),
        "width": _Key(int, REQUIRED),
        "forward": _Key(str, "blur"),
        "radius": _Key(int, 1),
        "keep": _Key(float, 0.5),
        "noise_sigma": _Key(float, 0.0),
        "lambda": _Key(float, 0.01, arg="lam"),
        "reg": _Key(str, "l1", arg="reg_kind"),
        "seed": _Key(int, 0),
    },
    "synthetic_quadratic": {
        "n": _Key(int, REQUIRED),
        "d": _Key(int, REQUIRED),
        "seed": _Key(int, 0),
        "conditioning": _Key(float, 1.0),
    },
}

_SOLVER = {
    "beta": _Key(float, REQUIRED),
    "tau": _Key(float, REQUIRED),
    "sigma": _Key(float, 0.95),
    "estimator": _Key(str, "full"),
    "batch_size": _Key(int, 1),
    "epoch_len": _Key(int, owner="svrg"),
    "sarah_p": _Key(float, 8.0, owner="sarah"),
    "max_epochs": _Key(int, 10),
    "residual_tol": _Key(float, 0.0),
    "seed": _Key(int, 0),
    "output_rule": _Key(str, "final"),
}

_OUTPUT = {
    "trace": _Key(_path),
    "diag_every": _Key(int, 0),
    "plot_data": _Key(bool, False),
    "label": _Key(str),  # None stands for the estimator's name
}


@dataclass
class RunConfig:
    problem: dict
    solver: SolverConfig
    trace_path: Optional[str]
    plot_data: bool
    label: str
    test_data: Optional[str]


def _read_section(parser, name, schema, base):
    """The section's values by key: types parsed, defaults filled in.

    An unknown key, a missing required key and a value its type does not
    parse raise ConfigError.
    """
    raw = dict(parser.items(name)) if parser.has_section(name) else {}
    for key in raw:
        if key not in schema:
            raise ConfigError(f"[{name}] unknown key {key!r}")
    values = {}
    for key, entry in schema.items():
        if key not in raw:
            if entry.default is REQUIRED:
                raise ConfigError(f"[{name}] missing required key {key!r}")
            values[key] = entry.default
            continue
        try:
            if entry.kind is bool:
                values[key] = parser.BOOLEAN_STATES[raw[key].lower()]
            else:
                values[key] = entry.kind(raw[key])
        except (KeyError, ValueError):
            raise ConfigError(
                f"[{name}] {key} = {raw[key]!r} is not a valid {entry.kind.__name__}"
            ) from None
        if entry.kind is _path:
            values[key] = os.path.join(base, values[key])
    return values


def load_run_config(path):
    """Parse and validate a run-configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    base = os.path.dirname(os.path.abspath(path))

    for section in parser.sections():
        if section not in ("problem", "solver", "output"):
            raise ConfigError(f"unknown section [{section}]")
    for required in ("problem", "solver"):
        if not parser.has_section(required):
            raise ConfigError(f"missing section [{required}]")

    builder = parser.get("problem", "builder", fallback=None)
    if builder is None:
        raise ConfigError("[problem] missing required key 'builder'")
    if builder not in _PROBLEM:
        raise ConfigError(f"[problem] unknown builder {builder!r}")
    schema = {"builder": _Key(str), **_PROBLEM[builder]}
    prob = _read_section(parser, "problem", schema, base)
    test_data = prob.pop("test_data", None)
    problem_spec = {schema[key].arg or key: value for key, value in prob.items()}

    solv = _read_section(parser, "solver", _SOLVER, base)
    kind = solv["estimator"]
    for key, entry in _SOLVER.items():
        if entry.owner not in (None, kind):
            if parser.has_option("solver", key):
                raise ConfigError(
                    f"[solver] {key} applies to estimator {entry.owner!r} only, not {kind!r}"
                )
            solv[key] = None
    out = _read_section(parser, "output", _OUTPUT, base)
    try:
        est_spec = EstimatorSpec(
            kind, batch_size=solv["batch_size"], epoch_len=solv["epoch_len"],
            restart_p=solv["sarah_p"], seed=solv["seed"],
        )
        solver_config = SolverConfig(
            beta=solv["beta"], tau=solv["tau"], sigma=solv["sigma"], estimator=est_spec,
            max_epochs=solv["max_epochs"], residual_tol=solv["residual_tol"],
            diag_every=out["diag_every"], seed=solv["seed"], output_rule=solv["output_rule"],
        )
    except ParameterError as exc:
        raise ConfigError(f"[solver] {exc}") from None

    return RunConfig(
        problem=problem_spec,
        solver=solver_config,
        trace_path=out["trace"],
        plot_data=out["plot_data"],
        label=kind if out["label"] is None else out["label"],
        test_data=test_data,
    )


def build_problem(run_config):
    """Instantiate the Problem described by a RunConfig; a sampling batch
    larger than its component count raises ParameterError."""
    args = dict(run_config.problem)
    builder = args.pop("builder")
    if builder == "fused_lasso":
        data = parse_libsvm(args["data"], n_features=args["n_features"])
        graph = build_graph(data, rho_c=args["rho_c"])
        problem = build_fused_lasso(data, lambda1=args["lambda1"], graph=graph, name=args["name"])
    elif builder == "toy_reconstruction":
        problem, _truth = build_toy_reconstruction(**args)
    else:
        problem = generate_synthetic_quadratic(**args)
    _check_batch_size(run_config.solver.estimator, problem.loss.n)
    return problem
