"""Run-configuration files.

Configs are INI files with three sections: ``[problem]`` selects a
builder and its parameters, ``[solver]`` carries the iteration
parameters, and ``[output]`` names the trace path plus diagnostics and
plot-data toggles. The schema is strict: unknown sections or keys are
rejected, naming the offender. Relative paths are resolved against the
directory containing the config file.
"""

import configparser
import math
import os
from dataclasses import dataclass
from typing import Optional

from .estimators import EstimatorSpec
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

_PROBLEM_KEYS = {
    "fused_lasso": {
        "builder",
        "data",
        "lambda1",
        "rho_c",
        "n_features",
        "test_data",
        "name",
    },
    "toy_reconstruction": {
        "builder",
        "height",
        "width",
        "forward",
        "radius",
        "keep",
        "noise_sigma",
        "lambda",
        "reg",
        "seed",
    },
    "synthetic_quadratic": {"builder", "n", "d", "seed", "conditioning"},
}

_SOLVER_KEYS = {
    "beta",
    "tau",
    "sigma",
    "estimator",
    "batch_size",
    "epoch_len",
    "sarah_p",
    "max_epochs",
    "residual_tol",
    "seed",
    "output_rule",
}

_OUTPUT_KEYS = {"trace", "diag_every", "plot_data", "label"}


@dataclass
class RunConfig:
    problem: dict
    solver: SolverConfig
    trace_path: Optional[str]
    plot_data: bool
    label: str
    test_data: Optional[str]


def _parse_value(section, key, raw, kind):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            if raw.lower() in ("inf", "+inf", "infinity"):
                return math.inf
            return float(raw)
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}"
        ) from None


class _Section:
    def __init__(self, name, mapping):
        self.name = name
        self.mapping = dict(mapping)

    def get(self, key, kind, default=None, required=False):
        if key not in self.mapping:
            if required:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return default
        return _parse_value(self.name, key, self.mapping[key], kind)

    def check_keys(self, allowed):
        for key in self.mapping:
            if key not in allowed:
                raise ConfigError(f"[{self.name}] unknown key {key!r}")


def load_run_config(path):
    """Parse and validate a run-configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    base = os.path.dirname(os.path.abspath(path))

    known_sections = {"problem", "solver", "output"}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}]")
    for required in ("problem", "solver"):
        if not parser.has_section(required):
            raise ConfigError(f"missing section [{required}]")

    prob = _Section("problem", parser.items("problem"))
    builder = prob.get("builder", str, required=True)
    if builder not in _PROBLEM_KEYS:
        raise ConfigError(f"[problem] unknown builder {builder!r}")
    prob.check_keys(_PROBLEM_KEYS[builder])

    def resolve(p):
        return p if p is None or os.path.isabs(p) else os.path.join(base, p)

    problem_spec = {"builder": builder}
    test_data = None
    if builder == "fused_lasso":
        problem_spec["data"] = resolve(prob.get("data", str, required=True))
        problem_spec["lambda1"] = prob.get("lambda1", float, default=1e-5)
        problem_spec["rho_c"] = prob.get("rho_c", float, default=0.9)
        problem_spec["n_features"] = prob.get("n_features", int)
        problem_spec["name"] = prob.get("name", str, default="fused_lasso")
        test_data = resolve(prob.get("test_data", str))
    elif builder == "toy_reconstruction":
        problem_spec["height"] = prob.get("height", int, required=True)
        problem_spec["width"] = prob.get("width", int, required=True)
        problem_spec["forward"] = prob.get("forward", str, default="blur")
        problem_spec["radius"] = prob.get("radius", int, default=1)
        problem_spec["keep"] = prob.get("keep", float, default=0.5)
        problem_spec["noise_sigma"] = prob.get("noise_sigma", float, default=0.0)
        problem_spec["lambda"] = prob.get("lambda", float, default=0.01)
        problem_spec["reg"] = prob.get("reg", str, default="l1")
        problem_spec["seed"] = prob.get("seed", int, default=0)
    else:
        problem_spec["n"] = prob.get("n", int, required=True)
        problem_spec["d"] = prob.get("d", int, required=True)
        problem_spec["seed"] = prob.get("seed", int, default=0)
        problem_spec["conditioning"] = prob.get("conditioning", float, default=1.0)

    solv = _Section("solver", parser.items("solver"))
    solv.check_keys(_SOLVER_KEYS)
    seed = solv.get("seed", int, default=0)
    kind = solv.get("estimator", str, default="full")
    for key, owner in (("sarah_p", "sarah"), ("epoch_len", "svrg")):
        if key in solv.mapping and kind != owner:
            raise ConfigError(f"[solver] {key} applies to estimator {owner!r} only, not {kind!r}")
    if parser.has_section("output"):
        out = _Section("output", parser.items("output"))
    else:
        out = _Section("output", {})
    out.check_keys(_OUTPUT_KEYS)
    diag_every = out.get("diag_every", int, default=0)
    try:
        est_spec = EstimatorSpec(
            kind=kind,
            batch_size=solv.get("batch_size", int, default=1),
            epoch_len=solv.get("epoch_len", int),
            restart_p=solv.get("sarah_p", float, default=8.0)
            if kind == "sarah"
            else None,
            seed=seed,
        )
        solver_config = SolverConfig(
            beta=solv.get("beta", float, required=True),
            tau=solv.get("tau", float, required=True),
            sigma=solv.get("sigma", float, default=0.95),
            estimator=est_spec,
            max_epochs=solv.get("max_epochs", int, default=10),
            residual_tol=solv.get("residual_tol", float, default=0.0),
            diag_every=diag_every,
            seed=seed,
            output_rule=solv.get("output_rule", str, default="final"),
        )
    except ParameterError as exc:
        raise ConfigError(f"[solver] {exc}") from None

    trace_path = resolve(out.get("trace", str))
    plot_data = out.get("plot_data", bool, default=False)
    label = out.get("label", str, default=kind)

    return RunConfig(
        problem=problem_spec,
        solver=solver_config,
        trace_path=trace_path,
        plot_data=plot_data,
        label=label,
        test_data=test_data,
    )


def build_problem(run_config):
    """Instantiate the Problem described by a RunConfig."""
    spec = run_config.problem
    builder = spec["builder"]
    if builder == "fused_lasso":
        data = parse_libsvm(spec["data"], n_features=spec["n_features"])
        graph = build_graph(data, rho_c=spec["rho_c"])
        return build_fused_lasso(
            data,
            lambda1=spec["lambda1"],
            graph=graph,
            name=spec["name"],
        )
    if builder == "toy_reconstruction":
        problem, _truth = build_toy_reconstruction(
            spec["height"],
            spec["width"],
            forward=spec["forward"],
            radius=spec["radius"],
            keep=spec["keep"],
            noise_sigma=spec["noise_sigma"],
            lam=spec["lambda"],
            reg_kind=spec["reg"],
            seed=spec["seed"],
        )
        return problem
    return generate_synthetic_quadratic(
        spec["n"], spec["d"], seed=spec["seed"], conditioning=spec["conditioning"]
    )
