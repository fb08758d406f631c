"""Per-layer metrics from the spans of the traced rounds.

Times are inclusive per call (the call and the layers it calls), except
``solver.step_self_us``, which is a step's span minus its child spans.
Span names are ``<layer>.<function>`` or ``<layer>.<Class>.<method>``;
the benchmark's own spans are ``bench.<role>.<kind>`` around each solve
and ``bench.setup`` around each set-up. ``*_per_iter`` counts are taken
over the steps of the budget runs (``bench.fixed.*``).
"""

import statistics
from collections import defaultdict

from workloads import KINDS

_ESTIMATOR_KIND = {
    "FullEstimator": "full",
    "SgdEstimator": "sgd",
    "SagaEstimator": "saga",
    "SvrgEstimator": "svrg",
    "SarahEstimator": "sarah",
}
_BUILDERS = ("build_fused_lasso", "build_toy_reconstruction", "generate_synthetic_quadratic")


def _method(name):
    """'linops.VerticalStack.apply' -> ('linops', 'apply'); functions keep their name."""
    parts = name.split(".")
    return parts[0], parts[-1]


def per_layer(workload, log, plain, traced):
    n = len(log)
    dur = [(log.end[i] - log.start[i]) / 1e3 for i in range(n)]  # microseconds
    child = [0.0] * n
    bench = [""] * n  # innermost enclosing bench span
    in_step = [False] * n
    for i in range(n):
        p = log.parent[i]
        name = log.name[i]
        if p >= 0:
            child[p] += dur[i]
            bench[i], in_step[i] = bench[p], in_step[p]
        if name.startswith("bench."):
            bench[i] = name
        if name == "solver.step":
            in_step[i] = True

    calls = defaultdict(list)  # metric key -> inclusive durations
    per_iter = defaultdict(int)
    fixed_steps = 0
    step_self = []
    for i in range(n):
        name, ctx = log.name[i], bench[i]
        layer, fn = _method(name)
        fixed = ctx.startswith("bench.fixed.")
        if name == "solver.step":
            if fixed:
                fixed_steps += 1
                step_self.append(dur[i] - child[i])
                calls[f"solver.step.{ctx.rsplit('.', 1)[1]}"].append(dur[i])
            continue
        if fixed and in_step[i] and layer in ("linops", "losses", "rng"):
            per_iter[f"{layer}.{fn}"] += 1
        if layer == "estimators" and fn == "estimate" and fixed:
            calls[f"estimate.{_ESTIMATOR_KIND[name.split('.')[1]]}"].append(dur[i])
        elif name == "estimators.init_estimator" and fixed:
            calls[f"init.{ctx.rsplit('.', 1)[1]}"].append(dur[i])
        elif name == "losses.FiniteSumLoss.component_gradients":
            if log.name[log.parent[i]].endswith(".estimate"):
                calls["losses.component_gradients"].append(dur[i])
        elif layer == "problems" and fn in _BUILDERS:
            calls["problems.build"].append(dur[i])
        else:
            calls[f"{layer}.{fn}"].append(dur[i])

    def mean(key, scale=1.0):
        values = calls.get(key, ())
        return sum(values) / len(values) * scale if values else 0.0

    ms = 1e-3
    metrics = {
        "config.load_ms": (mean("config.load_run_config", ms), "ms"),
        "libsvm.parse_ms": (mean("libsvm.parse_libsvm", ms), "ms"),
        "problems.build_graph_ms": (mean("problems.build_graph", ms), "ms"),
        "problems.build_ms": (mean("problems.build", ms), "ms"),
        "losses.lipschitz_bound_ms": (mean("losses.lipschitz_bound", ms), "ms"),
        "solver.validate_params_us": (mean("solver.validate_params"), "us"),
        "linops.estimate_spectral_ms": (mean("linops.estimate_spectral", ms), "ms"),
        "linops.estimate_spectral_calls": (len(calls["linops.estimate_spectral"]) / len(traced), "count"),
        "losses.full_value_us": (mean("losses.full_value"), "us"),
        "losses.full_value_per_iter": (per_iter["losses.full_value"] / fixed_steps, "count"),
        "losses.full_gradient_us": (mean("losses.full_gradient"), "us"),
        "losses.component_gradients_us": (mean("losses.component_gradients"), "us"),
    }
    for kind in KINDS:
        metrics[f"estimators.estimate_us.{kind}"] = (mean(f"estimate.{kind}"), "us")
    for kind in ("saga", "svrg", "sarah"):
        metrics[f"estimators.init_ms.{kind}"] = (mean(f"init.{kind}", ms), "ms")
    first, setups = traced[0].results, traced[0].setups
    for kind in KINDS:
        idx = [i for i, op in enumerate(workload.ops) if op.role == "fixed" and op.kind == kind]
        # the trace's epoch column is component-gradient evaluations over n
        evals = sum(round(first[i].trace[-1].epoch * setups[workload.ops[i].instance][0].loss.n) for i in idx)
        iters = sum(len(first[i].trace) for i in idx)
        metrics[f"estimators.grad_evals_per_iter.{kind}"] = (evals / iters, "count")
    metrics.update({
        "linops.apply_us": (mean("linops.apply"), "us"),
        "linops.apply_per_iter": (per_iter["linops.apply"] / fixed_steps, "count"),
        "linops.adjoint_us": (mean("linops.adjoint"), "us"),
        "linops.adjoint_per_iter": (per_iter["linops.adjoint"] / fixed_steps, "count"),
        "regularizers.prox_us": (mean("regularizers.prox"), "us"),
        "regularizers.value_us": (mean("regularizers.value"), "us"),
        "rng.substream_us": (mean("rng.substream"), "us"),
        "rng.substream_per_iter": (per_iter["rng.substream"] / fixed_steps, "count"),
    })
    for kind in KINDS:
        metrics[f"solver.step_us.{kind}"] = (mean(f"solver.step.{kind}"), "us")
    tol = [i for i, op in enumerate(workload.ops) if op.role == "tol"]
    metrics.update({
        "solver.step_self_us": (statistics.fmean(step_self), "us"),
        "solver.z_update_us": (mean("solver.z_update"), "us"),
        "solver.x_update_us": (mean("solver.x_update"), "us"),
        "solver.u_update_us": (mean("solver.u_update"), "us"),
        "solver.iters_to_tol": (sum(len(first[i].trace) for i in tol), "count"),
        "diagnostics.augmented_lagrangian_us": (mean("diagnostics.augmented_lagrangian"), "us"),
        "diagnostics.stability_psi_us": (mean("diagnostics.stability_psi"), "us"),
        "estimators.upsilon_gamma_us": (mean("estimators.upsilon_gamma"), "us"),
        "trace.write_trace_ms": (mean("trace.write_trace", ms), "ms"),
    })
    untraced = statistics.median(r.wall_s for r in plain)
    with_spans = statistics.median(r.wall_s for r in traced)
    metrics["bench.tracing_overhead_pct"] = ((with_spans / untraced - 1.0) * 100.0, "%")
    return metrics

