"""Command-line interface.

Three subcommands:

* ``sadmm solve <cfg>``    run one configuration and write its trace CSV
* ``sadmm validate <cfg>`` print the parameter feasibility report
* ``sadmm bench <dir> -o <csv> [--summary]`` run every config in a
  directory (in parallel; SADMM_THREADS caps the worker count) and emit a
  combined long-format CSV suitable for external plotting.

Exit codes: 0 ok, 1 config or data error, 2 divergence, 3 validation
warnings or failures.
"""

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress

import numpy as np

from .config import build_problem, load_run_config
from .diagnostics import validate_params
from .exceptions import (
    ConfigError,
    DataError,
    DivergenceError,
    ParameterError,
    ParseError,
    ShapeError,
    SpectralEstimationError,
)
from .libsvm import parse_libsvm
from .linops import estimate_spectral
from .losses import FiniteSumLoss
from .solver import run
from .trace import format_float, write_trace

BENCH_COLUMNS = ("method", "seed", "epoch", "objective", "residual")

_CONFIG_ERRORS = (ConfigError, DataError, ParseError, ParameterError, ShapeError, OSError)


def _fail(exc):
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _check_out_dir(path):
    """Raise FileNotFoundError, before any solving, when the directory that
    is to hold ``path`` and the files written beside it does not exist."""
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"cannot write {path}: no directory {folder}")


def _report(problem, config):
    """Print the parameter report; returns (spectral estimates, report)."""
    try:
        spectral = estimate_spectral(problem.op, seed=config.seed)
    except SpectralEstimationError as exc:
        print(
            "warning: spectral estimation did not converge; using best iterate",
            file=sys.stderr,
        )
        spectral = exc.best
    report = validate_params(problem, config, spectral, problem.loss.lipschitz_bound())
    print(_format_report(report, config))
    return spectral, report


def _format_report(report, config):
    lines = []
    lines.append("parameter report")
    lines.append(f"  beta = {config.beta:g}, tau = {config.tau:g}, sigma = {config.sigma:g}")
    lines.append(f"  estimator            : {config.estimator.kind}")
    lines.append(f"  gradient Lipschitz L : {report.lipschitz:.6g}")
    lines.append(f"  ||A||^2              : {report.op_norm_sq:.6g}")
    lines.append(f"  lambda_min(AA^T)     : {report.lambda_min_aat:.6g}")
    lines.append(f"  kappa(AA^T)          : {report.kappa:.6g}")
    vc = report.constants
    lines.append(
        f"  V1 = {vc.v1:g}, V2 = {vc.v2:g}, V_Upsilon = {vc.v_upsilon:g}, rho = {vc.rho:g}"
        + ("" if report.certified else "  (uncertified defaults)")
    )
    lines.append(f"  eta = {report.eta_used:g}, C2 = {report.c2_used:g}")
    lines.append(f"  eta_tilde            : {report.eta_tilde:.6g}")
    lines.append("checks")
    for name, status, detail in report.checks:
        lines.append(f"  [{status.upper():4s}] {name:22s} {detail}")
    return "\n".join(lines)


def _machine_block(report):
    lines = ["[report]"]
    lines.append(f"eta_tilde = {format_float(report.eta_tilde)}")
    lines.append(f"eta_used = {format_float(report.eta_used)}")
    lines.append(f"c2_used = {format_float(report.c2_used)}")
    lines.append(f"lipschitz = {format_float(report.lipschitz)}")
    lines.append(f"op_norm_sq = {format_float(report.op_norm_sq)}")
    lines.append(f"lambda_min_aat = {format_float(report.lambda_min_aat)}")
    lines.append(f"kappa = {format_float(report.kappa)}")
    vc = report.constants
    lines.append(f"v1 = {format_float(vc.v1)}")
    lines.append(f"v2 = {format_float(vc.v2)}")
    lines.append(f"v_upsilon = {format_float(vc.v_upsilon)}")
    lines.append(f"rho = {format_float(vc.rho)}")
    lines.append(f"certified = {'true' if report.certified else 'false'}")
    for name, status, _ in report.checks:
        lines.append(f"check_{name} = {status}")
    return "\n".join(lines)


def _test_split_lines(run_config, problem, x):
    """Held-out evaluation: objective with regularizer and plain mean loss."""
    data = parse_libsvm(run_config.test_data, n_features=problem.loss.dim)
    test_loss = FiniteSumLoss.from_rows("sigmoid", data.features.todense(), data.labels)
    mean_loss = test_loss.full_value(x)
    with_reg = mean_loss + problem.reg.value(problem.op.apply(x))
    return [
        f"test objective (mean sigmoid loss + regularizer): {with_reg:.17g}",
        f"test mean sigmoid loss (no regularizer):          {mean_loss:.17g}",
    ]


def cmd_solve(config_path):
    try:
        run_config = load_run_config(config_path)
        if run_config.trace_path is None:
            raise ConfigError("[output] missing required key 'trace' for solve")
        _check_out_dir(run_config.trace_path)  # the plot-data CSV goes beside it
        problem = build_problem(run_config)
    except _CONFIG_ERRORS as exc:
        return _fail(exc)
    config = run_config.solver
    spectral, _ = _report(problem, config)
    try:
        result = run(problem, config, spectral=spectral)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        write_trace(run_config.trace_path, result.trace, with_diagnostics=config.diag_every > 0)
        if run_config.plot_data:
            stem, _ = os.path.splitext(run_config.trace_path)
            _write_bench_csv(f"{stem}_plotdata.csv", [_run_bundle(run_config, result.trace)])
    except OSError as exc:
        return _fail(exc)
    final = result.trace[-1]
    print(
        f"finished: {final.iter} iterations, objective {final.objective:.17g}, "
        f"primal residual {final.primal_residual:.17g}"
    )
    print(f"trace written to {run_config.trace_path}")
    if run_config.test_data is not None:
        try:
            for line in _test_split_lines(run_config, problem, result.output[0]):
                print(line)
        except _CONFIG_ERRORS as exc:
            return _fail(exc)
    return 0


def cmd_validate(config_path):
    try:
        run_config = load_run_config(config_path)
        problem = build_problem(run_config)
    except _CONFIG_ERRORS as exc:
        return _fail(exc)
    _, report = _report(problem, run_config.solver)
    print()
    print(_machine_block(report))
    return 0 if report.all_pass() else 3


def _bench_worker(config_path):
    """Run one bench member; returns a row bundle (never raises)."""
    try:
        with np.errstate(all="ignore"):  # a pool process has its own numpy state
            run_config = load_run_config(config_path)
            result = run(build_problem(run_config), run_config.solver)
        return _run_bundle(run_config, result.trace)
    except Exception as exc:  # noqa: BLE001 - member failures become rows
        return _error_bundle(config_path, str(exc))


def _run_bundle(run_config, trace):
    rows = [(r.epoch, r.objective, r.primal_residual) for r in trace]
    return {"label": run_config.label, "seed": run_config.solver.seed, "rows": rows, "error": None}


def _error_bundle(config_path, message):
    label = os.path.splitext(os.path.basename(config_path))[0]
    return {"label": label, "seed": -1, "rows": [], "error": message}


def _pool_bundles(paths, workers):
    """Run the members in a process pool; those a dead worker lost are error rows."""
    futures = []
    with ProcessPoolExecutor(max_workers=workers) as pool, suppress(BrokenProcessPool):
        for path in paths:
            futures.append(pool.submit(_bench_worker, path))
    bundles = []
    for path, future in zip(paths, futures):
        try:
            bundles.append(future.result())
        except BrokenProcessPool as exc:
            bundles.append(_error_bundle(path, f"worker process died: {exc}"))
    lost = paths[len(futures):]
    return bundles + [_error_bundle(p, "not run: a worker process died") for p in lost]


def _write_bench_csv(path, bundles):
    """One row per record; a failed run is one row of nans, seed -1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")  # quotes a label holding a comma
        out.writerow(BENCH_COLUMNS)
        for bundle in bundles:
            head = [bundle["label"], bundle["seed"]]
            if bundle["error"] is not None:
                out.writerow(head + ["nan"] * 3)
            out.writerows(head + [format_float(v) for v in row] for row in bundle["rows"])


def _write_summary_csv(path, bundles):
    """Per-method medians of the objective at integer epoch checkpoints.

    For each run the value at a checkpoint is the objective of its last
    record with epoch <= checkpoint.
    """
    ok = [b for b in bundles if b["error"] is None and b["rows"]]
    max_epoch = max((b["rows"][-1][0] for b in ok), default=0.0)
    checkpoints = range(1, int(math.floor(max_epoch)) + 1)
    rows = [("method", "epoch", "median_objective")]
    labels = sorted({b["label"] for b in ok})
    for label in labels:
        members = [b for b in ok if b["label"] == label]
        for cp in checkpoints:
            values = []
            for b in members:
                below = [row for row in b["rows"] if row[0] <= cp]
                if below:
                    values.append(below[-1][1])
            if values:
                rows.append((label, cp, format_float(float(np.median(values)))))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _worker_count(n_jobs):
    cap = os.environ.get("SADMM_THREADS")
    workers = os.cpu_count() or 1
    if cap is not None:
        try:
            workers = max(1, int(cap))
        except ValueError:
            print(f"warning: ignoring invalid SADMM_THREADS={cap!r}", file=sys.stderr)
    return max(1, min(workers, n_jobs))


def cmd_bench(config_dir, out_path, summary=False):
    try:
        _check_out_dir(out_path)  # the summary goes beside it
        names = sorted(f for f in os.listdir(config_dir) if f.endswith(".ini"))
    except OSError as exc:
        return _fail(exc)
    if not names:
        return _fail(f"no .ini configs in {config_dir}")
    paths = [os.path.join(config_dir, name) for name in names]
    workers = _worker_count(len(paths))
    if workers == 1:
        bundles = [_bench_worker(p) for p in paths]
    else:
        bundles = _pool_bundles(paths, workers)
    for path, bundle in zip(paths, bundles):
        if bundle["error"] is not None:
            print(f"run failed: {path}: {bundle['error']}", file=sys.stderr)
    try:
        _write_bench_csv(out_path, bundles)
        print(f"combined results written to {out_path}")
        if summary:
            stem, _ = os.path.splitext(out_path)
            summary_path = f"{stem}_summary.csv"
            _write_summary_csv(summary_path, bundles)
            print(f"summary written to {summary_path}")
    except OSError as exc:
        return _fail(exc)
    if all(b["error"] is not None for b in bundles):
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sadmm",
        description="Stochastic linearized ADMM solver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one configuration")
    p_solve.add_argument("config", help="path to a run-configuration file")

    p_validate = sub.add_parser("validate", help="check solver parameters")
    p_validate.add_argument("config", help="path to a run-configuration file")

    p_bench = sub.add_parser("bench", help="run a directory of configurations")
    p_bench.add_argument("config_dir", help="directory of .ini run configs")
    p_bench.add_argument("-o", "--out", required=True, help="combined CSV path")
    p_bench.add_argument(
        "--summary",
        action="store_true",
        help="also write per-method medians at integer epoch checkpoints",
    )

    args = parser.parse_args(argv)
    with np.errstate(all="ignore"):  # overflow ends in a typed error, not a warning
        if args.command == "solve":
            return cmd_solve(args.config)
        if args.command == "validate":
            return cmd_validate(args.config)
        return cmd_bench(args.config_dir, args.out, summary=args.summary)


if __name__ == "__main__":
    sys.exit(main())
