"""Benchmark of the sadmm solver on three workloads.

    python3 benchmarks/run.py --workload fused_lasso --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there. The inputs are written from ``--seed`` into ``benchmarks/out/``
and removed at exit. One round sets up every problem instance of the
workload and performs every solve of it, through the entry points
``sadmm solve`` uses. Round 0 is a warm-up under ``tracemalloc`` (for
``peak_mb``) whose outputs are checked against ``reference``; then whole
rounds repeat for ``--seconds`` and each metric is the median over them.

With ``--trace 0`` the rounds run the program untouched and the end-to-end
metrics are printed. With ``--trace 1`` untraced and traced rounds
alternate; the per-layer metrics come from the traced rounds' spans, and
the gap between the two kinds of round is the tracing overhead. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before numpy loads. On a shared 2-vCPU host a second
# OpenBLAS thread waits on whichever core a neighbour holds: with one core
# kept busy beside the run, us_per_iter.full on fused_lasso rose 23 % with
# two threads and 6 % with one, while an idle run was no slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from workloads import KINDS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_program():
    src = ROOT / "src"
    if not (src / "sadmm" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'sadmm'}")
    sys.path.insert(0, str(src))


@dataclass
class Round:
    """Timings and outputs of one pass over a workload."""

    setup_s: list = field(default_factory=list)
    wall_s: float = 0.0
    run_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)  # run_s plus loading the config and writing the trace
    results: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    failed: int = 0


def _setup(config_path):
    """Raw inputs to a problem ready to iterate, as ``sadmm solve`` does it."""
    import sadmm
    from sadmm import config as cfg

    run_config = cfg.load_run_config(config_path)
    problem = cfg.build_problem(run_config)
    lipschitz = problem.loss.lipschitz_bound()
    try:
        spectral = sadmm.estimate_spectral(problem.op, seed=run_config.solver.seed)
    except sadmm.SpectralEstimationError as exc:
        spectral = exc.best
    report = sadmm.validate_params(problem, run_config.solver, spectral, lipschitz)
    return problem, spectral, report


def _solve(problem, op, log):
    import sadmm
    from sadmm import config as cfg, trace

    run_config = cfg.load_run_config(op.config)
    with log.span(f"bench.{op.role}.{op.kind}") if log else nullcontext():
        t0 = time.perf_counter()
        result = sadmm.run(problem, run_config.solver)
        elapsed = time.perf_counter() - t0
    trace.write_trace(run_config.trace_path, result.trace, with_diagnostics=run_config.solver.diag_every > 0)
    return result, elapsed


def one_round(workload, log=None):
    rnd = Round()
    start = time.perf_counter()
    problems = []
    for path in workload.instances:
        with log.span("bench.setup") if log else nullcontext():
            t0 = time.perf_counter()
            setup = _setup(path)
            rnd.setup_s.append(time.perf_counter() - t0)
        rnd.setups.append(setup)
        problems.append(setup[0])
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            result, elapsed = _solve(problems[op.instance], op, log)
        except Exception:  # noqa: BLE001 - a failed solve is counted, the round goes on
            traceback.print_exc(file=sys.stderr)
            rnd.failed += 1
            result, elapsed = None, math.nan
        rnd.op_s.append(time.perf_counter() - t0)
        rnd.results.append(result)
        rnd.run_s.append(elapsed)
    rnd.wall_s = time.perf_counter() - start
    return rnd


def _same_outputs(a, b):
    return all(
        ra is not None and rb is not None and len(ra.trace) == len(rb.trace)
        and ra.trace[-1].objective == rb.trace[-1].objective
        for ra, rb in zip(a.results, b.results)
    )


def end_to_end(workload, rounds, peak_bytes):
    """Each set-up and each solve is timed by its median over the rounds;
    a metric over several of them is the sum of their medians, so a short
    solve caught by a burst of host load in one round does not move it."""
    med = statistics.median
    ops = workload.ops
    first = rounds[0].results
    run_s = [med(r.run_s[i] for r in rounds) for i in range(len(ops))]
    setup_s = sum(med(r.setup_s[k] for r in rounds) for k in range(len(workload.instances)))

    def total(role, kind=None):
        return sum(run_s[i] for i, op in enumerate(ops) if op.role == role and kind in (None, op.kind))

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (setup_s + sum(med(r.op_s[i] for r in rounds) for i in range(len(ops))), "s"),
    }
    for kind in KINDS:
        idx = [i for i, op in enumerate(ops) if op.role == "fixed" and op.kind == kind]
        iters = sum(len(first[i].trace) for i in idx)
        metrics[f"us_per_iter.{kind}"] = (total("fixed", kind) / iters * 1e6, "us")
        objective = sum(first[i].trace[-1].objective for i in idx) / len(idx)
        metrics[f"objective.{kind}"] = (objective, "objective")
    metrics["time_to_tol_s"] = (total("tol"), "s")
    metrics["diag_run_s"] = (total("diag"), "s")
    metrics["peak_mb"] = (peak_bytes / 1e6, "MB")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        summary = measure(workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(summary)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def measure(workload, seed, seconds, trace):
    tracemalloc.start()
    warm = one_round(workload)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    checks = workload.check(warm.setups, warm.results) if warm.failed == 0 else []
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)
    correct = all(ok for _, ok, _ in checks)
    attempted = len(workload.ops) + len(checks)
    failed = warm.failed

    log = spans = None
    if trace:
        from tracer import Instrumentation, SpanLog

        log = SpanLog()
        spans = Instrumentation(log)
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(one_round(workload))
        if trace:
            with spans.installed(), log.span("bench.round"):
                traced.append(one_round(workload, log))
    for rnd in plain + traced:
        attempted += len(workload.ops)
        failed += rnd.failed
        correct = correct and (rnd.failed > 0 or _same_outputs(rnd, warm))
    print(f"{len(plain)} untraced and {len(traced)} traced rounds in "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)

    if trace:
        from layers import per_layer

        metrics = per_layer(workload, log, plain, traced)
        log.dump(OUT / f"spans_{workload.name}_seed{seed}.csv.gz")
    else:
        metrics = end_to_end(workload, plain, peak)
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
