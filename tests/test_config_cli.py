import csv
import os

import numpy as np
import pytest

from sadmm.cli import main
from sadmm.config import build_problem, load_run_config
from sadmm.exceptions import ConfigError


def write_config(path, body):
    path.write_text(body)
    return str(path)


BASE_SYNTH = """
[problem]
builder = synthetic_quadratic
n = 12
d = 4
seed = 3

[solver]
beta = 1.0
tau = 4.0
sigma = 0.9
estimator = saga
batch_size = 3
max_epochs = 4
seed = 11

[output]
trace = {trace}
"""


def test_load_config_and_defaults(tmp_path):
    cfg = write_config(tmp_path / "run.ini", BASE_SYNTH.format(trace="out.csv"))
    rc = load_run_config(cfg)
    assert rc.solver.beta == 1.0
    assert rc.solver.estimator.kind == "saga"
    assert rc.solver.estimator.seed == 11
    assert rc.label == "saga"
    # relative paths resolve against the config directory
    assert rc.trace_path == str(tmp_path / "out.csv")
    problem = build_problem(rc)
    assert problem.loss.n == 12


def test_unknown_key_is_named(tmp_path):
    body = BASE_SYNTH.format(trace="out.csv") + "\n[solver]\n"  # dup section is a parse error
    bad = BASE_SYNTH.format(trace="out.csv").replace("sigma = 0.9", "sigma = 0.9\nwormhole = 3")
    cfg = write_config(tmp_path / "bad.ini", bad)
    with pytest.raises(ConfigError, match="wormhole"):
        load_run_config(cfg)


def test_unknown_section_and_builder(tmp_path):
    cfg = write_config(
        tmp_path / "s.ini", BASE_SYNTH.format(trace="t.csv") + "\n[plots]\nx = 1\n"
    )
    with pytest.raises(ConfigError, match="plots"):
        load_run_config(cfg)
    cfg2 = write_config(
        tmp_path / "b.ini",
        BASE_SYNTH.format(trace="t.csv").replace("synthetic_quadratic", "mystery"),
    )
    with pytest.raises(ConfigError, match="mystery"):
        load_run_config(cfg2)


def test_missing_required_key(tmp_path):
    body = BASE_SYNTH.format(trace="t.csv").replace("tau = 4.0\n", "")
    cfg = write_config(tmp_path / "m.ini", body)
    with pytest.raises(ConfigError, match="tau"):
        load_run_config(cfg)


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("saga", "sarah_p = 4.0"),
        ("svrg", "sarah_p = 4.0"),
        ("full", "sarah_p = 4.0"),
        ("saga", "epoch_len = 5"),
        ("sarah", "epoch_len = 5"),
        ("sgd", "epoch_len = 5"),
    ],
)
def test_estimator_specific_key_rejected_for_other_estimators(tmp_path, kind, extra):
    body = BASE_SYNTH.format(trace="t.csv").replace(
        "estimator = saga", f"estimator = {kind}\n{extra}"
    )
    cfg = write_config(tmp_path / "k.ini", body)
    key = extra.split(" = ")[0]
    with pytest.raises(ConfigError, match=rf"{key}.*'{kind}'"):
        load_run_config(cfg)


@pytest.mark.parametrize("kind, extra", [("sarah", "sarah_p = 4.0"), ("svrg", "epoch_len = 5")])
def test_estimator_specific_key_accepted_for_its_estimator(tmp_path, kind, extra):
    body = BASE_SYNTH.format(trace="t.csv").replace(
        "estimator = saga", f"estimator = {kind}\n{extra}"
    )
    rc = load_run_config(write_config(tmp_path / "k.ini", body))
    assert rc.solver.estimator.kind == kind
    if kind == "sarah":
        assert rc.solver.estimator.restart_p == 4.0
    else:
        assert rc.solver.estimator.epoch_len == 5


def test_solve_writes_trace_with_frozen_header(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    cfg = write_config(tmp_path / "run.ini", BASE_SYNTH.format(trace=trace))
    assert main(["solve", cfg]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,epoch,objective,primal_residual,wall_ms"
    # ceil(12 / 3) = 4 iterations per epoch, 4 epochs
    assert len(lines) == 1 + 16
    out = capsys.readouterr().out
    assert "parameter report" in out and "finished:" in out


def test_solve_diagnostics_header(tmp_path):
    body = BASE_SYNTH.format(trace=tmp_path / "t.csv") + "diag_every = 2\n"
    cfg = write_config(tmp_path / "run.ini", body)
    assert main(["solve", cfg]) == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert (
        lines[0]
        == "iter,epoch,objective,primal_residual,wall_ms,aug_lagrangian,psi,upsilon,grad_err_sq_prev"
    )
    rows = list(csv.DictReader(lines))
    # iterations are 1-based in the trace; diagnostics sampled when the
    # 0-based step index is divisible by diag_every
    for row in rows:
        sampled = (int(row["iter"]) - 1) % 2 == 0
        assert (row["aug_lagrangian"] != "") == sampled


def test_solve_with_diagnostics_estimates_spectrum_once(tmp_path, monkeypatch):
    import sadmm.cli
    import sadmm.solver

    calls = []

    def counting(op, **kwargs):
        calls.append(kwargs)
        return sadmm.linops.estimate_spectral(op, **kwargs)

    monkeypatch.setattr(sadmm.cli, "estimate_spectral", counting)
    monkeypatch.setattr(sadmm.solver, "estimate_spectral", counting)
    body = BASE_SYNTH.format(trace=tmp_path / "t.csv") + "diag_every = 2\n"
    cfg = write_config(tmp_path / "run.ini", body)
    assert main(["solve", cfg]) == 0
    assert calls == [{"seed": 11}]


def test_solve_rerun_identical_modulo_wall_ms(tmp_path):
    trace_a = tmp_path / "a.csv"
    trace_b = tmp_path / "b.csv"
    cfg_a = write_config(tmp_path / "a.ini", BASE_SYNTH.format(trace=trace_a))
    cfg_b = write_config(tmp_path / "b.ini", BASE_SYNTH.format(trace=trace_b))
    assert main(["solve", cfg_a]) == 0
    assert main(["solve", cfg_b]) == 0

    def strip_wall(path):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for row in rows[1:]:
            row[4] = ""
        return rows

    assert strip_wall(trace_a) == strip_wall(trace_b)


def test_solve_missing_trace_key_fails(tmp_path, capsys):
    body = BASE_SYNTH.format(trace="x.csv").replace("trace =", "; trace =")
    cfg = write_config(tmp_path / "run.ini", body)
    assert main(["solve", cfg]) == 1
    assert "trace" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
def test_exit_code_table(tmp_path, capsys):
    # 0: ok
    ok_cfg = write_config(
        tmp_path / "ok.ini", BASE_SYNTH.format(trace=tmp_path / "ok.csv")
    )
    assert main(["solve", ok_cfg]) == 0

    # 1: config error (unknown key, named on stderr)
    bad = BASE_SYNTH.format(trace="t.csv").replace("beta = 1.0", "beta = 1.0\nfrobnicate = 1")
    bad_cfg = write_config(tmp_path / "bad.ini", bad)
    assert main(["solve", bad_cfg]) == 1
    assert "frobnicate" in capsys.readouterr().err

    # 2: divergence
    div = BASE_SYNTH.format(trace=tmp_path / "d.csv").replace(
        "tau = 4.0", "tau = 0.0001"
    ).replace("max_epochs = 4", "max_epochs = 400")
    div_cfg = write_config(tmp_path / "div.ini", div)
    assert main(["solve", div_cfg]) == 2

    # 3: validation warns/fails
    val_cfg = write_config(
        tmp_path / "v.ini", BASE_SYNTH.format(trace=tmp_path / "v.csv")
    )
    assert main(["validate", val_cfg]) == 3


def test_validate_machine_block(tmp_path, capsys):
    cfg = write_config(tmp_path / "v.ini", BASE_SYNTH.format(trace="t.csv"))
    code = main(["validate", cfg])
    out = capsys.readouterr().out
    assert code == 3  # sigma = 0.9 violates the relaxation bound
    assert "[report]" in out
    assert "check_sigma_vs_kappa = fail" in out
    assert "eta_tilde = " in out


def test_bench_combined_csv_and_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SADMM_THREADS", "1")
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for kind, seeds in (("full", [0]), ("sarah", [1, 2, 3])):
        for seed in seeds:
            extra = "sarah_p = 4.0\n" if kind == "sarah" else ""
            body = f"""
[problem]
builder = synthetic_quadratic
n = 12
d = 4
seed = 3

[solver]
beta = 1.0
tau = 4.0
sigma = 0.9
estimator = {kind}
batch_size = 3
max_epochs = 5
seed = {seed}
{extra}
"""
            write_config(bench_dir / f"{kind}_{seed}.ini", body)
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", str(bench_dir), "-o", str(out_csv), "--summary"]) == 0
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    methods = {r["method"] for r in rows}
    assert methods == {"full", "sarah"}
    sarah_seeds = {r["seed"] for r in rows if r["method"] == "sarah"}
    assert sarah_seeds == {"1", "2", "3"}

    summary = (tmp_path / "bench_summary.csv").read_text().splitlines()
    assert summary[0] == "method,epoch,median_objective"
    # oracle: recompute the median at checkpoint 2 from the long csv
    target = None
    for line in summary[1:]:
        method, epoch, median = line.split(",")
        if method == "sarah" and epoch == "2":
            target = float(median)
    assert target is not None
    per_seed = []
    for seed in ("1", "2", "3"):
        cands = [
            (float(r["epoch"]), float(r["objective"]))
            for r in rows
            if r["method"] == "sarah" and r["seed"] == seed and float(r["epoch"]) <= 2
        ]
        per_seed.append(max(cands)[1])
    assert target == pytest.approx(float(np.median(per_seed)))


def test_bench_partial_failure_recorded(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SADMM_THREADS", "1")
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    write_config(bench_dir / "ok.ini", BASE_SYNTH.format(trace="unused.csv"))
    write_config(
        bench_dir / "broken.ini",
        BASE_SYNTH.format(trace="unused.csv").replace("beta = 1.0", "beta = -1.0"),
    )
    out_csv = tmp_path / "out.csv"
    assert main(["bench", str(bench_dir), "-o", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert any(line.startswith("broken,") and "nan" in line for line in lines)
    assert "broken" in capsys.readouterr().err

    # all failing -> exit 1
    for f in bench_dir.iterdir():
        f.unlink()
    write_config(
        bench_dir / "broken.ini",
        BASE_SYNTH.format(trace="unused.csv").replace("beta = 1.0", "beta = -1.0"),
    )
    assert main(["bench", str(bench_dir), "-o", str(out_csv)]) == 1


def test_bench_parallel_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("SADMM_THREADS", "2")
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for seed in range(3):
        write_config(
            bench_dir / f"run{seed}.ini",
            BASE_SYNTH.format(trace="unused.csv").replace("seed = 11", f"seed = {seed}"),
        )
    out_csv = tmp_path / "out.csv"
    assert main(["bench", str(bench_dir), "-o", str(out_csv)]) == 0
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    assert {r["seed"] for r in rows} == {"0", "1", "2"}


def test_bench_survives_a_dead_worker(tmp_path, monkeypatch, capsys):
    # the member with seed 1 kills its worker process; the bench still
    # writes a row for every member and applies the usual exit rule
    import sadmm.cli

    monkeypatch.setenv("SADMM_THREADS", "2")
    parent, real_run = os.getpid(), sadmm.cli.run

    def dying_run(problem, config, *args, **kwargs):
        if config.seed == 1 and os.getpid() != parent:
            os._exit(3)
        return real_run(problem, config, *args, **kwargs)

    monkeypatch.setattr(sadmm.cli, "run", dying_run)
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for seed in range(3):
        write_config(
            bench_dir / f"run{seed}.ini",
            BASE_SYNTH.format(trace="unused.csv").replace("seed = 11", f"seed = {seed}"),
        )
    out_csv = tmp_path / "out.csv"
    rc = main(["bench", str(bench_dir), "-o", str(out_csv)])
    lines = out_csv.read_text().splitlines()
    failed = {line.split(",")[0] for line in lines if line.endswith(",-1,nan,nan,nan")}
    done = {r["seed"] for r in csv.DictReader(lines) if r["seed"] != "-1"}
    assert "run1" in failed and "1" not in done
    assert len(failed) + len(done) == 3
    assert rc == (1 if len(failed) == 3 else 0)
    assert "run1" in capsys.readouterr().err


def test_bench_members_left_unqueued_by_a_broken_pool_become_error_rows(monkeypatch):
    # a worker can die while members are still being queued: submit then
    # raises, and the members not queued are reported, not lost
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    import sadmm.cli

    class HalfBrokenPool:
        def __init__(self, max_workers):
            self.queued = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, path):
            self.queued += 1
            if self.queued > 1:
                raise BrokenProcessPool("worker died")
            done = Future()
            done.set_result({"label": "first", "seed": 0, "rows": [], "error": None})
            return done

    monkeypatch.setattr(sadmm.cli, "ProcessPoolExecutor", HalfBrokenPool)
    bundles = sadmm.cli._pool_bundles(["a/one.ini", "a/two.ini", "a/three.ini"], 2)
    assert [b["label"] for b in bundles] == ["first", "two", "three"]
    assert [b["error"] is None for b in bundles] == [True, False, False]


def test_plot_data_toggle_writes_long_format(tmp_path):
    trace = tmp_path / "t.csv"
    body = BASE_SYNTH.format(trace=trace) + "plot_data = true\nlabel = demo\n"
    cfg = write_config(tmp_path / "run.ini", body)
    assert main(["solve", cfg]) == 0
    plot = tmp_path / "t_plotdata.csv"
    assert plot.exists()
    rows = list(csv.DictReader(plot.read_text().splitlines()))
    assert rows[0]["method"] == "demo"
    assert len(rows) == 16


def test_toy_reconstruction_config(tmp_path):
    trace = tmp_path / "recon.csv"
    body = f"""
[problem]
builder = toy_reconstruction
height = 8
width = 8
forward = mask
keep = 0.9
noise_sigma = 0.01
lambda = 0.001
reg = l0
seed = 4

[solver]
beta = 0.5
tau = 8.0
sigma = 0.9
estimator = svrg
batch_size = 8
max_epochs = 2
seed = 1

[output]
trace = {trace}
"""
    cfg = write_config(tmp_path / "recon.ini", body)
    assert main(["solve", cfg]) == 0
    assert trace.exists()


def test_validate_exit_zero_on_engineered_feasible_config(tmp_path, capsys):
    from helpers import engineered_feasible_params
    from sadmm import (
        EstimatorSpec,
        generate_synthetic_quadratic,
        theoretical_constants,
    )

    problem = generate_synthetic_quadratic(12, 4, seed=3, conditioning=1.0)
    L = problem.loss.lipschitz_bound()
    vc = theoretical_constants(EstimatorSpec("saga", batch_size=1), L, 12)
    beta, tau, sigma = engineered_feasible_params(
        1.0, 1.0, 1.0, L.L, vc.v1, vc.v_upsilon, vc.rho
    )
    body = f"""
[problem]
builder = synthetic_quadratic
n = 12
d = 4
seed = 3
conditioning = 1.0

[solver]
beta = {beta!r}
tau = {tau!r}
sigma = {sigma!r}
estimator = saga
batch_size = 1
"""
    cfg = write_config(tmp_path / "feasible.ini", body)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "check_eta_tilde_positive = pass" in out


def test_fused_lasso_config_with_test_split(tmp_path, capsys):
    train = tmp_path / "train.svm"
    test = tmp_path / "test.svm"
    rng = np.random.default_rng(0)
    for path, n in ((train, 30), (test, 10)):
        lines = []
        for _ in range(n):
            label = "+1" if rng.random() > 0.5 else "-1"
            feats = " ".join(
                f"{j + 1}:{rng.standard_normal():.6f}" for j in range(4)
            )
            lines.append(f"{label} {feats}")
        path.write_text("\n".join(lines) + "\n")
    body = f"""
[problem]
builder = fused_lasso
data = {train}
lambda1 = 1e-5
rho_c = 0.5
test_data = {test}

[solver]
beta = 1.0
tau = 2.0
sigma = 0.95
estimator = full
max_epochs = 10

[output]
trace = {tmp_path / "fl.csv"}
"""
    cfg = write_config(tmp_path / "fl.ini", body)
    assert main(["solve", cfg]) == 0
    out = capsys.readouterr().out
    assert "test objective" in out
    assert "test mean sigmoid loss" in out
