import csv
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sadmm import (
    build_fused_lasso,
    build_graph,
    build_toy_reconstruction,
    generate_synthetic_quadratic,
    parse_libsvm,
)
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

    # 1: a batch larger than the data set, in both commands
    big = BASE_SYNTH.format(trace=tmp_path / "big.csv").replace("batch_size = 3", "batch_size = 50")
    big_cfg = write_config(tmp_path / "big.ini", big)
    for command in ("solve", "validate"):
        assert main([command, big_cfg]) == 1
        err = capsys.readouterr().err
        assert "error: batch_size 50 exceeds component count 12" in err
        assert "Traceback" not in err

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "conditioning, estimator, tau",
    [
        ("1e150", "saga", "4.0"),  # L^2 overflows
        ("1e150", "sgd", "4.0"),  # and so do the uncertified defaults
        ("1e300", "saga", "4.0"),  # L = inf: no eta gives a finite eta_tilde
        ("1", "saga", "1e200"),  # tau^2 overflows
    ],
)
def test_extreme_finite_parameters_are_reported(tmp_path, capsys, conditioning, estimator, tau):
    body = BASE_SYNTH.format(trace=tmp_path / "x.csv").replace(
        "seed = 3", f"seed = 3\nconditioning = {conditioning}"
    ).replace("estimator = saga", f"estimator = {estimator}").replace("tau = 4.0", f"tau = {tau}")
    cfg = write_config(tmp_path / "x.ini", body + "diag_every = 1\n")
    assert main(["validate", cfg]) == 3
    assert "check_eta_tilde_positive = fail" in capsys.readouterr().out
    assert main(["solve", cfg]) in (0, 2)
    out, err = capsys.readouterr()
    assert "[FAIL] eta_tilde_positive" in out
    assert "Traceback" not in err


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


def test_bench_output_does_not_depend_on_worker_count(tmp_path, monkeypatch):
    kinds = ("saga", "sgd", "sarah", "full")
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for kind in kinds:
        for seed in (0, 1):
            body = BASE_SYNTH.format(trace="unused.csv")
            body = body.replace("estimator = saga", f"estimator = {kind}")
            write_config(bench_dir / f"{kind}{seed}.ini", body.replace("seed = 11", f"seed = {seed}"))
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("SADMM_THREADS", threads)
        out_csv = tmp_path / f"out{threads}.csv"
        assert main(["bench", str(bench_dir), "-o", str(out_csv), "--summary"]) == 0
        summary = tmp_path / f"out{threads}_summary.csv"
        outputs.append((out_csv.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]
    rows = list(csv.DictReader(outputs[0][0].decode().splitlines()))
    assert {(r["method"], r["seed"]) for r in rows} == {(k, s) for k in kinds for s in "01"}


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


def _svm_lines(n, seed):
    rng = np.random.default_rng(seed)
    return "".join(
        f"{'+1' if rng.random() > 0.5 else '-1'} "
        + " ".join(f"{j + 1}:{rng.standard_normal():.6f}" for j in range(4))
        + "\n"
        for _ in range(n)
    )


def _fused_lasso_config(tmp_path, train, test=None):
    body = f"""
[problem]
builder = fused_lasso
data = {train}
rho_c = 0.5
{'' if test is None else f'test_data = {test}'}

[solver]
beta = 1.0
tau = 2.0
max_epochs = 2

[output]
trace = {tmp_path / "fl.csv"}
"""
    return write_config(tmp_path / "fl.ini", body)


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bytes.ini"
    cfg.write_bytes(BASE_SYNTH.format(trace="t.csv").encode() + b"label = \xff\n")
    assert main(["solve", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        load_run_config(str(cfg))


@pytest.mark.parametrize("which", ["data", "test_data"])
def test_non_utf8_data_file_is_an_error(tmp_path, capsys, which):
    good, bad = tmp_path / "good.svm", tmp_path / "bad.svm"
    good.write_text(_svm_lines(20, 0))
    bad.write_bytes(_svm_lines(20, 1).encode() + b"+1 1:0.5 2:\xff\n")
    data, test_data = (bad, None) if which == "data" else (good, bad)
    assert main(["solve", _fused_lasso_config(tmp_path, data, test_data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 21" in err


def test_trace_in_a_missing_directory_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", BASE_SYNTH.format(trace=tmp_path / "no" / "t.csv"))
    assert main(["solve", cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_unwritable_plot_data_csv_is_an_error(tmp_path, capsys):
    (tmp_path / "t_plotdata.csv").mkdir()
    body = BASE_SYNTH.format(trace=tmp_path / "t.csv") + "plot_data = true\n"
    assert main(["solve", write_config(tmp_path / "run.ini", body)]) == 1
    assert "error:" in capsys.readouterr().err


def _bench_dir(tmp_path):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    write_config(bench_dir / "run.ini", BASE_SYNTH.format(trace="unused.csv"))
    return str(bench_dir)


def test_bench_output_in_a_missing_directory_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SADMM_THREADS", "1")
    out_csv = tmp_path / "no" / "out.csv"
    assert main(["bench", _bench_dir(tmp_path), "-o", str(out_csv)]) == 1
    assert "error:" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the output directory was checked")


def test_solve_checks_the_trace_directory_before_solving(tmp_path, monkeypatch, capsys):
    import sadmm.cli

    monkeypatch.setattr(sadmm.cli, "build_problem", _must_not_run)
    monkeypatch.setattr(sadmm.cli, "run", _must_not_run)
    body = BASE_SYNTH.format(trace=tmp_path / "no" / "t.csv") + "plot_data = true\n"
    assert main(["solve", write_config(tmp_path / "run.ini", body)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no directory" in err


@pytest.mark.parametrize("summary", [[], ["--summary"]])
def test_bench_checks_the_output_directory_before_any_member(tmp_path, monkeypatch, capsys,
                                                             summary):
    import sadmm.cli

    monkeypatch.setenv("SADMM_THREADS", "1")
    monkeypatch.setattr(sadmm.cli, "_bench_worker", _must_not_run)
    out_csv = tmp_path / "no" / "out.csv"
    assert main(["bench", _bench_dir(tmp_path), "-o", str(out_csv), *summary]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no directory" in err


def test_unwritable_bench_summary_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SADMM_THREADS", "1")
    (tmp_path / "out_summary.csv").mkdir()
    out_csv = tmp_path / "out.csv"
    assert main(["bench", _bench_dir(tmp_path), "-o", str(out_csv), "--summary"]) == 1
    assert "error:" in capsys.readouterr().err


def test_nan_residual_tol_is_a_config_error(tmp_path):
    body = BASE_SYNTH.format(trace="t.csv").replace("seed = 11", "seed = 11\nresidual_tol = nan")
    with pytest.raises(ConfigError, match="residual_tol"):
        load_run_config(write_config(tmp_path / "nan.ini", body))


_SOLVER_DEFAULTS = {
    "sigma": 0.95, "max_epochs": 10, "residual_tol": 0.0, "diag_every": 0, "seed": 0,
    "output_rule": "final",
}
_PROBLEM_DEFAULTS = {
    "fused_lasso": {"lambda1": 1e-5, "rho_c": 0.9, "n_features": None, "name": "fused_lasso"},
    "toy_reconstruction": {
        "forward": "blur", "radius": 1, "keep": 0.5, "noise_sigma": 0.0, "lam": 0.01,
        "reg_kind": "l1", "seed": 0,
    },
    "synthetic_quadratic": {"seed": 0, "conditioning": 1.0},
}


def _row_store_bytes(problem):
    comps = problem.loss.components
    return np.vstack([c.row for c in comps]).tobytes(), np.array([c.b for c in comps]).tobytes()


@pytest.mark.parametrize("builder", ["fused_lasso", "toy_reconstruction", "synthetic_quadratic"])
@pytest.mark.parametrize("estimator", [None, "svrg", "sarah"])
def test_every_default_of_every_section(tmp_path, builder, estimator):
    required = {
        "fused_lasso": "data = train.svm",
        "toy_reconstruction": "height = 8\nwidth = 9",
        "synthetic_quadratic": "n = 12\nd = 4",
    }[builder]
    chosen = "" if estimator is None else f"estimator = {estimator}"
    body = f"[problem]\nbuilder = {builder}\n{required}\n[solver]\nbeta = 1\ntau = 2\n{chosen}\n"
    (tmp_path / "train.svm").write_text("+1 1:1 3:2\n-1 2:1\n+1 1:-1 2:0.5\n")
    rc = load_run_config(write_config(tmp_path / "d.ini", body))
    config, spec = rc.solver, rc.solver.estimator
    assert {k: getattr(config, k) for k in _SOLVER_DEFAULTS} == _SOLVER_DEFAULTS
    kind = estimator or "full"
    assert (spec.kind, spec.batch_size, spec.epoch_len, spec.seed) == (kind, 1, None, 0)
    assert spec.restart_p == (8.0 if kind == "sarah" else None)
    assert (rc.trace_path, rc.plot_data, rc.label, rc.test_data) == (None, False, kind, None)
    # the INI defaults are the builders' own: a direct call with none given agrees
    args = dict(rc.problem)
    assert args.pop("builder") == builder
    if builder == "fused_lasso":
        assert args.pop("data") == str(tmp_path / "train.svm")
        data = parse_libsvm(tmp_path / "train.svm")
        assert (data.n, data.d) == (3, 3)
        direct = build_fused_lasso(data, graph=build_graph(data, rho_c=0.9))
    elif builder == "toy_reconstruction":
        assert (args.pop("height"), args.pop("width")) == (8, 9)
        direct, _truth = build_toy_reconstruction(8, 9)
    else:
        assert (args.pop("n"), args.pop("d")) == (12, 4)
        direct = generate_synthetic_quadratic(12, 4)
    assert args == _PROBLEM_DEFAULTS[builder]
    problem = build_problem(rc)
    assert problem.name == direct.name
    assert _row_store_bytes(problem) == _row_store_bytes(direct)
    assert (type(problem.reg), problem.reg.lam) == (type(direct.reg), direct.reg.lam)
    assert (type(problem.op), problem.op.in_dim, problem.op.out_dim) == (
        type(direct.op), direct.op.in_dim, direct.op.out_dim,
    )


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("n = 12", "n = 12\nwormhole = 1", "[problem] unknown key 'wormhole'"),
        ("sigma = 0.9", "sigma = 0.9\nwormhole = 1", "[solver] unknown key 'wormhole'"),
        ("[output]", "[output]\nwormhole = 1", "[output] unknown key 'wormhole'"),
        ("[output]", "[plots]", "unknown section [plots]"),
        ("[solver]", "[solverr]", "unknown section [solverr]"),
        ("builder = synthetic_quadratic", "builder = mystery", "[problem] unknown builder 'mystery'"),
        ("builder = synthetic_quadratic\n", "", "[problem] missing required key 'builder'"),
        ("d = 4\n", "", "[problem] missing required key 'd'"),
        ("tau = 4.0\n", "", "[solver] missing required key 'tau'"),
        ("n = 12", "n = twelve", "[problem] n = 'twelve' is not a valid int"),
        ("seed = 3", "seed = 3\nconditioning = x", "[problem] conditioning = 'x' is not a valid float"),
        ("beta = 1.0", "beta = 1,0", "[solver] beta = '1,0' is not a valid float"),
        ("batch_size = 3", "batch_size = 3.0", "[solver] batch_size = '3.0' is not a valid int"),
        ("[output]", "[output]\nplot_data = maybe", "[output] plot_data = 'maybe' is not a valid bool"),
        ("[output]", "[output]\ndiag_every = often", "[output] diag_every = 'often' is not a valid int"),
        ("sigma = 0.9", "sigma = 0.9\nsarah_p = 4", "[solver] sarah_p applies to estimator 'sarah' only, not 'saga'"),
        ("sigma = 0.9", "sigma = 0.9\nepoch_len = 5", "[solver] epoch_len applies to estimator 'svrg' only, not 'saga'"),
        ("beta = 1.0", "beta = -1.0", "[solver] beta must be positive, got -1.0"),
        ("batch_size = 3", "batch_size = 0", "[solver] batch_size must be at least 1"),
        ("estimator = saga", "estimator = adam", "[solver] unknown estimator kind 'adam'"),
        ("estimator = saga", "estimator = sarah\nsarah_p = 1", "[solver] sarah requires restart_p > 1"),
        ("estimator = saga", "estimator = sarah\nsarah_p = inf", "[solver] restart_p must be finite, got inf"),
        ("sigma = 0.9", "sigma = 0.9\noutput_rule = best", "[solver] unknown output_rule 'best'"),
    ],
)
def test_single_fault_message(tmp_path, old, new, message):
    body = BASE_SYNTH.format(trace="t.csv")
    assert old in body
    cfg = write_config(tmp_path / "f.ini", body.replace(old, new, 1))
    with pytest.raises(ConfigError) as info:
        load_run_config(cfg)
    assert str(info.value) == message


@pytest.mark.parametrize("spelling, value", [
    ("True", True), ("yES", True), ("On", True), ("1", True),
    ("FALSE", False), ("No", False), ("oFF", False), ("0", False),
])
def test_every_boolean_spelling_in_any_case(tmp_path, spelling, value):
    body = BASE_SYNTH.format(trace="t.csv") + f"plot_data = {spelling}\n"
    assert load_run_config(write_config(tmp_path / "b.ini", body)).plot_data is value


_SCHEMA_KEYS = [
    "builder", "data", "lambda1", "rho_c", "n_features", "test_data", "name", "height", "width",
    "forward", "radius", "keep", "noise_sigma", "lambda", "reg", "seed", "n", "d", "conditioning",
    "beta", "tau", "sigma", "estimator", "batch_size", "epoch_len", "sarah_p", "max_epochs",
    "residual_tol", "output_rule", "trace", "diag_every", "plot_data", "label",
]
_VALUES = [
    "1", "12", "0", "-1", "0.5", "nan", "inf", "1e999", "99999999999999999999", "x", "", "true",
    "full", "sarah", "svrg", "synthetic_quadratic", "toy_reconstruction", "fused_lasso", "l0",
    "mask", "uniform_random", "a.svm", "%(x)s",
]
_ENTRIES = st.lists(
    st.tuples(st.sampled_from(_SCHEMA_KEYS + ["wormhole", "Beta", "a b"]), st.sampled_from(_VALUES)),
    max_size=6,
)
_SECTIONS = st.lists(
    st.tuples(st.sampled_from(["problem", "solver", "output", "plots", "DEFAULT"]), _ENTRIES),
    max_size=4,
)
_VALID = [
    ("problem", [("builder", "synthetic_quadratic"), ("n", "12"), ("d", "4")]),
    ("solver", [("beta", "1.0"), ("tau", "4.0")]),
]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.booleans(), _SECTIONS, st.binary(max_size=6), st.integers(0, 400))
def test_loader_raises_only_config_errors(tmp_path, from_valid, sections, junk, at):
    merged = dict(_VALID) if from_valid else {}
    for name, entries in sections:
        merged[name] = merged.get(name, []) + entries
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in entries)
        for name, entries in merged.items()
    ).encode()
    cfg = tmp_path / "any.ini"
    cfg.write_bytes(text[:at] + junk + text[at:])
    try:
        load_run_config(str(cfg))
    except ConfigError:
        pass
