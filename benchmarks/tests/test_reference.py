"""Tests of the benchmark's own reference computations, on tiny cases.

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402


@pytest.mark.parametrize("height,width", [(2, 2), (3, 5), (6, 4), (7, 7)])
def test_grid_laplacian_closed_form_matches_dense_eigvalsh(height, width):
    diff = ref.finite_difference_2d_matrix(height, width)
    assert diff.shape == (height * (width - 1) + (height - 1) * width, height * width)
    eigs = np.linalg.eigvalsh(diff.T @ diff)
    assert ref.grid_laplacian_norm_sq(height, width) == pytest.approx(eigs[-1], rel=1e-12)
    # A^T A is the Neumann Laplacian: constants are its null space
    assert eigs[0] == pytest.approx(0.0, abs=1e-12)


def test_difference_rows_match_their_definition():
    img = np.arange(12.0).reshape(3, 4) ** 2
    got = ref.finite_difference_2d_matrix(3, 4) @ img.ravel()
    want = np.concatenate([(img[:, 1:] - img[:, :-1]).ravel(), (img[1:] - img[:-1]).ravel()])
    np.testing.assert_array_equal(got, want)


def test_box_blur_averages_the_clipped_window():
    blur = ref.box_blur_matrix(4, 5, 1)
    np.testing.assert_allclose(blur.sum(axis=1), 1.0)
    corner = blur[0].reshape(4, 5)
    assert np.count_nonzero(corner) == 4 and corner[0, 0] == pytest.approx(0.25)
    assert np.count_nonzero(blur[6]) == 9


def _orthonormal_lasso(n=12, d=4, lam=0.3, seed=0):
    """(1/n)||R x - b||^2 + lam ||x||_1 with (2/n) R^T R = I.

    Its solution is the soft threshold of (2/n) R^T b at lam.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    rows = np.sqrt(n / 2.0) * q
    targets = rng.standard_normal(n) * 2.0
    v = 2.0 / n * rows.T @ targets
    solution = np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
    return rows, targets, lam, solution


def test_proximal_gradient_reaches_the_known_lasso_solution():
    rows, targets, lam, solution = _orthonormal_lasso()
    assert np.count_nonzero(solution) not in (0, solution.size)
    x, obj = ref.proximal_gradient_lasso(rows, targets, lam)
    np.testing.assert_allclose(x, solution, atol=1e-12)
    r = rows @ solution - targets
    assert obj == pytest.approx(r @ r / rows.shape[0] + lam * np.abs(solution).sum(), rel=1e-14)


def test_kkt_residuals_vanish_only_at_the_solution():
    rows, targets, lam, x = _orthonormal_lasso()
    eye = np.eye(x.size)
    grad = ref.least_squares_gradient(rows, targets, x)
    u = -grad  # with A = I, stationarity gives u = -grad H(x)
    assert max(ref.kkt_residuals(grad, eye, lam, x, x, u)) < 1e-12
    moved = x + 0.1
    grad_moved = ref.least_squares_gradient(rows, targets, moved)
    stat, feas, gap = ref.kkt_residuals(grad_moved, eye, lam, moved, x, u)
    assert stat > 1e-3 and feas == pytest.approx(0.1 * np.sqrt(x.size)) and gap < 1e-12


def test_sigmoid_objective_and_gradient_agree_with_their_definitions():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((7, 3))
    labels = np.where(rng.random(7) < 0.5, -1.0, 1.0)
    x = rng.standard_normal(3)
    direct = np.mean(1.0 / (1.0 + np.exp(labels * (rows @ x))))
    assert ref.objective("sigmoid", rows, labels, 0.0, x, x) == pytest.approx(direct, rel=1e-14)
    h = 1e-6
    fd = [
        (np.mean(ref.sigmoid_losses(rows, labels, x + h * e)) - np.mean(ref.sigmoid_losses(rows, labels, x - h * e)))
        / (2 * h)
        for e in np.eye(3)
    ]
    np.testing.assert_allclose(ref.sigmoid_gradient(rows, labels, x), fd, atol=1e-9)


def test_correlation_edges_and_fused_operator():
    base = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    features = np.column_stack([base, base, 1.0 - base, np.ones(6)])
    assert ref.correlation_edges(features, 0.9) == [(0, 1), (0, 2), (1, 2)]
    matrix = ref.fused_lasso_matrix([(0, 2)], 4)
    np.testing.assert_array_equal(matrix[0], [1.0, 0.0, -1.0, 0.0])
    np.testing.assert_array_equal(matrix[1:], np.eye(4))


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_smoke_run_reports_counts_and_every_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(["--workload", "quadratic_tol", "--seed", "3", "--seconds", "0.1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "fused_lasso", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
