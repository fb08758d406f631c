import numpy as np
import pytest

from helpers import central_diff_gradient
from sadmm import (
    SIGMOID_CURVATURE,
    FiniteSumLoss,
    LeastSquaresComponent,
    ShapeError,
    SigmoidComponent,
)


def random_sigmoid_loss(rng, n=10, d=6):
    comps = [
        SigmoidComponent(rng.standard_normal(d), rng.choice([-1.0, 1.0]))
        for _ in range(n)
    ]
    return FiniteSumLoss(comps)


def random_least_squares_loss(rng, n=10, d=6):
    comps = [
        LeastSquaresComponent(rng.standard_normal(d), rng.standard_normal())
        for _ in range(n)
    ]
    return FiniteSumLoss(comps)


def test_sigmoid_gradient_at_zero():
    c = SigmoidComponent([1.0, 0.0], 1.0)
    assert np.allclose(c.gradient([0.0, 0.0]), [-0.25, 0.0])
    assert c.value([0.0, 0.0]) == pytest.approx(0.5)


def test_least_squares_gradient_example():
    c = LeastSquaresComponent([1.0, 1.0], 3.0)
    assert np.array_equal(c.gradient([1.0, 1.0]), [-2.0, -2.0])
    assert c.value([1.0, 1.0]) == pytest.approx(1.0)


def test_sigmoid_gradient_matches_finite_differences():
    c = SigmoidComponent([2.0, -1.0], -1.0)
    x = np.array([0.3, 0.7])
    fd = central_diff_gradient(c.value, x)
    grad = c.gradient(x)
    assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_component_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for loss in (random_sigmoid_loss(rng), random_least_squares_loss(rng)):
        for _ in range(20):
            x = rng.standard_normal(loss.dim)
            for i in range(loss.n):
                fd = central_diff_gradient(lambda v: loss.component_value(i, v), x)
                grad = loss.component_gradient(i, x)
                err = np.linalg.norm(grad - fd)
                assert err <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_full_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    loss = random_sigmoid_loss(rng, n=10, d=5)
    x = rng.standard_normal(5)
    fd = central_diff_gradient(loss.full_value, x)
    assert np.linalg.norm(loss.full_gradient(x) - fd) <= 1e-6 * max(
        1.0, np.linalg.norm(fd)
    )


def test_row_dot_primitive_is_row_consistent():
    # the exact-equality contracts (mean consistency, gradient-table
    # cancellation) rest on this property of the row-dot kernel
    from sadmm.losses import _row_dots

    rng = np.random.default_rng(99)
    mat = rng.standard_normal((500, 37))
    x = rng.standard_normal(37)
    full = _row_dots(mat, x)
    for i in range(0, 500, 13):
        assert full[i] == _row_dots(mat[i : i + 1], x)[0]
    idx = rng.integers(0, 500, 40)
    assert np.array_equal(_row_dots(mat[idx], x), full[idx])


def test_full_gradient_is_exact_mean_of_components():
    rng = np.random.default_rng(2)
    for loss in (random_sigmoid_loss(rng, 13, 7), random_least_squares_loss(rng, 13, 7)):
        x = rng.standard_normal(7)
        stacked = np.stack([loss.component_gradient(i, x) for i in range(loss.n)])
        mean = np.add.reduce(stacked, axis=0) / loss.n
        assert np.array_equal(loss.full_gradient(x), mean)
        values = np.array([loss.component_value(i, x) for i in range(loss.n)])
        assert loss.full_value(x) == np.add.reduce(values) / loss.n


def _onehot_sigmoid_loss(rng):
    # 300 samples, 8 attribute groups of 5 one-hot columns each
    cols = np.arange(8) * 5 + rng.integers(0, 5, size=(300, 8))
    rows = np.zeros((300, 40))
    np.put_along_axis(rows, cols, 1.0, axis=1)
    return FiniteSumLoss(
        [SigmoidComponent(r, rng.choice([-1.0, 1.0])) for r in rows]
    )


def _banded_least_squares_loss(rng):
    # 1-D box blur of radius 2 on 150 pixels, every third measurement kept
    d = 150
    rows = np.zeros((d, d))
    for i in range(d):
        lo, hi = max(0, i - 2), min(d, i + 3)
        rows[i, lo:hi] = 1.0 / (hi - lo)
    rows = rows[::3]
    return FiniteSumLoss(
        [LeastSquaresComponent(r, rng.standard_normal()) for r in rows]
    )


def _mixed_loss(rng):
    comps = [
        SigmoidComponent(rng.standard_normal(6), rng.choice([-1.0, 1.0]))
        if i % 3
        else LeastSquaresComponent(rng.standard_normal(6), rng.standard_normal())
        for i in range(20)
    ]
    return FiniteSumLoss(comps)


@pytest.mark.parametrize(
    "make",
    [
        _onehot_sigmoid_loss,
        _banded_least_squares_loss,
        lambda rng: random_sigmoid_loss(rng, n=37, d=1),
        lambda rng: random_least_squares_loss(rng, n=37, d=1),
        _mixed_loss,
    ],
    ids=["onehot_sigmoid", "banded_least_squares", "d1_sigmoid", "d1_least_squares", "mixed"],
)
def test_full_gradient_equals_reduced_component_stack(make):
    # full_gradient takes no n x d table; it must still equal the axis-0
    # reduce of the stacked component gradients bit for bit, including
    # d = 1, where that reduce is pairwise over the rows
    rng = np.random.default_rng(6)
    loss = make(rng)
    for scale in (0.1, 1.0, 30.0):
        x = scale * rng.standard_normal(loss.dim)
        stacked = np.stack([loss.component_gradient(i, x) for i in range(loss.n)])
        expected = np.add.reduce(stacked, axis=0) / loss.n
        got = loss.full_gradient(x)
        assert got.shape == (loss.dim,)
        assert np.array_equal(got, expected)


def _masked_logistic(s):
    # the three-pass masked form the single-exp kernel replaced
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


@pytest.mark.filterwarnings("ignore:invalid value")
def test_single_exp_logistic_matches_masked_formula():
    from sadmm.losses import _logistic_pair

    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 800.0, -800.0, 1e-300]
    )
    rng = np.random.default_rng(7)
    swept = rng.standard_normal(5000) * np.repeat([1e-300, 1e-8, 1.0, 30.0, 700.0], 1000)
    for s in (special, swept):
        p, q = _logistic_pair(s)
        np.testing.assert_array_equal(p, _masked_logistic(s))
        np.testing.assert_array_equal(q, _masked_logistic(-s))
    for v in special:
        p, q = _logistic_pair(np.array([v]))
        np.testing.assert_array_equal(p, _masked_logistic([v]))
        np.testing.assert_array_equal(q, _masked_logistic([-v]))


def test_single_component_full_gradient():
    c = LeastSquaresComponent([1.0, 2.0], 0.5)
    loss = FiniteSumLoss([c])
    x = np.array([0.4, -0.2])
    assert np.array_equal(loss.full_gradient(x), loss.component_gradient(0, x))


def test_symmetric_residuals_cancel():
    loss = FiniteSumLoss(
        [LeastSquaresComponent([1.0], 0.0), LeastSquaresComponent([1.0], 2.0)]
    )
    assert np.array_equal(loss.full_gradient(np.array([1.0])), [0.0])


def test_lipschitz_bound_values():
    ls = FiniteSumLoss([LeastSquaresComponent([1.0, 2.0], 0.0)])
    assert ls.lipschitz_bound().L == pytest.approx(10.0)

    sig = FiniteSumLoss([SigmoidComponent([1.0, 0.0, 0.0], 1.0)])
    assert sig.lipschitz_bound().L == pytest.approx(1.0 / (6.0 * np.sqrt(3.0)))

    zero = FiniteSumLoss([SigmoidComponent([0.0, 0.0], 1.0)])
    assert zero.lipschitz_bound().L == 0.0


def test_sigmoid_curvature_matches_grid_maximization():
    # Oracle: maximize |g (1 - g) (1 - 2 g)| over the logistic value g.
    g = np.arange(1e-6, 1.0, 1e-6)
    oracle = np.max(np.abs(g * (1.0 - g) * (1.0 - 2.0 * g)))
    assert abs(oracle - SIGMOID_CURVATURE) < 1e-9


def test_lipschitz_certificate_sampled_pairs():
    rng = np.random.default_rng(3)
    for loss in (random_sigmoid_loss(rng, 5, 4), random_least_squares_loss(rng, 5, 4)):
        L = loss.lipschitz_bound().L
        for _ in range(1000):
            x = 3.0 * rng.standard_normal(loss.dim)
            y = 3.0 * rng.standard_normal(loss.dim)
            for i in range(loss.n):
                lhs = np.linalg.norm(
                    loss.component_gradient(i, x) - loss.component_gradient(i, y)
                )
                assert lhs <= L * np.linalg.norm(x - y) * (1.0 + 1e-9)


def test_value_ranges():
    rng = np.random.default_rng(4)
    sig = random_sigmoid_loss(rng, 8, 3)
    ls = random_least_squares_loss(rng, 8, 3)
    for _ in range(50):
        x = rng.standard_normal(3)
        assert np.all((sig.component_values(x) > 0) & (sig.component_values(x) < 1))
        assert np.all(ls.component_values(x) >= 0)


def test_extreme_scores_do_not_overflow():
    c = SigmoidComponent([700.0], 1.0)
    for x in ([1.0], [-1.0]):
        assert np.isfinite(c.value(x))
        assert np.isfinite(c.gradient(x)).all()
    assert c.value([1.0]) == pytest.approx(0.0, abs=1e-300)
    assert c.value([-1.0]) == pytest.approx(1.0)


def test_mixed_kinds_fall_back_to_loop():
    rng = np.random.default_rng(5)
    comps = [
        SigmoidComponent(rng.standard_normal(4), 1.0),
        LeastSquaresComponent(rng.standard_normal(4), 0.3),
    ]
    loss = FiniteSumLoss(comps)
    x = rng.standard_normal(4)
    assert np.array_equal(loss.component_gradient(0, x), comps[0].gradient(x))
    assert np.array_equal(loss.component_gradient(1, x), comps[1].gradient(x))
    stacked = np.stack([c.gradient(x) for c in comps])
    assert np.array_equal(loss.full_gradient(x), np.add.reduce(stacked, axis=0) / 2)


def test_dimension_and_index_errors():
    with pytest.raises(ShapeError):
        FiniteSumLoss([])
    with pytest.raises(ShapeError):
        FiniteSumLoss(
            [LeastSquaresComponent([1.0], 0.0), LeastSquaresComponent([1.0, 2.0], 0.0)]
        )
    loss = FiniteSumLoss([LeastSquaresComponent([1.0, 2.0], 0.0)])
    with pytest.raises(IndexError):
        loss.component_gradient(5, [0.0, 0.0])
    with pytest.raises(ShapeError):
        loss.full_gradient([1.0, 2.0, 3.0])


def _twin_losses(make, seed):
    """Two losses over the same components: one to warm, one kept fresh."""
    loss = make(np.random.default_rng(seed))
    return loss, FiniteSumLoss(loss.components)


def _count_all_row_passes(monkeypatch, loss):
    """Count the row-dot passes over all n rows of ``loss``."""
    import sadmm.losses

    calls = []
    inner = sadmm.losses._row_dots

    def counting(rows, x):
        if rows.shape[0] == loss.n:
            calls.append(1)
        return inner(rows, x)

    monkeypatch.setattr(sadmm.losses, "_row_dots", counting)
    return calls


@pytest.mark.parametrize(
    "make",
    [
        _onehot_sigmoid_loss,
        _banded_least_squares_loss,
        lambda rng: random_sigmoid_loss(rng, n=37, d=1),
        lambda rng: random_least_squares_loss(rng, n=37, d=1),
    ],
    ids=["onehot_sigmoid", "banded_least_squares", "d1_sigmoid", "d1_least_squares"],
)
def test_scored_point_reuse_matches_fresh_loss_bytes(monkeypatch, make):
    # after full_value(x) the gradient at x takes no further row dots and
    # every result equals a fresh loss's byte for byte
    warm, fresh = _twin_losses(make, 7)
    passes = _count_all_row_passes(monkeypatch, warm)
    rng = np.random.default_rng(8)
    idx = rng.integers(0, warm.n, size=warm.n // 2)
    for scale in (0.1, 1.0, 30.0):
        x = scale * rng.standard_normal(warm.dim)
        assert warm.full_value(x) == fresh.full_value(x)
        before = len(passes)
        g = warm.full_gradient(x)
        assert g.tobytes() == fresh.full_gradient(x).tobytes()
        assert warm.full_value(x) == fresh.full_value(x)
        for sel in (idx, None):
            got = warm.component_gradients(x, sel)
            assert got.tobytes() == fresh.component_gradients(x, sel).tobytes()
            got = warm.component_values(x, sel)
            assert got.tobytes() == fresh.component_values(x, sel).tobytes()
        assert len(passes) == before
        # results are the caller's own: changing them leaves the memo intact
        g[:] = 7.0
        warm.component_values(x)[:] = 7.0
        assert warm.full_gradient(x).tobytes() == fresh.full_gradient(x).tobytes()
        assert warm.full_value(x) == fresh.full_value(x)


@pytest.mark.parametrize("make", [_onehot_sigmoid_loss, _banded_least_squares_loss])
def test_memo_misses_changed_bytes_and_nan(monkeypatch, make):
    warm, fresh = _twin_losses(make, 9)
    passes = _count_all_row_passes(monkeypatch, warm)
    x = np.random.default_rng(10).standard_normal(warm.dim)
    x[3] = 0.0
    warm.full_value(x)
    for change in ("neg_zero", "in_place"):
        if change == "neg_zero":
            x[3] = -0.0
        else:
            x[5] += 1e-3
        before = len(passes)
        got = warm.full_gradient(x)
        assert len(passes) == before + 1
        assert got.tobytes() == fresh.full_gradient(x).tobytes()
    with np.errstate(invalid="ignore"):
        x[0] = np.nan
        warm.full_value(x)
        before = len(passes)
        assert np.isnan(warm.full_gradient(x)).all()
    assert len(passes) == before + 1


def test_drop_memo_keeps_results():
    rng = np.random.default_rng(11)
    loss = random_sigmoid_loss(rng, 20, 4)
    x = rng.standard_normal(4)
    value, grad = loss.full_value(x), loss.full_gradient(x)
    loss.drop_memo()
    assert loss.full_value(x) == value
    assert np.array_equal(loss.full_gradient(x), grad)


def test_lipschitz_bound_loops_over_components_once(monkeypatch):
    rng = np.random.default_rng(12)
    loss = random_least_squares_loss(rng, 6, 3)
    first = loss.lipschitz_bound()
    monkeypatch.setattr(loss, "components", None)
    again = loss.lipschitz_bound()
    assert again is not first and again.L == first.L


def _row_store_twin(loss):
    """The same loss rebuilt by ``from_rows`` from its components' arrays."""
    comps = loss.components
    rows = np.vstack([c.row for c in comps])
    return FiniteSumLoss.from_rows(comps[0].kind, rows, [c.b for c in comps])


@pytest.mark.parametrize(
    "make",
    [
        _onehot_sigmoid_loss,
        _banded_least_squares_loss,
        lambda rng: random_sigmoid_loss(rng, n=37, d=1),
        lambda rng: random_least_squares_loss(rng, n=37, d=1),
    ],
    ids=["onehot_sigmoid", "banded_least_squares", "d1_sigmoid", "d1_least_squares"],
)
def test_from_rows_matches_components_bytes(make):
    packed = make(np.random.default_rng(13))
    store = _row_store_twin(packed)
    assert (store.n, store.dim) == (packed.n, packed.dim)
    rng = np.random.default_rng(14)
    idx = rng.integers(0, packed.n, size=packed.n // 2)
    for scale in (0.1, 1.0, 30.0):
        x = scale * rng.standard_normal(packed.dim)
        assert store.full_value(x) == packed.full_value(x)
        assert store.full_gradient(x).tobytes() == packed.full_gradient(x).tobytes()
        for sel in (idx, None):
            for name in ("component_values", "component_gradients"):
                got = getattr(store, name)(x, sel)
                assert got.tobytes() == getattr(packed, name)(x, sel).tobytes()
    # the bound of the per-component loop, scaling each squared norm
    scale = SIGMOID_CURVATURE if packed.components[0].kind == "sigmoid" else 2.0
    looped = max(scale * float(c.row @ c.row) for c in packed.components)
    assert store.lipschitz_bound().L == packed.lipschitz_bound().L == looped


@pytest.mark.parametrize(
    "kind, rows, targets",
    [
        ("huber", np.ones((2, 3)), [1.0, -1.0]),
        ("least_squares", np.ones(3), [1.0, 2.0, 3.0]),
        ("least_squares", np.ones((0, 3)), []),
        ("least_squares", np.ones((2, 3)), [1.0, 2.0, 3.0]),
        ("least_squares", np.ones((2, 3)), [[1.0, 2.0]]),
        ("sigmoid", np.ones((2, 3)), [1.0, 0.0]),
        ("sigmoid", np.ones((2, 3)), [1.0, np.nan]),
    ],
    ids=["unknown_kind", "rows_1d", "rows_empty", "targets_long", "targets_2d",
         "label_zero", "label_nan"],
)
def test_from_rows_rejects_bad_input(kind, rows, targets):
    with pytest.raises(ShapeError):
        FiniteSumLoss.from_rows(kind, rows, targets)


def test_row_store_components_are_views_of_its_own_copy():
    rng = np.random.default_rng(15)
    rows, targets = rng.standard_normal((6, 4)), rng.standard_normal(6)
    kept_rows, kept_targets = rows.copy(), targets.copy()
    loss = FiniteSumLoss.from_rows("least_squares", rows, targets)
    x = rng.standard_normal(4)
    before = loss.full_gradient(x)
    rows[:] = 0.0  # the caller's arrays are not the loss's
    targets[:] = 0.0
    loss.drop_memo()
    assert np.array_equal(loss.full_gradient(x), before)
    comps = loss.components
    assert comps is loss.components and len(comps) == 6
    for i, c in enumerate(comps):
        assert isinstance(c, LeastSquaresComponent) and c.dim == 4
        assert np.array_equal(c.r, kept_rows[i]) and c.b == kept_targets[i]
        assert not c.r.flags.writeable
        assert c.value(x) == loss.component_value(i, x)
        assert c.gradient(x).tobytes() == loss.component_gradient(i, x).tobytes()
    labels = np.where(rng.random(5) > 0.5, 1.0, -1.0)
    sig = FiniteSumLoss.from_rows("sigmoid", kept_rows[:5], labels)
    for i, c in enumerate(sig.components):
        assert isinstance(c, SigmoidComponent)
        assert np.array_equal(c.a, kept_rows[i]) and c.b == labels[i]
        assert c.value(x) == sig.component_value(i, x)
        assert c.gradient(x).tobytes() == sig.component_gradient(i, x).tobytes()
