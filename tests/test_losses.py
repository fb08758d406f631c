import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
    loss = FiniteSumLoss([SigmoidComponent([1.0, 0.0], 1.0)])
    assert np.allclose(loss.component_gradient(0, [0.0, 0.0]), [-0.25, 0.0])
    assert loss.component_value(0, [0.0, 0.0]) == pytest.approx(0.5)


def test_least_squares_gradient_example():
    loss = FiniteSumLoss([LeastSquaresComponent([1.0, 1.0], 3.0)])
    assert np.array_equal(loss.component_gradient(0, [1.0, 1.0]), [-2.0, -2.0])
    assert loss.component_value(0, [1.0, 1.0]) == pytest.approx(1.0)


def test_sigmoid_gradient_matches_finite_differences():
    loss = FiniteSumLoss([SigmoidComponent([2.0, -1.0], -1.0)])
    x = np.array([0.3, 0.7])
    fd = central_diff_gradient(lambda v: loss.component_value(0, v), x)
    grad = loss.component_gradient(0, x)
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


def _assert_same_bytes(got, want):
    # NaN where the oracle has NaN, whatever its sign bit; elsewhere the same bytes
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.filterwarnings("ignore:invalid value")
def test_single_exp_logistic_matches_masked_formula():
    # the link keeps e = exp(-|m|) and the sign mask of the margins m = t s;
    # scoring forms 1 / (1 + exp(m)) and a gradient 1 / (1 + exp(-m)) too.
    # With labels t = +1 and -1 both halves are values and enter the
    # coefficients, all with the bytes of the masked formula
    from sadmm.losses import _coefficients, _link, _values

    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 800.0, -800.0, 1e-300]
    )
    rng = np.random.default_rng(7)
    swept = rng.standard_normal(5000) * np.repeat([1e-300, 1e-8, 1.0, 30.0, 700.0], 1000)
    for s in (special, swept, *special[:, None]):
        for t in (1.0, -1.0):
            targets = np.full(s.shape, t)
            terms = _link("sigmoid", s, targets)
            p, q = _masked_logistic(t * s), _masked_logistic(-t * s)
            _assert_same_bytes(_values("sigmoid", terms), q)
            _assert_same_bytes(_coefficients("sigmoid", terms, targets), -targets * p * q)


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


def _values(loss, x, idx=None):
    """``component_value`` at x of the rows idx (all rows when None), in order."""
    return np.array([loss.component_value(i, x) for i in (range(loss.n) if idx is None else idx)])


def test_value_ranges():
    rng = np.random.default_rng(4)
    sig = random_sigmoid_loss(rng, 8, 3)
    ls = random_least_squares_loss(rng, 8, 3)
    for _ in range(50):
        x = rng.standard_normal(3)
        assert np.all((_values(sig, x) > 0) & (_values(sig, x) < 1))
        assert np.all(_values(ls, x) >= 0)


def test_extreme_scores_do_not_overflow():
    loss = FiniteSumLoss([SigmoidComponent([700.0], 1.0)])
    for x in ([1.0], [-1.0]):
        assert np.isfinite(loss.component_value(0, x))
        assert np.isfinite(loss.component_gradient(0, x)).all()
    assert loss.component_value(0, [1.0]) == pytest.approx(0.0, abs=1e-300)
    assert loss.component_value(0, [-1.0]) == pytest.approx(1.0)


def test_mixed_kinds_are_rejected():
    # a loss is one row store of one kind; there is no per-component loop
    rng = np.random.default_rng(5)
    comps = [
        SigmoidComponent(rng.standard_normal(4), 1.0),
        LeastSquaresComponent(rng.standard_normal(4), 0.3),
    ]
    with pytest.raises(ShapeError, match="least_squares.*sigmoid"):
        FiniteSumLoss(comps)

    class Huber(LeastSquaresComponent):
        kind = "huber"

    with pytest.raises(ShapeError, match="huber"):
        FiniteSumLoss([Huber(rng.standard_normal(4), 0.3)])


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


@pytest.mark.parametrize("idx", [
    np.ones(4, dtype=bool),  # a mask: not the rows it selects, nor rows 0 and 1
    [2.9],  # not row 2
    [[0, 1], [2, 3]],
    [np.nan],  # without a cast warning on the way
    3,
], ids=["bool_mask", "float", "2d", "nan", "scalar"])
def test_indices_that_are_not_1d_integers_raise_shape_error(idx):
    loss = random_least_squares_loss(np.random.default_rng(40), n=4, d=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (loss.component_gradients, loss.component_coefficients):
            with pytest.raises(ShapeError):
                entry(np.ones(3), idx)


@pytest.mark.parametrize("i", [2.9, True, np.nan, np.array([1, 2])])
def test_component_index_must_be_one_integer(i):
    loss = random_sigmoid_loss(np.random.default_rng(41), n=4, d=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (loss.component_value, loss.component_gradient):
            with pytest.raises(ShapeError):
                entry(i, np.ones(3))


def test_integer_indices_of_any_width_and_empty_lists_are_accepted():
    loss = random_least_squares_loss(np.random.default_rng(42), n=4, d=3)
    x = np.ones(3)
    want = loss.component_gradients(x, np.array([3, 0, 3]))
    for idx in ([3, 0, 3], np.array([3, 0, 3], dtype=np.int32), np.array([3, 0, 3], dtype=np.uint8)):
        assert loss.component_gradients(x, idx).tobytes() == want.tobytes()
    assert loss.component_gradients(x, []).shape == (0, 3)
    assert loss.component_coefficients(x, [])[1].shape == (0,)
    assert loss.component_value(np.int32(3), x) == loss.component_value(3, x)
    for idx in ([4], [-1], np.array([0, 4], dtype=np.uint8)):
        with pytest.raises(IndexError):
            loss.component_gradients(x, idx)


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
            assert _values(warm, x, sel).tobytes() == _values(fresh, x, sel).tobytes()
        assert len(passes) == before
        # results are the caller's own: changing them leaves the memo intact
        g[:] = 7.0
        warm.component_coefficients(x)[1][:] = 7.0
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


def test_memo_key_of_a_point_whose_squares_overflow(monkeypatch):
    # ||x||^2 overflows to inf, but x holds no NaN: the point is keyed, and
    # the NaN test raises no overflow warning
    loss = FiniteSumLoss.from_rows("least_squares", 1e-300 * np.eye(3), np.zeros(3))
    passes = _count_all_row_passes(monkeypatch, loss)
    x = np.full(3, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = loss.full_value(x)
        assert np.isfinite(value)
        assert loss.full_value(x) == value
    assert len(passes) == 1


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
            got = store.component_gradients(x, sel)
            assert got.tobytes() == packed.component_gradients(x, sel).tobytes()
            assert _values(store, x, sel).tobytes() == _values(packed, x, sel).tobytes()
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
        own = FiniteSumLoss([c])
        assert own.component_value(0, x) == loss.component_value(i, x)
        assert own.component_gradient(0, x).tobytes() == loss.component_gradient(i, x).tobytes()
    labels = np.where(rng.random(5) > 0.5, 1.0, -1.0)
    sig = FiniteSumLoss.from_rows("sigmoid", kept_rows[:5], labels)
    for i, c in enumerate(sig.components):
        assert isinstance(c, SigmoidComponent)
        assert np.array_equal(c.a, kept_rows[i]) and c.b == labels[i]
        own = FiniteSumLoss([c])
        assert own.component_value(0, x) == sig.component_value(i, x)
        assert own.component_gradient(0, x).tobytes() == sig.component_gradient(i, x).tobytes()


# --- CSR rows -----------------------------------------------------------------

def _csr_example():
    """A 5 x 4 least-squares matrix whose rows 0, 2 and 4 are empty, so an
    empty row sits before, between and after the stored ones."""
    dense = np.zeros((5, 4))
    dense[1] = [0.5, 0.0, -2.0, 0.0]
    dense[3] = [0.0, 1.5, 0.0, 0.25]
    return dense, np.array([0.3, -1.0, 2.0, 0.5, -0.7])


_SPARSE_FORMATS = [sp.csr_matrix, sp.csc_matrix, sp.coo_matrix,
                   sp.csr_array, sp.csc_array, sp.coo_array]


@pytest.mark.parametrize("fmt", _SPARSE_FORMATS, ids=lambda f: f.__name__)
def test_from_rows_accepts_csr_csc_and_coo(fmt):
    dense, targets = _csr_example()
    want = FiniteSumLoss.from_rows("least_squares", sp.csr_matrix(dense), targets)
    loss = FiniteSumLoss.from_rows("least_squares", fmt(dense), targets)
    assert (loss.n, loss.dim) == (5, 4)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    assert loss.full_value(x) == want.full_value(x)
    assert loss.full_gradient(x).tobytes() == want.full_gradient(x).tobytes()
    for sel in (None, [4, 1, 1, 0]):
        assert loss.component_gradients(x, sel).tobytes() == want.component_gradients(x, sel).tobytes()
        assert _values(loss, x, sel).tobytes() == _values(want, x, sel).tobytes()


def test_sparse_rows_are_canonical():
    # row 0 lists column 2 before column 0 and column 2 twice; COO repeats
    # an entry of row 1
    unsorted = sp.csr_matrix(([1.0, 2.0, 0.5, 4.0], [2, 0, 2, 1], [0, 3, 4]), shape=(2, 3))
    coo = sp.coo_matrix(([1.0, 3.0, 4.0], ([1, 1, 0], [1, 1, 2])), shape=(2, 3))
    for rows, indptr, indices, data in ((unsorted, [0, 2, 3], [0, 2, 1], [2.0, 1.5, 4.0]),
                                        (coo, [0, 1, 2], [2, 1], [4.0, 4.0])):
        loss = FiniteSumLoss.from_rows("least_squares", rows, [1.0, 2.0])
        store = loss._rows
        assert store.indptr.tolist() == indptr and store.indices.tolist() == indices
        assert store.data.tolist() == data
        twin = FiniteSumLoss.from_rows("least_squares", sp.csr_matrix(rows.toarray()), [1.0, 2.0])
        x = np.array([0.3, -1.0, 2.0])
        assert loss.full_gradient(x).tobytes() == twin.full_gradient(x).tobytes()
        assert _values(loss, x).tobytes() == _values(twin, x).tobytes()


def test_sparse_rows_are_a_read_only_copy():
    dense, targets = _csr_example()
    rows = sp.csr_matrix(dense)
    loss = FiniteSumLoss.from_rows("least_squares", rows, targets)
    store = loss._rows
    for a in (store.data, store.indices, store.indptr, store.row_ids, loss._targets):
        assert not a.flags.writeable
    x = np.array([1.0, -2.0, 0.5, 3.0])
    before = loss.full_gradient(x)
    rows.data[:] = 9.0  # the caller's matrix is not the loss's
    loss.drop_memo()
    assert loss.full_gradient(x).tobytes() == before.tobytes()


@pytest.mark.parametrize(
    "kind, rows, targets",
    [
        ("huber", sp.csr_matrix(np.ones((2, 3))), [1.0, -1.0]),
        ("least_squares", sp.csr_matrix((0, 3)), []),
        ("least_squares", sp.coo_matrix(np.ones((2, 3))), [1.0, 2.0, 3.0]),
        ("least_squares", sp.csr_array(np.ones((2, 3))), [[1.0, 2.0]]),
        ("sigmoid", sp.csc_matrix(np.ones((2, 3))), [1.0, 0.0]),
        ("sigmoid", sp.csr_matrix(np.ones((2, 3))), [1.0, np.nan]),
    ],
    ids=["unknown_kind", "rows_empty", "targets_long", "targets_2d", "label_zero", "label_nan"],
)
def test_sparse_from_rows_rejects_bad_input(kind, rows, targets):
    with pytest.raises(ShapeError):
        FiniteSumLoss.from_rows(kind, rows, targets)


@pytest.mark.parametrize("kind", ["least_squares", "sigmoid"])
def test_empty_sparse_row_has_a_zero_dot_and_gradient(kind):
    dense, targets = _csr_example()
    if kind == "sigmoid":
        targets = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    loss = FiniteSumLoss.from_rows(kind, sp.csr_matrix(dense), targets)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    dots = loss._rows.dots(x)
    assert dots.tobytes() == np.array([0.0, -0.5, 0.0, -2.25, 0.0]).tobytes()
    for i in (0, 2, 4):
        assert loss._rows.take(np.array([i, i])).dots(x).tobytes() == bytes(16)
        value = 0.5 if kind == "sigmoid" else targets[i] ** 2
        assert loss.component_value(i, x) == value
        assert not loss.component_gradient(i, x).any()
    assert not loss.component_gradients(x)[[0, 2, 4]].any()


def test_sparse_components_are_dense_rows_of_the_matrix():
    dense, targets = _csr_example()
    rows = sp.coo_matrix(dense)
    loss = FiniteSumLoss.from_rows("least_squares", rows, targets)
    comps = loss.components
    assert comps is loss.components and len(comps) == 5
    for i, c in enumerate(comps):
        assert isinstance(c, LeastSquaresComponent)
        assert c.r.shape == (4,) and not c.r.flags.writeable
        assert c.r.tobytes() == rows.toarray()[i].tobytes() and c.b == targets[i]


@st.composite
def _csr_losses(draw):
    """A random CSR loss of either kind, with empty rows, a point and a batch.

    Hypothesis picks the shape, density, empty rows, scale and batch; the
    values come from a drawn seed, so that sums round as real data does.
    """
    n, d = draw(st.integers(1, 20)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    dense = 10.0 * rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
    dense[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    kind = draw(st.sampled_from(["least_squares", "sigmoid"]))
    if kind == "sigmoid":
        targets = rng.choice([-1.0, 1.0], size=n)
    else:
        targets = 10.0 * rng.standard_normal(n)
    x = draw(st.sampled_from([0.1, 1.0, 30.0])) * rng.standard_normal(d)
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    return kind, sp.csr_matrix(dense), targets, x, idx


_CSR_PROPERTY = settings(max_examples=200, deadline=None)


@_CSR_PROPERTY
@given(_csr_losses())
def test_csr_row_dots_are_row_consistent(example):
    kind, rows, targets, x, idx = example
    loss = FiniteSumLoss.from_rows(kind, rows, targets)
    full = loss._rows.dots(x)
    assert loss._rows.take(idx).dots(x).tobytes() == full[idx].tobytes()
    for i in idx:
        assert loss._rows.take(np.array([i])).dots(x).tobytes() == full[i : i + 1].tobytes()
    block = FiniteSumLoss.from_rows(kind, rows, targets).component_gradients(x, idx)
    assert block.tobytes() == loss.component_gradients(x)[idx].tobytes()
    # each row dotted alone, then read from the all-rows pass in the memo
    alone = _values(FiniteSumLoss.from_rows(kind, rows, targets), x, idx)
    assert alone.tobytes() == _values(loss, x, idx).tobytes()


@_CSR_PROPERTY
@given(_csr_losses())
def test_csr_full_gradient_and_value_are_exact_means(example):
    kind, rows, targets, x, _ = example
    loss = FiniteSumLoss.from_rows(kind, rows, targets)
    stacked = np.stack([loss.component_gradient(i, x) for i in range(loss.n)])
    assert np.array_equal(loss.full_gradient(x), np.add.reduce(stacked, axis=0) / loss.n)
    values = np.array([loss.component_value(i, x) for i in range(loss.n)])
    assert loss.full_value(x) == np.add.reduce(values) / loss.n


@_CSR_PROPERTY
@given(_csr_losses())
def test_csr_memo_hit_equals_a_fresh_loss(example):
    kind, rows, targets, x, idx = example
    warm = FiniteSumLoss.from_rows(kind, rows, targets)
    warm.full_value(x)
    assert warm.full_gradient(x).tobytes() == FiniteSumLoss.from_rows(kind, rows, targets).full_gradient(x).tobytes()
    for sel in (idx, None):
        fresh = FiniteSumLoss.from_rows(kind, rows, targets).component_gradients(x, sel)
        assert warm.component_gradients(x, sel).tobytes() == fresh.tobytes()
        fresh = _values(FiniteSumLoss.from_rows(kind, rows, targets), x, sel)
        assert _values(warm, x, sel).tobytes() == fresh.tobytes()
    assert warm.full_value(x) == FiniteSumLoss.from_rows(kind, rows, targets).full_value(x)


@st.composite
def _batch_examples(draw):
    """A dense or CSR loss of either kind, two points, a batch with repeats
    and the point, if any, an all-rows pass left in the memo."""
    n, d = draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = 3.0 * rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.6)
    kind = draw(st.sampled_from(["least_squares", "sigmoid"]))
    targets = rng.choice([-1.0, 1.0], size=n) if kind == "sigmoid" else rng.standard_normal(n)
    rows = draw(st.sampled_from([dense, sp.csr_matrix(dense)]))
    x, y = draw(st.sampled_from([0.1, 1.0, 30.0])) * rng.standard_normal((2, d))
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    memo = draw(st.sampled_from(["none", "x", "y", "other"]))
    return kind, rows, targets, x, y, idx, memo


@settings(max_examples=100, deadline=None)
@given(_batch_examples())
def test_batch_entry_returns_the_component_coefficients_bytes(example):
    # the estimators' unchecked one-gather entry, at one point and at two,
    # hit or miss, must hand out what the public method does at each point
    kind, rows, targets, x, y, idx, memo = example
    fresh = FiniteSumLoss.from_rows(kind, rows, targets)
    want = [fresh.component_coefficients(p, idx) for p in (x, y)]
    loss = FiniteSumLoss.from_rows(kind, rows, targets)
    if memo != "none":
        loss.full_value({"x": x, "y": y, "other": x + y + 1.0}[memo])
    one = loss._batch(idx, x)
    two = loss._batch(idx, x, y)
    assert len(one) == 2 and len(two) == 3
    for got_rows in (one[0], two[0]):
        assert got_rows.toarray().tobytes() == want[0][0].toarray().tobytes()
    assert one[1].tobytes() == want[0][1].tobytes()
    assert two[1].tobytes() == want[0][1].tobytes()
    assert two[2].tobytes() == want[1][1].tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.sampled_from([1, 2, 3, 7, 33, 112, 257]),
       st.integers(0, 2**32 - 1), st.sampled_from([1e-150, 1.0, 1e150]))
def test_dense_squared_row_norms_equal_per_row_dots(n, d, seed, scale):
    # lipschitz_bound scales the largest ||r||^2, which sets the step in
    # every run: the stacked matmul must give each row's own r @ r bytes
    from sadmm.losses import _DenseRows

    rows = scale * np.random.default_rng(seed).standard_normal((n, d))
    assert _DenseRows(rows).sq_norms.tobytes() == np.array([r @ r for r in rows]).tobytes()
