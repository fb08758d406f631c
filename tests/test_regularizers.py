import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import grid_prox_oracle
from sadmm import L0, L1, ParameterError


def test_value_examples():
    assert L1(2.0).value([1.0, -3.0]) == 8.0
    assert L0(1.0).value([0.0, 5.0, 0.0]) == 1.0
    for reg in (L1(0.3), L0(0.7)):
        assert reg.value(np.zeros(3)) == 0.0


def test_prox_examples():
    out = L1(0.5).prox(np.array([2.0, -0.3]), 1.0)
    assert np.allclose(out, [1.5, 0.0])
    out = L0(1.0).prox(np.array([0.9, 1.1]), 2.0)
    assert np.array_equal(out, [0.0, 1.1])


def test_l0_tie_breaks_to_zero():
    # threshold^2 = 2 lam / beta = 1 exactly
    assert L0(1.0).prox(np.array([1.0]), 2.0)[0] == 0.0
    assert L0(1.0).prox(np.array([-1.0]), 2.0)[0] == 0.0
    assert np.array_equal(L0(1.0).prox(np.array([1.0, 1.0000001, -1.0]), 2.0),
                          [0.0, 1.0000001, 0.0])


def test_prox_matches_grid_oracle():
    rng = np.random.default_rng(0)
    reg = L1(0.7)
    beta = 1.3
    for v in rng.uniform(-3, 3, size=21):
        expected = grid_prox_oracle(lambda z: reg.lam * np.abs(z), v, beta)
        assert abs(reg.prox(np.array([v]), beta)[0] - expected) <= 1e-3

    reg0 = L0(0.4)
    for v in rng.uniform(-3, 3, size=21):
        expected = grid_prox_oracle(
            lambda z: reg0.lam * (z != 0.0).astype(float), v, beta
        )
        assert abs(reg0.prox(np.array([v]), beta)[0] - expected) <= 1e-3


_GRID_STEP = 1e-4  # grid_prox_oracle's default


@settings(max_examples=60, deadline=None)
@given(
    vs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
    beta=st.floats(0.1, 10.0),
    lam=st.floats(0.0, 3.0),
)
def test_prox_objective_matches_grid_oracle_at_random_parameters(vs, beta, lam):
    # the prox attains the grid's best prox objective, and beats it by no
    # more than the grid's resolution: lam * step for L1's kink, and
    # (beta / 2) step^2 for a minimizer off the grid
    resolution = lam * _GRID_STEP + beta * _GRID_STEP**2 + 1e-12
    penalties = (
        (L1(lam), lambda z: lam * np.abs(z)),
        (L0(lam), lambda z: lam * (z != 0.0).astype(float)),
    )
    for reg, penalty in penalties:
        z = reg.prox(np.array(vs), beta)
        for v, zi in zip(vs, z):
            def cost(w):
                return float(penalty(np.array([w]))[0]) + 0.5 * beta * (w - v) ** 2

            gap = cost(grid_prox_oracle(penalty, v, beta)) - cost(zi)
            assert -1e-12 * (1.0 + cost(zi)) <= gap <= resolution


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(1e-3, 5.0),
    beta=st.floats(0.1, 10.0),
    rest=st.lists(st.floats(-5.0, 5.0), max_size=3),
)
def test_l0_exact_ties_map_to_zero_at_random_parameters(t, beta, rest):
    # lam puts +-t exactly on the threshold v^2 == 2 lam / beta
    lam = t * t * beta / 2.0
    assume(t * t == 2.0 * lam / beta)
    z = L0(lam).prox(np.array([t, *rest, -t]), beta)
    assert z[0] == 0.0 and z[-1] == 0.0
    # the other coordinates are hard-thresholded on their own
    assert all(zi in (0.0, v) for v, zi in zip(rest, z[1:-1]))


def test_prox_optimality_under_perturbations():
    rng = np.random.default_rng(1)
    beta = 0.8
    for reg in (L1(0.5), L0(0.3)):
        v = rng.standard_normal(6)
        z_star = reg.prox(v, beta)
        base = reg.value(z_star) + 0.5 * beta * np.sum((z_star - v) ** 2)
        for _ in range(100):
            z = z_star + 0.5 * rng.standard_normal(6)
            cand = reg.value(z) + 0.5 * beta * np.sum((z - v) ** 2)
            assert base <= cand + 1e-12


def test_l1_prox_is_nonexpansive():
    rng = np.random.default_rng(2)
    reg = L1(0.9)
    for _ in range(200):
        v1 = rng.standard_normal(5)
        v2 = rng.standard_normal(5)
        d_out = np.linalg.norm(reg.prox(v1, 1.1) - reg.prox(v2, 1.1))
        assert d_out <= np.linalg.norm(v1 - v2) * (1 + 1e-12)


def test_prox_is_separable_under_permutation():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(8)
    perm = rng.permutation(8)
    for reg in (L1(0.4), L0(0.6)):
        assert np.array_equal(reg.prox(v, 2.0)[perm], reg.prox(v[perm], 2.0))


def test_parameter_and_shape_errors():
    with pytest.raises(ParameterError):
        L1(0.5).prox(np.array([1.0]), 0.0)
    with pytest.raises(ParameterError):
        L0(0.5).prox(np.array([1.0]), -1.0)
    with pytest.raises(ParameterError):
        L1(-0.1)
