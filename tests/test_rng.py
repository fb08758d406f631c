import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sadmm import (
    EstimatorSpec,
    FiniteSumLoss,
    SolverConfig,
    generate_synthetic_quadratic,
    init_estimator,
    run,
)
from sadmm import rng as rng_module
from sadmm.rng import DOMAIN_BATCH, Substreams, substream

DOMAINS = tuple(
    getattr(rng_module, name) for name in dir(rng_module) if name.startswith("DOMAIN_")
)

# Every kind of draw the package makes. ``odd_small_ints`` takes an odd
# count of 32-bit draws, so it leaves a buffered 32-bit half behind.
DRAWS = {
    "batch": lambda g, n, b: g.integers(0, n, size=b),
    "odd_small_ints": lambda g, n, b: g.integers(0, 9, size=2 * b - 1),
    "wide_ints": lambda g, n, b: g.integers(0, 2**40, size=b),
    "random": lambda g, n, b: g.random(),
    "choice": lambda g, n, b: g.choice(n, size=min(b, n), replace=False),
    "standard_normal": lambda g, n, b: g.standard_normal(b),
}

visits = st.lists(
    st.tuples(
        st.integers(0, 2**64 - 1) | st.integers(0, 20),
        st.lists(st.sampled_from(sorted(DRAWS)), min_size=1, max_size=3),
        st.integers(1, 5000),
        st.integers(1, 16),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-(2**130), 2**130) | st.integers(0, 100),
    domain=st.sampled_from(DOMAINS),
    visits=visits,
)
def test_moved_generator_draws_what_substream_draws(seed, domain, visits):
    # One generator visits the streams in any order, forward and backward,
    # each time after a partial draw; every draw equals a fresh substream's.
    streams = Substreams(seed, domain)
    for index, draws, n, b in visits:
        moved, fresh = streams.at(index), substream(seed, domain, index)
        for kind in draws:
            got, want = DRAWS[kind](moved, n, b), DRAWS[kind](fresh, n, b)
            assert np.array_equal(got, want), (index, kind)


def test_substream_counter_is_exact_beyond_int64():
    # numpy reads a list holding 2**64 - 1 as floats, which wrapped the
    # stream onto index 0
    top = substream(3, 1, 2**64 - 1)
    assert top.bit_generator.state["state"]["counter"].tolist() == [0, 1, 2**64 - 1, 0]
    assert top.random() != substream(3, 1, 0).random()
    assert substream(3, 1, 2**63 + 1).random() != substream(3, 1, 2**63).random()


def _counter(generator):
    return generator.bit_generator.state["state"]["counter"].tolist()


@pytest.mark.parametrize("domain", DOMAINS)
def test_index_zero_keeps_the_counter_the_problem_data_was_drawn_from(domain):
    # The problem builders draw only from index 0, so its counter fixes the
    # generated problems; every other index sits in word 2.
    assert _counter(substream(5, domain, 0)) == [0, domain, 0, 0]
    assert _counter(substream(5, domain, 1)) == [0, domain, 1, 0]


# 4-word Philox blocks per stream compared below: more than any step draws.
BLOCKS = 1024


def test_streams_of_one_seed_share_no_block():
    # A step draws one word for SARAH's coin and two 32-bit batch indices per
    # word; even a batch of all n = 4062 rows stays within BLOCKS.
    step = substream(7, DOMAIN_BATCH, 5)
    step.random()
    step.integers(0, 4062, size=4062)
    assert _counter(step)[0] < BLOCKS
    blocks = np.concatenate([
        substream(7, domain, index).bit_generator.random_raw(4 * BLOCKS).reshape(-1, 4)
        for domain in DOMAINS
        for index in (*range(16), 2**40, 2**64 - 1)
    ])
    assert len(np.unique(blocks, axis=0)) == len(blocks)


def test_consecutive_batches_overlap_only_by_chance():
    # b = 16 of n = 4062, the criterion-8 sampling: chance shares b^2/n = 0.063
    # indices between two batches; streams that overlap shared 8.
    n = 4062
    loss = FiniteSumLoss.from_rows("least_squares", np.ones((n, 1)), np.zeros(n))
    est = init_estimator(EstimatorSpec("sgd", batch_size=16, seed=1), loss, np.zeros(1))
    batches = [set(est._draw_batch(est._stream(t)).tolist()) for t in range(400)]
    shared = [len(a & b) for a, b in zip(batches, batches[1:])]
    assert np.mean(shared) < 0.25


def _count_philox(monkeypatch):
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    return built


@pytest.mark.parametrize(
    "spec",
    [
        EstimatorSpec("sgd", batch_size=3, seed=5),
        EstimatorSpec("saga", batch_size=3, seed=5),
        EstimatorSpec("svrg", batch_size=3, epoch_len=4, seed=5),
        EstimatorSpec("sarah", batch_size=3, restart_p=3.0, seed=5),
    ],
    ids=lambda spec: spec.kind,
)
def test_stochastic_run_builds_one_generator(spec, monkeypatch):
    problem = generate_synthetic_quadratic(12, 4, seed=1)
    config = SolverConfig(beta=1.0, tau=4.0, sigma=0.9, estimator=spec, max_epochs=3)
    built = _count_philox(monkeypatch)
    assert len(run(problem, config).trace) == 12
    assert len(built) == 1


def test_full_run_builds_no_generator(monkeypatch):
    problem = generate_synthetic_quadratic(12, 4, seed=1)
    config = SolverConfig(beta=1.0, tau=4.0, sigma=0.9, max_epochs=3)
    built = _count_philox(monkeypatch)
    assert len(run(problem, config).trace) == 3
    assert built == []
