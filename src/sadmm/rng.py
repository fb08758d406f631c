"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by a
user seed and a (domain, index) counter, so a draw made at iteration t is
identical whether the run is replayed serially, in another process, or out
of order.

Stream (seed, domain, index) is the Philox generator with key ``seed`` and
counter [0, domain, index, 0]. Philox adds 1 to word 0 for each 4-word block
it draws, so two streams of one seed share no block until one of them has
drawn 2**64 blocks. Index 0 opens at [0, domain, 0, 0], the counter it
had when the index sat in word 0; the problem builders draw only from index
0, so their data, noise and masks stay bit-identical under this layout.

An estimator, which visits one stream per iteration, reuses one generator
through ``Substreams``: setting a Philox counter reaches any stream, and
the generator ``at`` returns is valid only until its next call.
"""

import numpy as np

# Counter domains; each (seed, domain, index) triple opens its own stream.
DOMAIN_BATCH = 0       # estimator mini-batch / restart draws, index = iteration
DOMAIN_OUTPUT = 1      # output-rule iterate selection
DOMAIN_SPECTRAL = 2    # Lanczos start vectors (0: A^T A, 1: shifted A A^T)
DOMAIN_PROBLEM = 3     # synthetic problem construction
DOMAIN_NOISE = 4       # measurement noise
DOMAIN_MASK = 5        # subsampling masks

_KEY_MASK = (1 << 128) - 1


def _counter(domain, index):
    # The index goes in word 2, clear of the block count in word 0: an index
    # in word 0 made block 2 of stream t block 1 of stream t + 1.
    return [0, int(domain), int(index), 0]


def substream(seed, domain, index):
    """Return a fresh Generator for the (seed, domain, index) stream."""
    key = int(seed) & _KEY_MASK
    # As uint64 words: numpy reads a list holding an index >= 2**63 as floats.
    counter = np.array(_counter(domain, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class Substreams:
    """The streams of one (seed, domain) through one generator: ``at(index)``
    returns it set to draw exactly what ``substream(seed, domain, index)`` draws."""

    def __init__(self, seed, domain):
        self._gen = substream(seed, domain, 0)
        # The fresh state, empty buffer included, as plain ints: the setter
        # takes lists several times faster than arrays.
        state = self._gen.bit_generator.state
        self._state = dict(state, buffer=state["buffer"].tolist(),
                           state={"key": state["state"]["key"].tolist()})
        self._domain = domain

    def at(self, index):
        self._state["state"]["counter"] = _counter(self._domain, index)
        self._gen.bit_generator.state = self._state
        return self._gen
