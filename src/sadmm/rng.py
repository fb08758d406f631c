"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by a
user seed and a (domain, index) counter, so a draw made at iteration t is
identical whether the run is replayed serially, in another process, or out
of order.
"""

import numpy as np

# Counter domains; each (seed, domain, index) triple opens an independent
# stream.
DOMAIN_BATCH = 0       # estimator mini-batch / restart draws, index = iteration
DOMAIN_OUTPUT = 1      # output-rule iterate selection
DOMAIN_SPECTRAL = 2    # Lanczos start vectors (0: A^T A, 1: shifted A A^T)
DOMAIN_PROBLEM = 3     # synthetic problem construction
DOMAIN_NOISE = 4       # measurement noise
DOMAIN_MASK = 5        # subsampling masks

_KEY_MASK = (1 << 128) - 1


def substream(seed, domain, index):
    """Return a fresh Generator for the (seed, domain, index) stream."""
    key = int(seed) & _KEY_MASK
    bitgen = np.random.Philox(key=key, counter=[int(index), int(domain), 0, 0])
    return np.random.Generator(bitgen)
