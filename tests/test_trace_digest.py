"""Seeded traces stay byte-identical to the committed digests.

``tests/data/trace_digest_seed{1,2}.txt`` hold the output of
``tools/trace_digest.py --seed S`` under one header line naming the numpy,
scipy and OpenBLAS builds and the machine they were made on, since the bits
of a trace depend on all four. A change that moves a trace on purpose
regenerates both files in the same commit:

    python3 tests/test_trace_digest.py 1 > tests/data/trace_digest_seed1.txt
    python3 tests/test_trace_digest.py 2 > tests/data/trace_digest_seed2.txt

The tool runs in a subprocess because it pins the BLAS threads before numpy
loads.
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"
DATA = Path(__file__).resolve().parent / "data"


def environment():
    """The builds and machine a digest depends on."""
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration"),
        "machine": platform.machine(),
    }


def digest(seed):
    argv = [sys.executable, str(TOOL), "--seed", str(seed)]
    return subprocess.run(argv, capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("seed", [1, 2])
def test_trace_digest_matches_the_committed_file(seed):
    header, _, expected = (DATA / f"trace_digest_seed{seed}.txt").read_text().partition("\n")
    made_on = json.loads(header.removeprefix("# "))
    mismatch = {
        key: {"committed": made_on.get(key), "here": value}
        for key, value in environment().items()
        if made_on.get(key) != value
    }
    assert not mismatch, f"the committed digests were made on another build: {mismatch}"
    assert digest(seed).splitlines() == expected.splitlines()


if __name__ == "__main__":
    sys.stdout.write("# " + json.dumps(environment()) + "\n" + digest(int(sys.argv[1])))
