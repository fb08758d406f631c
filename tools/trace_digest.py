"""One sha256 per seeded solve of the benchmark's three workloads.

    python3 tools/trace_digest.py --seed 1 > digest_seed1.txt

Run from any directory; the program is imported from ``src/`` of this
checkout and the workloads from ``benchmarks/workloads.py``, which is only
imported. Each solve of a round (181 per seed: fused_lasso, blur_recon and
quadratic_tol, in the benchmark's order) is run once, and its line reads
``<workload> <index> <role>_<kind>_<instance> <sha256>``. The digest covers
every trace record except ``wall_ms`` (iteration, epoch, objective,
residual and the diagnostics record when present) and the bytes of the
final x, z and u. Two checkouts whose outputs ``diff`` clean produced
byte-identical traces.
"""

import argparse
import hashlib
import os
import struct
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as the benchmark runs, so the digests depend on the code
# and not on how the host splits a matrix product.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from sadmm import run  # noqa: E402
from sadmm.config import build_problem, load_run_config  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_DIAG_FIELDS = ("aug_lagrangian", "psi", "primal_residual", "upsilon", "gamma", "grad_err_sq_prev")


def _floats(h, values):
    for v in values:
        h.update(b"N" if v is None else struct.pack("<d", v))


def solve_digest(result):
    """sha256 over the records (without wall_ms) and the final x, z, u."""
    h = hashlib.sha256()
    for rec in result.trace:
        h.update(struct.pack("<q", rec.iter))
        _floats(h, (rec.epoch, rec.objective, rec.primal_residual))
        if rec.diag is None:
            h.update(b"-")
        else:
            _floats(h, (getattr(rec.diag, f) for f in _DIAG_FIELDS))
    for v in (result.state.x, result.state.z, result.state.u):
        h.update(v.tobytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="trace_digest-") as tmp:
        for name, make in WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            workload = make(workdir, args.seed)
            problems = [build_problem(load_run_config(p)) for p in workload.instances]
            for i, op in enumerate(workload.ops):
                config = load_run_config(op.config).solver
                result = run(problems[op.instance], config)
                label = f"{op.role}_{op.kind}_{op.instance}"
                print(f"{name} {i} {label} {solve_digest(result)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
