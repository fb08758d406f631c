"""The benchmark's workloads: their inputs, their runs and their checks.

Each workload writes its inputs (LIBSVM data and INI run configurations)
from the run seed into a work directory; the program only ever sees those
files. A workload lists the solves one round performs and checks a round's
outputs against ``reference``, which never calls the program.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

import reference as ref

KINDS = ("full", "sgd", "saga", "svrg", "sarah")


@dataclass(frozen=True)
class Op:
    """One solve: ``role`` is "fixed" (budget run), "tol" or "diag"."""

    role: str
    kind: str
    instance: int
    config: str
    max_iters: int
    tol: float = math.inf


@dataclass
class Workload:
    name: str
    instances: List[str]
    ops: List[Op]
    check: Callable = field(repr=False)


def _ini(problem, solver, output):
    lines = []
    for section, items in (("problem", problem), ("solver", solver), ("output", output)):
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in items.items()]
        lines.append("")
    return "\n".join(lines)


def _ops_for(workdir, tag, instance, problem, solver, plan):
    """Write one INI per solve of an instance and return its ops.

    ``plan`` holds n, batch, sarah_p, epochs (the equal budget of the five
    estimators), tol with tol_epochs (the tolerance run, full gradient) and
    diag_every (one SAGA run with diagnostics, on instance 0). An epoch of
    the full-gradient estimator is one iteration, so its budget run is
    repeated ``full_repeat`` times to time about as much work as the
    others. Budget runs
    set residual_tol = inf, the documented setting that always exhausts
    the budget (the README says why not the default 0).
    """
    ops = []

    def add(role, kind, tol, max_epochs, output):
        s = dict(solver, estimator=kind, max_epochs=max_epochs, residual_tol=repr(tol))
        if kind != "full":
            s["batch_size"] = plan["batch"]
        if kind == "sarah":
            s["sarah_p"] = plan["sarah_p"]
        path = workdir / f"{tag}{instance}_{role}_{kind}.ini"
        path.write_text(
            _ini(problem, s, dict(trace=path.with_suffix(".csv").name, **output)),
            encoding="utf-8",
        )
        per_epoch = 1 if kind == "full" else math.ceil(plan["n"] / plan["batch"])
        ops.append(Op(role, kind, instance, str(path), max_epochs * per_epoch, tol))

    for kind in KINDS:
        for _ in range(plan["full_repeat"] if kind == "full" else 1):
            add("fixed", kind, math.inf, plan["epochs"], {})
    add("tol", "full", plan["tol"], plan["tol_epochs"], {})
    if instance == 0:
        add("diag", "saga", math.inf, plan["epochs"], {"diag_every": plan["diag_every"]})
    return ops


# --- fused_lasso -----------------------------------------------------------

ONEHOT_N, ONEHOT_D, ONEHOT_GROUPS = 4062, 112, 22
FUSED_LAMBDA, FUSED_RHO = 1e-5, 0.2
PLANTED_RULE_SEED = 12345


def onehot_dataset(seed, n=ONEHOT_N, d=ONEHOT_D, n_groups=ONEHOT_GROUPS, flip=0.25):
    """Categorical one-hot rows (one active column per group) and +-1 labels
    from a planted linear rule, with a share of the labels flipped."""
    rng = np.random.default_rng([seed, 0x5AD])
    base, extra = divmod(d, n_groups)
    sizes = np.array([base + 1] * extra + [base] * (n_groups - extra))
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    cols = offsets + (rng.random((n, n_groups)) * sizes).astype(int)
    rows = np.zeros((n, d))
    rows[np.arange(n)[:, None], cols] = 1.0
    # The rule is fixed and the seed draws the sample: with a rule drawn per
    # seed, the full-gradient tolerance run took 188 to 672 iterations.
    w_star = np.random.default_rng(PLANTED_RULE_SEED).standard_normal(d)
    labels = np.where(rows @ w_star > 0, 1.0, -1.0)
    labels[rng.random(n) < flip] *= -1.0
    return rows, labels, cols


def write_libsvm_onehot(path, cols, labels):
    """LIBSVM text with the {1, 2} label convention."""
    with open(path, "w", encoding="utf-8") as fh:
        for c, y in zip(cols, labels):
            pairs = " ".join(f"{j + 1}:1" for j in c)
            fh.write(f"{2 if y > 0 else 1} {pairs}\n")


def fused_lasso(workdir, seed):
    rows, labels, cols = onehot_dataset(seed)
    write_libsvm_onehot(workdir / "onehot.svm", cols, labels)
    problem = {"builder": "fused_lasso", "data": "onehot.svm", "lambda1": FUSED_LAMBDA, "rho_c": FUSED_RHO}
    solver = {"beta": 1.0, "tau": 4.56, "sigma": 0.95, "seed": seed}
    plan = dict(n=ONEHOT_N, batch=16, sarah_p=8.0, epochs=1, full_repeat=16,
                tol=3e-3, tol_epochs=3000, diag_every=16)
    ops = _ops_for(workdir, "fused", 0, problem, solver, plan)
    edges = ref.correlation_edges(rows, FUSED_RHO)
    matrix = ref.fused_lasso_matrix(edges, ONEHOT_D)

    def check(setups, results):
        (problem_obj, spectral, _), = setups
        out = _operator_checks(problem_obj.op, matrix, seed)
        norm_sq = float(np.linalg.eigvalsh(matrix.T @ matrix)[-1])
        out.append(("op_norm_sq", _close(spectral.op_norm_sq, norm_sq, 1e-8),
                    f"program {spectral.op_norm_sq!r} vs dense eigvalsh {norm_sq!r}"))
        out.append(("lambda_min_zero", spectral.lambda_min_aat == 0.0,
                    f"lambda_min(AA^T) = {spectral.lambda_min_aat!r} for a {matrix.shape} [G; I]"))
        data = [("sigmoid", rows, labels, FUSED_LAMBDA, matrix)]
        return out + _run_checks(ops, results, data, solver)

    return Workload("fused_lasso", [ops[0].config], ops, check)


# --- blur_recon -----------------------------------------------------------

BLUR_SIZE, BLUR_RADIUS, BLUR_LAMBDA = 32, 1, 0.01
# The phantom is fixed: the objective of the builder's three random
# rectangles differs tenfold between phantoms, more than any bound can
# hold, while the cost of an iteration does not depend on the phantom.
# With phantom 1 the tolerance run stops after tens of iterations; fainter
# phantoms (0, 2, 3) meet the tolerance on the first iterate.
BLUR_PHANTOM = 1


def blur_recon(workdir, seed):
    problem = {"builder": "toy_reconstruction", "height": BLUR_SIZE, "width": BLUR_SIZE,
               "forward": "blur", "radius": BLUR_RADIUS, "lambda": BLUR_LAMBDA,
               "reg": "l1", "seed": BLUR_PHANTOM}
    solver = {"beta": 0.1, "tau": 0.65, "sigma": 0.95, "seed": seed}
    n = BLUR_SIZE * BLUR_SIZE
    plan = dict(n=n, batch=16, sarah_p=8.0, epochs=4, full_repeat=8,
                tol=3e-2, tol_epochs=1000, diag_every=16)
    ops = _ops_for(workdir, "blur", 0, problem, solver, plan)
    blur = ref.box_blur_matrix(BLUR_SIZE, BLUR_SIZE, BLUR_RADIUS)
    diff = ref.finite_difference_2d_matrix(BLUR_SIZE, BLUR_SIZE)

    def check(setups, results):
        import sadmm

        (problem_obj, spectral, _), = setups
        _, truth = sadmm.build_toy_reconstruction(
            BLUR_SIZE, BLUR_SIZE, forward="blur", radius=BLUR_RADIUS, lam=BLUR_LAMBDA, seed=BLUR_PHANTOM
        )
        out = _operator_checks(problem_obj.op, diff, seed)
        closed = ref.grid_laplacian_norm_sq(BLUR_SIZE, BLUR_SIZE)
        out.append(("op_norm_sq", _close(spectral.op_norm_sq, closed, 1e-8),
                    f"program {spectral.op_norm_sq!r} vs closed form {closed!r}"))
        out.append(("lambda_min_zero", spectral.lambda_min_aat == 0.0,
                    f"lambda_min(AA^T) = {spectral.lambda_min_aat!r}, out_dim > in_dim"))
        data = [("least_squares", blur, blur @ truth, BLUR_LAMBDA, diff)]
        return out + _run_checks(ops, results, data, solver)

    return Workload("blur_recon", [ops[0].config], ops, check)


# --- quadratic_tol ----------------------------------------------------------

QUAD_N, QUAD_D, QUAD_LAMBDA, QUAD_INSTANCES = 200, 50, 0.1, 16


def quadratic_tol(workdir, seed):
    solver = {"beta": 1.0, "tau": 3.0, "sigma": 0.95, "seed": seed}
    plan = dict(n=QUAD_N, batch=10, sarah_p=20.0, epochs=5, full_repeat=4,
                tol=1e-10, tol_epochs=20000, diag_every=10)
    ops = []
    for k in range(QUAD_INSTANCES):
        problem = {"builder": "synthetic_quadratic", "n": QUAD_N, "d": QUAD_D,
                   "seed": seed * QUAD_INSTANCES + k}
        ops += _ops_for(workdir, "quad", k, problem, solver, plan)
    instances = [next(op.config for op in ops if op.instance == k) for k in range(QUAD_INSTANCES)]

    def check(setups, results):
        out, data = [], []
        eye = np.eye(QUAD_D)
        for k, (problem_obj, spectral, _) in enumerate(setups):
            out.append((f"spectrum_{k}", spectral.op_norm_sq == 1.0 and spectral.lambda_min_aat == 1.0,
                        f"identity operator: {spectral!r}"))
            rows = np.vstack([c.r for c in problem_obj.loss.components])
            targets = np.array([c.b for c in problem_obj.loss.components])
            data.append(("least_squares", rows, targets, QUAD_LAMBDA, eye))
        out += _run_checks(ops, results, data, solver)
        for op, result in zip(ops, results):
            if op.role == "tol":
                _, rows, targets, lam, _ = data[op.instance]
                _, best = ref.proximal_gradient_lasso(rows, targets, lam)
                got = result.trace[-1].objective
                out.append((f"reference_{op.instance}", _close(got, best, 1e-6),
                            f"tolerance run {got!r} vs proximal gradient {best!r}"))
            if op.role == "diag":
                sampled = [r.diag for r in result.trace if r.diag is not None]
                out.append(("psi_defined", bool(sampled) and all(d.psi is not None for d in sampled),
                            f"{len(sampled)} sampled records"))
        return out

    return Workload("quadratic_tol", instances, ops, check)


WORKLOADS = {"fused_lasso": fused_lasso, "blur_recon": blur_recon, "quadratic_tol": quadratic_tol}


# --- shared checks ------------------------------------------------------------

def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def _operator_checks(op, matrix, seed):
    rng = np.random.default_rng([seed, 0xA])
    v, w = rng.standard_normal(matrix.shape[1]), rng.standard_normal(matrix.shape[0])
    fwd = float(np.linalg.norm(op.apply(v) - matrix @ v))
    adj = float(np.linalg.norm(op.adjoint(w) - matrix.T @ w))
    scale = 1e-12 * (np.linalg.norm(v) + np.linalg.norm(w))
    return [("operator", fwd <= scale and adj <= scale,
             f"|A v - M v| = {fwd:.3g}, |A^T w - M^T w| = {adj:.3g}")]


def _run_checks(ops, results, data, solver):
    """Objective and residual of every solve, and KKT at tolerance stops."""
    out = []
    for op, result in zip(ops, results):
        kind, rows, targets, lam, matrix = data[op.instance]
        x, z = result.state.x, result.state.z
        last = result.trace[-1]
        want = ref.objective(kind, rows, targets, lam, x, z)
        resid = float(np.linalg.norm(matrix @ x - z))
        label = f"{op.role}_{op.kind}_{op.instance}"
        ok = _close(last.objective, want, 1e-9) and abs(last.primal_residual - resid) <= 1e-9 * (1.0 + resid)
        if op.role != "tol":
            ok = ok and len(result.trace) == op.max_iters
        out.append((f"objective_{label}", ok,
                    f"objective {last.objective!r} vs {want!r}, residual {last.primal_residual!r} vs {resid!r}, "
                    f"{len(result.trace)} of {op.max_iters} iterations"))
        if op.role == "tol":
            stopped = len(result.trace) < op.max_iters
            grad = (ref.sigmoid_gradient if kind == "sigmoid" else ref.least_squares_gradient)(rows, targets, x)
            kkt = ref.kkt_residuals(grad, matrix, lam, x, z, result.state.u)
            norm_sq = float(np.linalg.eigvalsh(matrix.T @ matrix)[-1])
            lipschitz = ref.lipschitz_bound(kind, rows)
            bound = ref.kkt_bound(op.tol, lipschitz, solver["tau"], solver["beta"], norm_sq, x)
            out.append((f"kkt_{label}", stopped and max(kkt) <= bound,
                        f"stopped after {len(result.trace)} of {op.max_iters}; "
                        f"KKT {tuple(f'{r:.3g}' for r in kkt)} vs bound {bound:.3g}"))
    return out

