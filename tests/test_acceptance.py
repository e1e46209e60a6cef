"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines in the summary.  The reference sweep (criteria 5, 6, 8) runs once as a
module fixture on the shipped configuration file.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import fracneumann as fn
from fracneumann.config import load_config
from fracneumann.runners import run_scaling_sweep

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference_1d.cfg"


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {criterion}: {description}{suffix}", flush=True)
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def reference_meshes():
    mesh1 = fn.build_interval_mesh(-1.0, 1.0, 0.01, 4.0)
    op1 = fn.assemble(mesh1, s=0.25, eps=0.3)
    mesh2 = fn.build_box_mesh(((0.0, 1.0), (0.0, 1.0)), 0.2, 2.0)
    op2 = fn.assemble(mesh2, s=0.4, eps=0.5)
    return [(mesh1, op1), (mesh2, op2)]


@pytest.fixture(scope="module")
def reference_sweep(tmp_path_factory):
    cfg = load_config(REFERENCE_CONFIG)
    out = tmp_path_factory.mktemp("sweep")
    start = time.perf_counter()
    result = run_scaling_sweep(cfg, out)
    elapsed = time.perf_counter() - start
    return {"cfg": cfg, "result": result, "elapsed": elapsed, "out": out}


def test_criterion_1_identity_suite(reference_meshes):
    start = time.perf_counter()
    worst = 0.0
    for mesh, op in reference_meshes:
        # 100 pairs (u, v), drawn in turn: the stream of 200 single draws
        uv = np.random.default_rng(1).standard_normal((100, 2, mesh.n_total))
        for resid, scale in fn.check_identities(op, uv):
            worst = max(worst, float(np.max(resid / scale)))
        c = np.full(mesh.n_total, 3.3)
        exact_zero = (np.all(fn.frac_laplacian(op, c) == 0.0)
                      and np.all(fn.neumann_derivative(op, c) == 0.0)
                      and fn.seminorm_form(op, c, c) == 0.0)
        assert exact_zero
    elapsed = time.perf_counter() - start
    report(1, "Gauss/Green identities at 1e-12 with exact constant zeros",
           worst <= 1e-12 and elapsed < 10.0,
           f"worst rel residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_operator_accuracy():
    quad = pytest.importorskip("scipy.integrate").quad

    def oracle(u, xstar, lo, hi, s, c_ns):
        def one_side(extent, sign):
            def integrand(rho):
                return (u(xstar) - u(xstar + sign * rho * rho)) \
                    * rho ** (-2.0 * (1.0 + 2.0 * s)) * 2.0 * rho
            val, err = quad(integrand, 0.0, np.sqrt(extent), limit=400)
            assert err < 1e-8
            return val
        return c_ns * (one_side(xstar - lo, -1.0) + one_side(hi - xstar, 1.0))

    errors = {}
    for h in (0.01, 0.005):
        mesh = fn.build_interval_mesh(-1.0, 1.0, h, 6.0)
        op = fn.assemble(mesh, 0.25, 1.0)
        x = mesh.nodes.ravel()
        u = np.exp(-x * x)
        i0 = int(np.argmin(np.abs(mesh.interior_nodes.ravel())))
        xstar = float(mesh.interior_nodes.ravel()[i0])
        got = fn.frac_laplacian(op, u)[i0]
        want = oracle(lambda y: np.exp(-y * y), xstar,
                      x.min() - h / 2.0, x.max() + h / 2.0, 0.25, op.c_ns)
        errors[h] = abs(got - want) / abs(want)
    ok = errors[0.01] <= 0.02 and errors[0.005] < errors[0.01]
    report(2, "fractional Laplacian of exp(-x^2) matches the quadrature "
              "oracle within 2% and improves under refinement",
           ok, f"rel err {errors[0.01]:.2e} -> {errors[0.005]:.2e}")


def test_criterion_3_analytic_constants():
    start = time.perf_counter()
    k2_1 = abs(fn.K_q(1, 2.0) - 2.0 / 3.0)
    k2_2 = abs(fn.K_q(2, 2.0) - np.pi / 6.0)
    sig = abs(fn.solve_sigma(1) - 2.0 ** (-1.0 / 3.0))

    eps, h = 0.8, 0.002
    mesh = fn.build_interval_mesh(-1.0, 1.0, h, 2.0)
    phi = fn.phi_eps(mesh, eps)[:mesh.n_interior]
    above = phi > fn.solve_sigma(1) / eps
    half_mass_err = abs(float(np.sum(phi[above] ** 2) / np.sum(phi**2)) - 0.5)
    elapsed = time.perf_counter() - start

    ok = (k2_1 <= 1e-12 and k2_2 <= 1e-12 and sig <= 1e-10
          and half_mass_err <= 5.0 * h and elapsed < 1.0)
    report(3, "closed-form constants (K_2, sigma) and the half-mass certificate",
           ok, f"K2 errs {k2_1:.1e}/{k2_2:.1e}, sigma err {sig:.1e}, "
               f"half-mass err {half_mass_err:.1e}, {elapsed:.2f}s")


def test_criterion_4_gradient_correctness(reference_meshes):
    worst = 0.0
    for mesh, op in reference_meshes:
        p_max = 2.0 * mesh.dim / (mesh.dim - 2.0 * op.s)
        spec = fn.ProblemSpec(mesh, op, fn.power_nonlinearity(min(3.0, 0.5 * (2.0 + p_max))))
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = rng.standard_normal(mesh.n_total)
            v = rng.standard_normal(mesh.n_total)
            delta = 1e-5 * (1.0 + np.max(np.abs(u))) / (1.0 + np.max(np.abs(v)))
            fd = (fn.energy(spec, u + delta * v)
                  - fn.energy(spec, u - delta * v)) / (2.0 * delta)
            got = mesh.cell_volume * float(fn.energy_gradient(spec, u) @ v)
            worst = max(worst, abs(got - fd) / max(abs(fd), 1e-300))
    report(4, "energy gradient matches central differences on 50 pairs per mesh",
           worst <= 1e-6, f"worst rel err {worst:.2e}")


def test_criterion_5_energy_scaling_law(reference_sweep):
    res = reference_sweep["result"]
    cfg = reference_sweep["cfg"]
    mesh = res.specs[0].mesh
    dofs_ok = mesh.n_total <= 2000
    runtime_ok = reference_sweep["elapsed"] < 300.0

    converged = res.all_converged
    positivity = all(r.level >= r.delta > 0.0 for r in res.reports)
    ratios = [r.level / sp.eps**mesh.dim for r, sp in zip(res.reports, res.specs)]
    ratio_ok = max(ratios) / min(ratios) <= 4.0
    smallest = res.reports[-1]
    below_constant = smallest.level < res.specs[-1].constant_energy(1.0)
    nonneg = all(r.min_u >= -1e-8 * float(np.max(np.abs(r.u[:mesh.n_interior])))
                 for r in res.reports)
    ui = smallest.u[:mesh.n_interior]
    std_over_mean = float(np.std(ui) / abs(np.mean(ui)))
    nonconstant = std_over_mean > 1e-3

    ok = (dofs_ok and runtime_ok and converged and positivity and ratio_ok
          and below_constant and nonneg and nonconstant)
    report(5, "reference sweep: converged, positive level above delta, "
              "eps^N scaling within ratio 4, below the constant level, "
              "nonnegative and nonconstant",
           ok,
           f"{mesh.n_total} DOFs in {reference_sweep['elapsed']:.0f}s, "
           f"c/eps^N ratio {max(ratios)/min(ratios):.2f}, "
           f"c({cfg.eps_list[-1]})={smallest.level:.4f} vs 1/3, "
           f"std/mean {std_over_mean:.2f}")


def test_criterion_6_corollary_bound(reference_sweep):
    res = reference_sweep["result"]
    dim = res.specs[0].mesh.dim
    identity_ok = True
    for sp, rep in zip(res.specs, res.reports):
        resid, scale = fn.euler_identity_residual(sp, rep.u)
        identity_ok = identity_ok and resid <= 10.0 * rep.grad_tol * max(scale, 1.0)
    norm_ratios = [r.norm_sq / sp.eps**dim for r, sp in zip(res.reports, res.specs)]
    ratio = max(norm_ratios) / min(norm_ratios)
    bound_ok = fn.apriori_norm_certificate(res.specs, res.reports, res.tents)
    ok = identity_ok and ratio <= 4.0 and bound_ok
    report(6, "critical-point norm identity and uniform norm/eps^N bound",
           ok, f"norm ratio {ratio:.2f}, tent K0 certificate {bound_ok}")


def test_criterion_7_moser_machinery(reference_sweep):
    quad = pytest.importorskip("scipy.integrate").quad
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 100_000
    alphas = 1.0 + 10 ** rng.uniform(-2.0, 1.0, n)
    Ms = 10 ** rng.uniform(-2.0, 2.0, n)
    a = 10 ** rng.uniform(-3.0, 2.0, n)
    b = 10 ** rng.uniform(-3.0, 2.0, n)
    des7_ok, counterexample = fn.check_G_inequality(alphas, Ms, a, b)

    des6_ok = True
    for a_, m_, t_ in zip(alphas[::10], Ms[::10], a[::10]):
        lhs = fn.G_trunc(a_, m_, t_)
        rhs = 2.0 / (a_ + 1.0) * t_ * min(t_, m_) ** ((a_ - 1.0) / 2.0)
        des6_ok = des6_ok and lhs >= rhs * (1.0 - 1e-12)

    quad_ok = True
    for alpha, M in ((2.0, 0.7), (3.0, 1.0), (5.0, 2.0)):
        def sqrt_gprime(t):
            return (np.sqrt(alpha) * t ** ((alpha - 1.0) / 2.0) if t <= M
                    else M ** ((alpha - 1.0) / 2.0))
        for t in (0.5 * M, 2.0 * M):
            val, _ = quad(sqrt_gprime, 0.0, t, points=[min(M, t)],
                          epsabs=1e-13, epsrel=1e-13, limit=300)
            quad_ok = quad_ok and abs(fn.G_trunc(alpha, M, t) - val) <= 1e-10

    sums_ok = True
    ladders_ok = True
    for sp, rep in zip(reference_sweep["result"].specs,
                       reference_sweep["result"].reports):
        ladder = fn.norm_ladder(sp, rep.u)
        r = 2.0 / sp.two_star
        n_used = ladder.n_used
        sums_ok = sums_ok and abs(
            ladder.gamma1 - (1.0 - r**n_used) / (1.0 - r)) <= 1e-12
        sums_ok = sums_ok and abs(
            ladder.gamma2 - (1.0 - np.sqrt(r) ** n_used) / (1.0 - np.sqrt(r))) <= 1e-12
        ladders_ok = ladders_ok and ladder.sup_estimate >= ladder.actual_max
    elapsed = time.perf_counter() - start

    ok = des7_ok and des6_ok and quad_ok and sums_ok and ladders_ok and elapsed < 30.0
    report(7, "truncation inequalities, closed forms, ladder sums, and the "
              "sup bound on every computed solution",
           ok, f"1e5 samples, {elapsed:.1f}s"
               + ("" if des7_ok else f", counterexample {counterexample}"))


def test_criterion_8_determinism(reference_sweep, tmp_path):
    cfg = reference_sweep["cfg"]
    rerun_dir = tmp_path / "rerun"
    run_scaling_sweep(cfg, rerun_dir)
    first = reference_sweep["out"]
    identical = True
    compared = 0
    for f in sorted(first.iterdir()):
        other = rerun_dir / f.name
        compared += 1
        if not other.exists() or f.read_bytes() != other.read_bytes():
            identical = False
            break
    report(8, "reruns with identical config and seed are byte-identical",
           identical and compared > 0, f"{compared} report files compared")
