"""Experiment runners behind the CLI subcommands.

Each runner builds its scene from a validated RunConfig, writes the report
files for the run directory, and returns a boolean certificate that the CLI
maps onto the exit code.  Each runs on one BLAS thread (:func:`_one_blas_thread`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .mountain_pass import (
    SolveReport,
    apriori_norm_certificate,
    endpoint,
    mountain_pass_solve,
)
from .moser import norm_ladder, verify_caccioppoli_step
from .operators import (
    _centered,
    _graph_laplacian_apply,
    _one_blas_thread,
    assemble,
    check_identities,
    estimate_embedding_constant,
    exterior_extension,
    neumann_derivative,
    verify_scaling_identity,
)
from .problem import ProblemSpec
from .reports import (
    read_solution,
    write_csv,
    write_gnuplot_recipe,
    write_json,
    write_solution,
)
from .mesh import build_box_mesh
from .tent import phi_eps, thresholds

__all__ = ["run_identity_suite", "run_scaling_sweep", "run_moser_check",
           "SweepResult"]

IDENTITY_TOL = 1e-12
N_IDENTITY_FUNCTIONS = 100  # random Green pairs; Gauss checks both members
IDENTITY_STACK = 20  # rows per kernel apply


@_one_blas_thread()
def run_identity_suite(cfg: RunConfig, out_dir: str | Path) -> bool:
    """Exercise the operator identities on the configured mesh."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eps = cfg.first_eps()
    mesh = cfg.build_mesh()
    op = assemble(mesh, cfg.s, eps)

    rng = np.random.default_rng(cfg.seed)
    checks = []

    def record(name: str, residual: float, tol: float):
        checks.append({"name": name, "residual": float(residual),
                       "tol": float(tol), "pass": bool(residual <= tol)})

    def worst_relative(terms) -> float:
        return max(float(np.max(resid / np.maximum(scale, 1e-300)))
                   for resid, scale in terms)

    # A (k, 2, n) draw holds the values of 2k successive n-draws, so the
    # stream is the one a function-by-function loop would see; its rows
    # u0, v0, u1, v1, ... go to the kernel as one stack, without a copy.
    n, pairs = mesh.n_total, IDENTITY_STACK // 2
    terms = []
    for _ in range(N_IDENTITY_FUNCTIONS // pairs):
        uv = rng.standard_normal((pairs, 2, n))
        terms.append(check_identities(op, uv))
    for k, name in enumerate(("gauss_identity_relative", "green_identity_relative")):
        record(name, worst_relative(t[k] for t in terms), IDENTITY_TOL)

    # the flux rows and the seminorm of c read one apply, as does the mass
    c = np.full(n, 2.0 + np.pi)
    lap = _graph_laplacian_apply(op, c)
    semi = float(_centered(c) @ lap)
    vol, ni = mesh.cell_volume, mesh.n_interior
    record("constant_annihilation_exact",
           max(float(np.max(np.abs(lap / vol))), abs(semi)), 0.0)
    mass = op.eps ** (2.0 * op.s) * semi + vol * float(c[:ni] @ c[:ni])
    expected = float(c[0] ** 2) * mesh.domain_measure()
    record("constant_form_equals_mass", abs(mass - expected) / expected, IDENTITY_TOL)

    ext = exterior_extension(op, rng.standard_normal((IDENTITY_STACK, ni)))
    record("extension_zero_flux",
           float(np.max(np.abs(neumann_derivative(op, ext)))), IDENTITY_TOL)

    probe = lambda x: np.prod(np.cos(np.pi * x), axis=1)
    scaled = build_box_mesh(np.divide(cfg.bounds, eps), cfg.h / eps,
                            cfg.resolved_r_ext() / eps)
    resid = verify_scaling_identity(mesh, scaled, cfg.s, eps, probe)
    record("dilation_identity_relative", resid, IDENTITY_TOL)

    all_pass = all(c["pass"] for c in checks)
    write_json(out / "identities.json",
               {"checks": checks, "all_pass": all_pass,
                "mesh": {"dim": mesh.dim, "n_interior": mesh.n_interior,
                         "n_exterior": mesh.n_exterior, "h": mesh.h,
                         "r_ext": mesh.r_ext},
                "eps": eps, "s": cfg.s},
               cfg.config_sha256)
    return all_pass


@dataclass
class SweepResult:
    """In-memory view of a scaling sweep, for tests and the acceptance gate."""

    specs: list[ProblemSpec]
    reports: list[SolveReport]
    tents: list
    all_converged: bool
    certificates_ok: bool
    summary: dict = field(default_factory=dict)


@_one_blas_thread()
def run_scaling_sweep(cfg: RunConfig, out_dir: str | Path) -> SweepResult:
    """Mountain-pass solve per eps; emits CSV rows, summary JSON, solutions."""
    if not cfg.eps_list:
        raise ConfigError("sweep needs a nonempty eps_list")
    mesh = cfg.build_mesh()
    # every tent first: an eps that phi_eps rejects fails before any output
    phis = [phi_eps(mesh, eps) for eps in cfg.eps_list]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    nl = cfg.nonlinearity()
    mpa = cfg.mpa_config()
    # The weights do not depend on eps: assemble once, rescale per eps.
    base = assemble(mesh, cfg.s, cfg.eps_list[0])
    rows, tent_rows = [], []
    specs, reports, tents = [], [], []

    for eps, phi in zip(cfg.eps_list, phis):
        spec = ProblemSpec(mesh, base.with_eps(eps), nl)
        tent = thresholds(spec, phi)
        report = mountain_pass_solve(spec, endpoint(spec, phi, tent), mpa)

        specs.append(spec)
        reports.append(report)
        tents.append(tent)
        rows.append((eps, report.level, report.level / eps**mesh.dim,
                     report.residual, report.min_u, report.norm_sq,
                     report.norm_sq / eps**mesh.dim,
                     report.energy_vs_constant, report.converged))
        tent_rows.append((eps, tent.c_est, tent.t1, tent.t2, tent.g_max,
                          tent.bound))
        write_solution(out / f"solution_eps_{eps:g}.txt", mesh, report.u,
                       cfg.config_sha256, eps=eps, grad_tol=report.grad_tol,
                       residual=report.residual, s=cfg.s)
        write_json(out / f"solve_report_eps_{eps:g}.json",
                   {"eps": eps, "level": report.level,
                    "residual": report.residual, "min_u": report.min_u,
                    "norm_sq": report.norm_sq,
                    "iterations": report.iterations,
                    "flow_sweeps": report.flow_sweeps,
                    "newton_steps": report.newton_steps,
                    "flow_kernel_rows": report.flow_kernel_rows,
                    "crest_segments": report.crest_segments,
                    "max_energy_history": report.max_energy_history.tolist(),
                    "converged": report.converged},
                   cfg.config_sha256)

    write_csv(out / "sweep.csv",
              ["eps", "level", "level_over_epsN", "residual", "min_u",
               "norm_sq", "norm_over_epsN", "level_over_constant_energy",
               "converged"],
              rows, cfg.config_sha256)
    write_csv(out / "tent_scaling.csv",
              ["eps", "C_est", "t1", "t2", "g_max", "bound"],
              tent_rows, cfg.config_sha256)
    write_gnuplot_recipe(out / "plot_sweep.gp", "sweep.csv", cfg.config_sha256)

    dim = mesh.dim
    level_ratios = [r.level / s.eps**dim for r, s in zip(reports, specs)]
    norm_ratios = [r.norm_sq / s.eps**dim for r, s in zip(reports, specs)]
    all_converged = all(r.converged for r in reports)
    nonneg_ok = all(
        r.min_u >= -1e-8 * float(np.max(np.abs(r.u[:mesh.n_interior])))
        for r in reports
    )
    positivity = all(r.level_above_delta for r in reports)
    tent_ok = all(t.scan_ok for t in tents)
    apriori = all_converged and apriori_norm_certificate(specs, reports, tents)
    certificates_ok = (all_converged and nonneg_ok and positivity
                       and tent_ok and apriori)

    summary = {
        "eps_list": list(cfg.eps_list),
        "all_converged": all_converged,
        "level_over_epsN": {"min": min(level_ratios), "max": max(level_ratios),
                            "ratio": max(level_ratios) / min(level_ratios)},
        "norm_over_epsN": {"min": min(norm_ratios), "max": max(norm_ratios),
                           "ratio": max(norm_ratios) / min(norm_ratios)},
        "constant_solution_energy": float(specs[0].constant_energy(1.0)),
        "smallest_eps_level_vs_constant": reports[-1].energy_vs_constant,
        "nonnegativity_ok": nonneg_ok,
        "level_floor": specs[0].level_floor,
        "level_positivity_ok": positivity,
        "apriori_norm_ok": apriori,
        "certificates_ok": certificates_ok,
    }
    write_json(out / "sweep_summary.json", summary, cfg.config_sha256)

    return SweepResult(specs=specs, reports=reports, tents=tents,
                       all_converged=all_converged,
                       certificates_ok=certificates_ok, summary=summary)


@_one_blas_thread()
def run_moser_check(cfg: RunConfig, solution_path: str | Path,
                    out_dir: str | Path) -> bool:
    """Norm ladder plus tested-equation checks for a stored solution.

    :func:`verify_caccioppoli_step` checks six ``(alpha, M)`` pairs in one
    call, none for a zero solution; the run holds when the sup bound and every
    returned entry's ``residual_ok`` and ``chain_ok`` hold.

    The operator is rebuilt at the eps recorded in the solution snapshot
    (falling back to the config eps for files without one), so the tested
    equation matches the functional the solution solves, with the recorded
    ``grad_tol`` and ``s`` (an ``s`` not the config's raises ``ValueError``).
    """
    mesh = cfg.build_mesh()
    header, _, u = read_solution(solution_path, mesh)
    if header.get("s", cfg.s) != cfg.s:
        raise ValueError(f"solution computed at s={header['s']!r}, config s={cfg.s!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eps = header["eps"] if "eps" in header else cfg.first_eps()
    op = assemble(mesh, cfg.s, eps)
    spec = ProblemSpec(mesh, op, cfg.nonlinearity())

    ladder = norm_ladder(spec, u)
    grad_tol = header.get("grad_tol", cfg.grad_tol)
    embedding = estimate_embedding_constant(op)
    umax = float(np.max(np.abs(u))) if u.size else 0.0
    steps = [(alpha, m_factor * umax) for alpha in (2.0, 3.0, 5.0)
             for m_factor in (1.0, 10.0) if umax > 0.0]
    cacc = verify_caccioppoli_step(spec, u, steps, grad_tol=grad_tol,
                                   sobolev_constant=embedding)

    ladder_rows = [(n + 1, ladder.beta[n], ladder.q_upper[n], ladder.norms_upper[n],
                    ladder.bound_rhs[n]) for n in range(ladder.n_used)]
    write_csv(out / "moser_ladder.csv",
              ["n", "beta_n", "q", "norm_q", "bound_rhs"],
              ladder_rows, cfg.config_sha256)

    bound_ok = bool(ladder.sup_estimate >= ladder.actual_max)
    ok = bound_ok and all(e["residual_ok"] and e["chain_ok"] for e in cacc)
    write_json(out / "moser_summary.json",
               {"K": ladder.K, "gamma1": ladder.gamma1, "gamma2": ladder.gamma2,
                "sup_estimate": ladder.sup_estimate,
                "actual_max": ladder.actual_max,
                "n_used": ladder.n_used,
                "eps": eps,
                "embedding_constant": embedding,
                "sup_bound_ok": bound_ok,
                "caccioppoli": cacc,
                "all_ok": ok},
               cfg.config_sha256)
    return ok
