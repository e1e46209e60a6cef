"""Experiment runners behind the CLI subcommands.

Each runner builds its scene from a validated RunConfig, writes the report
files for the run directory, and returns a boolean certificate that the CLI
maps onto the exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .mountain_pass import (
    SolveReport,
    apriori_norm_certificate,
    endpoint,
    mountain_pass_solve,
)
from .moser import CaccioppoliChainError, norm_ladder, verify_caccioppoli_step
from .operators import (
    assemble,
    bilinear_form,
    check_divergence,
    check_integration_by_parts,
    divergence_scale,
    estimate_embedding_constant,
    estimate_sobolev_constant,
    exterior_extension,
    frac_laplacian,
    ibp_scale,
    neumann_derivative,
    seminorm_form,
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
from .mesh import build_box_mesh, build_interval_mesh
from .tent import phi_eps, thresholds

__all__ = ["run_identity_suite", "run_scaling_sweep", "run_moser_check",
           "SweepResult"]

IDENTITY_TOL = 1e-12
N_IDENTITY_FUNCTIONS = 100


def _scaled_mesh_pair(cfg: RunConfig, eps: float):
    """Mesh and its eps-dilated companion for the dilation identity."""
    base = cfg.build_mesh()
    r = cfg.resolved_r_ext()
    if cfg.domain_kind == "interval":
        scaled = build_interval_mesh(cfg.a / eps, cfg.b / eps, cfg.h / eps, r / eps)
    else:
        scaled = build_box_mesh(((cfg.ax / eps, cfg.bx / eps),
                                 (cfg.ay / eps, cfg.by / eps)),
                                cfg.h / eps, r / eps)
    return base, scaled


def run_identity_suite(cfg: RunConfig, out_dir: str | Path,
                       corrupt_weight: bool = False) -> bool:
    """Exercise the operator identities on the configured mesh.

    ``corrupt_weight`` is a fault-injection hook for tests: it breaks the
    symmetry of one kernel weight, which must make the suite fail and name
    the broken identities.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eps = cfg.first_eps()
    mesh = cfg.build_mesh()
    op = assemble(mesh, cfg.s, eps)
    if corrupt_weight:
        op.weights[0, 1] *= 1.5  # asymmetric: Gauss and Green must now fail

    rng = np.random.default_rng(cfg.seed)
    checks = []

    def record(name: str, residual: float, tol: float):
        checks.append({"name": name, "residual": float(residual),
                       "tol": float(tol), "pass": bool(residual <= tol)})

    worst = 0.0
    for _ in range(N_IDENTITY_FUNCTIONS):
        u = rng.standard_normal(mesh.n_total)
        scale = divergence_scale(op, u)
        worst = max(worst, check_divergence(op, u) / max(scale, 1e-300))
    record("gauss_identity_relative", worst, IDENTITY_TOL)

    worst = 0.0
    for _ in range(N_IDENTITY_FUNCTIONS):
        u = rng.standard_normal(mesh.n_total)
        v = rng.standard_normal(mesh.n_total)
        scale = ibp_scale(op, u, v)
        worst = max(worst, check_integration_by_parts(op, u, v) / max(scale, 1e-300))
    record("green_identity_relative", worst, IDENTITY_TOL)

    c = np.full(mesh.n_total, 2.0 + np.pi)
    const_resid = max(
        float(np.max(np.abs(frac_laplacian(op, c)))),
        float(np.max(np.abs(neumann_derivative(op, c)))),
        abs(seminorm_form(op, c, c)),
    )
    record("constant_annihilation_exact", const_resid, 0.0)
    mass = bilinear_form(op, c, c)
    expected = float(c[0] ** 2) * mesh.domain_measure()
    record("constant_form_equals_mass", abs(mass - expected) / expected, IDENTITY_TOL)

    worst = 0.0
    for _ in range(20):
        u_int = rng.standard_normal(mesh.n_interior)
        ext = exterior_extension(op, u_int)
        worst = max(worst, float(np.max(np.abs(neumann_derivative(op, ext)))))
    record("extension_zero_flux", worst, IDENTITY_TOL)

    base, scaled = _scaled_mesh_pair(cfg, eps)
    if mesh.dim == 1:
        probe = lambda x: np.cos(np.pi * x[:, 0])
    else:
        probe = lambda x: np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
    resid = verify_scaling_identity(base, scaled, cfg.s, eps, probe)
    record("dilation_identity_relative", resid, 5.0 * cfg.h)

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


def run_scaling_sweep(cfg: RunConfig, out_dir: str | Path) -> SweepResult:
    """Mountain-pass solve per eps; emits CSV rows, summary JSON, solutions."""
    from .config import ConfigError

    if not cfg.eps_list:
        raise ConfigError("sweep needs a nonempty eps_list")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    mesh = cfg.build_mesh()
    nl = cfg.nonlinearity()
    mpa = cfg.mpa_config()
    # The weights do not depend on eps: assemble once, rescale per eps.
    base = assemble(mesh, cfg.s, cfg.eps_list[0])
    sobolev = estimate_sobolev_constant(base)
    rows, tent_rows = [], []
    specs, reports, tents = [], [], []

    for eps in cfg.eps_list:
        spec = ProblemSpec(mesh, base.with_eps(eps), nl)
        phi = phi_eps(mesh, eps)
        tent = thresholds(spec, phi)
        e = endpoint(spec, phi, tent)
        report = mountain_pass_solve(spec, e, mpa, sobolev_constant=sobolev)

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
                       cfg.config_sha256, eps=eps)
        write_json(out / f"solve_report_eps_{eps:g}.json",
                   {"eps": eps, "level": report.level,
                    "residual": report.residual, "min_u": report.min_u,
                    "norm_sq": report.norm_sq,
                    "iterations": report.iterations,
                    "converged": report.converged},
                   cfg.config_sha256)

    write_csv(out / "sweep.csv",
              ["eps", "level", "level_over_epsN", "residual", "min_u",
               "norm_sq", "norm_over_epsN", "nonconstancy_ratio", "converged"],
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
    apriori = apriori_norm_certificate(specs, reports) if all_converged else False
    certificates_ok = (all_converged and nonneg_ok and positivity
                       and tent_ok and apriori)

    const_level = float(specs[0].constant_energy(1.0)) if nl.model == "power" else None
    summary = {
        "eps_list": list(cfg.eps_list),
        "all_converged": all_converged,
        "level_over_epsN": {"min": min(level_ratios), "max": max(level_ratios),
                            "ratio": max(level_ratios) / min(level_ratios)},
        "norm_over_epsN": {"min": min(norm_ratios), "max": max(norm_ratios),
                           "ratio": max(norm_ratios) / min(norm_ratios)},
        "constant_solution_energy": const_level,
        "smallest_eps_level_vs_constant": reports[-1].energy_vs_constant,
        "nonnegativity_ok": nonneg_ok,
        "level_positivity_ok": positivity,
        "apriori_norm_ok": apriori,
        "certificates_ok": certificates_ok,
    }
    write_json(out / "sweep_summary.json", summary, cfg.config_sha256)

    return SweepResult(specs=specs, reports=reports, tents=tents,
                       all_converged=all_converged,
                       certificates_ok=certificates_ok, summary=summary)


def run_moser_check(cfg: RunConfig, solution_path: str | Path,
                    out_dir: str | Path) -> bool:
    """Norm ladder plus tested-equation checks for a stored solution.

    The operator is rebuilt at the eps recorded in the solution snapshot
    (falling back to the config eps for files without one), so the tested
    equation matches the functional the solution solves.
    """
    from .moser import g_trunc

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mesh = cfg.build_mesh()
    header, _, u = read_solution(solution_path, mesh)
    eps = header.get("eps", cfg.first_eps())
    op = assemble(mesh, cfg.s, eps)
    spec = ProblemSpec(mesh, op, cfg.nonlinearity())

    ladder = norm_ladder(spec, u, n_max=cfg.n_max)
    grad_tol = cfg.grad_tol if cfg.grad_tol is not None else 1e-8
    embedding = estimate_embedding_constant(op)
    umax = float(np.max(np.abs(u))) if u.size else 0.0
    cacc = []
    chain_ok = True
    residuals_ok = True
    if umax > 0.0:
        for alpha in (2.0, 3.0, 5.0):
            for m_factor in (1.0, 10.0):
                big_m = m_factor * umax
                entry = {"alpha": alpha, "M": big_m}
                test_fn = g_trunc(alpha, big_m, np.maximum(u, 0.0))
                tol = 10.0 * grad_tol * mesh.cell_volume * float(np.sum(np.abs(test_fn)))
                try:
                    resid = verify_caccioppoli_step(
                        spec, u, alpha, big_m,
                        grad_tol=grad_tol, sobolev_constant=embedding)
                    entry["residual"] = float(resid)
                    entry["residual_tol"] = tol
                    entry["residual_ok"] = bool(resid <= tol)
                    entry["chain_ok"] = True
                    residuals_ok = residuals_ok and entry["residual_ok"]
                except CaccioppoliChainError as err:
                    entry["residual"] = None
                    entry["chain_ok"] = False
                    entry["error"] = str(err)
                    chain_ok = False
                cacc.append(entry)

    ladder_rows = [
        (n + 1, ladder.beta[n], ladder.q_upper[n], ladder.norms_upper[n],
         ladder.bound_rhs[n])
        for n in range(ladder.n_used)
    ]
    write_csv(out / "moser_ladder.csv",
              ["n", "beta_n", "q", "norm_q", "bound_rhs"],
              ladder_rows, cfg.config_sha256)

    bound_ok = bool(ladder.sup_estimate >= ladder.actual_max)
    ok = bound_ok and chain_ok and residuals_ok
    write_json(out / "moser_summary.json",
               {"K": ladder.K, "gamma1": ladder.gamma1, "gamma2": ladder.gamma2,
                "sup_estimate": ladder.sup_estimate,
                "actual_max": ladder.actual_max,
                "n_used": ladder.n_used,
                "eps": eps,
                "sup_bound_ok": bound_ok,
                "caccioppoli": cacc,
                "all_ok": ok},
               cfg.config_sha256)
    return ok
