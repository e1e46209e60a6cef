"""Path-deformation min-max solver for the energy functional.

The solver mirrors the variational construction: a discrete path from 0 to an
endpoint with negative energy is deformed by backtracking descent steps
applied to its points, while the path maximum is monitored at the nodes and
along segment interiors (the quadratic energy part is an exact parabola on a
segment, so interior samples are cheap).  The best path maximum seen so far,
the incumbent min-max level, is nonincreasing by construction and upper
bounds the critical level.  Once the deformation stalls, the incumbent crest
point is driven to a critical point by a damped Newton iteration on the
gradient, which supplies the quadratic-rate endgame that plain descent lacks
near a saddle.

Certificates attached to a solve:
  * level positivity against the explicit sphere bound
    ``delta = rho^2 (a - A rho^(p-2))`` with ``a = 1/2 - eta`` and
    ``A = S^2 eps^(-2s)`` from the estimated embedding constant;
  * nonnegativity via the energy of the negative part;
  * non-constancy via the ratio of the level to the best constant-solution
    energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (bilinear_form, estimate_sobolev_constant,
                        _graph_laplacian_apply)
from .problem import (
    ProblemSpec,
    F_eval,
    check_hypotheses,
    energy,
    energy_gradient,
    f_eval,
    fprime_eval,
)
from .tent import TentThresholds, thresholds

__all__ = [
    "MPAConfig",
    "SolveReport",
    "endpoint",
    "mountain_pass_solve",
    "nonnegativity_certificate",
    "euler_identity_residual",
    "apriori_norm_certificate",
]

CONSTANT_CAPTURE_TOL = 1e-8
SEGMENT_SAMPLES = 7
FLOW_STALL_WINDOW = 30


@dataclass(frozen=True)
class MPAConfig:
    """Knobs of the path-deformation solver.

    ``grad_tol=None`` resolves to ``1e-8`` times the sup norm of the energy
    gradient at the path endpoint (the problem scale).  ``jitter`` adds a
    seeded random bump to the interior of the initial path, for symmetry
    breaking experiments; the default keeps the solve fully deterministic
    regardless of the seed.
    """

    path_points: int = 21
    grad_tol: float | None = None
    max_outer: int = 20000
    descent_step: float = 0.5
    seed: int = 0
    jitter: float = 0.0

    def __post_init__(self):
        if self.path_points < 8:
            raise ValueError(f"need path_points >= 8, got {self.path_points}")
        if self.grad_tol is not None and self.grad_tol <= 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class SolveReport:
    """Outcome of one min-max solve, with its certificates."""

    u: np.ndarray = field(repr=False)
    level: float
    residual: float
    min_u: float
    energy_vs_constant: float
    norm_sq: float
    iterations: int
    converged: bool
    grad_tol: float
    rho: float
    delta: float
    level_above_delta: bool
    constant_capture: bool
    nonconstancy: float          # std/mean of the interior values
    max_energy_history: np.ndarray = field(repr=False)


def endpoint(spec: ProblemSpec, phi: np.ndarray,
             tent: TentThresholds | None = None) -> np.ndarray:
    """Path endpoint ``e = t2 * phi`` with certified negative energy."""
    if tent is None:
        tent = thresholds(spec, phi)
    e = tent.t2 * phi
    e_energy = energy(spec, e)
    if e_energy >= 0.0:
        raise RuntimeError(
            f"endpoint energy {e_energy:.6g} is not negative at t2={tent.t2:.6g}; "
            "threshold certificates are unreliable on this mesh"
        )
    return e


def _sphere_bound(spec: ProblemSpec, sobolev_constant: float) -> tuple[float, float]:
    """(rho, delta): radius and energy floor of the mountain-pass sphere.

    rho is taken at half the zero of ``a - A rho^(p-2)`` so delta stays
    strictly positive.
    """
    nl = spec.nonlinearity
    a = 0.5 - nl.eta
    if a <= 0.0:
        raise ValueError("growth-bound eta must be below 1/2 for the sphere bound")
    big_a = sobolev_constant**2 * spec.eps ** (-2.0 * spec.s)
    rho = 0.5 * (a / big_a) ** (1.0 / (nl.p - 2.0))
    delta = rho**2 * (a - big_a * rho ** (nl.p - 2.0))
    return rho, delta


class _PathState:
    """Polyline through function space with incrementally maintained operator
    rows, so node and segment energies cost O(n) instead of a matvec each."""

    def __init__(self, spec: ProblemSpec, path: np.ndarray):
        self.spec = spec
        op = spec.op
        self.e2s = spec.eps ** (2.0 * op.s)
        self.vol = spec.mesh.cell_volume
        self.ni = spec.mesh.n_interior
        self.path = path
        self.lrows = _graph_laplacian_apply(op, path)
        self.sub_t = (np.arange(SEGMENT_SAMPLES) + 1.0) / (SEGMENT_SAMPLES + 1.0)

    def reaction(self, rows: np.ndarray) -> np.ndarray:
        ui = rows[..., :self.ni]
        return self.vol * np.sum(
            0.5 * ui * ui - F_eval(self.spec.nonlinearity, ui), axis=-1)

    def node_energies(self) -> np.ndarray:
        quad = 0.5 * self.e2s * np.einsum("ij,ij->i", self.path, self.lrows)
        return quad + self.reaction(self.path)

    def crest(self) -> tuple[float, np.ndarray]:
        """(value, point) of the sampled path maximum over nodes and
        segment interiors, endpoints excluded."""
        node_e = self.node_energies()
        k = 1 + int(np.argmax(node_e[1:-1]))
        best_val, best_pt = float(node_e[k]), self.path[k]

        p, lr = self.path, self.lrows
        s_aa = np.einsum("ij,ij->i", p[:-1], lr[:-1])
        s_bb = np.einsum("ij,ij->i", p[1:], lr[1:])
        s_ab = np.einsum("ij,ij->i", p[:-1], lr[1:])
        t = self.sub_t[:, None]
        quad = 0.5 * self.e2s * ((1.0 - t) ** 2 * s_aa[None, :]
                                 + 2.0 * t * (1.0 - t) * s_ab[None, :]
                                 + t**2 * s_bb[None, :])
        a_i = p[:-1, :self.ni]
        b_i = p[1:, :self.ni]
        combos = (1.0 - t[:, :, None]) * a_i[None, :, :] + t[:, :, None] * b_i[None, :, :]
        react = self.vol * np.sum(
            0.5 * combos * combos - F_eval(self.spec.nonlinearity, combos), axis=-1)
        vals = quad + react
        flat = int(np.argmax(vals))
        ti, seg = np.unravel_index(flat, vals.shape)
        if float(vals[ti, seg]) > best_val:
            tt = self.sub_t[ti]
            best_val = float(vals[ti, seg])
            best_pt = (1.0 - tt) * self.path[seg] + tt * self.path[seg + 1]
        return best_val, best_pt.copy()

    def gradients(self) -> np.ndarray:
        """Energy gradients of every path point, from the maintained rows."""
        g = (self.e2s / self.vol) * self.lrows
        ui = self.path[:, :self.ni]
        g[:, :self.ni] += ui - f_eval(self.spec.nonlinearity, ui)
        return g

    def flow_step(self, steps: np.ndarray) -> np.ndarray:
        """One backtracking descent step on every interior path point.

        Points whose energy has already fallen below the level of the path
        start (zero) can no longer carry the path maximum and are frozen,
        which keeps the flow focused on the crest and prevents the unbounded
        downhill side of the functional from running away.  Displacements
        are capped at one average segment length per sweep.  ``steps``
        carries the per-point initial step sizes and is updated in place.
        """
        mov = slice(1, self.path.shape[0] - 1)
        p = self.path[mov]
        lp = self.lrows[mov]
        g = self.gradients()[mov]
        lg = _graph_laplacian_apply(self.spec.op, g)

        s_pp = np.einsum("ij,ij->i", p, lp)
        s_pg = np.einsum("ij,ij->i", p, lg)
        s_gg = np.einsum("ij,ij->i", g, lg)
        e0 = 0.5 * self.e2s * s_pp + self.reaction(p)
        gg_vol = self.vol * np.einsum("ij,ij->i", g, g)

        seg_len = np.linalg.norm(np.diff(self.path, axis=0), axis=1).mean()
        g_norm = np.linalg.norm(g, axis=1)
        t_cap = np.where(g_norm > 0.0, seg_len / np.maximum(g_norm, 1e-300), 0.0)
        t = np.minimum(steps * 2.0, np.maximum(t_cap, 1e-14))
        active = (gg_vol > 0.0) & (e0 > 0.0)
        accepted = np.zeros(t.shape, dtype=bool)
        for _ in range(60):
            if not np.any(active):
                break
            cand = p[active, :self.ni] - t[active, None] * g[active, :self.ni]
            cand_e = (0.5 * self.e2s * (s_pp[active] - 2.0 * t[active] * s_pg[active]
                                        + t[active] ** 2 * s_gg[active])
                      + self.vol * np.sum(0.5 * cand * cand
                                          - F_eval(self.spec.nonlinearity, cand),
                                          axis=-1))
            ok = cand_e <= e0[active] - 1e-4 * t[active] * gg_vol[active]
            idx = np.flatnonzero(active)
            accepted[idx[ok]] = True
            active[idx[ok]] = False
            t[idx[~ok]] *= 0.5
        frozen = ~accepted & ~active  # never activated: keep step memory
        t = np.where(accepted, t, 0.0)
        self.path[mov] = p - t[:, None] * g
        self.lrows[mov] = lp - t[:, None] * lg
        steps[:] = np.where(accepted, t,
                            np.where(frozen, steps,
                                     np.maximum(steps * 0.5, 1e-14)))
        return accepted

    def resample(self, n_points: int) -> None:
        """Uniform arc-length resampling of path and operator rows."""
        seg = np.linalg.norm(np.diff(self.path, axis=0), axis=1)
        total = float(seg.sum())
        if total == 0.0:
            return
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        targets = np.linspace(0.0, total, n_points)
        idx = np.clip(np.searchsorted(cum, targets, side="right") - 1,
                      0, len(seg) - 1)
        denom = np.where(seg[idx] > 0.0, seg[idx], 1.0)
        frac = ((targets - cum[idx]) / denom)[:, None]
        new_path = self.path[idx] + frac * (self.path[idx + 1] - self.path[idx])
        new_lrows = self.lrows[idx] + frac * (self.lrows[idx + 1] - self.lrows[idx])
        new_path[0], new_lrows[0] = self.path[0], self.lrows[0]
        new_path[-1], new_lrows[-1] = self.path[-1], self.lrows[-1]
        self.path, self.lrows = new_path, new_lrows


def _newton_polish(spec: ProblemSpec, u0: np.ndarray, grad_tol: float,
                   max_iter: int) -> tuple[np.ndarray, int]:
    """Drive the crest point to a critical point with damped Newton steps.

    The Jacobian of the gradient is the dense Hessian
    ``eps^(2s)/vol * L + diag(1 - f'(u))`` (reaction terms on interior nodes
    only).  Steps are accepted on sup-norm residual decrease, with plain
    gradient steps as fallback; the iteration is matrix-factorization bound.
    """
    op = spec.op
    ni = spec.mesh.n_interior
    vol = spec.mesh.cell_volume
    e2s = spec.eps ** (2.0 * op.s)
    nl = spec.nonlinearity

    u = u0.copy()
    g = energy_gradient(spec, u)
    res = float(np.max(np.abs(g)))
    used = 0
    for _ in range(max_iter):
        if res <= grad_tol:
            break
        used += 1
        hess = (e2s / vol) * (np.diag(op.row_sums) - op.weights)
        diag = hess.ravel()[:: hess.shape[0] + 1]
        diag[:ni] += 1.0 - fprime_eval(nl, u[:ni])
        try:
            dx = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            dx = -g
        accepted = False
        tau = 1.0
        for _ in range(40):
            cand = u + tau * dx
            g_cand = energy_gradient(spec, cand)
            res_cand = float(np.max(np.abs(g_cand)))
            if res_cand < res * (1.0 - 1e-4 * tau):
                u, g, res = cand, g_cand, res_cand
                accepted = True
                break
            tau *= 0.5
        if not accepted:
            # steepest descent on |grad|^2 as a safeguard
            tau = 1.0
            for _ in range(40):
                cand = u - tau * g
                g_cand = energy_gradient(spec, cand)
                res_cand = float(np.max(np.abs(g_cand)))
                if res_cand < res:
                    u, g, res = cand, g_cand, res_cand
                    accepted = True
                    break
                tau *= 0.5
        if not accepted:
            break
    return u, used


def mountain_pass_solve(spec: ProblemSpec, e: np.ndarray, cfg: MPAConfig,
                        sobolev_constant: float | None = None) -> SolveReport:
    """Deform the segment path from 0 to ``e`` onto a critical point.

    Phase one flows every interior path point downhill with per-point
    backtracking line searches, resampling the path uniformly after each
    sweep and recording the incumbent (best) sampled path maximum, which is
    nonincreasing by construction.  Phase two applies the damped Newton
    endgame to the incumbent crest until its weak residual falls below the
    gradient tolerance.
    """
    op = spec.op
    if e.shape != (op.n_total,):
        raise ValueError(f"endpoint has shape {e.shape}, mesh has {op.n_total} nodes")
    e_energy = energy(spec, e)
    if e_energy >= 0.0:
        raise ValueError(f"endpoint must have negative energy, got {e_energy:.6g}")

    s_const = (estimate_sobolev_constant(op) if sobolev_constant is None
               else float(sobolev_constant))
    rho, delta = _sphere_bound(spec, s_const)
    e_norm = bilinear_form(op, e, e) ** 0.5
    if e_norm <= rho:
        raise ValueError(
            f"endpoint norm {e_norm:.6g} does not clear the sphere radius {rho:.6g}"
        )

    grad_tol = cfg.grad_tol
    if grad_tol is None:
        grad_tol = 1e-8 * float(np.max(np.abs(energy_gradient(spec, e))))

    P0 = cfg.path_points
    path = np.linspace(0.0, 1.0, P0)[:, None] * e[None, :]
    if cfg.jitter > 0.0:
        rng = np.random.default_rng(cfg.seed)
        ts = np.linspace(0.0, 1.0, P0)
        bump = ts * (1.0 - ts)
        path[1:-1] += (cfg.jitter * np.max(np.abs(e))
                       * bump[1:-1, None]
                       * rng.standard_normal((P0 - 2, op.n_total)))
    state = _PathState(spec, path)

    incumbent = np.inf
    crest_pt = state.path[P0 // 2].copy()
    hist = []
    steps = np.full(P0 - 2, cfg.descent_step)
    stall = 0
    flow_budget = max(1, min(cfg.max_outer - 1, 2000))
    flow_iters = 0
    for _ in range(flow_budget):
        flow_iters += 1
        val, pt = state.crest()
        if val < incumbent:
            incumbent, crest_pt = val, pt
            stall = 0
        else:
            stall += 1
        hist.append(incumbent)
        if stall >= FLOW_STALL_WINDOW:
            break
        state.flow_step(steps)
        state.resample(P0)

    u, newton_iters = _newton_polish(spec, crest_pt, grad_tol,
                                     max_iter=min(200, cfg.max_outer - flow_iters))
    iterations = flow_iters + newton_iters

    level = energy(spec, u)
    res = float(np.max(np.abs(energy_gradient(spec, u))))
    converged = bool(res <= grad_tol)
    ni = spec.mesh.n_interior
    ui = u[:ni]
    mean = float(np.mean(ui))
    nonconstancy = float(np.std(ui) / abs(mean)) if mean != 0.0 else np.inf
    constant_capture = bool(nonconstancy < CONSTANT_CAPTURE_TOL and converged)

    hyp = check_hypotheses(spec.nonlinearity)
    const_level = min(spec.constant_energy(mu) for mu in hyp.fixed_points) \
        if hyp.fixed_points else np.inf

    return SolveReport(
        u=u,
        level=level,
        residual=res,
        min_u=float(np.min(ui)),
        energy_vs_constant=float(level / const_level),
        norm_sq=float(bilinear_form(op, u, u)),
        iterations=iterations,
        converged=converged,
        grad_tol=float(grad_tol),
        rho=float(rho),
        delta=float(delta),
        level_above_delta=bool(level >= delta > 0.0),
        constant_capture=constant_capture,
        nonconstancy=nonconstancy,
        max_energy_history=np.asarray(hist),
    )


def nonnegativity_certificate(spec: ProblemSpec, u: np.ndarray) -> tuple[float, float]:
    """(min of u on the domain, energy norm squared of the negative part).

    At a discrete critical point the tested equation forces the energy of
    ``u_minus = max(-u, 0)`` below ``grad_tol`` times its weighted L1 mass,
    so a converged solve certifies nonnegativity quantitatively.
    """
    ni = spec.mesh.n_interior
    u_minus = np.maximum(-u, 0.0)
    neg_energy = bilinear_form(spec.op, u_minus, u_minus)
    return float(np.min(u[:ni])), float(neg_energy)


def euler_identity_residual(spec: ProblemSpec, u: np.ndarray) -> tuple[float, float]:
    """Residual and scale of the critical-point identity
    ``||u||^2 = integral of f(u) u``."""
    ni = spec.mesh.n_interior
    vol = spec.mesh.cell_volume
    norm_sq = bilinear_form(spec.op, u, u)
    rhs = vol * float(f_eval(spec.nonlinearity, u[:ni]) @ u[:ni])
    return abs(norm_sq - rhs), max(abs(norm_sq), abs(rhs))


def apriori_norm_certificate(specs, reports) -> bool:
    """Uniform norm bound across a sweep, with a single fitted constant.

    Checks per solution that ``||u||^2 = integral f(u) u`` holds within
    ``10 * grad_tol * scale``, fits ``K0 = C_fit / (1/2 - 1/theta)`` with
    ``C_fit`` the largest ``level / eps**dim`` over the sweep, and verifies
    ``||u||^2 <= K0 eps**dim`` for every entry.

    Accepts a single (spec, report) pair or parallel sequences.
    """
    if isinstance(specs, ProblemSpec):
        specs, reports = [specs], [reports]
    if len(specs) != len(reports) or not specs:
        raise ValueError("need one report per problem spec")
    theta = specs[0].nonlinearity.theta
    factor = 1.0 / (0.5 - 1.0 / theta)
    c_fit = max(r.level / sp.eps**sp.dim for sp, r in zip(specs, reports))
    k0 = factor * c_fit
    for sp, rep in zip(specs, reports):
        resid, scale = euler_identity_residual(sp, rep.u)
        if resid > 10.0 * rep.grad_tol * max(scale, 1.0):
            return False
        if rep.norm_sq > k0 * sp.eps**sp.dim * (1.0 + 1e-9):
            return False
    return True
