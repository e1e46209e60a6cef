"""Path-deformation min-max solver for the energy functional.

The solver mirrors the variational construction: a discrete path from 0 to an
endpoint with negative energy is deformed by backtracking descent steps
applied to its points, while the path maximum is monitored at the nodes and
along segment interiors (the quadratic energy part is an exact parabola on a
segment and F is convex, so only segments that can carry it are sampled).
The best path maximum seen so far, the incumbent min-max level, is
nonincreasing by construction and upper bounds the critical level.  Once the
deformation stalls, damped Newton steps on the collar-eliminated problem drive
the incumbent crest point to a critical point, the quadratic-rate endgame that
plain descent lacks near a saddle.

Certificates attached to a solve:
  * level positivity against the closed-form floor
    :attr:`~fracneumann.problem.ProblemSpec.level_floor`
    ``delta = (1/2 - 1/p) vol``, which every path from 0 to a
    negative-energy endpoint reaches and every nontrivial critical level
    clears;
  * nonnegativity: the sweep reports ``min u >= -1e-8 max |u|`` over the
    domain nodes;
  * non-constancy via the ratio of the level to the energy
    ``(1/2 - 1/p) |domain|`` of the constant solution 1, the only positive
    fixed point of f.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .operators import (bilinear_form, exterior_extension, _centered,
                        _graph_laplacian_apply, _reduced_matrix)
from .problem import (
    ProblemSpec,
    energy,
    f_eval,
    fprime_eval,
    _point_terms,
    _reaction,
)
from .tent import TentThresholds

__all__ = [
    "MPAConfig",
    "SolveReport",
    "endpoint",
    "mountain_pass_solve",
    "euler_identity_residual",
    "apriori_norm_certificate",
]

SEGMENT_SAMPLES = 7
FLOW_STALL_WINDOW = 30
FLOW_MAX_SWEEPS = 2000
NEWTON_MAX_STEPS = 200
PATH_POINTS = 21
DESCENT_STEP = 0.5


@dataclass(frozen=True)
class MPAConfig:
    """Absolute sup-norm residual tolerance of the path-deformation solver."""

    grad_tol: float = 1e-8

    def __post_init__(self):
        if not (isinstance(self.grad_tol, numbers.Real) and self.grad_tol > 0.0):
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol!r}")


@dataclass
class SolveReport:
    """Outcome of one min-max solve, with its certificates."""

    u: np.ndarray = field(repr=False)
    level: float
    residual: float
    min_u: float
    energy_vs_constant: float
    norm_sq: float
    iterations: int              # flow_sweeps + newton_steps
    flow_sweeps: int             # path maxima taken, one per sweep
    newton_steps: int
    flow_kernel_rows: int        # path rows the flow steps applied the kernel to
    crest_segments: int          # path segments whose samples were evaluated
    converged: bool
    grad_tol: float
    delta: float
    level_above_delta: bool
    max_energy_history: np.ndarray = field(repr=False)


def endpoint(spec: ProblemSpec, phi: np.ndarray, tent: TentThresholds) -> np.ndarray:
    """Path endpoint ``e = t2 * phi`` with certified negative energy, ``t2``
    from the :func:`~fracneumann.tent.thresholds` ``tent`` of ``phi``; the
    certificate costs one kernel apply to ``e``."""
    e = tent.t2 * phi
    e_energy = energy(spec, e)
    if not e_energy < 0.0:
        raise RuntimeError(
            f"endpoint energy {e_energy:.6g} is not negative at t2={tent.t2:.6g}; "
            "threshold certificates are unreliable on this mesh"
        )
    return e


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
        self.chords = np.linalg.norm(np.diff(path, axis=0), axis=1)
        self.sub_t = (np.arange(SEGMENT_SAMPLES) + 1.0) / (SEGMENT_SAMPLES + 1.0)
        self.kernel_rows = 0  # rows the flow steps handed to the kernel
        self.crest_segments = 0  # segments whose samples crest evaluated

    def node_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(``p . Lp``, energy) of every path node, from the maintained rows."""
        s_pp = np.einsum("ij,ij->i", self.path, self.lrows)
        node_e = 0.5 * self.e2s * s_pp + _reaction(self.spec, self.path[:, :self.ni])
        return s_pp, node_e

    def crest(self, s_pp: np.ndarray, node_e: np.ndarray,
              incumbent: float = np.inf) -> tuple[float, np.ndarray]:
        """(value, point) of the sampled path maximum over nodes and segment
        interiors, endpoints excluded, given the :meth:`node_terms` of the
        path, when below ``incumbent``; else a value at or above it.  Only
        segments whose :meth:`sample_terms` bound beats the node maximum are
        sampled; the bound holds because ``f`` is nondecreasing."""
        k = 1 + int(np.argmax(node_e[1:-1]))
        best_val, best_pt = float(node_e[k]), self.path[k]
        if best_val >= incumbent:
            return best_val, best_pt.copy()
        quad, bound = self.sample_terms(s_pp, node_e)
        seg = np.flatnonzero(np.any(bound > best_val, axis=0))
        self.crest_segments += seg.size
        if seg.size:
            p, t = self.path, self.sub_t[:, None, None]
            a_i, b_i = p[seg, :self.ni], p[seg + 1, :self.ni]
            vals = quad[:, seg] + _reaction(self.spec, (1.0 - t) * a_i + t * b_i)
            ti, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
            if vals[ti, j] > best_val:
                tt, best_val = self.sub_t[ti], float(vals[ti, j])
                best_pt = (1.0 - tt) * p[seg[j]] + tt * p[seg[j] + 1]
        return best_val, best_pt.copy()

    def sample_terms(self, s_pp: np.ndarray,
                     node_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(quadratic part, bound) of every segment sample's energy, shaped
        (sample, segment): ``F`` (convex, as ``f`` is nondecreasing) lies
        above its tangents at the segment ends; 1e-9 slack covers roundoff."""
        p, vol, pi = self.path, self.vol, self.path[:, :self.ni]
        s_ab = np.einsum("ij,ij->i", p[:-1], self.lrows[1:])
        t = self.sub_t[:, None]
        quad = 0.5 * self.e2s * ((1.0 - t) ** 2 * s_pp[None, :-1]
                                 + 2.0 * t * (1.0 - t) * s_ab[None, :]
                                 + t**2 * s_pp[None, 1:])
        pg = vol * (pi @ pi.T)
        fg = vol * (f_eval(self.spec.nonlinearity, pi) @ pi.T)  # f(p_j) . p_k
        m, f_jj, f_ab, f_ba = np.diag(pg), np.diag(fg), np.diag(fg, 1), np.diag(fg, -1)
        big_f = 0.5 * (self.e2s * s_pp + m) - node_e  # vol * sum F(p_j)
        bound = (quad + 0.5 * ((1.0 - t) ** 2 * m[:-1] + 2.0 * t * (1.0 - t)
                               * np.diag(pg, 1) + t**2 * m[1:])
                 - np.maximum(big_f[:-1] + t * (f_ab - f_jj[:-1]),
                              big_f[1:] + (1.0 - t) * (f_ba - f_jj[1:])))
        scale = 0.5 * self.e2s * s_pp + m + np.abs(big_f) + f_jj
        return quad, bound + 1e-9 * (scale[:-1] + scale[1:] + np.abs(f_ab) + np.abs(f_ba))

    def flow_step(self, steps: np.ndarray, s_pp: np.ndarray,
                  node_e: np.ndarray) -> np.ndarray:
        """One backtracking descent step on the interior path points; returns
        the mask of the points that moved.

        Points whose energy has already fallen below the level of the path
        start (zero) can no longer carry the path maximum and are frozen,
        which keeps the flow focused on the crest and prevents the unbounded
        downhill side of the functional from running away.  They and
        critical points (zero gradient) are picked from the path's
        :meth:`node_terms` ``s_pp``, ``node_e`` before any kernel work, so
        only points that can move reach the kernel.  Displacements are capped
        at one average segment length per sweep.  ``steps`` carries the
        per-point initial step sizes and is updated in place; frozen points
        keep theirs.
        """
        accepted = np.zeros(steps.shape, dtype=bool)
        rows = 1 + np.flatnonzero(node_e[1:-1] > 0.0)
        ui = self.path[rows, :self.ni]
        g = (self.e2s / self.vol) * self.lrows[rows]
        g[:, :self.ni] += ui - f_eval(self.spec.nonlinearity, ui)
        gg_vol = self.vol * np.einsum("ij,ij->i", g, g)
        keep = gg_vol > 0.0
        rows, g, gg_vol = rows[keep], g[keep], gg_vol[keep]
        if rows.size == 0:
            return accepted
        self.kernel_rows += rows.size
        p = self.path[rows]
        lg = _graph_laplacian_apply(self.spec.op, g)
        s_pg = np.einsum("ij,ij->i", p, lg)
        s_gg = np.einsum("ij,ij->i", g, lg)
        s0, e0 = s_pp[rows], node_e[rows]

        seg_len = self.chords.mean()
        t_cap = seg_len / np.maximum(np.linalg.norm(g, axis=1), 1e-300)
        t = np.minimum(steps[rows - 1] * 2.0, np.maximum(t_cap, 1e-14))
        active = np.ones(rows.size, dtype=bool)
        for _ in range(60):
            if not np.any(active):
                break
            cand = p[active, :self.ni] - t[active, None] * g[active, :self.ni]
            cand_e = (0.5 * self.e2s * (s0[active] - 2.0 * t[active] * s_pg[active]
                                        + t[active] ** 2 * s_gg[active])
                      + _reaction(self.spec, cand))
            ok = cand_e <= e0[active] - 1e-4 * t[active] * gg_vol[active]
            idx = np.flatnonzero(active)
            active[idx[ok]] = False
            t[idx[~ok]] *= 0.5
        acc = ~active  # 60 halvings without acceptance leave a row active
        self.path[rows[acc]] -= t[acc, None] * g[acc]
        self.lrows[rows[acc]] -= t[acc, None] * lg[acc]
        near = np.union1d(rows[acc] - 1, rows[acc])  # chords at moved rows
        self.chords[near] = np.linalg.norm(self.path[near + 1] - self.path[near], axis=1)
        steps[rows - 1] = np.where(acc, t, np.maximum(steps[rows - 1] * 0.5, 1e-14))
        accepted[rows - 1] = acc
        return accepted

    def resample(self, n_points: int) -> None:
        """Uniform arc-length resampling of path and operator rows."""
        seg = self.chords
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
        self.chords = np.linalg.norm(np.diff(new_path, axis=0), axis=1)


def _interior_map(spec: ProblemSpec, m: np.ndarray, ui: np.ndarray) -> np.ndarray:
    """``F(u_i) = (eps^(2s)/vol) (D - M) u_i + u_i - f(u_i)``, ``D`` the full
    row sums and ``M = m`` from :func:`_reduced_matrix`: the energy gradient
    at the zero-flux extension of ``u_i``, whose collar rows vanish.  Taken
    on centered values, as every apply, so constants come out exactly."""
    op, ni = spec.op, spec.mesh.n_interior
    uc = _centered(ui)
    return (spec.eps ** (2.0 * op.s) / spec.mesh.cell_volume
            * (op.row_sums[:ni] * uc - m @ uc)
            + ui - f_eval(spec.nonlinearity, ui))


def _newton_polish(spec: ProblemSpec, u0: np.ndarray,
                   grad_tol: float) -> tuple[np.ndarray, int]:
    """Drive the interior values of ``u0`` to a zero of :func:`_interior_map`
    with damped Newton steps; returns the zero-flux
    :func:`~fracneumann.operators.exterior_extension` of the last iterate,
    the call's one kernel apply.  The Jacobian ``eps^(2s)/vol (D - M) +
    diag(1 - f'(u))`` is formed once per call, with only its diagonal
    rewritten per step.  One line search, 40 halvings from a full step,
    tries two directions in turn: the Newton step, accepted on a sufficient
    decrease of the sup-norm residual, then ``-F`` as a safeguard, accepted
    on any decrease.  Stopping above ``grad_tol``, after
    ``NEWTON_MAX_STEPS`` steps or when neither direction decreases the
    residual, warns with a ``RuntimeWarning``.
    """
    op, ni = spec.op, spec.mesh.n_interior
    scale = spec.eps ** (2.0 * op.s) / spec.mesh.cell_volume
    # the diagonal takes the full row sums, as F does
    m = _reduced_matrix(op)
    hess = np.multiply(m, -scale)
    diag = hess.ravel()[:: ni + 1]  # a view: writes reach hess
    kernel_diag = scale * (op.row_sums[:ni] - np.diag(m))
    u = u0[:ni]
    g = _interior_map(spec, m, u)
    res = float(np.max(np.abs(g)))
    used = 0
    for _ in range(NEWTON_MAX_STEPS):
        if res <= grad_tol:
            break
        used += 1
        diag[:] = kernel_diag + (1.0 - fprime_eval(spec.nonlinearity, u))
        try:
            dx = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            dx = -g
        accepted = False
        for direction, factor in ((dx, 1e-4), (-g, 0.0)):
            tau = 1.0
            for _ in range(40):
                cand = u + tau * direction
                g_cand = _interior_map(spec, m, cand)
                res_cand = float(np.max(np.abs(g_cand)))
                if res_cand < res * (1.0 - factor * tau):
                    u, g, res = cand, g_cand, res_cand
                    accepted = True
                    break
                tau *= 0.5
            if accepted:
                break
        if not accepted:
            break
    if res > grad_tol:
        warnings.warn(f"Newton endgame ended after {used} of {NEWTON_MAX_STEPS} "
                      f"steps at residual {res:.3g} above grad_tol {grad_tol:.3g}",
                      RuntimeWarning, stacklevel=3)
    return exterior_extension(op, u), used


def mountain_pass_solve(spec: ProblemSpec, e: np.ndarray, cfg: MPAConfig, *,
                        sobolev_constant: float | None = None) -> SolveReport:
    """Deform the segment path from 0 to ``e`` onto a critical point.

    Phase one flows the interior points of a ``PATH_POINTS``-point path
    downhill with per-point backtracking line searches from ``DESCENT_STEP``,
    resampling the path uniformly after each sweep and recording the
    incumbent (best) sampled path maximum, which is nonincreasing by
    construction; it stops after ``FLOW_STALL_WINDOW`` sweeps without a new
    incumbent or at ``FLOW_MAX_SWEEPS``.  Phase two, :func:`_newton_polish`,
    drives the crest's interior values to a critical point and returns their
    zero-flux extension.  Every path from 0 to ``e`` crosses the sphere on
    which the energy is at least ``delta = spec.level_floor``, so a flow
    whose last incumbent lies below ``delta`` has crossed the mountain at
    every sample; it warns and is reported not converged.  The solve has
    converged when the sup-norm residual of the solution is at most
    ``cfg.grad_tol``, an absolute tolerance, whatever the scale of ``e``.

    ``sobolev_constant`` is read by nothing: it is accepted only for callers
    that still pass it.  The endpoint's energy, whose sign is checked, comes
    from the path's kernel apply, whose last row is that of ``e``.
    """
    op = spec.op
    if e.shape != (op.n_total,):
        raise ValueError(f"endpoint has shape {e.shape}, mesh has {op.n_total} nodes")
    state = _PathState(spec, np.linspace(0.0, 1.0, PATH_POINTS)[:, None] * e[None, :])
    e_energy = _point_terms(spec, e, state.lrows[-1])[0]
    if not e_energy < 0.0:
        raise ValueError(f"endpoint must have negative energy, got {e_energy:.6g}")
    delta, grad_tol = spec.level_floor, cfg.grad_tol

    incumbent = np.inf
    crest_pt = state.path[PATH_POINTS // 2].copy()
    hist = []
    steps = np.full(PATH_POINTS - 2, DESCENT_STEP)
    stall = 0
    for flow_sweeps in range(1, FLOW_MAX_SWEEPS + 1):
        s_pp, node_e = state.node_terms()
        val, pt = state.crest(s_pp, node_e, incumbent)
        if val < incumbent:
            incumbent, crest_pt = val, pt
            stall = 0
        else:
            stall += 1
        hist.append(incumbent)
        if stall >= FLOW_STALL_WINDOW:
            break
        state.flow_step(steps, s_pp, node_e)
        state.resample(PATH_POINTS)
    else:
        warnings.warn(f"path flow hit the iteration cap of {FLOW_MAX_SWEEPS}; "
                      "polishing the incumbent crest", RuntimeWarning,
                      stacklevel=2)
    crossed = bool(incumbent < delta)
    if crossed:
        warnings.warn(f"path flowed through the mountain: last incumbent "
                      f"{incumbent:.6g} below the level floor delta "
                      f"{delta:.6g}", RuntimeWarning, stacklevel=2)

    u, newton_steps = _newton_polish(spec, crest_pt, grad_tol)

    level, norm_sq, grad = _point_terms(spec, u, _graph_laplacian_apply(op, u))
    res = float(np.max(np.abs(grad)))
    converged = bool(res <= grad_tol) and not crossed
    ui = u[:spec.mesh.n_interior]

    return SolveReport(
        u=u,
        level=level,
        residual=res,
        min_u=float(np.min(ui)),
        energy_vs_constant=float(level / spec.constant_energy(1.0)),
        norm_sq=norm_sq,
        iterations=flow_sweeps + newton_steps,
        flow_sweeps=flow_sweeps,
        newton_steps=newton_steps,
        flow_kernel_rows=state.kernel_rows,
        crest_segments=state.crest_segments,
        converged=converged,
        grad_tol=float(grad_tol),
        delta=float(delta),
        level_above_delta=bool(level >= delta > 0.0),
        max_energy_history=np.asarray(hist),
    )


def euler_identity_residual(spec: ProblemSpec, u: np.ndarray) -> tuple[float, float]:
    """Residual and scale of the critical-point identity
    ``||u||^2 = integral of f(u) u``."""
    return _euler_terms(spec, u, bilinear_form(spec.op, u, u))


def _euler_terms(spec: ProblemSpec, u: np.ndarray, norm_sq: float):
    """:func:`euler_identity_residual` given ``norm_sq = ||u||^2``."""
    ni = spec.mesh.n_interior
    rhs = spec.mesh.cell_volume * float(f_eval(spec.nonlinearity, u[:ni]) @ u[:ni])
    return abs(norm_sq - rhs), max(abs(norm_sq), abs(rhs))


def apriori_norm_certificate(specs, reports, tents) -> bool:
    """Uniform norm bound across a sweep, with its constant from the tents.

    Checks per solution that ``||u||^2 = integral f(u) u`` holds within
    ``10 * grad_tol * scale``, and that
    ``||u||^2 <= K0 eps**dim + (factor/p) resid``, with ``resid`` the
    residual of that identity, ``factor = 1 / (1/2 - 1/p)`` and
    ``K0 = factor * max(g_max / eps**dim)`` over the sweep's
    :class:`~fracneumann.tent.TentThresholds` ``tents``.  ``p F = t f``
    gives ``||u||^2 <= factor level + (factor/p) resid``, so the bound holds
    for every solution whose level is at most the mountain-pass bound
    ``max_t I(t phi_eps) = g_max``; a tent without a finite ``g_max`` fails.

    Takes parallel sequences of specs, their reports and their tents.
    """
    if not len(specs) == len(reports) == len(tents) or not specs:
        raise ValueError("need one report and one tent per problem spec")
    p = specs[0].nonlinearity.p
    factor = 1.0 / (0.5 - 1.0 / p)
    ratios = [t.g_max / sp.eps**sp.dim for sp, t in zip(specs, tents)]
    if not np.all(np.isfinite(ratios)):
        return False
    k0 = factor * max(ratios)
    for sp, rep in zip(specs, reports):
        resid, scale = _euler_terms(sp, rep.u, rep.norm_sq)
        if resid > 10.0 * rep.grad_tol * max(scale, 1.0):
            return False
        if rep.norm_sq > (k0 * sp.eps**sp.dim * (1.0 + 1e-9)
                          + factor / p * resid):
            return False
    return True
