"""Nonlinearity models, the energy functional, and its gradient.

The default nonlinearity is the pure power ``f(t) = max(t, 0)**(p-1)`` with
``2 < p < 2N/(N-2s)``.  Arbitrary tabulated nonlinearities are supported via
linear interpolation; both flavours are screened by :func:`check_hypotheses`,
which probes the superlinear/subcritical growth conditions numerically and
computes the constant-solution energy gap that rules constants out as
mountain-pass candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import DomainMesh
from .operators import (FormOperator, critical_exponent, _centered,
                        _check_size, _graph_laplacian_apply)

__all__ = [
    "NonlinearitySpec",
    "ProblemSpec",
    "HypothesisReport",
    "power_nonlinearity",
    "table_nonlinearity",
    "f_eval",
    "F_eval",
    "fprime_eval",
    "check_hypotheses",
    "energy",
    "energy_gradient",
    "weak_residual",
]


@dataclass(frozen=True)
class NonlinearitySpec:
    """A reaction term f with primitive F and its hypothesis data.

    ``theta`` and ``a3`` witness the superlinearity condition
    ``theta F(t) <= t f(t)`` for ``t >= a3``; ``alpha_f5`` is the positive
    infimum of ``t^2/2 - F(t)`` over the positive fixed points of f; the pair
    ``(eta, c_eta)`` witnesses the growth bound
    ``|f(t)| <= eta t + c_eta t**(p-1)``.
    """

    model: str
    p: float
    theta: float
    a3: float = 0.0
    alpha_f5: float | None = None
    eta: float = 0.25
    c_eta: float = 1.0
    table_t: np.ndarray | None = field(default=None, repr=False)
    table_f: np.ndarray | None = field(default=None, repr=False)


def power_nonlinearity(p: float) -> NonlinearitySpec:
    """Pure power ``f(t) = max(t,0)**(p-1)``: theta = p, a3 = 0, Fix(f) = {1}."""
    if p <= 2.0:
        raise ValueError(f"power exponent must satisfy p > 2, got p={p}")
    return NonlinearitySpec(model="power", p=float(p), theta=float(p), a3=0.0,
                            alpha_f5=0.5 - 1.0 / p)


def table_nonlinearity(t: np.ndarray, f: np.ndarray, p: float,
                       theta: float, a3: float = 0.0) -> NonlinearitySpec:
    """Linearly interpolated nonlinearity from samples on t >= 0.

    Beyond the last knot the function is continued with the power growth
    ``f(t_end) * (t / t_end)**(p-1)`` so that superlinearity survives the
    truncation of the table.  Values must not decrease (F is then convex),
    and the table must pass :func:`check_hypotheses` before a solve.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    if t.ndim != 1 or t.shape != f.shape or t.size < 2:
        raise ValueError("table needs matching 1D arrays with at least 2 knots")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("table abscissae must start at 0 and increase strictly")
    if f[0] != 0.0:
        raise ValueError("table must have f(0) = 0")
    if np.any(np.diff(f) < 0.0):
        i = 1 + int(np.argmax(np.diff(f) < 0.0))
        raise ValueError(f"table values must not decrease: knot {i} (t={t[i]:g}) drops")
    return NonlinearitySpec(model="table", p=float(p), theta=float(theta),
                            a3=float(a3), table_t=t.copy(), table_f=f.copy())


def f_eval(spec: NonlinearitySpec, t):
    """Evaluate f, vectorized; zero on the negative axis."""
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    if spec.model == "power":
        out = tp ** (spec.p - 1.0)
    else:
        knots, vals = spec.table_t, spec.table_f
        out = np.interp(tp, knots, vals)
        beyond = tp > knots[-1]
        if np.any(beyond):
            tail = vals[-1] * np.where(beyond, tp / knots[-1], 1.0) ** (spec.p - 1.0)
            out = np.where(beyond, tail, out)
    return out if out.ndim else float(out)


def fprime_eval(spec: NonlinearitySpec, t):
    """Derivative of f (one-sided at the origin), vectorized."""
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    if spec.model == "power":
        out = np.where(t > 0.0, (spec.p - 1.0) * tp ** (spec.p - 2.0), 0.0)
    else:
        knots, vals = spec.table_t, spec.table_f
        slopes = np.diff(vals) / np.diff(knots)
        idx = np.clip(np.searchsorted(knots, tp, side="right") - 1, 0, slopes.size - 1)
        out = np.where(t > 0.0, slopes[idx], 0.0)
        beyond = tp > knots[-1]
        if np.any(beyond):
            tail = (vals[-1] * (spec.p - 1.0) / knots[-1]
                    * np.where(beyond, tp / knots[-1], 1.0) ** (spec.p - 2.0))
            out = np.where(beyond, tail, out)
    return out if out.ndim else float(out)


def F_eval(spec: NonlinearitySpec, t):
    """Exact primitive of f with F(0) = 0, vectorized."""
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    if spec.model == "power":
        # tp**(p-1) is a plain square for the default p = 3, where tp**p
        # would run the general pow
        out = tp * tp ** (spec.p - 1.0) / spec.p
    else:
        knots, vals = spec.table_t, spec.table_f
        seg = np.concatenate([[0.0], np.cumsum(np.diff(knots) * (vals[:-1] + vals[1:]) / 2.0)])
        idx = np.clip(np.searchsorted(knots, tp, side="right") - 1, 0, knots.size - 2)
        t0, t1 = knots[idx], knots[idx + 1]
        f0, f1 = vals[idx], vals[idx + 1]
        frac = np.clip((tp - t0) / (t1 - t0), 0.0, None)
        fm = f0 + (f1 - f0) * np.clip(frac, 0.0, 1.0)
        out = seg[idx] + (tp - t0) * (f0 + fm) / 2.0
        beyond = tp > knots[-1]
        if np.any(beyond):
            ratio = np.where(beyond, tp / knots[-1], 1.0)
            tail = seg[-1] + vals[-1] * knots[-1] / spec.p * (ratio**spec.p - 1.0)
            out = np.where(beyond, tail, out)
    return out if out.ndim else float(out)


def _bisect(g, lo: float, hi: float, tol: float) -> float:
    """Root of g in [lo, hi], where g changes sign, halving until
    ``hi - lo <= tol * max(1, |hi|)``.  Signs are compared, not products, so
    values too small to multiply cannot hide the crossing."""
    lo_positive = g(lo) > 0.0
    while hi - lo > tol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if (g(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class HypothesisReport:
    """Outcome of the numeric screening of the growth hypotheses."""

    positivity_ok: bool
    ratio_zero: float          # observed f(t)/t at the smallest sample
    ratio_growth: float        # observed f(t)/t**(p-1) at the largest sample
    growth_bounded: bool
    superlinear_ok: bool       # f(t)/t grows beyond any bound on the samples
    theta_ok: bool
    fixed_points: list[float]
    alpha: float

    @property
    def ok(self) -> bool:
        return (self.positivity_ok and self.growth_bounded
                and self.superlinear_ok and self.theta_ok and self.alpha > 0.0)


def check_hypotheses(spec: NonlinearitySpec, t_max: float = 1e8) -> HypothesisReport:
    """Screen the nonlinearity on a log grid and locate its fixed points.

    Raises ValueError when the constant-solution gap is non-positive
    (every positive fixed point t would then carry energy density
    ``t^2/2 - F(t) <= 0`` and constants could not be excluded).
    """
    ts = np.logspace(-8, np.log10(t_max), 2000)
    fs = f_eval(spec, ts)

    positivity_ok = bool(np.all(fs > 0.0)) and f_eval(spec, -1.0) == 0.0 \
        and f_eval(spec, -1e6) == 0.0
    ratio_zero = float(fs[0] / ts[0])
    ratio_growth = float(fs[-1] / ts[-1] ** (spec.p - 1.0))
    growth_bounded = bool(np.all(fs / ts ** (spec.p - 1.0) <= 10.0 * max(spec.c_eta, 1.0)))
    # superlinearity: f(t)/t keeps growing over the top decades of the sample
    # (a ratio that levels off, as for asymptotically linear f, fails here)
    slopes = fs / ts
    top = slopes[ts >= ts[-1] * 1e-2]
    superlinear_ok = bool(np.all(np.diff(top) > 0.0)) and top[-1] >= 1.1 * top[0]

    mask = ts >= max(spec.a3, ts[0])
    theta_ok = bool(np.all(spec.theta * F_eval(spec, ts[mask])
                           <= ts[mask] * fs[mask] * (1.0 + 1e-12) + 1e-300))

    # Fixed points of f on (0, t_max]: the grid zeros of f(t) - t, and a
    # bisection in every grid cell across which its sign changes.
    sign = np.sign(fs - ts)
    fixed = [float(t) for t in ts[sign == 0.0]]
    fixed += [_bisect(lambda t: f_eval(spec, t) - t,
                      float(ts[i]), float(ts[i + 1]), 1e-14)
              for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0)]
    fixed = sorted(set(round(t, 12) for t in fixed))

    if not fixed:
        alpha = np.inf
    else:
        alpha = min(t * t / 2.0 - F_eval(spec, t) for t in fixed)
    if alpha <= 0.0:
        raise ValueError(
            "nonlinearity rejected: the constant-solution gap "
            f"min(t^2/2 - F(t)) over fixed points {fixed} is {alpha:.3g} <= 0"
        )
    return HypothesisReport(
        positivity_ok=positivity_ok,
        ratio_zero=ratio_zero,
        ratio_growth=ratio_growth,
        growth_bounded=growth_bounded,
        superlinear_ok=superlinear_ok,
        theta_ok=theta_ok,
        fixed_points=[float(t) for t in fixed],
        alpha=float(alpha),
    )


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Mesh, assembled operator, and nonlinearity for one problem instance."""

    mesh: DomainMesh
    op: FormOperator
    nonlinearity: NonlinearitySpec

    def __post_init__(self):
        if self.op.mesh is not self.mesh:
            raise ValueError("operator was assembled on a different mesh")
        if not (2.0 < self.nonlinearity.p < self.two_star):
            raise ValueError(
                f"need 2 < p < 2*_s = {self.two_star:.6g}, got p={self.nonlinearity.p}"
            )

    @property
    def s(self) -> float:
        return self.op.s

    @property
    def eps(self) -> float:
        return self.op.eps

    @property
    def dim(self) -> int:
        return self.mesh.dim

    @property
    def two_star(self) -> float:
        return critical_exponent(self.dim, self.s)

    def constant_energy(self, mu: float) -> float:
        """Energy of the constant function mu: ``(mu^2/2 - F(mu)) |domain|``."""
        return (mu * mu / 2.0 - F_eval(self.nonlinearity, mu)) * self.mesh.domain_measure()


def _reaction(spec: ProblemSpec, ui: np.ndarray):
    """``vol * sum(u^2/2 - F(u))`` over the last axis of interior values: the
    non-quadratic part of the energy, for one function or a stack of them."""
    return spec.mesh.cell_volume * np.sum(
        0.5 * ui * ui - F_eval(spec.nonlinearity, ui), axis=-1)


def energy(spec: ProblemSpec, u: np.ndarray) -> float:
    """Value of the energy functional at u.

    ``0.5 * eps**(2s) * seminorm(u, u) + 0.5 |u|_2^2 - integral of F(u)``,
    with the quadratic part realised through the shared weight set so the
    decomposition ``energy = 0.5 ||u||^2 - integral F(u)`` is exact.
    """
    return _point_terms(spec, _check_size(spec.op, u))[0]


def energy_gradient(spec: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """Riesz representer of the energy derivative in the volume-weighted
    inner product.

    Interior nodes carry ``eps**(2s) (-Δ)^s u + u - f(u)``, collar nodes carry
    ``eps**(2s)`` times the normal derivative, so the gradient vanishes
    exactly at discrete critical points (constant solutions included).
    """
    u = _check_size(spec.op, u)
    return _gradient(spec, u, _graph_laplacian_apply(spec.op, u))


def _gradient(spec: ProblemSpec, u: np.ndarray, lu: np.ndarray) -> np.ndarray:
    """:func:`energy_gradient` from the kernel apply ``lu`` of ``u``."""
    ni = spec.mesh.n_interior
    grad = (spec.eps ** (2.0 * spec.s) / spec.mesh.cell_volume) * lu
    grad[:ni] += u[:ni] - f_eval(spec.nonlinearity, u[:ni])
    return grad


def _point_terms(spec: ProblemSpec, u: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(:func:`energy`, ``bilinear_form(u, u)``, gradient) of one grid
    function from one kernel apply; each has the bits of its own call."""
    ni = spec.mesh.n_interior
    lu = _graph_laplacian_apply(spec.op, u)
    e2s, semi = spec.eps ** (2.0 * spec.s), float(_centered(u) @ lu)
    return (0.5 * e2s * semi + float(_reaction(spec, u[:ni])),
            e2s * semi + spec.mesh.cell_volume * float(u[:ni] @ u[:ni]),
            _gradient(spec, u, lu))


def weak_residual(spec: ProblemSpec, u: np.ndarray) -> float:
    """Weak-solution certificate: max over canonical test directions of
    ``|I'(u) . e_i| / vol_i``, i.e. the sup norm of the gradient."""
    return float(np.max(np.abs(energy_gradient(spec, u))))
