"""The power nonlinearity, the energy functional, and its gradient.

The reaction term is the model problem ``f(t) = max(t, 0)**(p-1)`` with
``2 < p < 2N/(N-2s)``; its primitive, the constant-solution energy and the
superlinearity identity ``p F(t) = t f(t)`` are in closed form.
:func:`check_hypotheses` screens the growth conditions numerically on a log
grid; the solver does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import DomainMesh
from .operators import (FormOperator, critical_exponent, _centered,
                        _check_size, _graph_laplacian_apply)

__all__ = [
    "NonlinearitySpec",
    "ProblemSpec",
    "HypothesisReport",
    "power_nonlinearity",
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
    """The power reaction term ``f(t) = max(t, 0)**(p-1)`` with primitive
    ``F(t) = max(t, 0)**p / p``.  It satisfies ``p F(t) = t f(t)``, its only
    positive fixed point is 1, and f is nondecreasing, so F is convex."""

    p: float


def power_nonlinearity(p: float) -> NonlinearitySpec:
    """Pure power ``f(t) = max(t,0)**(p-1)``, checked for ``p > 2``."""
    if not p > 2.0:
        raise ValueError(f"power exponent must satisfy p > 2, got p={p}")
    return NonlinearitySpec(p=float(p))


def f_eval(spec: NonlinearitySpec, t):
    """Evaluate f, vectorized; zero on the negative axis."""
    t = np.asarray(t, dtype=float)
    out = np.maximum(t, 0.0) ** (spec.p - 1.0)
    return out if out.ndim else float(out)


def fprime_eval(spec: NonlinearitySpec, t):
    """Derivative of f (one-sided at the origin), vectorized."""
    t = np.asarray(t, dtype=float)
    out = np.where(t > 0.0, (spec.p - 1.0) * np.maximum(t, 0.0) ** (spec.p - 2.0), 0.0)
    return out if out.ndim else float(out)


def F_eval(spec: NonlinearitySpec, t):
    """Exact primitive of f with F(0) = 0, vectorized."""
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    # tp**(p-1) is a plain square for the default p = 3, where tp**p
    # would run the general pow
    out = tp * tp ** (spec.p - 1.0) / spec.p
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
    growth_bounded = bool(np.all(fs / ts ** (spec.p - 1.0) <= 10.0))
    # superlinearity: f(t)/t keeps growing over the top decades of the sample
    # (a ratio that levels off, as for asymptotically linear f, fails here)
    slopes = fs / ts
    top = slopes[ts >= ts[-1] * 1e-2]
    superlinear_ok = bool(np.all(np.diff(top) > 0.0)) and top[-1] >= 1.1 * top[0]

    theta_ok = bool(np.all(spec.p * F_eval(spec, ts)
                           <= ts * fs * (1.0 + 1e-12) + 1e-300))

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

    @property
    def level_floor(self) -> float:
        """``(1/2 - 1/p) vol``: a floor on the mountain-pass level and on
        every nontrivial critical level of the discrete problem.

        ``||u||^2 >= vol u_i^2`` at every interior node, so
        ``|u|_inf^2 <= ||u||^2 / vol`` and
        ``integral F(u) <= (1/p) |u|_inf^(p-2) ||u||^2``.  Hence:

        * on the sphere ``||u||^2 = vol`` the energy is at least
          ``(1/2 - 1/p) vol``;
        * at a critical point ``u != 0`` the Nehari identity
          ``||u||^2 = p integral F(u)`` gives ``||u||^2 >= vol``, and the
          level ``(1/2 - 1/p) ||u||^2`` is at least the floor;
        * ``I(u) < 0`` forces ``||u||^2 > vol (p/2)^(2/(p-2)) > vol``, so
          every path from 0 to a negative-energy endpoint crosses that
          sphere.
        """
        return (0.5 - 1.0 / self.nonlinearity.p) * self.mesh.cell_volume


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
    u = _check_size(spec.op, u)
    return _point_terms(spec, u, _graph_laplacian_apply(spec.op, u))[0]


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


def _point_terms(spec: ProblemSpec, u: np.ndarray,
                 lu: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(:func:`energy`, ``bilinear_form(u, u)``, gradient) of one grid
    function from the kernel apply ``lu`` of ``u``; with ``lu`` from a single
    apply of ``u``, each has the bits of its own call."""
    ni = spec.mesh.n_interior
    e2s, semi = spec.eps ** (2.0 * spec.s), float(_centered(u) @ lu)
    return (0.5 * e2s * semi + float(_reaction(spec, u[:ni])),
            e2s * semi + spec.mesh.cell_volume * float(u[:ni] @ u[:ni]),
            _gradient(spec, u, lu))


def weak_residual(spec: ProblemSpec, u: np.ndarray) -> float:
    """Weak-solution certificate: max over canonical test directions of
    ``|I'(u) . e_i| / vol_i``, i.e. the sup norm of the gradient."""
    return float(np.max(np.abs(energy_gradient(spec, u))))
