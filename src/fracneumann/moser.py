"""Truncation machinery and the geometric norm ladder behind the sup bound.

The truncated powers ``g(t) = t min(t, M)**(alpha-1)`` and their companions
``G(t) = integral_0^t sqrt(g'(tau)) dtau`` satisfy two elementary
inequalities that drive the iteration: a pointwise lower bound on G and a
Cauchy-Schwarz bound relating differences of G to differences of g.  Chaining
the resulting norm inequalities along the exponent ladder
``beta_1 = 1, beta_{n+1} = (q*/2) beta_n`` (q* the critical exponent) turns
an L2 bound into a certified sup bound ``K**gamma1 * e**gamma2 * |u|_2``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemSpec, f_eval, _check_size
from .operators import seminorm_form, _lq_norm

__all__ = [
    "g_trunc",
    "G_trunc",
    "check_G_inequality",
    "MoserLadder",
    "norm_ladder",
    "verify_caccioppoli_step",
    "CaccioppoliChainError",
]

MAX_POWER_EXPONENT = 700.0  # |u|max**q must stay inside float range


def _validate_trunc(alpha: float, M: float) -> None:
    if alpha <= 1.0:
        raise ValueError(f"need alpha > 1, got alpha={alpha}")
    if M <= 0.0:
        raise ValueError(f"need M > 0, got M={M}")


def g_trunc(alpha: float, M: float, t):
    """Truncated power ``t * min(t, M)**(alpha-1)`` for t >= 0."""
    _validate_trunc(alpha, M)
    t = np.asarray(t, dtype=float)
    out = t * np.minimum(t, M) ** (alpha - 1.0)
    return out if out.ndim else float(out)


def G_trunc(alpha: float, M: float, t):
    """Closed form of ``integral_0^t sqrt(g'(tau)) dtau``.

    Below the truncation level: ``(2 sqrt(alpha) / (alpha+1)) t**((alpha+1)/2)``;
    above it the integrand is the constant ``M**((alpha-1)/2)``.
    """
    _validate_trunc(alpha, M)
    t = np.asarray(t, dtype=float)
    tm = np.minimum(t, M)
    below = (2.0 * np.sqrt(alpha) / (alpha + 1.0)) * tm ** ((alpha + 1.0) / 2.0)
    out = below + M ** ((alpha - 1.0) / 2.0) * np.maximum(t - M, 0.0)
    return out if out.ndim else float(out)


def check_G_inequality(alphas, Ms, a, b) -> tuple[bool, tuple | None]:
    """Difference bound ``|G(a) - G(b)|^2 <= (g(a) - g(b)) (a - b)``.

    Vectorized over sample arrays; returns (ok, first counterexample or None).
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    Ms = np.atleast_1d(np.asarray(Ms, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    lhs = np.empty_like(a)
    rhs = np.empty_like(a)
    for i in range(a.size):
        ga = g_trunc(alphas[i], Ms[i], a[i])
        gb = g_trunc(alphas[i], Ms[i], b[i])
        lhs[i] = (G_trunc(alphas[i], Ms[i], a[i]) - G_trunc(alphas[i], Ms[i], b[i])) ** 2
        rhs[i] = (ga - gb) * (a[i] - b[i])
    bad = lhs > rhs * (1.0 + 1e-12) + 1e-15
    if np.any(bad):
        j = int(np.argmax(bad))
        return False, (float(alphas[j]), float(Ms[j]), float(a[j]), float(b[j]))
    return True, None


@dataclass
class MoserLadder:
    """Norm ladder along the geometric exponent sequence, with fitted bound."""

    beta: np.ndarray
    q_lower: np.ndarray          # 2 beta_n
    q_upper: np.ndarray          # q* beta_n
    norms_lower: np.ndarray
    norms_upper: np.ndarray
    bound_rhs: np.ndarray = field(repr=False)
    K: float
    gamma1: float
    gamma2: float
    sup_estimate: float
    actual_max: float
    n_used: int


def norm_ladder(spec: ProblemSpec, u: np.ndarray, n_max: int = 12) -> MoserLadder:
    """Climb the exponent ladder and fit the smallest valid chaining constant.

    For each level the inequality
    ``|u|_{q* beta_n} <= K**(1/beta_n) e**(1/sqrt(beta_n)) |u|_{2 beta_n}``
    must hold; the returned K >= 1 is the smallest one that works for every
    level, so ``sup_estimate = K**gamma1 * e**gamma2 * |u|_2`` (partial-sum
    exponents) dominates each ladder norm and in particular the nodal max.
    Levels whose exponent would overflow ``|u|max**q`` are dropped with a
    warning.
    """
    u = _check_size(spec.op, u)
    ni = spec.mesh.n_interior
    vol = spec.mesh.cell_volume
    ui = np.abs(u[:ni])
    actual_max = float(np.max(ui)) if ni else 0.0

    qstar = spec.two_star
    ratio = qstar / 2.0
    beta = ratio ** np.arange(n_max)
    q_up = qstar * beta
    if actual_max > 1.0:
        q_cap = MAX_POWER_EXPONENT / np.log(actual_max)
        keep = q_up <= q_cap
        if not np.all(keep):
            n_used = int(np.sum(keep))
            warnings.warn(
                f"norm ladder capped at {n_used} of {n_max} levels: "
                f"|u|max**q would overflow beyond q={q_cap:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
            beta, q_up = beta[keep], q_up[keep]
    n_used = beta.size
    q_lo = 2.0 * beta

    norms_lo = np.array([_lq_norm(ui, vol, q) for q in q_lo])
    norms_up = np.array([_lq_norm(ui, vol, q) for q in q_up])

    k_fit = 1.0
    if actual_max > 0.0:
        needed = (norms_up / (np.exp(1.0 / np.sqrt(beta)) * norms_lo)) ** beta
        k_fit = max(1.0, float(np.max(needed)))
    gamma1 = float(np.sum(1.0 / beta))
    gamma2 = float(np.sum(1.0 / np.sqrt(beta)))
    bound_rhs = k_fit ** (1.0 / beta) * np.exp(1.0 / np.sqrt(beta)) * norms_lo
    sup_estimate = k_fit**gamma1 * np.exp(gamma2) * norms_lo[0]

    return MoserLadder(
        beta=beta, q_lower=q_lo, q_upper=q_up,
        norms_lower=norms_lo, norms_upper=norms_up,
        bound_rhs=bound_rhs, K=float(k_fit),
        gamma1=gamma1, gamma2=gamma2,
        sup_estimate=float(sup_estimate), actual_max=actual_max,
        n_used=n_used,
    )


class CaccioppoliChainError(RuntimeError):
    """Raised when the tested-equation chain inequality fails at some (alpha, M)."""


def verify_caccioppoli_step(spec: ProblemSpec, u: np.ndarray, alpha: float,
                            M: float, grad_tol: float = 1e-8,
                            sobolev_constant: float | None = None) -> float:
    """Residual of the tested equation at test function ``g_trunc(u)``,
    plus the chained norm inequality it implies.

    The tested-equation residual is
    ``|<u, g(u)>_form - integral f(u) g(u)|`` and must be small for critical
    points (it equals the energy derivative in the direction ``g(u)``).
    The chain inequality

        S**-2 eps**(2s) (2/(alpha+1))**2 * |u uM**((alpha-1)/2)|_{q*}^2
            <= integral f(u) u uM**(alpha-1)

    is then checked directly; violation raises CaccioppoliChainError.  When
    no constant is passed, S is the measured extremal constant of the scaled
    embedding (:func:`~fracneumann.operators.estimate_embedding_constant`),
    which is the constant this inequality actually requires; the zero-mean
    regional quotient is smaller on smooth bumps and would flag spurious
    violations.
    """
    _validate_trunc(alpha, M)
    u = _check_size(spec.op, u)
    op = spec.op
    ni = spec.mesh.n_interior
    vol = spec.mesh.cell_volume

    gu = g_trunc(alpha, M, np.maximum(u, 0.0))
    form = (spec.eps ** (2.0 * spec.s) * seminorm_form(op, u, gu)
            + vol * float(u[:ni] @ gu[:ni]))
    fu = f_eval(spec.nonlinearity, u[:ni])
    rhs = vol * float(fu @ gu[:ni])
    residual = abs(form - rhs)

    if sobolev_constant is None:
        from .operators import estimate_embedding_constant
        sobolev_constant = estimate_embedding_constant(op)

    ui = np.maximum(u[:ni], 0.0)
    um = np.minimum(ui, M)
    w = ui * um ** ((alpha - 1.0) / 2.0)
    lhs_chain = (sobolev_constant ** (-2.0) * spec.eps ** (2.0 * spec.s)
                 * (2.0 / (alpha + 1.0)) ** 2
                 * _lq_norm(w, vol, spec.two_star) ** 2)
    rhs_chain = vol * float(fu @ (ui * um ** (alpha - 1.0)))
    slack = 10.0 * grad_tol * max(abs(rhs_chain), 1.0)
    if lhs_chain > rhs_chain + slack:
        raise CaccioppoliChainError(
            f"chain inequality fails at alpha={alpha}, M={M}: "
            f"lhs={lhs_chain:.6g} > rhs={rhs_chain:.6g}"
        )
    return residual
