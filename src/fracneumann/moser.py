"""Truncation machinery and the geometric norm ladder behind the sup bound.

The truncated powers ``g(t) = t min(t, M)**(alpha-1)`` and their companions
``G(t) = integral_0^t sqrt(g'(tau)) dtau`` satisfy two elementary
inequalities that drive the iteration: a pointwise lower bound on G and a
Cauchy-Schwarz bound relating differences of G to differences of g.  Chaining
the resulting norm inequalities along the exponent ladder
``beta_1 = 1, beta_{n+1} = (q*/2) beta_n`` (q* the critical exponent) turns
an L2 bound into a certified sup bound ``K**gamma1 * e**gamma2 * |u|_2``.
The chain checks take the scaled embedding constant ``S`` from their caller:
the runners alone decide which ``S`` the certificates use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemSpec, f_eval, _check_size
from .operators import bilinear_form, _lq_norm

__all__ = [
    "g_trunc",
    "G_trunc",
    "check_G_inequality",
    "MoserLadder",
    "norm_ladder",
    "verify_caccioppoli_step",
]

MAX_POWER_EXPONENT = 700.0  # |u|max**q must stay inside float range
LADDER_LEVELS = 12  # exponent levels norm_ladder climbs before the overflow cap


def _validate_trunc(alpha, M) -> None:
    if np.any(np.asarray(alpha) <= 1.0):
        raise ValueError(f"need alpha > 1, got alpha={alpha}")
    if np.any(np.asarray(M) <= 0.0):
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


def _increments(alpha, M, hi, lo):
    """``G(hi) - G(lo)`` and ``g(hi) - g(lo)`` for ``hi >= lo >= 0``.

    With ``tm = min(t, M)``, ``G(t) = c tm**p + M**((alpha-1)/2) (t-M)+`` and
    ``g(t) = tm**alpha + M**(alpha-1) (t-M)+``, so each increment is a power
    gap below ``M`` plus a linear one above it, both nonnegative.  The power
    gap is taken from ``log1p`` of the relative gap: subtracting the two
    values would lose every digit the increment shares with them, which on
    nearly equal inputs is more than the bound's own slack.
    """
    hm, lm = np.minimum(hi, M), np.minimum(lo, M)
    above = np.maximum(hi, M) - np.maximum(lo, M)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log1p((lm - hm) / hm)

    def power_gap(q):  # hm**q - lm**q
        return np.where(hm > 0.0, -(hm ** q) * np.expm1(q * log_ratio), 0.0)

    c = 2.0 * np.sqrt(alpha) / (alpha + 1.0)
    return (c * power_gap((alpha + 1.0) / 2.0) + M ** ((alpha - 1.0) / 2.0) * above,
            power_gap(alpha) + M ** (alpha - 1.0) * above)


def check_G_inequality(alphas, Ms, a, b) -> tuple[bool, tuple | None]:
    """Difference bound ``|G(a) - G(b)|^2 <= (g(a) - g(b)) (a - b)``.

    Vectorized over the four inputs, broadcast against each other (shapes
    that do not broadcast raise ``ValueError``); returns (ok, the first
    counterexample ``(alpha, M, a, b)`` or None).  Both sides come from the
    increments of :func:`_increments`, exact to a few ulps however close
    ``a`` and ``b`` are: the bound is an equality wherever ``g`` is linear.
    """
    alphas, Ms, a, b = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (alphas, Ms, a, b)))
    _validate_trunc(alphas, Ms)
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    dG, dg = _increments(alphas, Ms, hi, lo)
    bad = np.ravel(dG ** 2 > dg * (hi - lo) * (1.0 + 1e-12) + 1e-15)
    if np.any(bad):
        j = int(np.argmax(bad))
        return False, tuple(float(x.flat[j]) for x in (alphas, Ms, a, b))
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


def norm_ladder(spec: ProblemSpec, u: np.ndarray) -> MoserLadder:
    """Climb ``LADDER_LEVELS`` levels of the exponent ladder and fit the
    smallest valid chaining constant.

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

    # q* beta_n = 2 beta_{n+1}: each level's upper exponent is the next
    # level's lower one, so the norms are taken once, one level past the last
    beta = (spec.two_star / 2.0) ** np.arange(LADDER_LEVELS + 1)
    q = 2.0 * beta
    n_used = LADDER_LEVELS
    if actual_max > 1.0:
        q_cap = MAX_POWER_EXPONENT / np.log(actual_max)
        n_used = int(np.sum(q[1:] <= q_cap))
        if n_used < LADDER_LEVELS:
            warnings.warn(
                f"norm ladder capped at {n_used} of {LADDER_LEVELS} levels: "
                f"|u|max**q would overflow beyond q={q_cap:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
    norms = np.array([_lq_norm(ui, vol, x) for x in q[:n_used + 1]])
    beta, q_lo, q_up = beta[:n_used], q[:n_used], q[1:n_used + 1]
    norms_lo, norms_up = norms[:-1], norms[1:]

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


def verify_caccioppoli_step(spec: ProblemSpec, u: np.ndarray, steps, *,
                            grad_tol: float, sobolev_constant: float) -> list:
    """The equation tested against ``g = g_trunc(u+)`` and the chained norm
    inequality it implies, at each ``(alpha, M)`` of ``steps``; returns one
    report entry per step.

    The tested-equation residual ``|bilinear_form(u, g) - integral f(u) g|``
    is the energy derivative in the direction ``g``, so it is small at
    critical points: ``residual_ok`` holds when it is at most
    ``residual_tol = 10 grad_tol vol sum |g|``.  The form is symmetric, so
    the steps' ``g`` go in as one stack against one apply of ``u``.  The
    chain inequality

        chain_lhs = S**-2 eps**(2s) (2/(alpha+1))**2 |u uM**((alpha-1)/2)|_{q*}^2
            <= chain_rhs = integral f(u) u uM**(alpha-1) = integral f(u) g

    is checked directly, with slack ``10 grad_tol max(|chain_rhs|, 1)``; a
    failed chain reads ``chain_ok: false`` and also records ``chain_lhs`` and
    ``chain_rhs``.  ``S = sobolev_constant`` is the extremal constant of the
    scaled embedding
    (:func:`~fracneumann.operators.estimate_embedding_constant`), which is
    the constant this inequality actually requires; the zero-mean regional
    quotient is smaller on smooth bumps and would flag spurious violations.
    """
    u = _check_size(spec.op, u)
    ni, vol = spec.mesh.n_interior, spec.mesh.cell_volume
    fu, up = f_eval(spec.nonlinearity, u[:ni]), np.maximum(u, 0.0)
    gs = np.array([g_trunc(alpha, M, up) for alpha, M in steps]).reshape(len(steps), len(u))
    entries = []
    for (alpha, M), gu, form in zip(steps, gs, bilinear_form(spec.op, gs, u)):
        rhs_chain = vol * float(fu @ gu[:ni])
        residual = abs(float(form) - rhs_chain)
        residual_tol = 10.0 * grad_tol * vol * float(np.sum(np.abs(gu)))
        w = up[:ni] * np.minimum(up[:ni], M) ** ((alpha - 1.0) / 2.0)
        lhs_chain = (sobolev_constant ** (-2.0) * spec.eps ** (2.0 * spec.s)
                     * (2.0 / (alpha + 1.0)) ** 2
                     * _lq_norm(w, vol, spec.two_star) ** 2)
        chain_ok = lhs_chain <= rhs_chain + 10.0 * grad_tol * max(abs(rhs_chain), 1.0)
        entries.append({"alpha": float(alpha), "M": float(M), "residual": residual,
                        "residual_tol": residual_tol, "chain_ok": bool(chain_ok),
                        "residual_ok": bool(residual <= residual_tol)})
        if not chain_ok:
            entries[-1].update(chain_lhs=lhs_chain, chain_rhs=rhs_chain)
    return entries
