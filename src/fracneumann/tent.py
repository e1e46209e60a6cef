"""The tent test function and the closed-form constants of the energy bound.

The tent bump ``phi(x) = eps**(-dim) (1 - |x|/eps)`` for ``|x| <= eps`` (zero
outside) drives every quantitative certificate of the small-energy regime:
its Lq masses have the closed form ``K_q eps**((1-q) dim)``, a unique level
``sigma`` splits its squared mass in half, and the ray energy
``g(t) = energy(t phi)`` is provably negative beyond an explicit threshold,
with its maximum at the ray's only critical point in closed form.  All
constants here are exact or bisection-accurate so the solver-side
certificates have something rigid to lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import DomainMesh
from .operators import bilinear_form, seminorm_form
from .problem import ProblemSpec, F_eval, f_eval, _bisect, _reaction

__all__ = [
    "unit_ball_volume",
    "phi_eps",
    "K_q",
    "solve_sigma",
    "g_of_t",
    "g_prime",
    "TentThresholds",
    "thresholds",
]

SIGMA_TOL = 1e-12  # bisection tolerance of solve_sigma


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in ``dim`` dimensions, ``2 pi^(dim/2) / (dim
    Gamma(dim/2))``; Gamma at dim/2 rather than dim/2 + 1 makes it exactly 2
    for dim = 1."""
    return float(2.0 * np.pi ** (dim / 2.0) / (dim * math.gamma(dim / 2.0)))


def phi_eps(mesh: DomainMesh, eps: float) -> np.ndarray:
    """Nodal values of the tent bump of width eps centered at the origin.

    Requires the ball of radius eps around the origin to fit inside the
    domain; the bump vanishes identically on the collar.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    origin = np.zeros((1, mesh.dim))
    if not bool(mesh.contains(origin)[0]):
        raise ValueError("domain must contain the origin for the tent bump")
    clearance = min(-mesh.lo.max(), mesh.hi.min())
    if eps > clearance:
        raise ValueError(
            f"eps={eps} too large: the ball B_eps(0) leaves the domain "
            f"(clearance {clearance:.6g})"
        )
    r = np.linalg.norm(mesh.nodes, axis=1)
    return eps ** (-mesh.dim) * np.maximum(1.0 - r / eps, 0.0)


def K_q(dim: int, q: float) -> float:
    """Closed form of the tent Lq mass constant.

    ``K_q = dim * omega_dim * integral_0^1 (1-rho)**q rho**(dim-1) drho``,
    evaluated through the Beta function, which for integer dim is the finite
    product ``B(dim, q+1) = (dim-1)! / prod_{k=1..dim} (q+k)``: exact to
    rounding for every q, where Gamma(q+1) overflows beyond q = 170.
    """
    if q <= 0.0:
        raise ValueError(f"need q > 0, got q={q}")
    beta = math.factorial(dim - 1) / math.prod(q + k for k in range(1, dim + 1))
    return float(dim * unit_ball_volume(dim) * beta)


def _sigma_gap(sigma: float, dim: int) -> float:
    t = 1.0 - sigma
    poly = 1.0 / dim - 2.0 * t / (dim + 1.0) + t * t / (dim + 2.0)
    full = 1.0 / dim - 2.0 / (dim + 1.0) + 1.0 / (dim + 2.0)
    return t**dim * poly - 0.5 * full


def solve_sigma(dim: int) -> float:
    """The unique level sigma in (0, 1) at which the superlevel set
    ``{phi > sigma eps**(-dim)}`` carries half the squared mass of the tent.

    Solved by bisection to ``SIGMA_TOL`` on the dimensionless half-mass
    equation; the displayed equation carries the factor 1/2 on the full-mass
    side (without it the root degenerates to sigma = 0).  In 1D the equation reduces to
    ``(t-1)^3 = -1/2`` and the root is ``sigma = 2**(-1/3)``.
    """
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    if not (_sigma_gap(1e-15, dim) > 0.0 > _sigma_gap(1.0 - 1e-15, dim)):
        raise RuntimeError(
            "half-mass equation has no sign change on (0, 1); "
            "the tent-mass implementation is broken"
        )
    return _bisect(lambda sigma: _sigma_gap(sigma, dim), 0.0, 1.0, SIGMA_TOL)


def g_of_t(spec: ProblemSpec, phi: np.ndarray, t, *,
           semi: float | None = None):
    """Energy along the tent ray, ``g(t) = energy(t * phi)``, in the closed
    form ``(t^2/2) eps^(2s) [phi]^2 + integral (t^2 phi^2/2 - F(t phi))``,
    for a scalar t (float result) or an array of t (one kernel apply, none
    when ``semi = eps^(2s) [phi]^2`` is given)."""
    if semi is None:
        semi = spec.eps ** (2.0 * spec.s) * seminorm_form(spec.op, phi, phi)
    t = np.asarray(t, dtype=float)
    tphi = t[..., None] * phi[:spec.mesh.n_interior]
    g = 0.5 * t * t * semi + _reaction(spec, tphi)
    return g if g.ndim else float(g)


def g_prime(spec: ProblemSpec, phi: np.ndarray, t, *,
            norm_sq: float | None = None):
    """Exact derivative of the ray energy:
    ``t ||phi||^2 - integral f(t phi) phi``, for a scalar or an array t
    (one kernel apply, none when ``norm_sq = ||phi||^2`` is given)."""
    if norm_sq is None:
        norm_sq = bilinear_form(spec.op, phi, phi)
    t = np.asarray(t, dtype=float)
    phi_i = phi[:spec.mesh.n_interior]
    fi = f_eval(spec.nonlinearity, t[..., None] * phi_i)
    g = t * norm_sq - spec.mesh.cell_volume * (fi @ phi_i)
    return g if g.ndim else float(g)


@dataclass(frozen=True)
class TentThresholds:
    """Ray-energy thresholds and the small-energy bound, with certificates."""

    t1: float              # ray energy decreases beyond t1
    t2: float              # ray energy is negative from t2 on
    bound: float           # max_t g(t) <= bound = c1 * eps**dim
    c_est: float           # measured eps**dim * ||phi||^2
    g_max: float           # ray maximum g(t_star); inf when integral F(phi) = 0
    scan_ok: bool          # all three certificates passed
    failures: list         # (name, t checked) of each failed certificate


def thresholds(spec: ProblemSpec, phi: np.ndarray) -> TentThresholds:
    """Compute the ray-energy thresholds (t1, t2) and the energy bound.

    The power model's superlinearity threshold is explicit:
    ``f(xi) >= R xi`` exactly when ``xi >= R**(1/(p-2))``.  The slope
    thresholds are taken at twice their minimal values (R1 = 4 C / K2,
    R2 = 2 C / K2, with C the measured tent energy ``eps**dim ||phi||^2``)
    so the certificates are robust to quadrature error.  After the one
    kernel apply, three scalar ray evaluations certify the ray:
    ``g_max = g(t_star)`` at ``t_star = (||phi||^2 / (p integral F(phi)))
    **(1/(p-2))`` against ``bound``, ``g'(1.01 t1) < 0`` and ``g(t2) < 0``,
    each sign then holding for every larger t.  Failures are collected, not
    raised; a tent with ``integral F(phi) = 0`` has ``g_max = inf``.
    """
    eps, dim, p = spec.eps, spec.dim, spec.nonlinearity.p
    # the one kernel apply; ||phi||^2 as bilinear_form forms it
    semi = eps ** (2.0 * spec.s) * seminorm_form(spec.op, phi, phi)
    phi_i = phi[:spec.mesh.n_interior]
    norm_sq = semi + spec.mesh.cell_volume * float(phi_i @ phi_i)
    c_est = eps**dim * norm_sq
    k2 = K_q(dim, 2.0)
    sigma = solve_sigma(dim)
    omega = spec.mesh.domain_measure()

    r1 = 4.0 * c_est / k2
    m_r1 = r1 ** (1.0 / (p - 2.0))
    t1 = m_r1 * eps**dim / sigma

    r2 = 2.0 * c_est / k2
    m_r2 = r2 ** (1.0 / (p - 2.0))
    m_small = m_r2 * m_r2 * r2 / 2.0
    t2_energy = np.sqrt(2.0 * m_small * omega * eps**dim / (r2 * k2 - c_est))
    t2 = max(1.01 * t1, 1.01 * t2_energy)

    c1 = c_est * m_r1 * m_r1 / (2.0 * sigma * sigma)
    bound = c1 * eps**dim

    # for the pure power g(t) = t^2 ||phi||^2/2 - t^p big_f, with big_f the
    # integral of F(phi), so g'(t)/t and g(t)/t^2 strictly decrease in t:
    # each sign below holds on the whole half-line from its t on, and t_star
    # is the ray's only critical point
    big_f = spec.mesh.cell_volume * float(np.sum(F_eval(spec.nonlinearity, phi_i)))
    t_star = (norm_sq / (p * big_f)) ** (1.0 / (p - 2.0)) if big_f > 0.0 else np.inf
    g_max = g_of_t(spec, phi, t_star, semi=semi) if big_f > 0.0 else np.inf
    # written to fail on a nan, as an overflowing ray gives for p near 2
    checks = (("g_prime_nonnegative", 1.01 * t1,
               not g_prime(spec, phi, 1.01 * t1, norm_sq=norm_sq) < 0.0),
              ("g_nonnegative", t2, not g_of_t(spec, phi, t2, semi=semi) < 0.0),
              ("g_max_exceeds_bound", t_star, not g_max <= bound))
    failures = [(name, float(t)) for name, t, failed in checks if failed]

    return TentThresholds(
        t1=float(t1), t2=float(t2), bound=float(bound), c_est=float(c_est),
        g_max=float(g_max), scan_ok=not failures, failures=failures,
    )
