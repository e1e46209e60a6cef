"""Dense assembly of the singular-kernel weights and the operators built on them.

A single symmetric weight set

    w_ij = c_ns * vol_i * vol_j / |x_i - x_j|**(dim + 2 s),   i != j,

with no weights between two exterior nodes, simultaneously realizes the
fractional Laplacian at interior nodes, the nonlocal normal derivative at
collar nodes, and the energy bilinear form.  Because all three share the
weights, the discrete analogues of the nonlocal Gauss and Green identities
hold by pair-antisymmetry, up to floating-point roundoff only.

Conventions baked in here:
  * ``c_ns = 4**s * s * Gamma(dim/2 + s) / (pi**(dim/2) * Gamma(1 - s))``,
    the standard principal-value normalisation.  Every internal identity is
    homogeneous in the constant, so swapping conventions rescales both sides.
  * Zero self-weight: on a symmetric cell the first-order Taylor remainder
    integrates to zero against the even kernel, so the near-singular diagonal
    contribution is dropped (local error O(h**(2-2s))).
  * Kernel tail beyond the collar is dropped; the collar radius is the
    convergence knob for that truncation.

Operator applications subtract a reference constant (the mean) before the
matrix-vector product so that constant functions are annihilated exactly in
floating point, not merely to roundoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .mesh import DomainMesh

__all__ = [
    "FormOperator",
    "normalization_constant",
    "assemble",
    "frac_laplacian",
    "neumann_derivative",
    "exterior_extension",
    "bilinear_form",
    "seminorm_form",
    "check_integration_by_parts",
    "check_divergence",
    "estimate_sobolev_constant",
    "estimate_embedding_constant",
    "verify_scaling_identity",
]

DENSE_NODE_BUDGET = 3000


def normalization_constant(dim: int, s: float) -> float:
    """Principal-value normalisation of the fractional Laplacian of order s."""
    return float(
        4.0**s * s * _gamma(dim / 2.0 + s) / (np.pi ** (dim / 2.0) * _gamma(1.0 - s))
    )


@dataclass(frozen=True, eq=False)
class FormOperator:
    """Assembled kernel weights on a mesh, for one order ``s`` and scale ``eps``.

    Attributes:
        mesh: the underlying cell-centered mesh.
        s: fractional order in (0, 1).
        eps: scale parameter of the energy form (weights do not depend on it).
        c_ns: kernel normalisation constant.
        weights: dense symmetric (n, n) pair-weight matrix, zero diagonal and
            zero exterior-exterior block.
        row_sums: ``weights @ 1``, cached for Laplacian-style applications.
    """

    mesh: DomainMesh
    s: float
    eps: float
    c_ns: float
    weights: np.ndarray
    row_sums: np.ndarray

    @property
    def n_interior(self) -> int:
        return self.mesh.n_interior

    @property
    def n_total(self) -> int:
        return self.mesh.n_total

    def with_eps(self, eps: float) -> "FormOperator":
        """Same weights, different energy scale (weights are eps-independent)."""
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        return FormOperator(self.mesh, self.s, float(eps), self.c_ns,
                            self.weights, self.row_sums)


def assemble(mesh: DomainMesh, s: float, eps: float) -> FormOperator:
    """Build the dense weight matrix for ``mesh`` at order ``s``.

    Requires ``0 < s < 1`` and ``dim > 2 s`` (so the critical exponent
    ``2 dim / (dim - 2 s)`` is finite).  Deterministic for fixed inputs.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must satisfy 0 < s < 1, got s={s}")
    if mesh.dim <= 2.0 * s:
        raise ValueError(
            f"need dim > 2 s for a finite critical exponent; got dim={mesh.dim}, s={s}"
        )
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    n = mesh.n_total
    if n > DENSE_NODE_BUDGET:
        warnings.warn(
            f"mesh has {n} nodes; dense assembly beyond {DENSE_NODE_BUDGET} "
            "is outside the intended desk scale",
            RuntimeWarning,
            stacklevel=2,
        )
    x = mesh.nodes
    diff = x[:, None, :] - x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, 1.0)  # placeholder, diagonal zeroed below
    c = normalization_constant(mesh.dim, s)
    vol = mesh.cell_volume
    w = (c * vol * vol) * r2 ** (-(mesh.dim + 2.0 * s) / 2.0)
    np.fill_diagonal(w, 0.0)
    ni = mesh.n_interior
    w[ni:, ni:] = 0.0  # no exterior-exterior interaction
    return FormOperator(
        mesh=mesh, s=float(s), eps=float(eps), c_ns=c,
        weights=w, row_sums=w @ np.ones(n),
    )


def _check_size(op: FormOperator, u: np.ndarray, name: str = "u") -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n_total,):
        raise ValueError(
            f"size mismatch: {name} has shape {u.shape}, "
            f"mesh has {op.n_total} nodes"
        )
    return u


def _centered(u: np.ndarray) -> np.ndarray:
    # Subtracting the mean leaves the pair differences unchanged but makes
    # every weighted application of a constant function an exact zero.  The
    # mean of a constant row can miss its value by an ulp, so constant rows
    # are zeroed outright.
    uc = u - u.mean(axis=-1, keepdims=True)
    uc[np.all(u == u[..., :1], axis=-1)] = 0.0
    return uc


def _laplacian(weights: np.ndarray, row_sums: np.ndarray,
               u: np.ndarray) -> np.ndarray:
    """(L u)_i = sum_j w_ij (u_i - u_j) for one grid function or each row of
    a stack, on centered values.  ``weights`` is symmetric; a stack takes
    ``uc @ weights``, a much faster BLAS call than ``(weights @ uc.T).T``."""
    uc = _centered(u)
    return row_sums * uc - (weights @ uc if uc.ndim == 1 else uc @ weights)


def _graph_laplacian_apply(op: FormOperator, u: np.ndarray) -> np.ndarray:
    """Full-mesh kernel application, the one shared by every operator."""
    return _laplacian(op.weights, op.row_sums, u)


def frac_laplacian(op: FormOperator, u: np.ndarray) -> np.ndarray:
    """Discrete fractional Laplacian at the interior nodes.

    Midpoint quadrature of the principal-value integral over the meshed
    region: ``c_ns * sum_j vol_j (u_i - u_j) / |x_i - x_j|**(dim+2s)``.
    """
    u = _check_size(op, u)
    vol = op.mesh.cell_volume
    ni = op.n_interior
    return _graph_laplacian_apply(op, u)[:ni] / vol


def neumann_derivative(op: FormOperator, u: np.ndarray) -> np.ndarray:
    """Nonlocal normal derivative at the collar nodes.

    ``c_ns * sum_{j interior} vol_j (u_k - u_j) / |x_k - x_j|**(dim+2s)``;
    exterior rows of the weight matrix only couple to interior nodes.
    """
    u = _check_size(op, u)
    vol = op.mesh.cell_volume
    ni = op.n_interior
    return _graph_laplacian_apply(op, u)[ni:] / vol


def exterior_extension(op: FormOperator, u_int: np.ndarray) -> np.ndarray:
    """Extend interior values to the collar so the normal derivative vanishes.

    The unique zero-flux values are the kernel-weighted averages
    ``u_k = sum_j w_kj u_j / sum_j w_kj``.  The result is clamped to
    ``[min u_int, max u_int]`` (the exact convex-combination range) to keep
    the discrete maximum principle intact under roundoff.
    """
    u_int = np.asarray(u_int, dtype=float)
    ni = op.n_interior
    if u_int.shape != (ni,):
        raise ValueError(
            f"size mismatch: expected {ni} interior values, got {u_int.shape}"
        )
    c0 = u_int.mean()
    w_ext = op.weights[ni:, :ni]
    d_ext = op.row_sums[ni:]
    u_ext = c0 + (w_ext @ (u_int - c0)) / d_ext
    np.clip(u_ext, u_int.min(), u_int.max(), out=u_ext)
    return np.concatenate([u_int, u_ext])


def seminorm_form(op: FormOperator, u: np.ndarray, v: np.ndarray) -> float:
    """Kernel part of the form, without the eps factor:

    ``(1/2) sum_{admissible (i,j)} w_ij (u_i - u_j)(v_i - v_j)``.
    """
    u = _check_size(op, u)
    v = _check_size(op, v, "v")
    return float(_centered(u) @ _graph_laplacian_apply(op, v))


def bilinear_form(op: FormOperator, u: np.ndarray, v: np.ndarray) -> float:
    """Energy inner product: ``eps**(2s) * seminorm + integral of u v``."""
    u = _check_size(op, u)
    v = _check_size(op, v, "v")
    ni = op.n_interior
    vol = op.mesh.cell_volume
    l2 = vol * float(u[:ni] @ v[:ni])
    return op.eps ** (2.0 * op.s) * seminorm_form(op, u, v) + l2


def check_integration_by_parts(op: FormOperator, u: np.ndarray,
                               v: np.ndarray) -> float:
    """Residual of the discrete Green identity.

    Both sides are evaluated from the module's own operators:
    the seminorm form on one side, the fractional Laplacian tested against v
    on the domain plus the normal derivative tested against v on the collar
    on the other.  Sharing one weight set makes the residual pure roundoff.
    """
    u = _check_size(op, u)
    v = _check_size(op, v, "v")
    ni = op.n_interior
    vol = op.mesh.cell_volume
    lhs = seminorm_form(op, u, v)
    flap = frac_laplacian(op, u)
    nder = neumann_derivative(op, u)
    rhs = vol * float(v[:ni] @ flap) + vol * float(v[ni:] @ nder)
    return abs(lhs - rhs)


def ibp_scale(op: FormOperator, u: np.ndarray, v: np.ndarray) -> float:
    """Magnitude scale of the Green identity terms, for relative residuals."""
    ni = op.n_interior
    vol = op.mesh.cell_volume
    flap = frac_laplacian(op, u)
    nder = neumann_derivative(op, u)
    return (
        vol * float(np.abs(v[:ni]) @ np.abs(flap))
        + vol * float(np.abs(v[ni:]) @ np.abs(nder))
    )


def check_divergence(op: FormOperator, u: np.ndarray) -> float:
    """Residual of the discrete Gauss identity

    ``integral over domain of the fractional Laplacian
      + integral over collar of the normal derivative = 0``.
    """
    u = _check_size(op, u)
    vol = op.mesh.cell_volume
    a = vol * float(np.sum(frac_laplacian(op, u)))
    b = vol * float(np.sum(neumann_derivative(op, u)))
    return abs(a + b)


def divergence_scale(op: FormOperator, u: np.ndarray) -> float:
    vol = op.mesh.cell_volume
    return (
        vol * float(np.sum(np.abs(frac_laplacian(op, u))))
        + vol * float(np.sum(np.abs(neumann_derivative(op, u))))
    )


def _regional_matrix(op: FormOperator) -> tuple[np.ndarray, np.ndarray]:
    """Interior-interior weight block and its row sums (regional seminorm)."""
    ni = op.n_interior
    w = op.weights[:ni, :ni]
    return w, w @ np.ones(ni)


def _regional_seminorm(w: np.ndarray, d: np.ndarray, u: np.ndarray) -> float:
    """``(1/2) sum_ij w_ij (u_i - u_j)^2`` over a :func:`_regional_matrix`."""
    return float(_centered(u) @ _laplacian(w, d, u))


def _lq_norm(values: np.ndarray, vol: float, q: float) -> float:
    """Robust (sum vol |u|**q)**(1/q); rescaled to avoid overflow."""
    m = float(np.max(np.abs(values)))
    if m == 0.0:
        return 0.0
    return m * float(np.sum(vol * (np.abs(values) / m) ** q)) ** (1.0 / q)


def _ascend(objective, gradient, norm, u: np.ndarray, max_iter: int,
            rtol: float, what: str) -> float:
    """Maximize ``objective(u) -> (value, aux)`` along ``gradient(u, aux)``
    from the normalized ``u``; ``norm(v)`` projects v in place and returns
    the norm it is divided by.  Steps double (capped at 1e6) and are halved
    up to 60 times until the value strictly improves.  Stops at a gradient
    norm below ``rtol * |value|`` or when no step improves; warns at
    ``max_iter``."""
    val, aux = objective(u)
    step = 1.0
    for _ in range(max_iter):
        grad = gradient(u, aux)
        if float(np.linalg.norm(grad)) <= rtol * max(abs(val), 1e-300):
            return val
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            cand = u + step * grad
            nrm = norm(cand)
            if nrm > 0.0:
                cand /= nrm
                cval, caux = objective(cand)
                if cval > val + 1e-16 * abs(val):
                    u, val, aux = cand, cval, caux
                    break
            step *= 0.5
        else:
            return val  # no ascent left at float resolution
    warnings.warn(f"{what} hit the iteration cap of {max_iter}; returning "
                  "the last iterate's estimate", RuntimeWarning, stacklevel=3)
    return val


def estimate_sobolev_constant(op: FormOperator, max_iter: int = 4000,
                              rtol: float = 1e-11) -> float:
    """Infimum of the regional Rayleigh quotient over zero-mean functions.

    Minimizes ``sqrt(regional seminorm) / Lq norm`` with ``q`` the critical
    exponent, by projected gradient descent with backtracking, over interior
    grid functions of zero mean.  The constant direction is removed because
    the regional seminorm vanishes on constants while the Lq norm does not,
    which would drive the literal infimum to zero.

    Non-convergence is reported with a warning, not an error; the last
    iterate's quotient is returned.
    """
    dim, s = op.mesh.dim, op.s
    q = 2.0 * dim / (dim - 2.0 * s)
    w, d = _regional_matrix(op)
    vol = op.mesh.cell_volume

    def norm(v: np.ndarray) -> float:
        v -= v.mean()
        return _lq_norm(v, vol, q)

    def neg_rayleigh(v: np.ndarray):
        num = _regional_seminorm(w, d, v)
        den = _lq_norm(v, vol, q) ** 2
        return -num / den, (num, den)

    def ascent(v: np.ndarray, aux) -> np.ndarray:
        num, den = aux
        grad_num = 2.0 * _laplacian(w, d, v)
        grad_den = 2.0 * (den**0.5) ** (2.0 - q) * vol * np.abs(v) ** (q - 2.0) * v
        grad = (grad_num * den - num * grad_den) / den**2
        return -(grad - grad.mean())  # projected descent direction

    # Deterministic low-frequency start: first coordinate, centered.
    u = op.mesh.interior_nodes[:, 0].copy()
    u /= norm(u)
    val = _ascend(neg_rayleigh, ascent, norm, u, max_iter, rtol,
                  "Sobolev quotient minimization")
    return float((-val) ** 0.5)


def estimate_embedding_constant(op: FormOperator, max_iter: int = 2000,
                                rtol: float = 1e-10) -> float:
    """Largest constant of the scaled embedding inequality:

        sup over u of  eps^(2s) |u|_{q}^2 / bilinear_form(u, u),

    ``q`` the critical exponent.  This is the constant an inequality of the
    form ``|u|_q^2 <= S^2 eps^(-2s) ||u||^2`` actually requires for all u;
    the zero-mean regional quotient of :func:`estimate_sobolev_constant`
    underestimates it on smooth bumps, whose full-form energy is not
    seminorm-dominated.  Maximized by gradient ascent from a deterministic
    bump profile with zero-flux collar values; reaching ``max_iter`` warns.
    """
    dim, s, eps = op.mesh.dim, op.s, op.eps
    q = 2.0 * dim / (dim - 2.0 * s)
    ni = op.n_interior
    vol = op.mesh.cell_volume
    e2s = eps ** (2.0 * s)

    def norm(v: np.ndarray) -> float:
        return _lq_norm(v[:ni], vol, q)

    def quotient(v: np.ndarray):
        num = e2s * norm(v) ** 2
        den = bilinear_form(op, v, v)
        return num / den, (num, den)

    def ascent(v: np.ndarray, aux) -> np.ndarray:
        num, den = aux
        lq = (num / e2s) ** 0.5
        grad_num = np.zeros(op.n_total)
        grad_num[:ni] = (2.0 * e2s * lq ** (2.0 - q) * vol
                         * np.abs(v[:ni]) ** (q - 2.0) * v[:ni])
        grad_den = 2.0 * _graph_laplacian_apply(op, v) * e2s
        grad_den[:ni] += 2.0 * vol * v[:ni]
        return (grad_num * den - num * grad_den) / den**2

    r = np.linalg.norm(op.mesh.interior_nodes, axis=1)
    bump = 1.0 + np.cos(np.pi * np.clip(r / max(r.max(), 1e-300), 0.0, 1.0))
    u = exterior_extension(op, bump)
    u /= norm(u)
    val = _ascend(quotient, ascent, norm, u, max_iter, rtol,
                  "embedding quotient maximization")
    return float(val**0.5)


def verify_scaling_identity(mesh: DomainMesh, mesh_scaled: DomainMesh,
                            s: float, eps: float, u) -> float:
    """Relative residual of the dilation identity for the regional energy.

    With ``v(x) = u(eps x)`` on the dilated domain, the regional part of the
    energy norm satisfies

        eps**(2s) [u]^2 + |u|_2^2  =  eps**dim ( [v]^2 + |v|_2^2 ),

    where both sides use each mesh's own regional seminorm and interior
    quadrature.  ``u`` is a callable of the node coordinates.
    """
    op1 = assemble(mesh, s, eps)
    op2 = assemble(mesh_scaled, s, eps)
    x1 = mesh.interior_nodes
    x2 = mesh_scaled.interior_nodes
    u1 = np.asarray(u(x1), dtype=float)
    v2 = np.asarray(u(eps * x2), dtype=float)

    semi1 = _regional_seminorm(*_regional_matrix(op1), u1)
    semi2 = _regional_seminorm(*_regional_matrix(op2), v2)
    lhs = eps ** (2.0 * s) * semi1 + mesh.cell_volume * float(u1 @ u1)
    rhs = eps**mesh.dim * (semi2 + mesh_scaled.cell_volume * float(v2 @ v2))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
