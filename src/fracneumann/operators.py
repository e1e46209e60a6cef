"""Assembly of the singular-kernel weights and the operators built on them.

A single symmetric weight set

    w_ij = c_ns * vol_i * vol_j / |x_i - x_j|**(dim + 2 s),   i != j,

with no weights between two exterior nodes, simultaneously realizes the
fractional Laplacian at interior nodes, the nonlocal normal derivative at
collar nodes, and the energy bilinear form.  Because all three share the
weights, the discrete analogues of the nonlocal Gauss and Green identities
hold by pair-antisymmetry, up to floating-point roundoff only.  The set
has two exact forms, and :func:`assemble` stores one per mesh: the dense
blocks ``W_ii`` and ``W_ie`` on small meshes, or one stencil over the
offsets between the lattice cells the mesh records on large ones.  Every
reader takes the one apply or the stored form; the regional seminorm builds its own.

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

import contextlib
import ctypes
import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

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
    "check_identities",
    "estimate_sobolev_constant",
    "estimate_embedding_constant",
    "verify_scaling_identity",
]

DENSE_ENTRY_BUDGET = 3000**2
CONVOLUTION_MIN_ENTRIES = 200  # dense entries per convolution grid cell
# iteration caps and relative gradient stops of the two constant estimators
SOBOLEV_MAX_ITER, SOBOLEV_RTOL = 4000, 1e-11
EMBEDDING_MAX_ITER, EMBEDDING_RTOL = 2000, 1e-10


@functools.cache
def _blas_threads():
    """OpenBLAS's thread-count ``(get, set)`` pair, or None; ``dlsym`` on
    numpy's linalg extension also searches the BLAS that it links."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                 "openblas_%s_num_threads"):
        if hasattr(lib, name % "get"):
            get, set_ = getattr(lib, name % "get"), getattr(lib, name % "set")
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count: no
    helper thread is left spinning, and no sum is split by the count."""
    get, set_ = _blas_threads() or (lambda: None, lambda n: None)
    prev = get()
    set_(1)
    try:
        yield
    finally:
        set_(prev)


def normalization_constant(dim: int, s: float) -> float:
    """Principal-value normalisation of the fractional Laplacian of order s."""
    return float(4.0**s * s * math.gamma(dim / 2.0 + s)
                 / (np.pi ** (dim / 2.0) * math.gamma(1.0 - s)))


def critical_exponent(dim: int, s: float) -> float:
    """Fractional Sobolev critical exponent ``2* = 2 dim / (dim - 2 s)``."""
    return 2.0 * dim / (dim - 2.0 * s)


@dataclass(frozen=True, eq=False)
class FormOperator:
    """Assembled kernel weights on a mesh, for one order ``s`` and scale ``eps``.

    Attributes:
        mesh: the underlying cell-centered mesh.
        s: fractional order in (0, 1).
        eps: scale parameter of the energy form (weights do not depend on it).
        c_ns: kernel normalisation constant.
        w_ii, w_ie: the interior-interior and interior-collar weight blocks
            (``W_ei = W_ie^T``; the collar-collar block is zero, not stored);
            None when ``lattice`` holds the weights.
        row_sums: full-mesh row sums, cached for Laplacian-style applications.
        lattice: :func:`_lattice` of the mesh, the weights as one stencil and
            its unwrapped table, or None when the blocks hold them.
        reduced: :func:`_reduced_matrix`, once formed; shared by the
            :meth:`with_eps` copies, which keep the weights.
    """

    mesh: DomainMesh
    s: float
    eps: float
    c_ns: float
    w_ii: np.ndarray | None
    w_ie: np.ndarray | None
    row_sums: np.ndarray
    lattice: tuple | None = field(default=None, repr=False)
    reduced: list = field(default_factory=list, init=False, repr=False)

    @property
    def n_interior(self) -> int:
        return self.mesh.n_interior

    @property
    def n_total(self) -> int:
        return self.mesh.n_total

    def with_eps(self, eps: float) -> "FormOperator":
        """Same weights, different energy scale (weights are eps-independent)."""
        if not eps > 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        other = replace(self, eps=float(eps))
        object.__setattr__(other, "reduced", self.reduced)
        return other


def assemble(mesh: DomainMesh, s: float, eps: float) -> FormOperator:
    """Build the weights for ``mesh`` at order ``s``: the :func:`_lattice`
    stencil where it qualifies, its row sums from one convolution, else the
    dense blocks, whose size alone the entry budget checks.

    Requires ``0 < s < 1`` and ``dim > 2 s`` (so the critical exponent
    ``2 dim / (dim - 2 s)`` is finite).  Deterministic for fixed inputs.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must satisfy 0 < s < 1, got s={s}")
    if mesh.dim <= 2.0 * s:
        raise ValueError(
            f"need dim > 2 s for a finite critical exponent; got dim={mesh.dim}, s={s}"
        )
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    c_ns = normalization_constant(mesh.dim, s)
    if (lattice := _lattice(mesh, s)) is not None:
        return FormOperator(
            mesh=mesh, s=float(s), eps=float(eps), c_ns=c_ns, w_ii=None,
            w_ie=None, lattice=lattice,
            row_sums=_pair_sums(lattice, mesh.n_interior, np.ones(mesh.n_total)))
    entries = mesh.n_interior * mesh.n_total
    if entries > DENSE_ENTRY_BUDGET:
        warnings.warn(
            f"operator stores {entries} weights; beyond {DENSE_ENTRY_BUDGET} "
            "is outside the intended desk scale",
            RuntimeWarning,
            stacklevel=2,
        )
    xi, vol = mesh.interior_nodes, mesh.cell_volume
    w_ii = _pair_weights(xi, xi, s, vol)
    w_ie = _pair_weights(xi, mesh.exterior_nodes, s, vol)
    return FormOperator(
        mesh=mesh, s=float(s), eps=float(eps), c_ns=c_ns, w_ii=w_ii, w_ie=w_ie,
        row_sums=np.concatenate([w_ii.sum(1) + w_ie.sum(1), w_ie.sum(0)]),
    )


def _pair_weights(x: np.ndarray, y: np.ndarray, s: float,
                  vol: float) -> np.ndarray:
    """``c_ns vol^2 / |x_i - y_j|^(dim+2s)`` between the points ``x`` and
    ``y`` (one per row), zero for coincident points."""
    dim = x.shape[1]
    r2 = np.subtract.outer(x[:, 0], y[:, 0])
    r2 *= r2
    for k in range(1, dim):  # one coordinate at a time: no (n, m, dim) tensor
        d = np.subtract.outer(x[:, k], y[:, k])
        r2 += np.multiply(d, d, out=d)
    r2[r2 == 0.0] = np.inf  # zero self-weight
    w = np.power(r2, -(dim + 2.0 * s) / 2.0, out=r2)
    w *= normalization_constant(dim, s) * vol * vol
    return w


def _check_size(op: FormOperator, u: np.ndarray, name: str = "u",
                stack: bool = False) -> np.ndarray:
    """``u`` as a float grid function; ``stack`` also admits a ``(k, n)``
    stack of them."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (op.n_total,) or u.ndim > 1 + stack:
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


def _graph_laplacian_apply(op: FormOperator, u: np.ndarray) -> np.ndarray:
    """Full-mesh kernel application, the one shared by every operator:
    ``row_sums u - [W_ii u_i + W_ie u_e, W_ie^T u_i]`` on centered values,
    for one grid function or each row of a stack.  An operator that holds
    the weights as a stencil takes the same sums by :func:`_pair_sums`; the
    rest read the dense blocks."""
    uc = _centered(u)
    if op.lattice is not None:
        return op.row_sums * uc - _pair_sums(op.lattice, op.n_interior, uc)
    ni = op.n_interior
    ui, ue = uc[..., :ni], uc[..., ni:]
    out = op.row_sums * uc
    out[..., :ni] -= ui @ op.w_ii + ue @ op.w_ie.T
    out[..., ni:] -= ui @ op.w_ie
    return out


def _fft_size(n: int) -> int:
    """The smallest ``2^a 3^b 5^c`` at least ``n``: a fast FFT length."""
    p = [q ** np.arange(int(math.log(n, q)) + 2) for q in (2, 3, 5)]
    sizes = np.multiply.outer(np.multiply.outer(p[0], p[1]), p[2])
    return int(sizes[sizes >= n].min())


def _lattice(mesh: DomainMesh, s: float):
    """``(spectrum, cells, table, offsets)``: the weights of order ``s`` as
    one stencil on a periodic grid and each node's flat cell index, from
    ``mesh.cells``, then unwrapped (``2 reach + 1`` cells per axis), where
    ``(i, j)``, ``i`` interior, sits at ``offsets[i] - offsets[j] + table.size // 2``.
    None when the blocks hold fewer than ``CONVOLUTION_MIN_ENTRIES`` entries
    per grid cell (a grid has ``n_total`` cells or more, so smaller
    interiors never qualify).  An axis of ``2 reach + 1`` cells or more,
    ``reach`` the largest interior-to-any-node offset on it, gives every
    node a cell of its own and wraps no coupled pair."""
    ni, cells = mesh.n_interior, mesh.cells
    reach = np.maximum(cells[:ni].max(0) - cells.min(0),
                       cells.max(0) - cells[:ni].min(0))
    shape = [_fft_size(2 * r + 1) for r in reach]
    if ni * mesh.n_total < CONVOLUTION_MIN_ENTRIES * math.prod(shape):
        return None
    dk = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n) for n in shape], indexing="ij")
    stencil = _pair_weights(mesh.h * np.stack(dk, -1).reshape(-1, mesh.dim),
                            np.zeros((1, mesh.dim)), s, mesh.cell_volume).reshape(shape)
    return (np.fft.fftn(stencil).real,
            np.ravel_multi_index(tuple(cells.T), shape, mode="wrap"),
            stencil[np.ix_(*[np.arange(-r, r + 1) for r in reach])].ravel(),
            np.ravel_multi_index(tuple((cells + reach).T), 2 * reach + 1))


def _pair_sums(lattice, ni: int, u: np.ndarray) -> np.ndarray:
    """``sum_j w_ij u_j`` over the coupled pairs of every node for the
    :func:`_lattice` stencil, one ``fftn``/``ifftn`` pair per row of ``u``:
    interior values are the real part of the grid, collar values its
    imaginary part.  Interior rows take the sums of both parts, collar rows
    the real part's only, which leaves out collar-collar pairs."""
    spectrum, cells = lattice[:2]
    rows = u.reshape(-1, u.shape[-1])
    grid = np.zeros((len(rows), spectrum.size), dtype=complex)
    grid.real[:, cells[:ni]], grid.imag[:, cells[ni:]] = rows[:, :ni], rows[:, ni:]
    axes = tuple(range(1, spectrum.ndim + 1))
    grid = np.fft.fftn(grid.reshape(-1, *spectrum.shape), axes=axes)
    grid *= spectrum
    grid = np.fft.ifftn(grid, axes=axes).reshape(len(rows), spectrum.size)
    sums = grid.real[:, cells]
    sums[:, :ni] += grid.imag[:, cells[:ni]]
    return sums.reshape(u.shape)


def _flux(op: FormOperator, u: np.ndarray) -> np.ndarray:
    """The kernel integral at every node: ``(-Δ)^s u`` on interior rows and,
    the same integral taken outside the domain, ``N_s u`` on collar rows."""
    return _graph_laplacian_apply(op, u) / op.mesh.cell_volume


def frac_laplacian(op: FormOperator, u: np.ndarray) -> np.ndarray:
    """Discrete fractional Laplacian at the interior nodes.

    Midpoint quadrature of the principal-value integral over the meshed
    region: ``c_ns * sum_j vol_j (u_i - u_j) / |x_i - x_j|**(dim+2s)``.
    """
    return _flux(op, _check_size(op, u))[:op.n_interior]


def neumann_derivative(op: FormOperator, u: np.ndarray) -> np.ndarray:
    """Nonlocal normal derivative at the collar nodes.

    ``c_ns * sum_{j interior} vol_j (u_k - u_j) / |x_k - x_j|**(dim+2s)``;
    collar nodes only couple to interior nodes.  Row by row for a stack.
    """
    return _flux(op, _check_size(op, u, stack=True))[..., op.n_interior:]


def exterior_extension(op: FormOperator, u_int: np.ndarray) -> np.ndarray:
    """Extend interior values to the collar so the normal derivative vanishes.

    The unique zero-flux values are the kernel-weighted averages
    ``u_k = sum_j w_kj u_j / sum_j w_kj``.  The result is clamped to
    ``[min u_int, max u_int]`` (the exact convex-combination range) to keep
    the discrete maximum principle intact under roundoff.  Extends each row
    of a ``(k, n_interior)`` stack alike.  The sums are the collar rows of
    ``-L [u_int - c0, 0]``.
    """
    u_int = np.asarray(u_int, dtype=float)
    ni = op.n_interior
    if u_int.shape[-1:] != (ni,) or u_int.ndim > 2:
        raise ValueError(
            f"size mismatch: expected {ni} interior values, got {u_int.shape}"
        )
    c0 = u_int.mean(axis=-1, keepdims=True)
    v = np.zeros(u_int.shape[:-1] + (op.n_total,))
    v[..., :ni] = u_int - c0
    u_ext = c0 - _graph_laplacian_apply(op, v)[..., ni:] / op.row_sums[ni:]
    np.clip(u_ext, u_int.min(axis=-1, keepdims=True),
            u_int.max(axis=-1, keepdims=True), out=u_ext)
    return np.concatenate([u_int, u_ext], axis=-1)


def seminorm_form(op: FormOperator, u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Kernel part of the form, without the eps factor:

    ``(1/2) sum_{admissible (i,j)} w_ij (u_i - u_j)(v_i - v_j)``; a
    ``(k, n)`` stack ``u`` gives the ``k`` forms, from one apply of ``v``.
    """
    u = _check_size(op, u, stack=True)
    v = _check_size(op, v, "v")
    form = _centered(u) @ _graph_laplacian_apply(op, v)
    return form if u.ndim > 1 else float(form)


def bilinear_form(op: FormOperator, u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Energy inner product: ``eps**(2s) * seminorm + integral of u v``, for
    ``u`` one grid function or a stack, as :func:`seminorm_form` takes it."""
    u = _check_size(op, u, stack=True)
    v = _check_size(op, v, "v")
    ni = op.n_interior
    l2 = op.mesh.cell_volume * (u[..., :ni] @ v[:ni])
    form = op.eps ** (2.0 * op.s) * seminorm_form(op, u, v) + l2
    return form if u.ndim > 1 else float(form)


def check_identities(op: FormOperator, uv: np.ndarray) -> tuple:
    """Residuals and magnitude scales of the discrete Gauss and Green
    identities, ``((gauss_residual, gauss_scale), (green_residual,
    green_scale))``, for one pair ``(u, v)`` of grid functions, shape ``(2,
    n)``, or each pair of a ``(k, 2, n)`` stack.

    Gauss, per function (shape ``(..., 2)``): the integral of the fractional
    Laplacian over the domain plus that of the normal derivative over the
    collar is zero; the scale is the same integral of ``|flux|``.  Green, per
    pair: the seminorm form of ``(u, v)`` equals the flux of ``u`` tested
    against ``v`` on the domain and on the collar; the scale pairs ``|v|``
    with ``|flux u|``.  One kernel apply to the rows ``u0, v0, u1, v1, ...``
    gives every term; sharing one weight set makes each residual roundoff.
    Row dots are the pairwise-summed ``(a * b).sum(-1)``: an einsum row dot
    is several times less accurate on these residuals.
    """
    uv = np.asarray(uv, dtype=float)
    n, ni, vol = op.n_total, op.n_interior, op.mesh.cell_volume
    if uv.ndim not in (2, 3) or uv.shape[-2:] != (2, n):
        raise ValueError(f"size mismatch: uv has shape {uv.shape}, expected "
                         f"(2, {n}) or (k, 2, {n}) for a mesh of {n} nodes")
    lap = _graph_laplacian_apply(op, uv.reshape(-1, n)).reshape(uv.shape)

    def total(f: np.ndarray):  # vol-weighted sum over domain and collar
        return vol * f[..., :ni].sum(-1) + vol * f[..., ni:].sum(-1)

    flux = lap / vol
    afl = np.abs(flux)
    u, v = uv[..., 0, :], uv[..., 1, :]
    return ((abs(total(flux)), total(afl)),
            (abs((_centered(u) * lap[..., 1, :]).sum(-1) - total(v * flux[..., 0, :])),
             total(np.abs(v) * afl[..., 0, :])))


@_one_blas_thread()
def _reduced_matrix(op: FormOperator) -> np.ndarray:
    """Interior weights ``M = W_ii + W_ie D_e^-1 W_ei`` left by minimizing the
    form over collar values (the zero-flux extension; the collar block is
    diagonal).  Its row sums equal ``op.row_sums[:ni]``, which its users read.

    Formed on first use, on one BLAS thread, from the stored weights (block
    slices or :func:`_lattice` table gathers) and kept, read-only, in
    ``op.reduced``.  Node-list reversal ``J`` reflects the mesh, so a column
    ``b`` of ``W_ie D_e^-1/2`` in the collar's first half and its mirror add
    ``(p p^T + q q^T)/2``, ``p, q = b +- Jb`` even and odd: half-height Gram
    sums, 128 columns at a time, give ``M``'s top rows, whose reflection is
    the rest, exactly symmetric and centrosymmetric (:class:`DomainMesh`)."""
    if not op.reduced:
        ni, half = op.n_interior, op.mesh.n_exterior // 2
        h, l = ni - ni // 2, ni // 2  # rows of the even and odd blocks
        rows = np.r_[np.arange(h), ni - 1 - np.arange(h)]  # and their mirrors
        if op.lattice is None:  # (W_ii + J W_ii J)/2, exactly centrosymmetric
            w = 0.5 * (op.w_ii[rows[:h]] + op.w_ii[rows[h:], ::-1])
            pairs = lambda cols: op.w_ie[rows, cols]
        else:  # the table's W_ii is exactly centrosymmetric
            table, offsets = op.lattice[2:]
            mid = offsets[rows] + table.size // 2
            w = table[mid[:h, None] - offsets[:ni]]
            pairs = lambda cols: table[mid[:, None] - offsets[ni:][cols]]
        e, o = np.zeros((h, h)), np.zeros((h, h))  # o's centre row stays 0
        for k in range(0, half, 128):
            cols = slice(k, min(k + 128, half))
            ab = pairs(cols) * np.sqrt(0.5 / op.row_sums[ni:][cols])
            p, q = ab[:h] + ab[h:], ab[:l] - ab[h:h + l]
            e += p @ p.T
            o[:l, :l] += q @ q.T
        top = w + np.hstack([e + o, (e - o)[:, :l][:, ::-1]])
        m = np.vstack([top, top[:l][::-1, ::-1]])
        m.flags.writeable = False
        op.reduced.append(m)
    return op.reduced[0]


def _regional(mesh: DomainMesh, s: float):
    """The regional Laplacian of order ``s``: ``v -> sum_j w_ij (v_i - v_j)``
    on interior values, over the interior-interior weights alone, on
    centered values.  ``v . L v`` is the regional seminorm
    ``(1/2) sum_ij w_ij (v_i - v_j)^2``."""
    w = _pair_weights(mesh.interior_nodes, mesh.interior_nodes, s,
                      mesh.cell_volume)
    d = w @ np.ones(mesh.n_interior)

    def apply(v: np.ndarray) -> np.ndarray:
        vc = _centered(v)
        return d * vc - w @ vc
    return apply


def _lq_norm(values: np.ndarray, vol: float, q: float) -> float:
    """Robust (sum vol |u|**q)**(1/q), rescaled against overflow in one copy."""
    a = np.abs(values)
    if (m := float(a.max())) == 0.0:
        return 0.0
    a /= m
    a **= q
    return m * float(np.multiply(a, vol, out=a).sum()) ** (1.0 / q)


def _ascend(apply_b, project, q: float, vol: float, u: np.ndarray,
            max_iter: int, rtol: float, what: str) -> tuple[float, np.ndarray]:
    """Maximize ``|u|_q^2 / B(u, u)`` by projected gradient ascent from
    ``project(u)``, for the quadratic form of the symmetric ``apply_b(v) =
    B v``; ``project`` maps onto the subspace searched, and is applied to the
    start and to each gradient.

    Along the ray ``u + t g``, ``B`` is the parabola ``B(u,u) + 2t B(u,g) +
    t^2 B(g,g)``, so one ``B g`` per iteration prices every trial step, and
    a trial costs only its Lq norm.  Steps double (capped at 1e6) and are
    halved up to 60 times until the value strictly improves.  Stops at a
    gradient norm below ``rtol * |value|`` or when no step improves; warns
    at ``max_iter``.  Returns the last value and its iterate, ``|u|_q = 1``.
    """
    u = project(u)
    u = u / _lq_norm(u, vol, q)
    bu = apply_b(u)
    buu = float(u @ bu)
    val = 1.0 / buu
    step = 1.0
    for _ in range(max_iter):
        grad = np.abs(u)  # the gradient of |u|_q^2 / B(u, u) at |u|_q = 1
        grad **= q - 2.0
        grad *= vol
        grad *= u
        grad *= buu
        grad -= bu
        grad /= 0.5 * buu**2
        grad = project(grad)
        if math.sqrt(grad @ grad) <= rtol * max(abs(val), 1e-300):
            return val, u
        bg = apply_b(grad)
        bug, bgg = float(grad @ bu), float(grad @ bg)
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            cand = u + step * grad
            nrm = _lq_norm(cand, vol, q)
            den = buu + step * (2.0 * bug + step * bgg)
            cval = nrm * nrm / den if den > 0.0 else 0.0
            if cval > val + 1e-16 * abs(val):
                u, bu = cand / nrm, (bu + step * bg) / nrm
                buu, val = den / (nrm * nrm), cval
                break
            step *= 0.5
        else:
            return val, u  # no ascent left at float resolution
    warnings.warn(f"{what} hit the iteration cap of {max_iter}; returning "
                  "the last iterate's estimate", RuntimeWarning, stacklevel=3)
    return val, u


def estimate_sobolev_constant(op: FormOperator) -> float:
    """Infimum of the regional Rayleigh quotient over zero-mean functions.

    ``sqrt(regional seminorm) / Lq norm`` with ``q`` the critical exponent,
    over interior grid functions of zero mean: :func:`_ascend` maximizes its
    inverse square.  The constant direction is removed because the regional
    seminorm vanishes on constants while the Lq norm does not, which would
    drive the literal infimum to zero.

    Reaching ``SOBOLEV_MAX_ITER`` warns rather than raises; the last
    iterate's quotient is returned.
    """
    # deterministic low-frequency start: the first coordinate, centered
    val, _ = _ascend(_regional(op.mesh, op.s), lambda v: v - v.mean(),
                     critical_exponent(op.mesh.dim, op.s), op.mesh.cell_volume,
                     op.mesh.interior_nodes[:, 0], SOBOLEV_MAX_ITER,
                     SOBOLEV_RTOL, "Sobolev quotient minimization")
    return float((1.0 / val) ** 0.5)


def estimate_embedding_constant(op: FormOperator) -> float:
    """Largest constant of the scaled embedding inequality:

        sup over u of  eps^(2s) |u|_{q}^2 / bilinear_form(u, u),

    ``q`` the critical exponent.  This is the constant an inequality of the
    form ``|u|_q^2 <= S^2 eps^(-2s) ||u||^2`` actually requires for all u;
    the zero-mean regional quotient of :func:`estimate_sobolev_constant`
    underestimates it on smooth bumps, whose full-form energy is not
    seminorm-dominated.  Maximized over interior values with the collar
    eliminated (:func:`_reduced_matrix`) by :func:`_ascend` from a
    deterministic bump profile, with ``B = eps^(-2s) bilinear_form``;
    reaching ``EMBEDDING_MAX_ITER`` warns.  Returns the full-form quotient of
    the maximizer's :func:`exterior_extension`.
    """
    q = critical_exponent(op.mesh.dim, op.s)
    m = _reduced_matrix(op)
    vol = op.mesh.cell_volume
    e2s = op.eps ** (2.0 * op.s)
    r = np.linalg.norm(op.mesh.interior_nodes, axis=1)
    u = 1.0 + np.cos(np.pi * np.clip(r / max(r.max(), 1e-300), 0.0, 1.0))
    if not u.any():  # every node at the largest radius: the bump vanishes
        u += 1.0
    # B v = b_diag v - M v, M's row sums from op.row_sums: a mass term, no centring
    b_diag = op.row_sums[:op.n_interior] + vol / e2s
    _, u = _ascend(lambda v: b_diag * v - m @ v,
                   lambda v: v, q, vol, u, EMBEDDING_MAX_ITER, EMBEDDING_RTOL,
                   "embedding quotient maximization")
    lift = exterior_extension(op, u)
    return float((e2s * _lq_norm(u, vol, q) ** 2
                  / bilinear_form(op, lift, lift)) ** 0.5)


def verify_scaling_identity(mesh: DomainMesh, mesh_scaled: DomainMesh,
                            s: float, eps: float, u) -> float:
    """Relative residual of the dilation identity for the regional energy.

    With ``v(x) = u(eps x)`` on the dilated domain, the regional part of the
    energy norm satisfies

        eps**(2s) [u]^2 + |u|_2^2  =  eps**dim ( [v]^2 + |v|_2^2 ),

    where both sides use each mesh's own regional seminorm and interior
    quadrature.  ``u`` is a callable of the node coordinates.  Only the
    interior weights of each mesh are built.
    """
    u1 = np.asarray(u(mesh.interior_nodes), dtype=float)
    v2 = np.asarray(u(eps * mesh_scaled.interior_nodes), dtype=float)

    semi1 = float(_centered(u1) @ _regional(mesh, s)(u1))
    semi2 = float(_centered(v2) @ _regional(mesh_scaled, s)(v2))
    lhs = eps ** (2.0 * s) * semi1 + mesh.cell_volume * float(u1 @ u1)
    rhs = eps**mesh.dim * (semi2 + mesh_scaled.cell_volume * float(v2 @ v2))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
