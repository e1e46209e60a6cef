import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fracneumann as fn
from fracneumann import operators
from fracneumann.config import load_config
from fracneumann.operators import (_centered, _graph_laplacian_apply,
                                   _reduced_matrix, _regional)

from conftest import dense_weights, random_grid_function, small_operators


def concatenating_apply(op, u):
    """The full-mesh apply as it was written before it became in-place: the
    interior and collar products concatenated, then subtracted at once."""
    uc = _centered(u)
    ni = op.n_interior
    ui, ue = uc[..., :ni], uc[..., ni:]
    wu = np.concatenate([ui @ op.w_ii + ue @ op.w_ie.T, ui @ op.w_ie], axis=-1)
    return op.row_sums * uc - wu


def graph_laplacian(w, d, v):
    """``sum_j w_ij (v_i - v_j)`` for symmetric weights ``w`` with row sums
    ``d``, on centered values."""
    vc = _centered(v)
    return d * vc - w @ vc


def truncated_pv_integral(u, xstar, lo, hi, s, c_ns):
    """Independent adaptive-quadrature oracle of the principal-value integral
    ``c_ns * int_(lo,hi) (u(x*) - u(y)) |x* - y|^(-1-2s) dy``.

    The substitution ``y = x* +/- rho^2`` removes the endpoint singularity,
    leaving a smooth integrand for the adaptive rule.
    """
    quad = pytest.importorskip("scipy.integrate").quad

    def one_side(extent, sign):
        def integrand(rho):
            return (u(xstar) - u(xstar + sign * rho * rho)) \
                * rho ** (-2.0 * (1.0 + 2.0 * s)) * 2.0 * rho
        val, err = quad(integrand, 0.0, np.sqrt(extent), limit=400)
        assert err < 1e-8 * max(1.0, abs(val))
        return val

    return c_ns * (one_side(xstar - lo, -1.0) + one_side(hi - xstar, +1.0))


def two_pass_pair_weights(x, y, s, vol):
    """The pair weights as first written, with ``r^2`` summed into a zero
    array."""
    dim = x.shape[1]
    r2 = np.zeros((len(x), len(y)))
    for k in range(dim):
        d = np.subtract.outer(x[:, k], y[:, k])
        r2 += np.multiply(d, d, out=d)
    r2[r2 == 0.0] = np.inf
    w = np.power(r2, -(dim + 2.0 * s) / 2.0, out=r2)
    w *= operators.normalization_constant(dim, s) * vol * vol
    return w


def per_trial_ascend(objective, gradient, norm, u, max_iter, rtol):
    """Oracle ascent that recomputes the objective at every trial step."""
    val, aux = objective(u)
    step = 1.0
    for _ in range(max_iter):
        grad = gradient(u, aux)
        if float(np.linalg.norm(grad)) <= rtol * max(abs(val), 1e-300):
            return val, u
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
            return val, u
    raise AssertionError("oracle ascent hit its cap")


def per_trial_embedding_constant(op, max_iter=2000, rtol=1e-10):
    """Oracle: the embedding estimator with a reduced-matrix product and two
    Lq norms at every trial step."""
    q = operators.critical_exponent(op.mesh.dim, op.s)
    m, d = _reduced_matrix(op), op.row_sums[:op.n_interior]
    vol = op.mesh.cell_volume
    e2s = op.eps ** (2.0 * op.s)

    def norm(v):
        return operators._lq_norm(v, vol, q)

    def quotient(v):
        lv = graph_laplacian(m, d, v)
        num = e2s * norm(v) ** 2
        den = e2s * float(_centered(v) @ lv) + vol * float(v @ v)
        return num / den, (num, den, lv)

    def ascent(v, aux):
        num, den, lv = aux
        lq = (num / e2s) ** 0.5
        grad_num = 2.0 * e2s * lq ** (2.0 - q) * vol * np.abs(v) ** (q - 2.0) * v
        grad_den = 2.0 * e2s * lv + 2.0 * vol * v
        return (grad_num * den - num * grad_den) / den**2

    r = np.linalg.norm(op.mesh.interior_nodes, axis=1)
    u = 1.0 + np.cos(np.pi * np.clip(r / max(r.max(), 1e-300), 0.0, 1.0))
    u /= norm(u)
    _, u = per_trial_ascend(quotient, ascent, norm, u, max_iter, rtol)
    lift = fn.exterior_extension(op, u)
    return (e2s * norm(u) ** 2 / fn.bilinear_form(op, lift, lift)) ** 0.5


def per_trial_sobolev_constant(op, max_iter=4000, rtol=1e-11):
    """Oracle: the Sobolev estimator descending ``seminorm / |u|_q^2`` with
    every trial step evaluated in full."""
    q = operators.critical_exponent(op.mesh.dim, op.s)
    lap = _regional(op.mesh, op.s)
    vol = op.mesh.cell_volume

    def norm(v):
        v -= v.mean()
        return operators._lq_norm(v, vol, q)

    def neg_rayleigh(v):
        num = float(_centered(v) @ lap(v))
        den = operators._lq_norm(v, vol, q) ** 2
        return -num / den, (num, den)

    def ascent(v, aux):
        num, den = aux
        grad_num = 2.0 * lap(v)
        grad_den = 2.0 * (den**0.5) ** (2.0 - q) * vol * np.abs(v) ** (q - 2.0) * v
        grad = (grad_num * den - num * grad_den) / den**2
        return -(grad - grad.mean())

    u = op.mesh.interior_nodes[:, 0].copy()
    u /= norm(u)
    val, _ = per_trial_ascend(neg_rayleigh, ascent, norm, u, max_iter, rtol)
    return (-val) ** 0.5


@pytest.fixture(scope="module")
def embedding_operators(op_1d, op_2d):
    """Operators the estimator is checked on against its oracle: small dense
    ones, the 2D box, and the benchmark's 1D stencil operator at both ends
    of its sweep."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = load_config(configs / "quick_1d.cfg")
    base = fn.assemble(cfg.build_mesh(), cfg.s, 1.0)
    ref = load_config(configs / "reference_1d.cfg")
    ref_base = fn.assemble(ref.build_mesh(), ref.s, 1.0)
    box = fn.build_box_mesh(((-1.0, 1.0), (-1.0, 1.0)), 0.1, 2.9)
    return {"op_1d": op_1d, "op_2d": op_2d,
            "quick_1d@0.3": base.with_eps(0.3),
            "quick_1d@0.15": base.with_eps(0.15),
            "reference_1d@0.05": ref_base.with_eps(0.05),
            "reference_1d@0.4": ref_base.with_eps(0.4),
            "centred_box": fn.assemble(box, 0.4, 0.3)}


class TestNormalizationConstant:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.5, 0.75, 0.9])
    def test_against_scipy_gamma(self, dim, s):
        special = pytest.importorskip("scipy.special")
        want = 4.0**s * s * special.gamma(dim / 2.0 + s) \
            / (np.pi ** (dim / 2.0) * special.gamma(1.0 - s))
        assert operators.normalization_constant(dim, s) == pytest.approx(want, rel=1e-15)


class TestAssembly:
    def test_weights_positive_and_symmetric(self, op_1d, op_2d):
        for op in (op_1d, op_2d):
            ni = op.n_interior
            off_diag = op.w_ii[~np.eye(ni, dtype=bool)]
            assert np.all(off_diag > 0.0) and np.all(np.diag(op.w_ii) == 0.0)
            assert np.all(op.w_ie > 0.0)
            assert np.array_equal(op.w_ii, op.w_ii.T)
            dense = dense_weights(op)
            assert np.allclose(op.w_ii, dense[:ni, :ni], rtol=1e-14, atol=0.0)
            assert np.allclose(op.w_ie, dense[:ni, ni:], rtol=1e-14, atol=0.0)
            assert np.allclose(op.row_sums, dense.sum(axis=1), rtol=1e-13,
                               atol=0.0)

    def test_no_exterior_exterior_weights(self, op_1d, op_2d):
        # the collar-collar block cannot be stored: no array on the operator
        # is larger than the interior rows of the full matrix
        for op in (op_1d, op_2d):
            arrays = [getattr(op, f.name) for f in dataclasses.fields(op)]
            sizes = [a.size for a in arrays if isinstance(a, np.ndarray)]
            assert len(sizes) == 3
            assert max(sizes) <= op.n_interior * op.n_total

    @pytest.mark.parametrize("mesh", ["mesh_1d", "mesh_2d"])
    def test_pair_weights_match_the_two_pass_formula(self, mesh, request):
        mesh = request.getfixturevalue(mesh)
        xi, xe = mesh.interior_nodes, mesh.exterior_nodes
        # with coincident points (the diagonal, a repeated point) and without
        for x, y in ((xi, xi), (xi, xe), (xe[:7], np.vstack([xi, xe[3:4]]))):
            got = operators._pair_weights(x, y, 0.3, mesh.cell_volume)
            assert np.array_equal(
                got, two_pass_pair_weights(x, y, 0.3, mesh.cell_volume))

    def test_assembly_never_forms_the_full_matrix(self):
        cfg = load_config(Path(__file__).resolve().parents[1]
                          / "configs" / "reference_1d.cfg")
        mesh = cfg.build_mesh()
        tracemalloc.start()
        try:
            fn.assemble(mesh, cfg.s, cfg.first_eps())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mesh.n_total**2 * 8

    def test_budget_counts_stored_entries(self, mesh_1d, monkeypatch):
        entries = mesh_1d.n_interior * mesh_1d.n_total
        monkeypatch.setattr(operators, "DENSE_ENTRY_BUDGET", entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn.assemble(mesh_1d, 0.25, 1.0)
        monkeypatch.setattr(operators, "DENSE_ENTRY_BUDGET", entries - 1)
        with pytest.warns(RuntimeWarning, match=f"stores {entries} weights"):
            fn.assemble(mesh_1d, 0.25, 1.0)

    def test_bad_order_rejected(self, mesh_1d):
        with pytest.raises(ValueError, match="0 < s < 1"):
            fn.assemble(mesh_1d, s=1.2, eps=1.0)

    def test_supercritical_dimension_rejected(self, mesh_1d):
        with pytest.raises(ValueError, match="dim > 2 s"):
            fn.assemble(mesh_1d, s=0.6, eps=1.0)

    def test_deterministic(self, mesh_1d):
        a = fn.assemble(mesh_1d, 0.25, 0.7)
        b = fn.assemble(mesh_1d, 0.25, 0.7)
        assert np.array_equal(a.w_ii, b.w_ii) and np.array_equal(a.w_ie, b.w_ie)

    def test_with_eps_shares_weights(self, op_1d):
        other = op_1d.with_eps(0.05)
        assert other.w_ii is op_1d.w_ii and other.w_ie is op_1d.w_ie
        assert other.eps == 0.05
        assert other.reduced is op_1d.reduced
        with pytest.raises(ValueError, match="positive"):
            op_1d.with_eps(-1.0)


class TestSharedApply:
    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(1, 4), amplitude=st.floats(1e-3, 1e3),
           offset=st.floats(-5.0, 5.0))
    def test_batched_rowwise_and_pairwise_agree(self, op, seed, n_rows,
                                                amplitude, offset):
        rng = np.random.default_rng(seed)
        rows = amplitude * (offset + rng.standard_normal((n_rows, op.n_total)))
        batched = _graph_laplacian_apply(op, rows)
        rowwise = np.array([_graph_laplacian_apply(op, u) for u in rows])
        diff = rows[:, :, None] - rows[:, None, :]
        w = dense_weights(op)
        pairwise = np.einsum("ij,kij->ki", w, diff)
        scale = np.einsum("ij,kij->ki", w, np.abs(diff))
        tol = 1e-12 * scale.max(axis=1, keepdims=True)
        assert batched.shape == rows.shape
        assert np.all(np.abs(batched - rowwise) <= tol)
        assert np.all(np.abs(batched - pairwise) <= tol)

    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(0, 5), constant_row=st.booleans())
    def test_in_place_matches_concatenating_formula(self, op, seed, n_rows,
                                                    constant_row):
        rng = np.random.default_rng(seed)
        shape = (n_rows, op.n_total) if n_rows else (op.n_total,)
        u = 10.0 * rng.standard_normal(shape)
        if constant_row:
            u[..., :] = u[..., :1]
        got = _graph_laplacian_apply(op, u)
        assert got.shape == u.shape
        assert np.array_equal(got, concatenating_apply(op, u))

    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(),
           values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4))
    def test_constant_rows_give_exact_zero(self, op, values):
        rows = np.repeat(np.array(values)[:, None], op.n_total, axis=1)
        assert np.all(_graph_laplacian_apply(op, rows) == 0.0)
        for u in rows:
            assert np.all(_graph_laplacian_apply(op, u) == 0.0)


class TestFracLaplacian:
    def test_constant_annihilated_exactly(self, op_1d, mesh_1d):
        c = np.full(mesh_1d.n_total, -4.2)
        assert np.all(fn.frac_laplacian(op_1d, c) == 0.0)

    def test_odd_symmetry_at_origin(self):
        # u(x) = x on a symmetric mesh: the value at the center node vanishes
        # by odd symmetry (cell-centered grid with an odd cell count).
        mesh = fn.build_interval_mesh(-1.0, 1.0, 2.0 / 201.0, 4.0)
        op = fn.assemble(mesh, 0.25, 1.0)
        u = mesh.nodes.ravel().copy()
        i0 = int(np.argmin(np.abs(mesh.interior_nodes.ravel())))
        val = fn.frac_laplacian(op, u)[i0]
        assert abs(val) < 1e-10

    @pytest.mark.parametrize("h", [0.01, 0.005])
    def test_gaussian_matches_quadrature_oracle(self, h):
        mesh = fn.build_interval_mesh(-1.0, 1.0, h, 6.0)
        op = fn.assemble(mesh, 0.25, 1.0)
        x = mesh.nodes.ravel()
        u = np.exp(-x * x)
        i0 = int(np.argmin(np.abs(mesh.interior_nodes.ravel())))
        xstar = float(mesh.interior_nodes.ravel()[i0])
        got = fn.frac_laplacian(op, u)[i0]
        lo, hi = x.min() - h / 2.0, x.max() + h / 2.0
        want = truncated_pv_integral(lambda y: np.exp(-y * y), xstar, lo, hi,
                                     0.25, op.c_ns)
        assert got == pytest.approx(want, rel=0.02)

    def test_size_mismatch(self, op_1d):
        with pytest.raises(ValueError, match="size mismatch"):
            fn.frac_laplacian(op_1d, np.zeros(3))


class TestNeumannDerivative:
    def test_constant_annihilated_exactly(self, op_1d, mesh_1d):
        c = np.full(mesh_1d.n_total, 0.9)
        assert np.all(fn.neumann_derivative(op_1d, c) == 0.0)

    def test_indicator_sign(self, op_1d, mesh_1d):
        u = np.zeros(mesh_1d.n_total)
        u[:mesh_1d.n_interior] = 1.0
        nder = fn.neumann_derivative(op_1d, u)
        assert np.all(nder < 0.0)

    def test_extension_consistency(self, op_1d, mesh_1d):
        u_int = random_grid_function(mesh_1d, seed=7)[:mesh_1d.n_interior]
        ext = fn.exterior_extension(op_1d, u_int)
        assert np.max(np.abs(fn.neumann_derivative(op_1d, ext))) < 1e-12


class TestExteriorExtension:
    def test_constant_extends_exactly(self, op_1d, mesh_1d):
        u_int = np.full(mesh_1d.n_interior, 5.5)
        ext = fn.exterior_extension(op_1d, u_int)
        assert np.all(ext == 5.5)

    def test_maximum_principle(self, op_1d, mesh_1d):
        for seed in range(5):
            u_int = random_grid_function(mesh_1d, seed)[:mesh_1d.n_interior]
            ext = fn.exterior_extension(op_1d, u_int)[mesh_1d.n_interior:]
            assert ext.min() >= u_int.min()
            assert ext.max() <= u_int.max()

    def test_nonnegative_stays_nonnegative(self, op_1d, mesh_1d):
        u_int = np.abs(random_grid_function(mesh_1d, 3)[:mesh_1d.n_interior])
        ext = fn.exterior_extension(op_1d, u_int)
        assert np.all(ext >= 0.0)
        assert ext.max() <= u_int.max()


class TestBilinearForm:
    def test_constant_gives_domain_mass(self, op_1d, mesh_1d):
        c = np.full(mesh_1d.n_total, 2.5)
        got = fn.bilinear_form(op_1d, c, c)
        assert got == pytest.approx(2.5**2 * mesh_1d.domain_measure(), rel=1e-13)

    def test_symmetry(self, op_1d, mesh_1d):
        u = random_grid_function(mesh_1d, 11)
        v = random_grid_function(mesh_1d, 12)
        a = fn.bilinear_form(op_1d, u, v)
        b = fn.bilinear_form(op_1d, v, u)
        assert a == pytest.approx(b, rel=1e-12)

    def test_dominates_l2(self, op_1d, mesh_1d):
        ni, vol = mesh_1d.n_interior, mesh_1d.cell_volume
        for seed in range(5):
            u = random_grid_function(mesh_1d, 100 + seed)
            l2 = vol * float(u[:ni] @ u[:ni])
            assert fn.bilinear_form(op_1d, u, u) >= l2

    def test_stack_against_one_apply(self, op_1d, mesh_1d, apply_counter):
        rows = np.stack([random_grid_function(mesh_1d, 20 + k) for k in range(4)])
        v = random_grid_function(mesh_1d, 30)
        stacked = fn.bilinear_form(op_1d, rows, v), fn.seminorm_form(op_1d, rows, v)
        assert apply_counter == [(mesh_1d.n_total,)] * 2
        for got, form in zip(stacked, (fn.bilinear_form, fn.seminorm_form)):
            want = [form(op_1d, row, v) for row in rows]
            assert got.shape == (4,)
            np.testing.assert_allclose(got, want, rtol=1e-13)


class TestIdentities:
    @pytest.mark.parametrize("opname", ["op_1d", "op_2d"])
    def test_gauss_identity_random(self, opname, request):
        op = request.getfixturevalue(opname)
        for seed in range(10):
            u = random_grid_function(op.mesh, 200 + seed)
            v = random_grid_function(op.mesh, 250 + seed)
            resid, scale = fn.check_identities(op, np.stack([u, v]))[0]
            assert np.all(resid <= 1e-12 * scale)

    @pytest.mark.parametrize("opname", ["op_1d", "op_2d"])
    def test_green_identity_random(self, opname, request):
        op = request.getfixturevalue(opname)
        for seed in range(10):
            u = random_grid_function(op.mesh, 300 + seed)
            v = random_grid_function(op.mesh, 400 + seed)
            resid, scale = fn.check_identities(op, np.stack([u, v]))[1]
            assert resid <= 1e-12 * scale

    @pytest.mark.parametrize("k", [None, 1, 3], ids=["pair", "stack-1", "stack-3"])
    def test_one_apply_per_call(self, k, op_2d, apply_counter):
        # the Laplacian and the normal derivative are rows of one flux, so
        # one apply to the rows u0, v0, u1, v1, ... gives every term, the
        # scales included
        n = op_2d.n_total
        shape = (2, n) if k is None else (k, 2, n)
        uv = np.random.default_rng(5).standard_normal(shape)
        (g_res, g_scale), (r_res, r_scale) = fn.check_identities(op_2d, uv)
        assert g_res.shape == g_scale.shape == shape[:-1]
        assert r_res.shape == r_scale.shape == shape[:-2]
        assert np.all(g_res < g_scale) and np.all(r_res < r_scale)
        assert apply_counter == [(uv.size // n, n)]

    @pytest.mark.parametrize("shape", [(0,), (1, 0), (3, 0), (2, -1),
                                       (2, 2, 1), (4, 3, 0), (1, 1, 2, 0)])
    def test_rejects_other_shapes(self, shape, op_1d, apply_counter):
        # the last entry of each shape offsets the node count: anything but
        # one pair or a stack of pairs fails before the kernel is applied
        shape = shape[:-1] + (op_1d.n_total + shape[-1],)
        with pytest.raises(ValueError, match="size mismatch"):
            fn.check_identities(op_1d, np.ones(shape))
        assert not apply_counter

    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           k=st.integers(1, 5), constant_row=st.booleans())
    def test_stack_matches_rowwise(self, op, seed, k, constant_row):
        rng = np.random.default_rng(seed)
        uv = rng.standard_normal((k, 2, op.n_total))
        if constant_row:
            uv[0, 0] = 1.7  # exact zeros on both paths
        (g_res, g_scale), (r_res, r_scale) = fn.check_identities(op, uv)
        assert g_res.shape == g_scale.shape == (k, 2)
        assert r_res.shape == r_scale.shape == (k,)
        for i in range(k):
            (g_res_1, g_scale_1), (r_res_1, r_scale_1) = fn.check_identities(op, uv[i])
            for stacked, single, scale in ((g_res[i], g_res_1, g_scale_1),
                                           (g_scale[i], g_scale_1, g_scale_1),
                                           (r_res[i], r_res_1, r_scale_1),
                                           (r_scale[i], r_scale_1, r_scale_1)):
                assert np.all(np.abs(stacked - single) <= 1e-15 * scale)

        u = uv[:, 0]
        flux = fn.neumann_derivative(op, u)
        w = rng.standard_normal((k, op.n_interior))
        ext = fn.exterior_extension(op, w)
        # the roundoff scale of one flux value: its row sum times the largest
        # pair difference
        flux_scale = 2.0 * op.row_sums.max() / op.mesh.cell_volume
        for i in range(k):
            assert np.all(np.abs(flux[i] - fn.neumann_derivative(op, u[i]))
                          <= 1e-13 * flux_scale * np.max(np.abs(u[i])))
            assert np.all(np.abs(ext[i] - fn.exterior_extension(op, w[i]))
                          <= 1e-14 * np.max(np.abs(w[i])))

    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1),
           k=st.integers(1, 5))
    def test_shared_pass_matches_the_public_checks(self, op, seed, k):
        # one apply to the rows u0, v0, u1, v1, ... gives the Gauss terms of
        # every row and the Green terms of every pair that the public
        # operators, applied one function at a time, give
        uv = np.random.default_rng(seed).standard_normal((k, 2, op.n_total))
        (g_res, g_scale), (r_res, r_scale) = fn.check_identities(op, uv)
        assert g_res.shape == g_scale.shape == (k, 2)
        assert r_res.shape == r_scale.shape == (k,)
        ni, vol = op.n_interior, op.mesh.cell_volume

        def flux(w):
            return np.concatenate([fn.frac_laplacian(op, w),
                                   fn.neumann_derivative(op, w)])

        def pairing(a, f):
            return vol * float(a[:ni] @ f[:ni]) + vol * float(a[ni:] @ f[ni:])

        for i in range(k):
            for j in range(2):
                f = flux(uv[i, j])
                resid = abs(vol * f[:ni].sum() + vol * f[ni:].sum())
                scale = vol * np.abs(f[:ni]).sum() + vol * np.abs(f[ni:]).sum()
                assert abs(g_res[i, j] - resid) <= 1e-15 * scale
                assert abs(g_scale[i, j] - scale) <= 1e-13 * scale
            u, v = uv[i]
            fu = flux(u)
            resid = abs(fn.seminorm_form(op, u, v) - pairing(v, fu))
            scale = pairing(np.abs(v), np.abs(fu))
            assert abs(r_res[i] - resid) <= 1e-15 * scale
            assert abs(r_scale[i] - scale) <= 1e-13 * scale

    def test_pair_terms_match_the_formulas(self, op_2d):
        # vol-weighted sums over domain then collar, each pairwise summed,
        # of the fluxes of the rows u, v taken as one stack
        u = random_grid_function(op_2d.mesh, 7)
        v = random_grid_function(op_2d.mesh, 8)
        ni, vol = op_2d.n_interior, op_2d.mesh.cell_volume
        lap = _graph_laplacian_apply(op_2d, np.stack([u, v]))
        flux = lap / vol
        afl = np.abs(flux)
        semi = (_centered(u) * lap[1]).sum()
        rhs = vol * (v[:ni] * flux[0, :ni]).sum() + vol * (v[ni:] * flux[0, ni:]).sum()
        (g_res, g_scale), (r_res, r_scale) = fn.check_identities(op_2d, np.stack([u, v]))
        assert np.array_equal(
            g_res, np.abs(vol * flux[:, :ni].sum(1) + vol * flux[:, ni:].sum(1)))
        assert np.array_equal(g_scale, vol * afl[:, :ni].sum(1) + vol * afl[:, ni:].sum(1))
        assert r_res == abs(semi - rhs)
        assert r_scale == (vol * (np.abs(v[:ni]) * afl[0, :ni]).sum()
                           + vol * (np.abs(v[ni:]) * afl[0, ni:]).sum())

    def test_single_function_gives_float_with_unchanged_bits(self, op_2d):
        # the forms take one BLAS dot, as the tent thresholds read them
        u = random_grid_function(op_2d.mesh, 7)
        v = random_grid_function(op_2d.mesh, 8)
        ni, vol = op_2d.n_interior, op_2d.mesh.cell_volume
        semi = float(_centered(u) @ _graph_laplacian_apply(op_2d, v))
        got = fn.seminorm_form(op_2d, u, v)
        assert type(got) is float and got == semi
        form = fn.bilinear_form(op_2d, u, v)
        assert type(form) is float
        assert form == op_2d.eps ** (2.0 * op_2d.s) * semi + vol * float(u[:ni] @ v[:ni])

    def test_gauss_constant_exact_zero(self, op_1d, mesh_1d):
        c = np.full(mesh_1d.n_total, 1.3)
        for terms in fn.check_identities(op_1d, np.stack([c, c])):
            assert all(np.all(x == 0.0) for x in terms)

    def test_indicator_balances(self, op_1d, mesh_1d):
        u = np.zeros(mesh_1d.n_total)
        u[:mesh_1d.n_interior] = 1.0
        vol = mesh_1d.cell_volume
        a = vol * float(np.sum(fn.frac_laplacian(op_1d, u)))
        b = vol * float(np.sum(fn.neumann_derivative(op_1d, u)))
        assert a > 0.0 > b
        assert a == pytest.approx(-b, rel=1e-12)

    def test_green_with_constant_v_reduces_to_gauss(self, op_1d, mesh_1d):
        u = random_grid_function(mesh_1d, 17)
        v = np.ones(mesh_1d.n_total)
        resid, scale = fn.check_identities(op_1d, np.stack([u, v]))[1]
        assert resid <= 1e-12 * max(scale, 1.0)

    def test_seminorm_kernel_is_constants(self):
        # Second-smallest eigenvalue of the seminorm form is positive, so the
        # kernel is exactly the constants (small mesh only).
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.2, 2.0)
        op = fn.assemble(mesh, 0.25, 1.0)
        lap = np.diag(op.row_sums) - dense_weights(op)
        eigs = np.linalg.eigvalsh(lap)
        assert abs(eigs[0]) < 1e-12
        assert eigs[1] > 1e-8


class TestSobolevConstant:
    def test_refinement_stability(self):
        vals = []
        for h in (0.01, 0.005):
            mesh = fn.build_interval_mesh(-1.0, 1.0, h, 2.0)
            op = fn.assemble(mesh, 0.25, 1.0)
            vals.append(fn.estimate_sobolev_constant(op))
        assert vals[0] == pytest.approx(vals[1], rel=0.05)

    def test_scaled_embedding_inequality(self, op_1d, mesh_1d):
        s_h = fn.estimate_sobolev_constant(op_1d)
        ni, vol = mesh_1d.n_interior, mesh_1d.cell_volume
        qstar = 4.0  # 2N/(N-2s) at N=1, s=1/4
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.standard_normal(mesh_1d.n_total)
            lhs = float(np.sum(vol * np.abs(u[:ni]) ** qstar)) ** (2.0 / qstar)
            rhs = s_h**2 * op_1d.eps ** (-2.0 * op_1d.s) * fn.bilinear_form(op_1d, u, u)
            assert lhs <= rhs


# the module constant that caps each estimator's ascent
ITERATION_CAP = {"estimate_sobolev_constant": "SOBOLEV_MAX_ITER",
                 "estimate_embedding_constant": "EMBEDDING_MAX_ITER"}


@pytest.mark.parametrize("estimator", [fn.estimate_sobolev_constant,
                                       fn.estimate_embedding_constant])
def test_estimator_warns_at_iteration_cap(estimator, op_1d, monkeypatch):
    monkeypatch.setattr(operators, ITERATION_CAP[estimator.__name__], 3)
    with pytest.warns(RuntimeWarning, match="iteration cap of 3"):
        value = estimator(op_1d)
    assert np.isfinite(value) and value > 0.0


class TestReducedMatrix:
    @settings(max_examples=60, deadline=None)
    @given(op=small_operators(), seed=st.integers(0, 2**32 - 1))
    def test_eliminates_the_collar_exactly(self, op, seed):
        ni = op.n_interior
        m = _reduced_matrix(op)
        d = m @ np.ones(ni)
        assert np.array_equal(m, m.T)
        assert np.all(m >= 0.0)
        assert np.all(np.abs(d - op.row_sums[:ni]) <= 1e-14 * op.row_sums[:ni])

        rng = np.random.default_rng(seed)
        lift = fn.exterior_extension(op, rng.standard_normal(ni))
        reduced = float(_centered(lift[:ni]) @ graph_laplacian(m, d, lift[:ni]))
        form = fn.seminorm_form(op, lift, lift)
        assert abs(reduced - form) <= 1e-12 * form
        # the zero-flux collar values minimize the form
        other = lift.copy()
        other[ni:] += rng.standard_normal(op.n_total - ni)
        assert reduced <= fn.seminorm_form(op, other, other) * (1.0 + 1e-12)


    def test_formed_once_per_weight_set(self, op_1d):
        m = _reduced_matrix(op_1d)
        other = op_1d.with_eps(0.01)
        assert _reduced_matrix(other) is m and _reduced_matrix(op_1d) is m
        assert not m.flags.writeable
        # new weights start without one (M reads the collar row sums)
        fresh = dataclasses.replace(op_1d, row_sums=2.0 * op_1d.row_sums)
        assert not fresh.reduced
        assert not np.array_equal(_reduced_matrix(fresh), m)


class TestEmbeddingConstant:
    def test_converges_and_returns_the_full_form_quotient(self, op_2d,
                                                          monkeypatch):
        maximizers = []
        ascend = operators._ascend

        def recorded(*args):
            val, u = ascend(*args)
            maximizers.append((val, u))
            return val, u

        monkeypatch.setattr(operators, "_ascend", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fn.estimate_embedding_constant(op_2d)
        (reduced_quotient, u), = maximizers
        mesh = op_2d.mesh
        qstar = operators.critical_exponent(mesh.dim, op_2d.s)
        lq_sq = float(np.sum(mesh.cell_volume * np.abs(u) ** qstar)) ** (2.0 / qstar)
        lift = fn.exterior_extension(op_2d, u)
        full_quotient = (op_2d.eps ** (2.0 * op_2d.s) * lq_sq
                         / fn.bilinear_form(op_2d, lift, lift))
        assert value**2 == pytest.approx(full_quotient, rel=1e-12)
        assert value**2 == pytest.approx(reduced_quotient, rel=1e-12)

    def test_start_where_the_bump_vanishes(self):
        # both interior nodes at the largest radius: the bump start is zero;
        # the estimator starts from a constant and returns a finite value
        mesh = fn.build_interval_mesh(-0.5, 0.5, 0.5, 1.5)
        op = fn.assemble(mesh, 0.25, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fn.estimate_embedding_constant(op)
        ones = np.ones(mesh.n_total)
        q = operators.critical_exponent(1, 0.25)
        const_quotient = (op.eps ** (2.0 * op.s)
                          * operators._lq_norm(ones[:2], mesh.cell_volume, q) ** 2
                          / fn.bilinear_form(op, ones, ones))
        assert np.isfinite(value)
        assert value**2 >= const_quotient * (1.0 - 1e-12)

    @pytest.mark.parametrize("mesh, s", [
        (lambda: fn.build_box_mesh(((0.0, 0.29433414353271564),
                                    (0.0, 1.1773365741308626)),
                                   0.29433414353271564, 1.46964370660402),
         0.5643768476567849),
        (lambda: fn.build_interval_mesh(-1.409533450875717, 2.371668404244068,
                                        0.4201335394577539, 5.466084125156978),
         0.19514725883164763),
    ], ids=["box", "interval"])
    def test_stalls_at_the_cap_near_its_limit(self, mesh, s, monkeypatch):
        # two small operators on which the ascent creeps up to its
        # 2,000-iteration cap: the cap warns, and the capped value is within
        # 1e-6 of a 40,000-iteration run, which stops on its own test
        op = fn.assemble(mesh(), s, 1.0)
        with pytest.warns(RuntimeWarning, match="iteration cap of 2000"):
            capped = fn.estimate_embedding_constant(op)
        monkeypatch.setattr(operators, "EMBEDDING_MAX_ITER", 40_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            converged = fn.estimate_embedding_constant(op)
        assert capped <= converged
        assert capped == pytest.approx(converged, rel=1e-6)

    def test_witnesses_probe_functions(self, solved_problem):
        # the measured constant makes the scaled embedding inequality hold
        # for the function family that matters: solutions, bumps, constants
        spec = solved_problem["spec"]
        op = spec.op
        mesh = spec.mesh
        ni, vol = mesh.n_interior, mesh.cell_volume
        s_emb = solved_problem["embedding"]
        qstar = spec.two_star
        probes = [
            solved_problem["report"].u,
            solved_problem["phi"],
            np.ones(mesh.n_total),
            fn.exterior_extension(op, np.abs(mesh.interior_nodes[:, 0])),
        ]
        for u in probes:
            lhs = float(np.sum(vol * np.abs(u[:ni]) ** qstar)) ** (2.0 / qstar)
            rhs = s_emb**2 * op.eps ** (-2.0 * op.s) * fn.bilinear_form(op, u, u)
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_dominates_constant_function_quotient(self, solved_problem):
        spec = solved_problem["spec"]
        measure = spec.mesh.domain_measure()
        const_quotient = (spec.op.eps ** (2.0 * spec.op.s)
                          * measure ** (2.0 / spec.two_star - 1.0))
        assert solved_problem["embedding"] ** 2 >= const_quotient * (1.0 - 1e-12)


class TestClosedFormLineSearch:
    """The ascent prices its trial steps with the parabola of ``B``."""

    @pytest.mark.parametrize("case", ["op_1d", "op_2d", "quick_1d@0.3",
                                      "quick_1d@0.15", "reference_1d@0.05",
                                      "reference_1d@0.4", "centred_box"])
    def test_matches_the_per_trial_oracle(self, case, embedding_operators):
        op = embedding_operators[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fn.estimate_embedding_constant(op)
        assert value == pytest.approx(per_trial_embedding_constant(op),
                                      rel=1e-12)

    def test_sobolev_matches_the_per_trial_oracle(self, op_1d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fn.estimate_sobolev_constant(op_1d)
        assert value == pytest.approx(per_trial_sobolev_constant(op_1d),
                                      rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(op=small_operators(), capped=st.just(False))
    # a draw on which the ascent stops at its iteration cap, every run
    @example(op=fn.assemble(fn.build_interval_mesh(0.0, 1.0, 0.1, 1.05), 0.05, 1.0),
             capped=True)
    def test_value_is_the_lifted_quotient_and_ascends(self, op, capped):
        maximizers = []
        ascend = operators._ascend

        def recorded(*args):
            maximizers.append(ascend(*args))
            return maximizers[-1]

        with pytest.MonkeyPatch.context() as mp, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mp.setattr(operators, "_ascend", recorded)
            value = fn.estimate_embedding_constant(op)
        cap = ("embedding quotient maximization hit the iteration cap of "
               f"{operators.EMBEDDING_MAX_ITER}; returning the last iterate's "
               "estimate")
        messages = [str(w.message) for w in caught]
        # other draws may stop at the cap too; the example always does
        assert messages in (([cap],) if capped else ([], [cap]))
        assert all(w.category is RuntimeWarning for w in caught)
        (val, u), = maximizers
        vol, e2s = op.mesh.cell_volume, op.eps ** (2.0 * op.s)
        q = operators.critical_exponent(op.mesh.dim, op.s)

        def lifted_quotient(v):
            lift = fn.exterior_extension(op, v)
            return (e2s * operators._lq_norm(v, vol, q) ** 2
                    / fn.bilinear_form(op, lift, lift))

        assert value**2 == pytest.approx(lifted_quotient(u), rel=1e-12)
        assert val == pytest.approx(value**2, rel=1e-12)
        r = np.linalg.norm(op.mesh.interior_nodes, axis=1)
        start = 1.0 + np.cos(np.pi * r / max(r.max(), 1e-300))
        if not start.any():
            start += 1.0
        assert value**2 >= lifted_quotient(start) * (1.0 - 1e-12)

    @pytest.mark.parametrize("q", [2.0, 2.5, 4.0, 626.0])
    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1.0, 1e300])
    def test_lq_norm_has_the_bits_of_the_formula(self, q, scale):
        # the in-place norm against the expression it replaced
        values = scale * np.random.default_rng(7).standard_normal(300)
        values[::7] = 0.0
        m = float(np.max(np.abs(values)))
        want = (0.0 if m == 0.0 else
                m * float(np.sum(0.01 * (np.abs(values) / m) ** q)) ** (1.0 / q))
        assert operators._lq_norm(values, 0.01, q) == want

    @pytest.mark.parametrize("estimator", [fn.estimate_sobolev_constant,
                                           fn.estimate_embedding_constant])
    @pytest.mark.parametrize("max_iter", [3, 10])
    def test_one_form_apply_per_iteration(self, estimator, max_iter, op_1d,
                                          monkeypatch):
        applies = []
        ascend = operators._ascend

        def counted(apply_b, *rest):
            def apply(v):
                applies.append(v.shape)
                return apply_b(v)
            return ascend(apply, *rest)

        monkeypatch.setattr(operators, "_ascend", counted)
        monkeypatch.setattr(operators, ITERATION_CAP[estimator.__name__], max_iter)
        with pytest.warns(RuntimeWarning, match=f"cap of {max_iter}"):
            estimator(op_1d)
        # the start, then one B g per iteration, whatever the trials
        assert len(applies) == max_iter + 1
        assert set(applies) == {(op_1d.n_interior,)}


class TestScalingIdentity:
    def test_cosine_profile(self):
        eps = 0.5
        h = 0.01
        mesh = fn.build_interval_mesh(-1.0, 1.0, h, 2.0)
        scaled = fn.build_interval_mesh(-1.0 / eps, 1.0 / eps, h / eps, 2.0 / eps)
        resid = fn.verify_scaling_identity(mesh, scaled, 0.25, eps,
                                           lambda x: np.cos(np.pi * x[:, 0]))
        # the scaled mesh is the exact dilation: the identity holds to roundoff
        assert resid < 1e-13

    def test_constant_profile_exact(self):
        eps = 0.5
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.02, 2.0)
        scaled = fn.build_interval_mesh(-2.0, 2.0, 0.04, 4.0)
        resid = fn.verify_scaling_identity(mesh, scaled, 0.25, eps,
                                           lambda x: np.ones(x.shape[0]))
        assert resid < 1e-13

    def test_identity_scale_one(self):
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.02, 2.0)
        resid = fn.verify_scaling_identity(mesh, mesh, 0.25, 1.0,
                                           lambda x: np.sin(x[:, 0]))
        assert resid < 1e-13
