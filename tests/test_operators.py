import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import fracneumann as fn
from fracneumann.operators import (_graph_laplacian_apply, divergence_scale,
                                   ibp_scale)

from conftest import random_grid_function


def truncated_pv_integral(u, xstar, lo, hi, s, c_ns):
    """Independent adaptive-quadrature oracle of the principal-value integral
    ``c_ns * int_(lo,hi) (u(x*) - u(y)) |x* - y|^(-1-2s) dy``.

    The substitution ``y = x* +/- rho^2`` removes the endpoint singularity,
    leaving a smooth integrand for the adaptive rule.
    """
    def one_side(extent, sign):
        def integrand(rho):
            return (u(xstar) - u(xstar + sign * rho * rho)) \
                * rho ** (-2.0 * (1.0 + 2.0 * s)) * 2.0 * rho
        val, err = quad(integrand, 0.0, np.sqrt(extent), limit=400)
        assert err < 1e-8 * max(1.0, abs(val))
        return val

    return c_ns * (one_side(xstar - lo, -1.0) + one_side(hi - xstar, +1.0))


class TestAssembly:
    def test_weights_positive_and_symmetric(self, op_1d, mesh_1d):
        ni = mesh_1d.n_interior
        w_int = op_1d.weights[:ni, :ni]
        off_diag = w_int[~np.eye(ni, dtype=bool)]
        assert np.all(off_diag > 0.0)
        assert np.array_equal(op_1d.weights, op_1d.weights.T)

    def test_no_exterior_exterior_weights(self, op_1d, mesh_1d):
        ni = mesh_1d.n_interior
        assert np.all(op_1d.weights[ni:, ni:] == 0.0)

    def test_bad_order_rejected(self, mesh_1d):
        with pytest.raises(ValueError, match="0 < s < 1"):
            fn.assemble(mesh_1d, s=1.2, eps=1.0)

    def test_supercritical_dimension_rejected(self, mesh_1d):
        with pytest.raises(ValueError, match="dim > 2 s"):
            fn.assemble(mesh_1d, s=0.6, eps=1.0)

    def test_deterministic(self, mesh_1d):
        a = fn.assemble(mesh_1d, 0.25, 0.7)
        b = fn.assemble(mesh_1d, 0.25, 0.7)
        assert np.array_equal(a.weights, b.weights)

    def test_with_eps_shares_weights(self, op_1d):
        other = op_1d.with_eps(0.05)
        assert other.weights is op_1d.weights
        assert other.eps == 0.05
        with pytest.raises(ValueError, match="positive"):
            op_1d.with_eps(-1.0)


@st.composite
def small_operators(draw):
    """Dense operators on small random 1D and 2D meshes, random order s."""
    h = draw(st.floats(0.1, 0.5))
    if draw(st.booleans()):
        a = draw(st.floats(-2.0, 0.0))
        length = draw(st.integers(2, 12)) * h
        mesh = fn.build_interval_mesh(a, a + length, h,
                                      draw(st.floats(1.05, 2.0)) * length)
        s = draw(st.floats(0.05, 0.45))
    else:
        bx, by = draw(st.integers(1, 4)) * h, draw(st.integers(1, 4)) * h
        mesh = fn.build_box_mesh(((0.0, bx), (0.0, by)), h,
                                 draw(st.floats(1.05, 1.5)) * np.hypot(bx, by))
        s = draw(st.floats(0.05, 0.95))
    return fn.assemble(mesh, s, 1.0)


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
        pairwise = np.einsum("ij,kij->ki", op.weights, diff)
        scale = np.einsum("ij,kij->ki", op.weights, np.abs(diff))
        tol = 1e-12 * scale.max(axis=1, keepdims=True)
        assert batched.shape == rows.shape
        assert np.all(np.abs(batched - rowwise) <= tol)
        assert np.all(np.abs(batched - pairwise) <= tol)

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


class TestIdentities:
    @pytest.mark.parametrize("opname", ["op_1d", "op_2d"])
    def test_gauss_identity_random(self, opname, request):
        op = request.getfixturevalue(opname)
        for seed in range(10):
            u = random_grid_function(op.mesh, 200 + seed)
            resid = fn.check_divergence(op, u)
            assert resid <= 1e-12 * divergence_scale(op, u)

    @pytest.mark.parametrize("opname", ["op_1d", "op_2d"])
    def test_green_identity_random(self, opname, request):
        op = request.getfixturevalue(opname)
        for seed in range(10):
            u = random_grid_function(op.mesh, 300 + seed)
            v = random_grid_function(op.mesh, 400 + seed)
            resid = fn.check_integration_by_parts(op, u, v)
            assert resid <= 1e-12 * ibp_scale(op, u, v)

    def test_gauss_constant_exact_zero(self, op_1d, mesh_1d):
        c = np.full(mesh_1d.n_total, 1.3)
        assert fn.check_divergence(op_1d, c) == 0.0

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
        resid = fn.check_integration_by_parts(op_1d, u, v)
        assert resid <= 1e-12 * max(ibp_scale(op_1d, u, v), 1.0)

    def test_seminorm_kernel_is_constants(self):
        # Second-smallest eigenvalue of the seminorm form is positive, so the
        # kernel is exactly the constants (small mesh only).
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.2, 2.0)
        op = fn.assemble(mesh, 0.25, 1.0)
        lap = np.diag(op.row_sums) - op.weights
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


@pytest.mark.parametrize("estimator", [fn.estimate_sobolev_constant,
                                       fn.estimate_embedding_constant])
def test_estimator_warns_at_iteration_cap(estimator, op_1d):
    with pytest.warns(RuntimeWarning, match="iteration cap of 3"):
        value = estimator(op_1d, max_iter=3)
    assert np.isfinite(value) and value > 0.0


class TestEmbeddingConstant:
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


class TestScalingIdentity:
    def test_cosine_profile(self):
        eps = 0.5
        h = 0.01
        mesh = fn.build_interval_mesh(-1.0, 1.0, h, 2.0)
        scaled = fn.build_interval_mesh(-1.0 / eps, 1.0 / eps, h / eps, 2.0 / eps)
        resid = fn.verify_scaling_identity(mesh, scaled, 0.25, eps,
                                           lambda x: np.cos(np.pi * x[:, 0]))
        assert resid <= 5.0 * h

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
