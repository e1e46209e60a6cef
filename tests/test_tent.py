import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fracneumann as fn
from fracneumann import tent as tent_module
from fracneumann.tent import unit_ball_volume

from conftest import energy_scale, small_problems


def tent_mass_oracle(dim, q):
    """Adaptive quadrature of dim * omega_dim * int_0^1 (1-r)^q r^(dim-1) dr."""
    quad = pytest.importorskip("scipy.integrate").quad
    val, err = quad(lambda r: (1.0 - r) ** q * r ** (dim - 1), 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13, limit=500)
    assert err < 1e-12
    return dim * unit_ball_volume(dim) * val


class TestTentFunction:
    def test_peak_value(self):
        # mesh with an odd cell count puts a node at the origin
        mesh = fn.build_interval_mesh(-1.0, 1.0, 2.0 / 201.0, 4.0)
        phi = fn.phi_eps(mesh, 0.5)
        assert phi.max() == pytest.approx(2.0, rel=1e-12)

    def test_support(self, mesh_1d):
        phi = fn.phi_eps(mesh_1d, 0.3)
        r = np.linalg.norm(mesh_1d.nodes, axis=1)
        assert np.all(phi[r >= 0.3] == 0.0)
        assert np.all(phi[mesh_1d.n_interior:] == 0.0)
        assert np.all(phi >= 0.0)

    def test_pointwise_formula(self):
        mesh = fn.build_interval_mesh(-1.0, 1.0, 2.0 / 201.0, 4.0)
        eps = 0.5
        phi = fn.phi_eps(mesh, eps)
        i = int(np.argmin(np.abs(mesh.interior_nodes.ravel() - 0.25)))
        x = float(mesh.interior_nodes.ravel()[i])
        assert phi[i] == pytest.approx(eps**-1 * (1.0 - abs(x) / eps), rel=1e-12)

    def test_eps_too_large(self, mesh_1d):
        with pytest.raises(ValueError, match="too large"):
            fn.phi_eps(mesh_1d, 1.5)

    def test_domain_must_contain_origin(self):
        mesh = fn.build_interval_mesh(1.0, 2.0, 0.1, 2.0)
        with pytest.raises(ValueError, match="origin"):
            fn.phi_eps(mesh, 0.1)


class TestMassConstants:
    def test_exact_values(self):
        assert fn.K_q(1, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert fn.K_q(2, 2.0) == pytest.approx(np.pi / 6.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 3.0, 4.0])
    def test_against_quadrature_oracle(self, dim, q):
        assert fn.K_q(dim, q) == pytest.approx(tent_mass_oracle(dim, q), abs=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 2.0, 2.5, 7.3, 30.0, 100.0])
    def test_against_scipy_beta(self, dim, q):
        special = pytest.importorskip("scipy.special")
        want = dim * np.pi ** (dim / 2.0) / special.gamma(dim / 2.0 + 1.0) \
            * special.beta(dim, q + 1.0)
        assert fn.K_q(dim, q) == pytest.approx(want, rel=1e-12)

    def test_exact_where_gamma_overflows(self):
        # Gamma(627) overflows a double; the finite product does not
        assert fn.K_q(1, 626.0) == pytest.approx(2.0 / 627.0, rel=1e-15)

    def test_unit_ball_volume(self):
        # exactly 2 in 1D, so K_q(1, q) = 2 B(1, q+1) adds no rounding
        assert unit_ball_volume(1) == 2.0
        assert unit_ball_volume(2) == pytest.approx(np.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-15)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError, match="q > 0"):
            fn.K_q(1, 0.0)

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_discrete_tent_mass(self, q):
        # sum of vol * phi^q tracks K_q eps^((1-q)N) to O(h/eps)
        eps, h = 0.1, 0.005
        mesh = fn.build_interval_mesh(-1.0, 1.0, h, 2.0)
        phi = fn.phi_eps(mesh, eps)
        got = float(np.sum(mesh.cell_volume * phi[:mesh.n_interior] ** q))
        want = fn.K_q(1, q) * eps ** (1.0 - q)
        assert abs(got - want) <= 10.0 * (h / eps) * want


class TestSigma:
    def test_closed_form_1d(self):
        assert fn.solve_sigma(1) == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-10)

    def test_pinned_values(self):
        assert fn.solve_sigma(1) == 0.7937005259841499
        assert fn.solve_sigma(2) == 0.6142724318674482

    def test_bisection_stops_at_its_tolerance(self, monkeypatch):
        monkeypatch.setattr(tent_module, "SIGMA_TOL", 1e-4)
        sigma = fn.solve_sigma(1)
        assert sigma != 0.7937005259841499
        assert abs(sigma - 2.0 ** (-1.0 / 3.0)) <= 1e-4

    def test_unique_sign_change_2d(self):
        from fracneumann.tent import _sigma_gap

        grid = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        vals = np.array([_sigma_gap(x, 2) for x in grid])
        changes = int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))
        assert changes == 1

    @pytest.mark.parametrize("dim", [1, 2])
    def test_root_in_unit_interval(self, dim):
        sigma = fn.solve_sigma(dim)
        assert 0.0 < sigma < 1.0

    def test_half_mass_certificate(self):
        # superlevel set at the computed sigma carries half the squared mass
        eps, h = 0.8, 0.002
        mesh = fn.build_interval_mesh(-1.0, 1.0, h, 2.0)
        phi = fn.phi_eps(mesh, eps)[:mesh.n_interior]
        sigma = fn.solve_sigma(1)
        above = phi > sigma * eps ** (-1.0)
        ratio = float(np.sum(phi[above] ** 2) / np.sum(phi**2))
        assert ratio == pytest.approx(0.5, abs=5.0 * h)


@pytest.fixture(scope="module")
def tent_scene():
    mesh = fn.build_interval_mesh(-1.0, 1.0, 0.005, 2.0)
    op = fn.assemble(mesh, 0.25, 0.1)
    spec = fn.ProblemSpec(mesh, op, fn.power_nonlinearity(3.0))
    phi = fn.phi_eps(mesh, 0.1)
    return spec, phi


class TestRayEnergy:
    def test_zero_at_origin(self, tent_scene):
        spec, phi = tent_scene
        assert fn.g_of_t(spec, phi, 0.0) == 0.0

    def test_sign_pattern(self, tent_scene):
        spec, phi = tent_scene
        ts = np.geomspace(1e-4, 1e4, 120)
        vals = np.array([fn.g_of_t(spec, phi, t) for t in ts])
        assert np.any(vals > 0.0)
        assert np.any(vals < 0.0)
        assert vals[0] > 0.0 or vals[1] > 0.0  # positive near zero
        assert vals[-1] < 0.0                  # negative for large t

    def test_quadratic_limit(self, tent_scene):
        spec, phi = tent_scene
        t = 1e-6
        want = 0.5 * fn.bilinear_form(spec.op, phi, phi)
        assert fn.g_of_t(spec, phi, t) / t**2 == pytest.approx(want, rel=0.01)

    def test_derivative_matches_difference(self, tent_scene):
        spec, phi = tent_scene
        for t in (0.5, 1.0, 2.0):
            d = 1e-6
            fd = (fn.g_of_t(spec, phi, t + d) - fn.g_of_t(spec, phi, t - d)) / (2 * d)
            assert fn.g_prime(spec, phi, t) == pytest.approx(fd, rel=1e-6)


# Zero or at least 1e-6: below about 1e-154, t**2 is subnormal and relative
# error bounds stop meaning anything.
ray_parameters = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))


class TestClosedFormRay:
    @settings(max_examples=60, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           ts=st.lists(ray_parameters, min_size=1, max_size=6))
    def test_matches_energy_along_the_ray(self, spec, seed, ts):
        phi = np.random.default_rng(seed).standard_normal(spec.mesh.n_total)
        got = fn.g_of_t(spec, phi, np.array(ts))
        assert got.shape == (len(ts),)
        for t, g in zip(ts, got):
            want = fn.energy(spec, t * phi)
            assert abs(g - want) <= 1e-12 * energy_scale(spec, t * phi)

    @settings(max_examples=60, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           ts=st.lists(ray_parameters, min_size=1, max_size=6))
    def test_array_derivative_matches_scalar_calls(self, spec, seed, ts):
        phi = np.random.default_rng(seed).standard_normal(spec.mesh.n_total)
        got = fn.g_prime(spec, phi, np.array(ts))
        phi_i = phi[:spec.mesh.n_interior]
        norm_sq = fn.bilinear_form(spec.op, phi, phi)
        for t, g in zip(ts, got):
            # a gemv and a dot sum in different orders: not bit-equal
            fphi = np.abs(fn.f_eval(spec.nonlinearity, t * phi_i) * phi_i)
            scale = t * norm_sq + spec.mesh.cell_volume * float(np.sum(fphi))
            assert abs(g - fn.g_prime(spec, phi, t)) <= 1e-13 * scale

    @settings(max_examples=20, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           t=ray_parameters)
    def test_scalar_in_float_out(self, spec, seed, t):
        phi = np.random.default_rng(seed).standard_normal(spec.mesh.n_total)
        assert type(fn.g_of_t(spec, phi, t)) is float
        assert type(fn.g_prime(spec, phi, t)) is float
        assert fn.g_of_t(spec, phi, 0.0) == 0.0


class TestThresholds:
    def test_ordering_and_certificates(self, tent_scene):
        spec, phi = tent_scene
        tent = fn.thresholds(spec, phi)
        assert 0.0 < tent.t1 < tent.t2
        assert tent.scan_ok, tent.failures
        assert tent.g_max <= tent.bound

    def test_three_scalar_ray_calls(self, tent_scene, monkeypatch):
        # g at the critical point, then g' beyond t1 and g at t2
        spec, phi = tent_scene
        sizes = []

        def sized(ray):
            def recorded(spec, phi, t, **kwargs):
                sizes.append(np.size(t))
                return ray(spec, phi, t, **kwargs)
            return recorded

        monkeypatch.setattr(tent_module, "g_of_t", sized(fn.g_of_t))
        monkeypatch.setattr(tent_module, "g_prime", sized(fn.g_prime))
        assert fn.thresholds(spec, phi).t2 > 0.0
        assert sizes == [1, 1, 1]

    def test_kernel_applied_once(self, tent_scene, apply_counter):
        # [phi]^2 once; ||phi||^2 and all three ray calls reuse it
        spec, phi = tent_scene
        fn.thresholds(spec, phi)
        assert len(apply_counter) == 1

    def test_given_terms_keep_the_bits(self, tent_scene):
        spec, phi = tent_scene
        ts = np.geomspace(1e-3, 1e3, 50)
        semi = spec.eps ** (2.0 * spec.s) * fn.seminorm_form(spec.op, phi, phi)
        norm_sq = fn.bilinear_form(spec.op, phi, phi)
        assert np.array_equal(fn.g_of_t(spec, phi, ts, semi=semi),
                              fn.g_of_t(spec, phi, ts))
        assert np.array_equal(fn.g_prime(spec, phi, ts, norm_sq=norm_sq),
                              fn.g_prime(spec, phi, ts))
        assert fn.thresholds(spec, phi).c_est == spec.eps**spec.dim * norm_sq

    @settings(max_examples=60, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1))
    def test_g_max_is_the_ray_maximum(self, spec, seed):
        # a positive bump on the interior, zero on the collar
        ni, p = spec.mesh.n_interior, spec.nonlinearity.p
        phi = np.zeros(spec.mesh.n_total)
        phi[:ni] = np.random.default_rng(seed).uniform(0.5, 1.5, ni)
        g_max = fn.thresholds(spec, phi).g_max
        # six decades around the ray's one critical point, found from
        # g'(t) = t ||phi||^2 - t^(p-1) p integral F(phi) in log space
        big_f = spec.mesh.cell_volume * float(np.sum(fn.F_eval(spec.nonlinearity, phi[:ni])))
        log_t = np.log(fn.bilinear_form(spec.op, phi, phi) / (p * big_f)) / (p - 2.0)
        assume(abs(log_t) < 300.0)
        ts = np.exp(log_t) * np.geomspace(1e-3, 1e3, 4001)
        vals = fn.g_of_t(spec, phi, ts)
        k = int(np.argmax(vals))
        scale = energy_scale(spec, ts[k] * phi)
        assert g_max >= vals[k] - 1e-12 * scale
        assert g_max <= vals[k] + 1e-4 * scale

    @pytest.mark.parametrize("p", [2.5, 3.0, 3.5])
    @pytest.mark.parametrize("eps", [0.1, 0.4])
    def test_passed_signs_hold_far_beyond_t2(self, tent_scene, p, eps):
        spec, _ = tent_scene
        spec = fn.ProblemSpec(spec.mesh, spec.op.with_eps(eps), fn.power_nonlinearity(p))
        phi = fn.phi_eps(spec.mesh, eps)
        tent = fn.thresholds(spec, phi)
        assert tent.scan_ok, tent.failures
        ts = np.geomspace(1.01 * tent.t1, 1e6 * tent.t2, 2000)
        assert np.all(fn.g_prime(spec, phi, ts) < 0.0)
        ts = np.geomspace(tent.t2, 1e6 * tent.t2, 2000)
        assert np.all(fn.g_of_t(spec, phi, ts) < 0.0)

    def test_nonpositive_tent_fails_without_a_maximum(self, tent_scene):
        # integral F(-phi) = 0: g(t) = t^2 ||phi||^2 / 2 grows without bound
        spec, phi = tent_scene
        tent = fn.thresholds(spec, -phi)
        assert tent.g_max == np.inf and not tent.scan_ok
        assert dict(tent.failures) == {"g_prime_nonnegative": 1.01 * tent.t1,
                                       "g_nonnegative": tent.t2,
                                       "g_max_exceeds_bound": np.inf}

    def test_overflowing_ray_fails_its_sign_check(self):
        # at p = 2.005, t2 ~ 2e167 and g(t2) is inf - inf: a nan, which
        # must not pass for a negative energy
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.1, 2.5)
        spec = fn.ProblemSpec(mesh, fn.assemble(mesh, 0.25, 0.5),
                              fn.power_nonlinearity(2.005))
        phi = fn.phi_eps(mesh, 0.5)
        with np.errstate(invalid="ignore", over="ignore"):
            tent = fn.thresholds(spec, phi)
            assert np.isnan(fn.g_of_t(spec, phi, tent.t2))
        assert not tent.scan_ok
        assert tent.failures == [("g_nonnegative", tent.t2)]

    def test_tent_energy_scaling(self):
        # eps^N ||phi_eps||^2 stays within a factor 2 between consecutive
        # halvings and a factor 4 across the sweep
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.005, 2.0)
        c_vals = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            op = fn.assemble(mesh, 0.25, eps)
            phi = fn.phi_eps(mesh, eps)
            c_vals.append(eps * fn.bilinear_form(op, phi, phi))
        c_vals = np.array(c_vals)
        assert np.all(c_vals[:-1] / c_vals[1:] <= 2.0)
        assert np.all(c_vals[1:] / c_vals[:-1] <= 2.0)
        assert c_vals.max() / c_vals.min() <= 4.0
