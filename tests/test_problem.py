import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fracneumann as fn
from fracneumann.problem import _bisect, fprime_eval

from conftest import energy_scale, random_grid_function, small_problems


def central_difference_derivative(spec, u, v, delta):
    """Independent oracle for the directional derivative of the energy."""
    return (fn.energy(spec, u + delta * v) - fn.energy(spec, u - delta * v)) \
        / (2.0 * delta)


class TestNonlinearityValues:
    def test_vanishes_on_negatives(self):
        nl = fn.power_nonlinearity(3.0)
        assert fn.f_eval(nl, -3.0) == 0.0
        assert fn.F_eval(nl, -3.0) == 0.0

    def test_cubic_values(self):
        nl = fn.power_nonlinearity(3.0)
        assert fn.f_eval(nl, 2.0) == pytest.approx(4.0)
        assert fn.F_eval(nl, 2.0) == pytest.approx(8.0 / 3.0)

    def test_growth_bound_sweep(self):
        nl = fn.power_nonlinearity(3.0)
        t = np.logspace(-6, 6, 10_000)
        assert np.array_equal(fn.f_eval(nl, t), t ** (nl.p - 1.0))

    def test_primitive_consistency(self):
        # F' = f by quadrature on a few random intervals
        nl = fn.power_nonlinearity(2.7)
        for t in (0.3, 1.0, 4.2):
            d = 1e-6
            deriv = (fn.F_eval(nl, t + d) - fn.F_eval(nl, t - d)) / (2 * d)
            assert deriv == pytest.approx(fn.f_eval(nl, t), rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(2.2, 5.0),
           t=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
    def test_power_primitive_matches_pow(self, p, t):
        # F(t) = t * t**(p-1) / p agrees with the one-pow form tp**p / p
        nl = fn.power_nonlinearity(p)
        t = np.array(t)
        tp = np.maximum(t, 0.0)
        want = tp**p / p
        got = fn.F_eval(nl, t)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))
        assert np.all(got[t <= 0.0] == 0.0)
        assert fn.F_eval(nl, 0.0) == 0.0

    def test_fprime(self):
        nl = fn.power_nonlinearity(3.0)
        assert fprime_eval(nl, 2.0) == pytest.approx(4.0)
        assert fprime_eval(nl, -1.0) == 0.0


class TestHypotheses:
    def test_cubic_passes(self):
        nl = fn.power_nonlinearity(3.0)
        report = fn.check_hypotheses(nl)
        assert report.ok
        assert report.fixed_points == pytest.approx([1.0], abs=1e-10)
        assert report.alpha == pytest.approx(1.0 / 6.0, rel=1e-10)

    def test_theta_equality_for_power(self):
        # the superlinearity constant theta is p: p F(t) = t f(t)
        nl = fn.power_nonlinearity(3.0)
        t = np.linspace(0.1, 50.0, 100)
        np.testing.assert_allclose(nl.p * fn.F_eval(nl, t),
                                   t * fn.f_eval(nl, t), rtol=1e-13)

    def test_shallow_power_passes(self):
        # slow superlinear growth still registers as superlinear
        report = fn.check_hypotheses(fn.power_nonlinearity(2.2))
        assert report.superlinear_ok
        assert report.ok

    def test_bisection_compares_signs(self):
        # g(lo) * g(mid) underflows to 0 here; the sign test still halves
        # toward the root
        root = _bisect(lambda t: (t - 0.3) * 1e-300, 0.0, 1.0, 1e-14)
        assert root == pytest.approx(0.3, abs=1e-14)


class TestProblemSpec:
    def test_two_star(self, spec_1d):
        assert spec_1d.two_star == pytest.approx(4.0)

    def test_subcritical_exponent_enforced(self, mesh_1d, op_1d):
        with pytest.raises(ValueError, match="2 < p < 2"):
            fn.ProblemSpec(mesh_1d, op_1d, fn.power_nonlinearity(4.5))

    def test_constant_energy_value(self, spec_1d):
        # (1/2 - 1/3) * |domain| with the cubic model, any eps
        assert spec_1d.constant_energy(1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


@st.composite
def problems_and_functions(draw):
    """A :func:`small_problems` spec and a grid function on its mesh: a
    Gaussian draw, its absolute value, or a one-hot interior spike plus a
    1e-3 draw, where the floor's inequalities are nearly tight."""
    spec = draw(small_problems())
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        spec.mesh.n_total)
    kind = draw(st.sampled_from(["normal", "positive", "spike"]))
    if kind == "positive":
        u = np.abs(u)
    elif kind == "spike":
        u *= 1e-3
        u[draw(st.integers(0, spec.mesh.n_interior - 1))] += 1.0
    return spec, u


class TestLevelFloor:
    def test_value(self, spec_1d):
        # (1/2 - 1/3) * h with the cubic model, any eps
        assert spec_1d.level_floor == (0.5 - 1.0 / 3.0) * 0.01

    @settings(max_examples=200, deadline=None)
    @given(case=problems_and_functions(), stretch=st.floats(1e-4, 100.0))
    def test_negative_energy_lies_beyond_the_sphere(self, case, stretch):
        # the ray energy t^2 ||u||^2/2 - t^p integral F(u) is negative past
        # its zero t0
        spec, u = case
        p, vol = spec.nonlinearity.p, spec.mesh.cell_volume
        big_f = vol * float(np.sum(fn.F_eval(spec.nonlinearity, u[:spec.mesh.n_interior])))
        assume(big_f > 0.0)
        log_t0 = np.log(p * fn.bilinear_form(spec.op, u, u) / (2.0 * big_f)) / (p - 2.0)
        # for p near 2, t0 can pass the range where |w|^2 is finite
        assume(log_t0 + np.log((1.0 + stretch) * np.max(np.abs(u))) < np.log(1e100))
        w = (1.0 + stretch) * np.exp(log_t0) * u
        assert fn.energy(spec, w) < 0.0
        assert fn.bilinear_form(spec.op, w, w) > vol * (p / 2.0) ** (2.0 / (p - 2.0))

    @settings(max_examples=200, deadline=None)
    @given(case=problems_and_functions())
    def test_energy_on_the_sphere_clears_the_floor(self, case):
        spec, u = case
        vol = spec.mesh.cell_volume
        w = u * (vol / fn.bilinear_form(spec.op, u, u)) ** 0.5
        assert fn.bilinear_form(spec.op, w, w) == pytest.approx(vol, rel=1e-12)
        assert fn.energy(spec, w) >= spec.level_floor - 1e-12 * energy_scale(spec, w)


class TestEnergy:
    def test_zero_function(self, spec_1d, mesh_1d):
        assert fn.energy(spec_1d, np.zeros(mesh_1d.n_total)) == 0.0

    def test_constant_function(self, spec_1d, mesh_1d):
        mu = 1.7
        u = np.full(mesh_1d.n_total, mu)
        want = (mu**2 / 2.0 - fn.F_eval(spec_1d.nonlinearity, mu)) \
            * mesh_1d.domain_measure()
        assert fn.energy(spec_1d, u) == pytest.approx(want, rel=1e-13)

    def test_decomposition_identity(self, spec_1d, mesh_1d):
        vol = mesh_1d.cell_volume
        ni = mesh_1d.n_interior
        for seed in range(5):
            u = random_grid_function(mesh_1d, 40 + seed)
            total = fn.energy(spec_1d, u)
            norm_part = 0.5 * fn.bilinear_form(spec_1d.op, u, u)
            f_part = vol * float(np.sum(fn.F_eval(spec_1d.nonlinearity, u[:ni])))
            assert total == pytest.approx(norm_part - f_part, rel=1e-12)


    def test_rejects_a_stack(self, spec_1d, mesh_1d):
        # only the identity checks take stacks of grid functions
        with pytest.raises(ValueError, match="size mismatch"):
            fn.energy(spec_1d, np.zeros((2, mesh_1d.n_total)))


class TestGradient:
    def test_constant_solution_is_exactly_critical(self, spec_1d, mesh_1d):
        u = np.ones(mesh_1d.n_total)  # f(1) = 1 for the cubic model
        assert np.all(fn.energy_gradient(spec_1d, u) == 0.0)

    def test_central_difference_oracle(self, spec_1d, mesh_1d):
        rng = np.random.default_rng(77)
        for _ in range(50):
            u = rng.standard_normal(mesh_1d.n_total)
            v = rng.standard_normal(mesh_1d.n_total)
            delta = 1e-5 * (1.0 + np.max(np.abs(u))) / (1.0 + np.max(np.abs(v)))
            want = central_difference_derivative(spec_1d, u, v, delta)
            got = mesh_1d.cell_volume * float(fn.energy_gradient(spec_1d, u) @ v)
            assert got == pytest.approx(want, rel=1e-6)

    def test_euler_identity_power(self, spec_1d, mesh_1d):
        nl = spec_1d.nonlinearity
        vol = mesh_1d.cell_volume
        ni = mesh_1d.n_interior
        for seed in range(5):
            u = random_grid_function(mesh_1d, 60 + seed)
            lhs = vol * float(fn.energy_gradient(spec_1d, u) @ u)
            f_mass = vol * float(np.sum(fn.F_eval(nl, u[:ni])))
            rhs = fn.bilinear_form(spec_1d.op, u, u) - nl.p * f_mass
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_negative_part_direction_vanishes(self, spec_1d, mesh_1d):
        u = np.abs(random_grid_function(mesh_1d, 9))
        u_minus = np.maximum(-u, 0.0)
        pairing = mesh_1d.cell_volume * float(fn.energy_gradient(spec_1d, u) @ u_minus)
        assert pairing == 0.0


class TestWeakResidual:
    def test_constant_solution(self, spec_1d, mesh_1d):
        assert fn.weak_residual(spec_1d, np.ones(mesh_1d.n_total)) <= 1e-12

    def test_zero_solution(self, spec_1d, mesh_1d):
        assert fn.weak_residual(spec_1d, np.zeros(mesh_1d.n_total)) == 0.0

    def test_is_sup_of_gradient(self, spec_1d, mesh_1d):
        u = random_grid_function(mesh_1d, 21)
        assert fn.weak_residual(spec_1d, u) == pytest.approx(
            np.max(np.abs(fn.energy_gradient(spec_1d, u))))
