import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracneumann as fn
from fracneumann import moser


class TestTruncatedPowers:
    def test_piecewise_values(self):
        assert fn.g_trunc(3.0, 5.0, 2.0) == pytest.approx(8.0)
        assert fn.g_trunc(3.0, 5.0, 7.0) == pytest.approx(175.0)

    def test_G_closed_form_below_truncation(self):
        assert fn.G_trunc(3.0, 1e12, 2.0) == pytest.approx(2.0 * np.sqrt(3.0),
                                                           rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha > 1"):
            fn.g_trunc(1.0, 5.0, 2.0)
        with pytest.raises(ValueError, match="M > 0"):
            fn.G_trunc(3.0, 0.0, 2.0)

    @pytest.mark.parametrize("alpha,M", [(2.0, 0.5), (3.0, 1.0), (4.5, 2.3)])
    def test_G_matches_quadrature_of_sqrt_gprime(self, alpha, M):
        quad = pytest.importorskip("scipy.integrate").quad

        # g'(t) = alpha t^(alpha-1) below M, M^(alpha-1) above
        def sqrt_gprime(t):
            if t <= M:
                return np.sqrt(alpha) * t ** ((alpha - 1.0) / 2.0)
            return M ** ((alpha - 1.0) / 2.0)

        for t in (0.3, M, 1.7 * M, 4.0 * M):
            val, err = quad(sqrt_gprime, 0.0, t, points=[min(M, t)],
                            epsabs=1e-13, epsrel=1e-13, limit=300)
            assert err < 1e-11
            assert fn.G_trunc(alpha, M, t) == pytest.approx(val, abs=1e-10)

    def test_lower_bound_inequality_samples(self):
        # G(t) >= (2/(alpha+1)) t min(t, M)^((alpha-1)/2)
        rng = np.random.default_rng(0)
        alpha = 1.0 + 10 ** rng.uniform(-2.0, 1.0, 10_000)
        M = 10 ** rng.uniform(-2.0, 2.0, 10_000)
        t = 10 ** rng.uniform(-3.0, 2.0, 10_000)
        for a_, m_, t_ in zip(alpha, M, t):
            lhs = fn.G_trunc(a_, m_, t_)
            rhs = 2.0 / (a_ + 1.0) * t_ * min(t_, m_) ** ((a_ - 1.0) / 2.0)
            assert lhs >= rhs * (1.0 - 1e-12)


class TestDifferenceInequality:
    def test_trivial_diagonal(self):
        ok, ce = fn.check_G_inequality([3.0], [2.0], [1.5], [1.5])
        assert ok and ce is None

    def test_closed_form_example(self):
        # alpha=3, large M, a=2, b=0: |2 sqrt(3)|^2 = 12 <= 8 * 2 = 16
        lhs = fn.G_trunc(3.0, 1e12, 2.0) ** 2
        rhs = fn.g_trunc(3.0, 1e12, 2.0) * 2.0
        assert lhs == pytest.approx(12.0, rel=1e-10)
        assert rhs == pytest.approx(16.0, rel=1e-12)
        assert lhs <= rhs

    def test_large_random_battery(self):
        rng = np.random.default_rng(42)
        n = 100_000
        alpha = 1.0 + 10 ** rng.uniform(-2.0, 1.0, n)
        M = 10 ** rng.uniform(-2.0, 2.0, n)
        a = 10 ** rng.uniform(-3.0, 2.0, n)
        b = 10 ** rng.uniform(-3.0, 2.0, n)
        ok, counterexample = fn.check_G_inequality(alpha, M, a, b)
        assert ok, counterexample

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(1.001, 20.0), M=st.floats(1e-3, 1e3),
           a=st.floats(0.0, 1e3), b=st.floats(0.0, 1e3))
    def test_property(self, alpha, M, a, b):
        ok, counterexample = fn.check_G_inequality([alpha], [M], [a], [b])
        assert ok, counterexample

    @pytest.mark.parametrize("alpha,M", [(3.0, 10.0), (1.5, 0.2)])
    def test_scalar_parameters_broadcast(self, alpha, M):
        rng = np.random.default_rng(3)
        a, b = 10 ** rng.uniform(-3.0, 2.0, (2, 50))
        want = [fn.check_G_inequality([alpha], [M], [a_], [b_])
                for a_, b_ in zip(a, b)]
        assert all(ok for ok, _ in want)
        assert fn.check_G_inequality(alpha, M, a, b) == (True, None)
        assert fn.check_G_inequality(alpha, M, [1.0, 2.0], [0.5, 0.1]) == (True, None)

    def test_counterexample_from_broadcast_inputs(self, monkeypatch):
        # a G that overshoots at t > 1 breaks the bound from the sample
        # with a = 2 on (b = 0, so G(b) = 0 and the increment doubles); the
        # counterexample names that sample's inputs
        increments = moser._increments

        def overshoot(alpha, M, hi, lo):
            dG, dg = increments(alpha, M, hi, lo)
            return dG * (1.0 + (hi > 1.0)), dg

        monkeypatch.setattr(moser, "_increments", overshoot)
        ok, ce = fn.check_G_inequality(3.0, [5.0], [0.5, 2.0, 3.0], 0.0)
        assert not ok and ce == (3.0, 5.0, 2.0, 0.0)

    def test_unbroadcastable_shapes_raise(self):
        with pytest.raises(ValueError):
            fn.check_G_inequality([3.0, 4.0], 10.0, [1.0, 2.0, 3.0], 0.5)


class TestNormLadder:
    def test_beta_sequence_rule(self, solved_problem, monkeypatch):
        monkeypatch.setattr(moser, "LADDER_LEVELS", 6)
        spec, rep = solved_problem["spec"], solved_problem["report"]
        ladder = fn.norm_ladder(spec, rep.u)
        # 2*_s = 4 at N=1, s=1/4, so beta doubles each level
        np.testing.assert_allclose(ladder.beta,
                                   2.0 ** np.arange(ladder.n_used), rtol=0)
        np.testing.assert_allclose(ladder.q_upper, 4.0 * ladder.beta, rtol=0)

    def test_beta_doubles_in_2d_at_half_order(self, monkeypatch):
        monkeypatch.setattr(moser, "LADDER_LEVELS", 6)
        # N=2, s=1/2 gives critical exponent 4, so beta_n = 2^(n-1)
        mesh = fn.build_box_mesh(((0.0, 1.0), (0.0, 1.0)), 0.25, 2.0)
        op = fn.assemble(mesh, s=0.5, eps=0.3)
        spec = fn.ProblemSpec(mesh, op, fn.power_nonlinearity(3.0))
        assert spec.two_star == pytest.approx(4.0)
        ladder = fn.norm_ladder(spec, np.ones(mesh.n_total))
        np.testing.assert_allclose(ladder.beta, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
                                   rtol=0)
        np.testing.assert_allclose(ladder.q_upper, 4.0 * ladder.beta, rtol=0)

    def test_partial_sums_match_geometric_closed_form(self, solved_problem,
                                                      monkeypatch):
        monkeypatch.setattr(moser, "LADDER_LEVELS", 8)
        spec, rep = solved_problem["spec"], solved_problem["report"]
        ladder = fn.norm_ladder(spec, rep.u)
        r = 2.0 / spec.two_star
        n = ladder.n_used
        gamma1_closed = (1.0 - r**n) / (1.0 - r)
        gamma2_closed = (1.0 - np.sqrt(r) ** n) / (1.0 - np.sqrt(r))
        assert ladder.gamma1 == pytest.approx(gamma1_closed, abs=1e-12)
        assert ladder.gamma2 == pytest.approx(gamma2_closed, abs=1e-12)

    def test_constant_function(self, solved_problem):
        spec = solved_problem["spec"]
        u = np.ones(spec.mesh.n_total)
        ladder = fn.norm_ladder(spec, u)
        # |1|_q = |domain|^(1/q) decreases toward 1 on the unit-height level
        measure = spec.mesh.domain_measure()
        np.testing.assert_allclose(ladder.norms_upper,
                                   measure ** (1.0 / ladder.q_upper), rtol=1e-12)
        assert ladder.actual_max == 1.0
        assert ladder.sup_estimate >= 1.0

    def test_sup_estimate_dominates_max(self, solved_problem, monkeypatch):
        monkeypatch.setattr(moser, "LADDER_LEVELS", 10)
        spec, rep = solved_problem["spec"], solved_problem["report"]
        rng = np.random.default_rng(3)
        candidates = [
            rep.u,
            np.ones(spec.mesh.n_total),
            solved_problem["phi"],
            np.abs(rng.standard_normal(spec.mesh.n_total)),
        ]
        for u in candidates:
            ladder = fn.norm_ladder(spec, u)
            assert ladder.sup_estimate >= ladder.actual_max

    def test_normalized_norms_nondecreasing(self, solved_problem, monkeypatch):
        monkeypatch.setattr(moser, "LADDER_LEVELS", 8)
        spec = solved_problem["spec"]
        rng = np.random.default_rng(8)
        u = rng.standard_normal(spec.mesh.n_total)
        ladder = fn.norm_ladder(spec, u)
        mass = spec.mesh.domain_measure()
        qs = np.concatenate([ladder.q_lower, ladder.q_upper])
        order = np.argsort(qs)
        norms = np.concatenate([ladder.norms_lower, ladder.norms_upper])[order]
        normalized = norms / mass ** (1.0 / qs[order])
        assert np.all(np.diff(normalized) >= -1e-12 * normalized[:-1])

    def test_overflow_cap_warns(self, solved_problem):
        spec = solved_problem["spec"]
        u = np.full(spec.mesh.n_total, 40.0)
        with pytest.warns(RuntimeWarning, match="capped"):
            ladder = fn.norm_ladder(spec, u)
        assert ladder.n_used < moser.LADDER_LEVELS == 12
        assert ladder.sup_estimate >= ladder.actual_max

    def test_zero_function(self, solved_problem, monkeypatch):
        monkeypatch.setattr(moser, "LADDER_LEVELS", 5)
        spec = solved_problem["spec"]
        ladder = fn.norm_ladder(spec, np.zeros(spec.mesh.n_total))
        assert ladder.actual_max == 0.0
        assert ladder.sup_estimate == 0.0


class TestCaccioppoli:
    def test_constant_solution_exact(self, solved_problem):
        spec = solved_problem["spec"]
        mu = np.ones(spec.mesh.n_total)
        [entry] = fn.verify_caccioppoli_step(spec, mu, [(3.0, 10.0)],
                                             grad_tol=1e-8,
                                             sobolev_constant=solved_problem["embedding"])
        assert entry["residual"] == 0.0
        assert entry["residual_ok"] and entry["chain_ok"]

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("m_factor", [1.0, 10.0])
    def test_converged_solution(self, solved_problem, alpha, m_factor):
        spec, rep = solved_problem["spec"], solved_problem["report"]
        big_m = m_factor * float(np.max(rep.u))
        [entry] = fn.verify_caccioppoli_step(spec, rep.u, [(alpha, big_m)],
                                             grad_tol=rep.grad_tol,
                                             sobolev_constant=solved_problem["embedding"])
        assert entry["alpha"] == alpha and entry["M"] == big_m
        assert entry["residual"] <= entry["residual_tol"]
        assert entry["residual_ok"] and entry["chain_ok"]
        assert "chain_lhs" not in entry and "chain_rhs" not in entry

    def test_steps_share_one_apply(self, solved_problem, apply_counter):
        spec, rep = solved_problem["spec"], solved_problem["report"]
        umax, vol = float(np.max(rep.u)), spec.mesh.cell_volume
        steps = [(alpha, m * umax) for alpha in (2.0, 3.0, 5.0) for m in (1.0, 10.0)]
        kwargs = dict(grad_tol=rep.grad_tol,
                      sobolev_constant=solved_problem["embedding"])
        entries = fn.verify_caccioppoli_step(spec, rep.u, steps, **kwargs)
        assert apply_counter == [(spec.mesh.n_total,)]
        assert len(entries) == len(steps)
        ni = spec.mesh.n_interior
        for (alpha, big_m), entry in zip(steps, entries):
            assert entry["alpha"] == alpha and entry["M"] == big_m
            assert entry["residual_ok"] and entry["chain_ok"]
            # each stacked form, from one apply of u, against bilinear_form(u, g)
            g = moser.g_trunc(alpha, big_m, np.maximum(rep.u, 0.0))
            rhs = vol * float(fn.f_eval(spec.nonlinearity, rep.u[:ni]) @ g[:ni])
            form = fn.bilinear_form(spec.op, rep.u, g)
            assert abs(entry["residual"] - abs(form - rhs)) <= 1e-14 * abs(rhs)

    def test_chain_violation_is_reported(self, solved_problem):
        spec, rep = solved_problem["spec"], solved_problem["report"]
        # an absurdly small embedding constant inflates the left side; the
        # tested equation does not depend on it
        [entry] = fn.verify_caccioppoli_step(spec, rep.u, [(3.0, 10.0)],
                                             grad_tol=rep.grad_tol,
                                             sobolev_constant=1e-6)
        assert entry["chain_ok"] is False
        assert np.isfinite(entry["residual"]) and entry["residual_ok"]
        assert entry["chain_lhs"] > entry["chain_rhs"]
