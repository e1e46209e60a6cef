import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fracneumann as fn
from fracneumann import moser, mountain_pass
from fracneumann.mountain_pass import (DESCENT_STEP, NEWTON_MAX_STEPS,
                                       PATH_POINTS, SEGMENT_SAMPLES,
                                       _interior_map, _newton_polish,
                                       _PathState)
from fracneumann.operators import _graph_laplacian_apply, _reduced_matrix
from fracneumann.problem import _reaction, f_eval, fprime_eval

from conftest import dense_weights, energy_scale, small_problems


class TestEndpoint:
    def test_negative_energy(self, solved_problem):
        spec, e = solved_problem["spec"], solved_problem["endpoint"]
        assert fn.energy(spec, e) < 0.0

    def test_nonnegative_nodewise(self, solved_problem):
        assert np.all(solved_problem["endpoint"] >= 0.0)

    def test_clears_sphere_radius(self, solved_problem):
        # negative energy puts e beyond the level floor's sphere ||u||^2 = vol
        spec, e = solved_problem["spec"], solved_problem["endpoint"]
        p, vol = spec.nonlinearity.p, spec.mesh.cell_volume
        assert fn.bilinear_form(spec.op, e, e) > vol * (p / 2.0) ** (2.0 / (p - 2.0)) > vol

    def test_rejects_an_endpoint_of_undefined_energy(self, solved_problem):
        # at t2 = 1e200 the energy is inf - inf
        tent = dataclasses.replace(solved_problem["tent"], t2=1e200)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(RuntimeError, match="energy nan is not negative"):
            fn.endpoint(solved_problem["spec"], solved_problem["phi"], tent)

    def test_rejects_a_tent_whose_endpoint_energy_is_positive(self, solved_problem):
        tent = dataclasses.replace(solved_problem["tent"], t2=1e-3)
        with pytest.raises(RuntimeError, match="is not negative at t2=0.001"):
            fn.endpoint(solved_problem["spec"], solved_problem["phi"], tent)


class TestPathEnergies:
    @settings(max_examples=60, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           points=st.integers(3, 8))
    def test_match_energy(self, spec, seed, points):
        path = np.random.default_rng(seed).standard_normal((points, spec.mesh.n_total))
        state = _PathState(spec, path)
        s_pp, node_e = state.node_terms()
        for u, got in zip(path, node_e):
            assert abs(got - fn.energy(spec, u)) <= 1e-12 * energy_scale(spec, u)
        val, pt = state.crest(s_pp, node_e)
        assert abs(val - fn.energy(spec, pt)) <= 1e-12 * energy_scale(spec, pt)


def _random_path(spec, rng, points):
    """A random path whose node amplitudes span 2.5 decades, which puts its
    points on either side of zero energy."""
    return (10.0 ** rng.uniform(-1.0, 1.5, (points, 1))
            * rng.standard_normal((points, spec.mesh.n_total)))


def _full_crest(state, s_pp, node_e):
    """Oracle: the path maximum over the nodes and every sample of every
    segment; returns (value, point, sample energies)."""
    k = 1 + int(np.argmax(node_e[1:-1]))
    best_val, best_pt = float(node_e[k]), state.path[k]
    p, lr = state.path, state.lrows
    s_ab = np.einsum("ij,ij->i", p[:-1], lr[1:])
    t = state.sub_t[:, None]
    quad = 0.5 * state.e2s * ((1.0 - t) ** 2 * s_pp[None, :-1]
                              + 2.0 * t * (1.0 - t) * s_ab[None, :]
                              + t**2 * s_pp[None, 1:])
    a_i = p[:-1, :state.ni]
    b_i = p[1:, :state.ni]
    combos = (1.0 - t[:, :, None]) * a_i[None, :, :] + t[:, :, None] * b_i[None, :, :]
    vals = quad + _reaction(state.spec, combos)
    ti, seg = np.unravel_index(int(np.argmax(vals)), vals.shape)
    if float(vals[ti, seg]) > best_val:
        tt = state.sub_t[ti]
        best_val = float(vals[ti, seg])
        best_pt = (1.0 - tt) * p[seg] + tt * p[seg + 1]
    return best_val, best_pt.copy(), vals


class TestCrest:
    @settings(max_examples=60, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           points=st.integers(3, 8))
    def test_matches_full_sampling_below_the_incumbent(self, spec, seed, points):
        rng = np.random.default_rng(seed)
        state = _PathState(spec, _random_path(spec, rng, points))
        s_pp, node_e = state.node_terms()
        want, want_pt, _ = _full_crest(state, s_pp, node_e)
        node_max = float(np.max(node_e[1:-1]))
        val, pt = state.crest(s_pp, node_e)
        assert val == want and np.array_equal(pt, want_pt)
        incumbents = [np.nextafter(x, d) for x in (np.inf, want, node_max)
                      for d in (-np.inf, x, np.inf)]
        spread = abs(want) + abs(node_max)
        incumbents += list(want + spread * rng.standard_normal(4))
        incumbents += list(rng.uniform(min(node_max, want), max(node_max, want), 2))
        for incumbent in incumbents:
            before = state.crest_segments
            val, pt = state.crest(s_pp, node_e, incumbent)
            if want < incumbent:
                assert val == want and np.array_equal(pt, want_pt)
            else:
                assert val >= incumbent  # no improvement
            if node_max >= incumbent:
                assert state.crest_segments == before  # nothing sampled

    @settings(max_examples=60, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           points=st.integers(3, 8))
    def test_samples_lie_below_their_bound(self, spec, seed, points):
        rng = np.random.default_rng(seed)
        state = _PathState(spec, _random_path(spec, rng, points))
        s_pp, node_e = state.node_terms()
        _, _, vals = _full_crest(state, s_pp, node_e)
        _, bound = state.sample_terms(s_pp, node_e)
        assert vals.shape == bound.shape == (SEGMENT_SAMPLES, points - 1)
        assert np.all(vals <= bound)


class TestChords:
    @settings(max_examples=40, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           points=st.integers(3, 8))
    def test_stored_chords_are_the_path_chords(self, spec, seed, points):
        rng = np.random.default_rng(seed)
        state = _PathState(spec, _random_path(spec, rng, points))
        steps = rng.uniform(1e-3, 1.0, points - 2)
        for _ in range(3):
            state.flow_step(steps, *state.node_terms())
            want = np.linalg.norm(np.diff(state.path, axis=0), axis=1)
            assert np.array_equal(state.chords, want)
            state.resample(points)
            want = np.linalg.norm(np.diff(state.path, axis=0), axis=1)
            assert np.array_equal(state.chords, want)


def _full_stack_flow_step(state, steps):
    """Oracle: the flow step that builds the gradient and the kernel apply
    of every interior path point, frozen ones included, and only then
    discards the frozen rows."""
    spec, ni, e2s, vol = state.spec, state.ni, state.e2s, state.vol
    mov = slice(1, state.path.shape[0] - 1)
    p = state.path[mov]
    lp = state.lrows[mov]
    g = (e2s / vol) * lp
    g[:, :ni] += p[:, :ni] - f_eval(spec.nonlinearity, p[:, :ni])
    lg = _graph_laplacian_apply(spec.op, g)

    s_pp = np.einsum("ij,ij->i", p, lp)
    s_pg = np.einsum("ij,ij->i", p, lg)
    s_gg = np.einsum("ij,ij->i", g, lg)
    e0 = 0.5 * e2s * s_pp + _reaction(spec, p[:, :ni])
    gg_vol = vol * np.einsum("ij,ij->i", g, g)

    seg_len = np.linalg.norm(np.diff(state.path, axis=0), axis=1).mean()
    g_norm = np.linalg.norm(g, axis=1)
    t_cap = np.where(g_norm > 0.0, seg_len / np.maximum(g_norm, 1e-300), 0.0)
    t = np.minimum(steps * 2.0, np.maximum(t_cap, 1e-14))
    active = (gg_vol > 0.0) & (e0 > 0.0)
    accepted = np.zeros(t.shape, dtype=bool)
    for _ in range(60):
        if not np.any(active):
            break
        cand = p[active, :ni] - t[active, None] * g[active, :ni]
        cand_e = (0.5 * e2s * (s_pp[active] - 2.0 * t[active] * s_pg[active]
                               + t[active] ** 2 * s_gg[active])
                  + _reaction(spec, cand))
        ok = cand_e <= e0[active] - 1e-4 * t[active] * gg_vol[active]
        idx = np.flatnonzero(active)
        accepted[idx[ok]] = True
        active[idx[ok]] = False
        t[idx[~ok]] *= 0.5
    frozen = ~accepted & ~active  # never activated: keep step memory
    t = np.where(accepted, t, 0.0)
    state.path[mov] = p - t[:, None] * g
    state.lrows[mov] = lp - t[:, None] * lg
    steps[:] = np.where(accepted, t,
                        np.where(frozen, steps, np.maximum(steps * 0.5, 1e-14)))
    return accepted


class TestFlowStep:
    @settings(max_examples=60, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           points=st.integers(3, 8))
    def test_matches_full_stack_step(self, spec, seed, points):
        rng = np.random.default_rng(seed)
        path = _random_path(spec, rng, points)
        steps = rng.uniform(1e-3, 1.0, points - 2)
        state, oracle = _PathState(spec, path), _PathState(spec, path.copy())
        oracle_steps = steps.copy()
        terms = state.node_terms()  # as the solver loop: crest, then step
        state.crest(*terms)
        moved = state.flow_step(steps, *terms)
        want = _full_stack_flow_step(oracle, oracle_steps)
        assert np.array_equal(moved, want)
        assert np.array_equal(steps, oracle_steps)
        for got, ref in ((state.path, oracle.path), (state.lrows, oracle.lrows)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_kernel_sees_only_positive_energy_points(self, apply_counter):
        # the straight path from 0 to the endpoint, as the solver starts it
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.02, 2.0)
        spec = fn.ProblemSpec(mesh, fn.assemble(mesh, 0.25, 0.1),
                              fn.power_nonlinearity(3.0))
        phi = fn.phi_eps(mesh, 0.1)
        e = fn.endpoint(spec, phi, fn.thresholds(spec, phi))
        state = _PathState(spec, np.linspace(0.0, 1.0, PATH_POINTS)[:, None] * e)
        steps = np.full(PATH_POINTS - 2, DESCENT_STEP)
        counts = []
        for _ in range(20):
            s_pp, node_e = state.node_terms()
            positive = int(np.sum(node_e[1:-1] > 0.0))
            apply_counter.clear()
            state.flow_step(steps, s_pp, node_e)
            assert apply_counter == ([(positive, spec.mesh.n_total)]
                                     if positive else [])
            counts.append(positive)
            state.resample(PATH_POINTS)
        assert 0 < max(counts) < PATH_POINTS - 2
        assert state.kernel_rows == sum(counts)


def _negative_endpoint(spec, seed, bump):
    """A positive endpoint, doubled until its energy is negative (at most 43
    doublings in 1,000 draws)."""
    rng = np.random.default_rng(seed)
    e = 1.0 + bump * np.abs(rng.standard_normal(spec.mesh.n_total))
    for _ in range(64):
        if fn.energy(spec, e) < 0.0:
            break
        e = 2.0 * e
    assume(fn.energy(spec, e) < 0.0)
    return e


class TestSolve:
    def test_converged_contract(self, solved_problem):
        rep = solved_problem["report"]
        assert rep.converged
        assert rep.residual <= rep.grad_tol

    def test_level_positive_above_delta(self, solved_problem):
        spec, rep = solved_problem["spec"], solved_problem["report"]
        assert rep.delta == spec.level_floor
        assert rep.level >= rep.delta > 0.0
        assert rep.level_above_delta

    def test_incumbent_history_nonincreasing(self, solved_problem):
        hist = solved_problem["report"].max_energy_history
        assert np.all(np.diff(hist) <= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           bump=st.floats(0.0, 2.0))
    def test_incumbent_history_nonincreasing_on_random_problems(self, spec,
                                                                seed, bump):
        e = _negative_endpoint(spec, seed, bump)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = fn.mountain_pass_solve(spec, e, fn.MPAConfig())
        hist = rep.max_energy_history
        assert len(hist) == rep.flow_sweeps > 0
        assert np.all(np.diff(hist) <= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           bump=st.floats(0.0, 2.0))
    def test_not_converged_after_crossing_the_mountain(self, spec, seed, bump):
        # a last incumbent below delta means every path sample has flowed
        # through the mountain
        e = _negative_endpoint(spec, seed, bump)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            rep = fn.mountain_pass_solve(spec, e, fn.MPAConfig())
        crossed = rep.max_energy_history[-1] < rep.delta
        named = [str(w.message) for w in caught
                 if "through the mountain" in str(w.message)]
        assert len(named) == int(crossed)
        if crossed:
            assert not rep.converged

    @settings(max_examples=30, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1),
           bump=st.floats(0.0, 2.0))
    def test_converged_level_clears_the_floor(self, spec, seed, bump):
        e = _negative_endpoint(spec, seed, bump)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = fn.mountain_pass_solve(spec, e, fn.MPAConfig())
        assume(rep.converged)
        # only the constant 1 on a one-node mesh attains the floor; there a
        # residual r leaves the level p r^2/(p-2)^2 of the floor below it, to
        # leading order, and u^2/2 - u^p/p = (p-2)/(2p) at u = 1 cancels
        # p/(p-2) times the roundoff of its terms
        p, r = spec.nonlinearity.p, rep.residual
        slack = 2.0 * p * r**2 / (p - 2.0) ** 2 + 1e-14 * p / (p - 2.0)
        assert rep.level >= spec.level_floor * (1.0 - slack)

    def test_warns_when_the_incumbent_falls_below_delta(self, solved_problem,
                                                         monkeypatch):
        # a floor far above the mountain-pass level
        spec, e = solved_problem["spec"], solved_problem["endpoint"]
        delta = 10.0 * solved_problem["report"].level
        monkeypatch.setattr(fn.ProblemSpec, "level_floor", delta)
        with pytest.warns(RuntimeWarning, match="through the mountain") as rec:
            rep = fn.mountain_pass_solve(spec, e, fn.MPAConfig(grad_tol=1e-9))
        incumbent = rep.max_energy_history[-1]
        assert incumbent < rep.delta == delta
        message, = [str(w.message) for w in rec
                    if "through the mountain" in str(w.message)]
        assert f"{incumbent:.6g}" in message and f"{delta:.6g}" in message
        assert rep.residual <= rep.grad_tol and not rep.converged

    def test_level_below_incumbent(self, solved_problem):
        rep = solved_problem["report"]
        assert rep.level <= rep.max_energy_history[-1] + 1e-12

    def test_nonconstant_spike(self, solved_problem):
        spec, rep = solved_problem["spec"], solved_problem["report"]
        ui = rep.u[:spec.mesh.n_interior]
        assert np.std(ui) / abs(np.mean(ui)) > 1e-3
        assert rep.energy_vs_constant < 1.0

    def test_nearly_nonnegative(self, solved_problem):
        rep = solved_problem["report"]
        assert rep.min_u >= -1e-8 * float(np.max(np.abs(rep.u)))

    def test_determinism(self, solved_problem):
        spec = solved_problem["spec"]
        e = solved_problem["endpoint"]
        cfg = fn.MPAConfig(grad_tol=1e-9)
        a = fn.mountain_pass_solve(spec, e, cfg)
        b = fn.mountain_pass_solve(spec, e, cfg)
        assert a.level == b.level
        assert a.iterations == b.iterations
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.max_energy_history, b.max_energy_history)

    def test_weak_solution_quality(self, solved_problem):
        spec, rep = solved_problem["spec"], solved_problem["report"]
        assert fn.weak_residual(spec, rep.u) <= rep.grad_tol

    def test_rejects_positive_endpoint(self, solved_problem):
        spec = solved_problem["spec"]
        bad = 0.01 * solved_problem["phi"]
        with pytest.raises(ValueError, match="negative energy"):
            fn.mountain_pass_solve(spec, bad, fn.MPAConfig())

    def test_rejects_an_endpoint_of_undefined_energy(self, solved_problem):
        spec = solved_problem["spec"]
        bad = 1e200 * solved_problem["endpoint"]
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(ValueError, match="negative energy, got nan"):
            fn.mountain_pass_solve(spec, bad, fn.MPAConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="grad_tol"):
            fn.MPAConfig(grad_tol=-1.0)

    def test_rejects_a_missing_tolerance(self):
        with pytest.raises(ValueError, match="grad_tol"):
            fn.MPAConfig(grad_tol=None)

    def test_sobolev_constant_is_not_read(self, solved_problem):
        # an absurd constant changes nothing: the floor needs no embedding
        spec, e = solved_problem["spec"], solved_problem["endpoint"]
        rep = fn.mountain_pass_solve(spec, e, fn.MPAConfig(grad_tol=1e-9),
                                     sobolev_constant=1e-6)
        want = solved_problem["report"]
        assert rep.level == want.level and rep.delta == want.delta
        assert np.array_equal(rep.u, want.u)

    def test_flow_warns_at_its_cap(self, solved_problem, monkeypatch):
        monkeypatch.setattr(mountain_pass, "FLOW_MAX_SWEEPS", 3)
        spec, e = solved_problem["spec"], solved_problem["endpoint"]
        with pytest.warns(RuntimeWarning, match="path flow hit the iteration cap of 3"):
            rep = fn.mountain_pass_solve(spec, e, fn.MPAConfig(grad_tol=1e-9))
        assert len(rep.max_energy_history) == 3

    def test_default_tolerance_is_absolute(self, solved_problem):
        # the same 1e-8 whatever the scale of the endpoint
        spec = solved_problem["spec"]
        e = solved_problem["endpoint"]
        reps = [fn.mountain_pass_solve(spec, scale * e, fn.MPAConfig())
                for scale in (1.0, 4.0)]
        assert [rep.grad_tol for rep in reps] == [1e-8, 1e-8]
        assert all(rep.converged for rep in reps)


def _full_hessian_newton(spec, u0, grad_tol, max_iter):
    """Oracle: the Newton endgame on every node, collar included, with the
    dense full-mesh Hessian ``eps^(2s)/vol * L + diag(1 - f'(u))``, on the
    zero-flux manifold: the start and every line-search candidate get their
    collar set to the :func:`~fracneumann.exterior_extension` of their
    interior values."""
    op = spec.op
    ni = spec.mesh.n_interior
    kernel = (spec.eps ** (2.0 * op.s) / spec.mesh.cell_volume
              * (np.diag(op.row_sums) - dense_weights(op)))
    u = fn.exterior_extension(op, u0[:ni])
    g = fn.energy_gradient(spec, u)
    res = float(np.max(np.abs(g)))
    used = 0
    for _ in range(max_iter):
        if res <= grad_tol:
            break
        used += 1
        hess = kernel.copy()
        hess[np.arange(ni), np.arange(ni)] += 1.0 - fprime_eval(
            spec.nonlinearity, u[:ni])
        try:
            dx = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            dx = -g
        accepted = False
        for direction, factor in ((dx, 1e-4), (-g, 0.0)):
            tau = 1.0
            for _ in range(40):
                cand = fn.exterior_extension(op, (u + tau * direction)[:ni])
                g_cand = fn.energy_gradient(spec, cand)
                res_cand = float(np.max(np.abs(g_cand)))
                if res_cand < res * (1.0 - factor * tau):
                    u, g, res = cand, g_cand, res_cand
                    accepted = True
                    break
                tau *= 0.5
            if accepted:
                break
        if not accepted:
            break
    return u, used


@pytest.fixture(scope="module")
def solved_square():
    mesh = fn.build_box_mesh(((-0.75, 0.75), (-0.75, 0.75)), 0.25, 2.2)
    op = fn.assemble(mesh, 0.4, 0.3)
    spec = fn.ProblemSpec(mesh, op, fn.power_nonlinearity(3.0))
    phi = fn.phi_eps(mesh, 0.3)
    e = fn.endpoint(spec, phi, fn.thresholds(spec, phi))
    rep = fn.mountain_pass_solve(spec, e, fn.MPAConfig(grad_tol=1e-9))
    assert rep.converged
    return {"spec": spec, "report": rep}


class TestNewtonEndgame:
    @pytest.mark.parametrize("problem", ["solved_problem", "solved_square"])
    def test_matches_full_hessian_newton(self, problem, request):
        solved = request.getfixturevalue(problem)
        spec, rep = solved["spec"], solved["report"]
        rng = np.random.default_rng(7)
        u0 = rep.u * (1.0 + 0.05 * rng.standard_normal(rep.u.size))
        got, steps = _newton_polish(spec, u0, rep.grad_tol)
        want, want_steps = _full_hessian_newton(spec, u0, rep.grad_tol,
                                                NEWTON_MAX_STEPS)
        assert steps == want_steps > 1
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert fn.weak_residual(spec, got) <= rep.grad_tol


    @settings(max_examples=40, deadline=None)
    @given(spec=small_problems(), seed=st.integers(0, 2**32 - 1))
    def test_one_step_matches_full_hessian_newton(self, spec, seed):
        u0 = np.random.default_rng(seed).standard_normal(spec.mesh.n_total)
        tol = 1e-12 * float(np.max(np.abs(fn.energy_gradient(spec, u0))))
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("ignore", RuntimeWarning)
            mp.setattr(mountain_pass, "NEWTON_MAX_STEPS", 1)
            got, steps = _newton_polish(spec, u0, tol)
        want, want_steps = _full_hessian_newton(spec, u0, tol, 1)
        assert steps == want_steps == 1
        # a step can land on the zero solution: measure against the start too
        scale = max(np.max(np.abs(want)), np.max(np.abs(u0)))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale

    def test_warns_when_it_stops_above_tolerance(self, solved_problem,
                                                 monkeypatch):
        spec, rep, u0 = _perturbed_solution(solved_problem)
        monkeypatch.setattr(mountain_pass, "NEWTON_MAX_STEPS", 1)
        with pytest.warns(RuntimeWarning,
                          match="Newton endgame ended after 1 of 1 steps"):
            u, steps = _newton_polish(spec, u0, rep.grad_tol)
        assert steps == 1
        assert fn.weak_residual(spec, u) > rep.grad_tol

    def test_gradient_safeguard_when_the_newton_step_fails(self, solved_problem,
                                                          monkeypatch):
        # a solve that returns the negated Newton step raises the residual at
        # every one of its 40 halvings, so the step falls back on -F, as the
        # oracle's does on -g; near zero the energy is nearly quadratic and
        # -F lowers the residual
        spec, rep, u0 = _perturbed_solution(solved_problem)
        u0 = 0.1 * u0
        solve = np.linalg.solve
        monkeypatch.setattr(mountain_pass.np.linalg, "solve",
                            lambda a, b: -solve(a, b))
        monkeypatch.setattr(mountain_pass, "NEWTON_MAX_STEPS", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, steps = _newton_polish(spec, u0, rep.grad_tol)
        want, want_steps = _full_hessian_newton(spec, u0, rep.grad_tol, 1)
        assert steps == want_steps == 1
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        ui = u0[:spec.mesh.n_interior]
        g0 = _interior_map(spec, _reduced_matrix(spec.op), ui)
        assert any(np.array_equal(got, fn.exterior_extension(spec.op, ui - 0.5**k * g0))
                   for k in range(40))
        assert fn.weak_residual(spec, got) < fn.weak_residual(spec, u0)

    def test_singular_solve_takes_the_gradient_step(self, solved_problem,
                                                    monkeypatch):
        # the oracle's solve raises too: both take the steepest-descent step;
        # near zero the energy is nearly quadratic and -g lowers |g|
        spec, rep, u0 = _perturbed_solution(solved_problem)
        u0 = 0.1 * u0

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(mountain_pass.np.linalg, "solve", singular)
        monkeypatch.setattr(mountain_pass, "NEWTON_MAX_STEPS", 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, steps = _newton_polish(spec, u0, rep.grad_tol)
        want, want_steps = _full_hessian_newton(spec, u0, rep.grad_tol, 3)
        assert steps == want_steps >= 1
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert not np.array_equal(got, u0)

    @pytest.mark.parametrize("problem", ["solved_problem", "solved_square"])
    def test_solutions_are_zero_flux_extensions(self, problem, request):
        solved = request.getfixturevalue(problem)
        spec, rep = solved["spec"], solved["report"]
        ni = spec.mesh.n_interior
        assert np.array_equal(rep.u, fn.exterior_extension(spec.op, rep.u[:ni]))

    @pytest.mark.parametrize("max_steps", [1, NEWTON_MAX_STEPS])
    def test_one_kernel_apply_whatever_the_step_count(self, solved_problem,
                                                      apply_counter,
                                                      monkeypatch, max_steps):
        spec, rep, u0 = _perturbed_solution(solved_problem)
        monkeypatch.setattr(mountain_pass, "NEWTON_MAX_STEPS", max_steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, steps = _newton_polish(spec, u0, rep.grad_tol)
        assert steps == 1 if max_steps == 1 else steps > 1
        assert apply_counter == [(spec.mesh.n_total,)]


def _perturbed_solution(solved_problem):
    spec, rep = solved_problem["spec"], solved_problem["report"]
    rng = np.random.default_rng(7)
    return spec, rep, rep.u * (1.0 + 0.05 * rng.standard_normal(rep.u.size))


class TestTwoDimensional:
    def test_full_pipeline_on_a_square(self, monkeypatch):
        mesh = fn.build_box_mesh(((-0.75, 0.75), (-0.75, 0.75)), 0.25, 2.2)
        op = fn.assemble(mesh, 0.4, 0.3)
        spec = fn.ProblemSpec(mesh, op, fn.power_nonlinearity(3.0))
        phi = fn.phi_eps(mesh, 0.3)
        tent = fn.thresholds(spec, phi)
        assert tent.scan_ok, tent.failures
        e = fn.endpoint(spec, phi, tent)
        rep = fn.mountain_pass_solve(spec, e, fn.MPAConfig(grad_tol=1e-9))
        assert rep.converged
        assert rep.level >= rep.delta > 0.0
        assert rep.min_u >= -1e-8 * float(np.max(np.abs(rep.u)))
        ui = rep.u[:mesh.n_interior]
        assert np.std(ui) / abs(np.mean(ui)) > 1e-3

        monkeypatch.setattr(moser, "LADDER_LEVELS", 10)
        ladder = fn.norm_ladder(spec, rep.u)
        assert ladder.sup_estimate >= ladder.actual_max
        embedding = fn.estimate_embedding_constant(op)
        [entry] = fn.verify_caccioppoli_step(spec, rep.u,
                                             [(3.0, 10.0 * float(np.max(rep.u)))],
                                             grad_tol=rep.grad_tol,
                                             sobolev_constant=embedding)
        assert entry["residual"] <= 1e-9
        assert entry["residual_ok"] and entry["chain_ok"]


class TestNonnegativityCertificate:
    def test_converged_solution_certified(self, solved_problem):
        # testing the equation with u_minus bounds its energy by grad_tol
        # times its weighted L1 mass
        spec, rep = solved_problem["spec"], solved_problem["report"]
        vol = spec.mesh.cell_volume
        u_minus = np.maximum(-rep.u, 0.0)
        neg = fn.bilinear_form(spec.op, u_minus, u_minus)
        scale = vol * float(np.sum(u_minus))
        assert neg <= rep.grad_tol * max(scale, 1e-30)


class TestAprioriNorm:
    def test_euler_identity_at_convergence(self, solved_problem):
        spec, rep = solved_problem["spec"], solved_problem["report"]
        resid, scale = fn.euler_identity_residual(spec, rep.u)
        assert resid <= 10.0 * rep.grad_tol * max(scale, 1.0)

    def test_constant_solution_identity_exact(self, solved_problem):
        spec = solved_problem["spec"]
        mu = np.ones(spec.mesh.n_total)
        resid, scale = fn.euler_identity_residual(spec, mu)
        assert scale == pytest.approx(spec.mesh.domain_measure(), rel=1e-12)
        assert resid <= 1e-12 * scale

    def test_single_pair_certificate(self, solved_problem):
        assert fn.apriori_norm_certificate([solved_problem["spec"]],
                                           [solved_problem["report"]],
                                           [solved_problem["tent"]])

    def test_rejects_the_constant_solution(self, solved_problem):
        # 1 is an exact critical point, of level 1/3 far above the tent's
        # ray maximum, so its norm exceeds the bound K0 eps^N from g_max
        spec, tent = solved_problem["spec"], solved_problem["tent"]
        one = np.ones(spec.mesh.n_total)
        rep = dataclasses.replace(solved_problem["report"], u=one,
                                  level=fn.energy(spec, one),
                                  norm_sq=fn.bilinear_form(spec.op, one, one),
                                  residual=fn.weak_residual(spec, one))
        assert rep.residual == 0.0 and rep.level > 2.0 * tent.g_max
        assert not fn.apriori_norm_certificate([spec], [rep], [tent])

    @pytest.mark.parametrize("g_max", [np.inf, np.nan])
    def test_rejects_a_tent_without_a_finite_ray_maximum(self, solved_problem,
                                                         g_max):
        tents = [solved_problem["tent"],
                 dataclasses.replace(solved_problem["tent"], g_max=g_max)]
        for pair in (tents, tents[::-1]):
            assert not fn.apriori_norm_certificate(
                [solved_problem["spec"]] * 2, [solved_problem["report"]] * 2,
                pair)

    def test_needs_one_tent_per_spec(self, solved_problem):
        with pytest.raises(ValueError, match="one tent"):
            fn.apriori_norm_certificate([solved_problem["spec"]],
                                        [solved_problem["report"]], [])
