import ast
import functools
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracneumann as fn
from fracneumann import moser, mountain_pass, operators, problem, runners
from fracneumann.cli import main
from fracneumann.config import ConfigError, load_config, parse_config
from fracneumann.reports import _fmt, read_solution, write_solution
from fracneumann.runners import run_identity_suite, run_moser_check, run_scaling_sweep

QUICK_SWEEP = """
domain.kind = interval
domain.a = -1.0
domain.b = 1.0
domain.h = 0.02
domain.r_ext = 2.0
s = 0.25
eps = 0.2
eps_list = 0.3, 0.15
nonlinearity.p = 3.0
solver.grad_tol = 1e-8
seed = 0
"""

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


@pytest.fixture()
def quick_cfg_file(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK_SWEEP)
    return path


class TestConfigParsing:
    def test_roundtrip_defaults(self):
        cfg = parse_config(QUICK_SWEEP)
        assert cfg.bounds == ((-1.0, 1.0),)
        assert cfg.eps_list == [0.3, 0.15]
        assert cfg.grad_tol == 1e-8

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("domain.radius = 3\n")

    @pytest.mark.parametrize("key", ["solver.seed", "solver.jitter",
                                     "solver.path_points", "solver.descent_step",
                                     "solver.max_outer", "nonlinearity.model",
                                     "moser.n_max"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(f"{key} = 1\n")

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_builds_its_mesh(self, path):
        cfg = load_config(path)
        mesh = cfg.build_mesh()
        assert mesh.dim == cfg.dim
        assert mesh.n_interior > 0 and mesh.n_exterior > 0

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("s = 0.25\ns = 0.3\n")

    def test_empty_eps_list(self):
        with pytest.raises(ConfigError, match="eps_list is empty"):
            parse_config("eps_list =\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("domain.h = tiny\n")

    @pytest.mark.parametrize("raw", ["auto", "AUTO"])
    def test_auto_tolerance_is_not_a_number(self, raw):
        with pytest.raises(ConfigError, match=f"key 'solver.grad_tol': "
                                              f"expected a number, got '{raw}'"):
            parse_config(f"solver.grad_tol = {raw}\n")

    @pytest.mark.parametrize("kind, stray", [("interval", "domain.ax"),
                                             ("interval", "domain.by"),
                                             ("box", "domain.a")])
    def test_bound_key_of_the_other_kind(self, kind, stray):
        with pytest.raises(ConfigError, match=f"takes no {stray}"):
            parse_config(f"domain.kind = {kind}\n{stray} = 3\n")

    def test_spacing_must_divide_every_side(self):
        with pytest.raises(ConfigError, match="does not divide"):
            parse_config("domain.h = 0.3\ndomain.r_ext = 4\n")
        with pytest.raises(ConfigError, match="does not divide"):
            parse_config("domain.kind = box\ndomain.by = 0.5\ndomain.h = 0.2\n")

    def test_thin_collar(self):
        with pytest.raises(ConfigError, match="thinner than the domain"):
            parse_config("domain.r_ext = 0.5\n")

    def test_supercritical_s(self):
        with pytest.raises(ConfigError, match="dim > 2 s"):
            parse_config("s = 0.75\n")

    def test_out_of_range_p(self):
        with pytest.raises(ConfigError, match="nonlinearity.p"):
            parse_config("nonlinearity.p = 5.0\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\ns = 0.3  # trailing\n")
        assert cfg.s == 0.3

    @pytest.mark.parametrize("values, clash", [("0.3, 0.3", "0.3, 0.3"),
                                               ("0.1 0.2 0.1000001", "0.1, 0.1000001")])
    def test_eps_values_sharing_an_output_name(self, values, clash):
        # each eps names its sweep outputs by its {eps:g} form
        with pytest.raises(ConfigError, match=f"eps_list values {clash} would write"):
            parse_config(f"eps_list = {values}\n")


BOX_IDENTITIES = """
domain.kind = box
domain.ax = 0.0
domain.bx = 1.0
domain.ay = 0.0
domain.by = 1.0
domain.h = 0.125
domain.r_ext = 1.5
s = 0.4
eps = 0.5
nonlinearity.p = 2.8
seed = 0
"""


@pytest.mark.parametrize("call, message", [
    (lambda: fn.assemble(fn.build_interval_mesh(-1.0, 1.0, 0.2, 2.0), 0.25, np.nan),
     "eps must be positive"),
    (lambda: fn.assemble(fn.build_interval_mesh(-1.0, 1.0, 0.2, 2.0), 0.25,
                         0.3).with_eps(np.nan), "eps must be positive"),
    (lambda: fn.phi_eps(fn.build_interval_mesh(-1.0, 1.0, 0.2, 2.0), np.nan),
     "eps must be positive"),
    (lambda: fn.power_nonlinearity(np.nan), "p > 2"),
    (lambda: fn.MPAConfig(grad_tol=np.nan), "grad_tol must be positive"),
    (lambda: fn.build_interval_mesh(-1.0, 1.0, 0.2, np.nan), "collar too thin"),
], ids=["assemble-eps", "with_eps", "phi_eps", "power-p", "mpa-grad_tol",
        "check_box-r_ext"])
def test_library_validator_rejects_nan(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestIdentitySuite:
    def test_passes_on_2d_box(self, tmp_path):
        cfg = parse_config(BOX_IDENTITIES)
        assert run_identity_suite(cfg, tmp_path)
        report = json.loads((tmp_path / "identities.json").read_text())
        assert report["mesh"]["dim"] == 2
        assert report["all_pass"]

    def test_passes_and_writes_report(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        ok = run_identity_suite(cfg, tmp_path)
        assert ok
        report = json.loads((tmp_path / "identities.json").read_text())
        assert report["all_pass"]
        names = {c["name"] for c in report["checks"]}
        assert {"gauss_identity_relative", "green_identity_relative",
                "constant_annihilation_exact", "extension_zero_flux",
                "dilation_identity_relative"} <= names
        assert report["manifest"]["config_sha256"] == cfg.config_sha256

    def test_fault_injection_fails_and_names_identity(self, tmp_path,
                                                      monkeypatch):
        # one node's row sum scaled leaves the apply unsymmetric, on the
        # dense blocks (QUICK_SWEEP) and on a lattice stencil (reference_1d)
        # alike
        def corrupted(*args):
            op = operators.assemble(*args)
            op.row_sums[0] *= 1.5
            return op

        monkeypatch.setattr(runners, "assemble", corrupted)
        for name, cfg in (("dense", parse_config(QUICK_SWEEP)),
                          ("lattice", load_config(CONFIGS[0].parent / "reference_1d.cfg"))):
            ok = run_identity_suite(cfg, tmp_path / name)
            assert not ok
            report = json.loads((tmp_path / name / "identities.json").read_text())
            failed = {c["name"] for c in report["checks"] if not c["pass"]}
            assert "gauss_identity_relative" in failed or \
                "green_identity_relative" in failed

    def test_assembles_once(self, tmp_path, monkeypatch):
        calls = []
        assemble = operators.assemble

        def counted(*args, **kwargs):
            calls.append(args)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(operators, "assemble", counted)
        monkeypatch.setattr(runners, "assemble", counted)
        assert run_identity_suite(parse_config(QUICK_SWEEP), tmp_path)
        assert len(calls) == 1

    def test_stacked_draws_are_the_sequential_stream(self):
        n, k = 37, runners.IDENTITY_STACK
        for shape in ((k, n), (k, 2, n)):
            stacked = np.random.default_rng(3).standard_normal(shape)
            rng = np.random.default_rng(3)
            sequential = [rng.standard_normal(n) for _ in range(stacked.size // n)]
            assert np.array_equal(stacked.reshape(-1, n), sequential)

    def test_kernel_applied_in_stacks(self, tmp_path, apply_counter,
                                      monkeypatch):
        def unused(op):
            raise AssertionError("the identity suite formed the reduced matrix")

        monkeypatch.setattr(operators, "_reduced_matrix", unused)
        cfg = load_config(CONFIGS[0].parent / "identities_2d.cfg")
        assert run_identity_suite(cfg, tmp_path)
        # 10 stacks of 10 pairs, the constant, and the 20 extensions with
        # their fluxes
        assert len(apply_counter) <= 13
        assert all(len(shape) == 1 or shape[0] <= runners.IDENTITY_STACK
                   for shape in apply_counter)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(CONFIGS[0].parent / "identities_2d.cfg")
        assert run_identity_suite(cfg, tmp_path / "a")
        assert run_identity_suite(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "identities.json").read_bytes() \
            == (tmp_path / "b" / "identities.json").read_bytes()


class TestSweepRunner:
    def test_quick_sweep(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        result = run_scaling_sweep(cfg, tmp_path)
        assert result.all_converged
        assert result.certificates_ok
        for name in ("sweep.csv", "tent_scaling.csv", "sweep_summary.json",
                     "plot_sweep.gp", "solution_eps_0.3.txt",
                     "solution_eps_0.15.txt"):
            assert (tmp_path / name).exists(), name
        lines = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        header = lines[0].split(",")
        # plot_sweep.gp plots columns 3 and 7 against column 1
        assert header[0] == "eps" and header[2] == "level_over_epsN"
        assert header[6] == "norm_over_epsN"
        assert header[7] == "level_over_constant_energy"
        for line, rep in zip(lines[1:], result.reports):
            assert float(line.split(",")[7]) == rep.energy_vs_constant
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["level_over_epsN"]["ratio"] >= 1.0
        assert summary["smallest_eps_level_vs_constant"] < 1.0
        for eps, rep in zip(cfg.eps_list, result.reports):
            saved = json.loads((tmp_path / f"solve_report_eps_{eps:g}.json").read_text())
            assert saved["iterations"] == saved["flow_sweeps"] + saved["newton_steps"]
            assert saved["max_energy_history"] == rep.max_energy_history.tolist()
            assert len(saved["max_energy_history"]) == saved["flow_sweeps"]
            # frozen path points never reach the kernel
            assert 0 < saved["flow_kernel_rows"] < 19 * saved["flow_sweeps"]
            # segments that cannot beat the node maximum go unsampled
            assert saved["crest_segments"] == rep.crest_segments
            assert 0 < saved["crest_segments"] < saved["flow_sweeps"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        run_scaling_sweep(cfg, tmp_path / "a")
        run_scaling_sweep(cfg, tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            other = tmp_path / "b" / f.name
            assert f.read_bytes() == other.read_bytes(), f.name

    def test_endpoint_and_solution_applied_once(self, tmp_path, apply_counter,
                                                monkeypatch):
        # outside the flow and Newton, a solve and its a-priori certificate
        # apply the kernel to the endpoint once and to the solution once
        def tally(owner, name, counts):
            orig = getattr(owner, name)

            def wrapped(*args, **kwargs):
                start = len(apply_counter)
                try:
                    return orig(*args, **kwargs)
                finally:
                    counts.append(len(apply_counter) - start)

            monkeypatch.setattr(owner, name, wrapped)

        outer, inner = [], []
        tally(runners, "mountain_pass_solve", outer)
        tally(runners, "apriori_norm_certificate", outer)
        tally(mountain_pass._PathState, "__init__", inner)
        tally(mountain_pass._PathState, "flow_step", inner)
        tally(mountain_pass, "_newton_polish", inner)
        cfg = load_config(CONFIGS[0].parent / "quick_1d.cfg")
        assert run_scaling_sweep(cfg, tmp_path).certificates_ok
        assert len(outer) == len(cfg.eps_list) + 1
        assert sum(outer) - sum(inner) <= 2 * len(cfg.eps_list)

    def test_endpoint_applied_once_per_eps(self, tmp_path, monkeypatch):
        # endpoint certifies e with one apply; the solve reads e's terms from
        # its path's apply, whose last row is e's
        endpoints, applied = [], []
        solve, apply = runners.mountain_pass_solve, operators._graph_laplacian_apply

        def recorded_solve(spec, e, *args, **kwargs):
            endpoints.append(e)
            return solve(spec, e, *args, **kwargs)

        def recorded_apply(op, u):
            applied.append(u)
            return apply(op, u)

        monkeypatch.setattr(runners, "mountain_pass_solve", recorded_solve)
        for module in (operators, problem, mountain_pass, runners):
            monkeypatch.setattr(module, "_graph_laplacian_apply", recorded_apply)
        cfg = load_config(CONFIGS[0].parent / "quick_1d.cfg")
        assert run_scaling_sweep(cfg, tmp_path).certificates_ok
        assert len(endpoints) == len(cfg.eps_list)
        assert [sum(u is e for u in applied) for e in endpoints] == [1] * len(endpoints)

    def test_default_tolerance_sweep_certifies(self, tmp_path):
        # a config without the key solves at 1e-8, as the shipped ones do
        cfg = parse_config(QUICK_SWEEP.replace("solver.grad_tol = 1e-8\n", ""))
        assert cfg.grad_tol == 1e-8
        result = run_scaling_sweep(cfg, tmp_path)
        assert [rep.grad_tol for rep in result.reports] == [1e-8] * len(cfg.eps_list)
        assert result.all_converged
        assert result.summary["apriori_norm_ok"] and result.certificates_ok

    def test_weights_assembled_once(self, tmp_path, monkeypatch):
        cfg = parse_config(QUICK_SWEEP)
        result = run_scaling_sweep(cfg, tmp_path / "dense")
        assert [sp.eps for sp in result.specs] == cfg.eps_list
        first = result.specs[0].op
        assert first.lattice is None
        assert all(sp.op.w_ii is first.w_ii and sp.op.w_ie is first.w_ie
                   for sp in result.specs)
        # with no entry threshold the mesh takes the stencil, which the
        # with_eps copies share
        monkeypatch.setattr(operators, "CONVOLUTION_MIN_ENTRIES", 0)
        result = run_scaling_sweep(cfg, tmp_path / "lattice")
        first = result.specs[0].op
        assert first.w_ii is None and first.lattice is not None
        assert all(sp.op.lattice is first.lattice
                   and sp.op.lattice[0] is first.lattice[0]
                   and sp.op.row_sums is first.row_sums for sp in result.specs)

    def test_reduced_matrix_formed_once(self, tmp_path, monkeypatch):
        returned = []
        reduced = operators._reduced_matrix

        def recorded(op):
            m = reduced(op)
            returned.append(m)
            return m

        for module in (operators, mountain_pass):
            monkeypatch.setattr(module, "_reduced_matrix", recorded)
        cfg = parse_config(QUICK_SWEEP)
        run_scaling_sweep(cfg, tmp_path)
        # the Newton endgame, once per eps: one array
        assert len(returned) == len(cfg.eps_list)
        assert all(m is returned[0] for m in returned)

    def test_delta_is_the_level_floor(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        result = run_scaling_sweep(cfg, tmp_path)
        floor = (0.5 - 1.0 / cfg.p) * result.specs[0].mesh.cell_volume
        assert result.summary["level_floor"] == floor
        for spec, rep in zip(result.specs, result.reports):
            assert spec.level_floor == rep.delta == floor
            assert rep.level_above_delta
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["level_floor"] == floor and summary["level_positivity_ok"]

    def test_solve_runs_no_hypothesis_screen(self, tmp_path, monkeypatch):
        # the constant-solution energy is in closed form, so no solve needs
        # the log-grid screen for the fixed point 1
        calls = []
        screen = problem.check_hypotheses

        def spy(*args, **kwargs):
            calls.append(args)
            return screen(*args, **kwargs)

        monkeypatch.setattr(problem, "check_hypotheses", spy)
        monkeypatch.setattr(mountain_pass, "check_hypotheses", spy, raising=False)
        assert run_scaling_sweep(parse_config(QUICK_SWEEP), tmp_path).all_converged
        assert calls == []

    def test_energy_vs_constant_in_closed_form(self, tmp_path):
        cfg = load_config(CONFIGS[0].parent / "quick_1d.cfg")
        result = run_scaling_sweep(cfg, tmp_path)
        const = result.specs[0].constant_energy(1.0)
        assert const == pytest.approx((0.5 - 1.0 / cfg.p) * 2.0, rel=1e-15)
        assert result.summary["constant_solution_energy"] == const
        for spec, rep in zip(result.specs, result.reports):
            assert spec.constant_energy(1.0) == const
            assert rep.energy_vs_constant == rep.level / const

    def test_missing_eps_list(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP.replace("eps_list = 0.3, 0.15\n", ""))
        with pytest.raises(ConfigError, match="eps_list"):
            run_scaling_sweep(cfg, tmp_path)

    def test_bad_eps_fails_before_any_assembly_or_output(self, tmp_path,
                                                         monkeypatch, capsys):
        # eps=1.5 leaves the domain; eps=0.3 before it must not be solved
        path = tmp_path / "bad_eps.cfg"
        path.write_text((CONFIGS[0].parent / "quick_1d.cfg").read_text()
                        .replace("eps_list = 0.3, 0.15", "eps_list = 0.3, 1.5"))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return operators.assemble(*args, **kwargs)

        monkeypatch.setattr(runners, "assemble", counted)
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["sweep", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "eps=1.5 too large" in capsys.readouterr().err
        assert list(out.iterdir()) == [] and calls == []

    def test_only_moser_estimates_the_embedding_constant(self, tmp_path,
                                                          monkeypatch):
        # the sweep's floor needs no S; moser's chain estimates it once
        calls = []
        estimate = operators.estimate_embedding_constant

        def spy(op):
            calls.append(op.eps)
            return estimate(op)

        for module in (fn, operators, runners):
            monkeypatch.setattr(module, "estimate_embedding_constant", spy)
        for module in (mountain_pass, moser, problem):
            assert not hasattr(module, "estimate_embedding_constant")
        cfg = load_config(CONFIGS[0].parent / "quick_1d.cfg")
        assert run_scaling_sweep(cfg, tmp_path / "sweep").certificates_ok
        assert calls == []
        assert run_moser_check(cfg, tmp_path / "sweep" / "solution_eps_0.15.txt",
                               tmp_path / "moser")
        assert calls == [0.15]


class TestMoserRunner:
    def test_check_stored_solution(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        run_scaling_sweep(cfg, tmp_path / "sweep")
        ok = run_moser_check(cfg, tmp_path / "sweep" / "solution_eps_0.15.txt",
                             tmp_path / "moser")
        assert ok
        summary = json.loads((tmp_path / "moser" / "moser_summary.json").read_text())
        assert summary["eps"] == 0.15
        assert summary["sup_estimate"] >= summary["actual_max"]
        assert all(entry["chain_ok"] for entry in summary["caccioppoli"])

    def test_three_kernel_applies(self, tmp_path, apply_counter):
        # the lift and the quotient of the embedding estimate, and one apply
        # of u for all six Caccioppoli steps
        cfg = parse_config(QUICK_SWEEP)
        run_scaling_sweep(cfg, tmp_path / "sweep")
        del apply_counter[:]
        assert run_moser_check(cfg, tmp_path / "sweep" / "solution_eps_0.15.txt",
                               tmp_path / "moser")
        summary = json.loads((tmp_path / "moser" / "moser_summary.json").read_text())
        assert len(summary["caccioppoli"]) == 6
        assert len(apply_counter) == 3

    def test_uses_the_recorded_tolerance(self, tmp_path, monkeypatch):
        # solved at 1e-9, checked under a config that says 1e-8
        solved = parse_config(QUICK_SWEEP.replace("solver.grad_tol = 1e-8",
                                                  "solver.grad_tol = 1e-9"))
        result = run_scaling_sweep(solved, tmp_path / "sweep")
        path = tmp_path / "sweep" / "solution_eps_0.15.txt"
        header, _, _ = read_solution(path)
        rep = result.reports[-1]
        assert header["grad_tol"] == rep.grad_tol == 1e-9
        cfg = parse_config(QUICK_SWEEP)
        assert cfg.grad_tol == 1e-8
        assert header["residual"] == rep.residual and header["s"] == cfg.s
        seen = []
        check = runners.verify_caccioppoli_step

        def recorded(*args, grad_tol, **kwargs):
            seen.append(grad_tol)
            return check(*args, grad_tol=grad_tol, **kwargs)

        monkeypatch.setattr(runners, "verify_caccioppoli_step", recorded)
        assert run_moser_check(cfg, path, tmp_path / "moser")
        assert seen and all(g == rep.grad_tol for g in seen)

    def test_constant_solution_trivially_certified(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        mesh = cfg.build_mesh()
        path = tmp_path / "const.txt"
        write_solution(path, mesh, np.ones(mesh.n_total), cfg.config_sha256,
                       eps=0.2)
        ok = run_moser_check(cfg, path, tmp_path / "out")
        assert ok
        summary = json.loads((tmp_path / "out" / "moser_summary.json").read_text())
        assert summary["sup_estimate"] >= summary["actual_max"] == 1.0

    def test_records_the_embedding_constant(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        mesh = cfg.build_mesh()
        path = tmp_path / "const.txt"
        write_solution(path, mesh, np.ones(mesh.n_total), cfg.config_sha256,
                       eps=0.2)
        run_moser_check(cfg, path, tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "moser_summary.json").read_text())
        # on the caller's thread count: M is formed on one thread whatever it is
        want = fn.estimate_embedding_constant(fn.assemble(mesh, cfg.s, 0.2))
        assert summary["embedding_constant"] == want

    def test_missing_file_errors(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        with pytest.raises(FileNotFoundError):
            run_moser_check(cfg, tmp_path / "nope.txt", tmp_path)

    def test_wrong_mesh_rejected(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        other = fn.build_interval_mesh(-1.0, 1.0, 0.04, 2.0)
        path = tmp_path / "wrong.txt"
        write_solution(path, other, np.ones(other.n_total), "x", eps=0.2)
        with pytest.raises(ValueError, match="different mesh"):
            run_moser_check(cfg, path, tmp_path)


class TestRunnersOnOneBlasThread:
    """Each runner does its BLAS work on one thread and hands the caller's
    thread count back on every exit path."""

    @pytest.fixture
    def caller_on_two_threads(self):
        threads = operators._blas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
        get, set_ = threads
        before = get()
        set_(2)
        yield get
        set_(before)

    @staticmethod
    def constant_snapshot(cfg, path, eps=0.2, **header):
        mesh = cfg.build_mesh()
        write_solution(path, mesh, np.ones(mesh.n_total), cfg.config_sha256,
                       eps=eps, **header)
        return path

    @pytest.mark.parametrize("job, module, name", [
        ("sweep", np.linalg, "solve"),
        ("moser", operators, "_reduced_matrix"),
        ("identities", operators, "_graph_laplacian_apply"),
    ], ids=["sweep", "moser", "identities"])
    def test_blas_work_sees_one_thread(self, tmp_path, caller_on_two_threads,
                                       monkeypatch, job, module, name):
        get = caller_on_two_threads
        seen = []
        inner = getattr(module, name)

        def spy(*args, **kwargs):
            seen.append(get())
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        cfg = parse_config(QUICK_SWEEP.replace("0.3, 0.15", "0.3"))
        if job == "sweep":
            assert run_scaling_sweep(cfg, tmp_path).certificates_ok
        elif job == "moser":
            path = self.constant_snapshot(cfg, tmp_path / "const.txt")
            assert run_moser_check(cfg, path, tmp_path / "out")
        else:
            assert run_identity_suite(cfg, tmp_path)
        assert seen and set(seen) == {1}
        assert get() == 2

    def test_caller_count_restored_after_a_raise(self, tmp_path,
                                                 caller_on_two_threads,
                                                 monkeypatch):
        get = caller_on_two_threads
        seen = []
        read = runners.read_solution

        def spy(*args, **kwargs):
            seen.append(get())
            return read(*args, **kwargs)

        monkeypatch.setattr(runners, "read_solution", spy)
        cfg = parse_config(QUICK_SWEEP)
        path = self.constant_snapshot(cfg, tmp_path / "const.txt", s=0.3)
        with pytest.raises(ValueError, match="s=0.3"):
            run_moser_check(cfg, path, tmp_path / "out")
        assert seen == [1]
        assert get() == 2

    def test_outputs_do_not_depend_on_the_caller_count(self, tmp_path,
                                                       caller_on_two_threads):
        # on 100 interior nodes two threads move the last digit of the
        # embedding constant at eps = 0.15 when M is formed threaded
        set_ = operators._blas_threads()[1]
        cfg = parse_config(QUICK_SWEEP)
        path = self.constant_snapshot(cfg, tmp_path / "const.txt", eps=0.15)
        for threads in (1, 2):
            set_(threads)
            assert run_moser_check(cfg, path, tmp_path / str(threads))
        one, two = ((tmp_path / str(t) / "moser_summary.json").read_bytes()
                    for t in (1, 2))
        assert one == two

    def test_without_thread_control_is_a_no_op(self, tmp_path, monkeypatch):
        # a BLAS without OpenBLAS's symbols (MKL, Accelerate): the lookup
        # finds nothing and each runner runs as the caller set it up
        monkeypatch.setattr(operators.ctypes, "CDLL", lambda path: object())
        monkeypatch.setattr(operators, "_blas_threads",
                            functools.cache(operators._blas_threads.__wrapped__))
        assert operators._blas_threads() is None
        cfg = parse_config(QUICK_SWEEP)
        assert run_identity_suite(cfg, tmp_path / "identities")
        path = self.constant_snapshot(cfg, tmp_path / "const.txt")
        assert run_moser_check(cfg, path, tmp_path / "moser")


class TestSolutionFiles:
    def test_roundtrip(self, tmp_path):
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.1, 2.0)
        values = np.linspace(-1.0, 1.0, mesh.n_total)
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, values, "deadbeef", eps=0.25)
        header, coords, back = read_solution(path, mesh)
        assert header == {"dim": 1, "h": 0.1, "n_total": mesh.n_total,
                          "eps": 0.25}
        np.testing.assert_array_equal(back, values)
        np.testing.assert_allclose(coords, mesh.nodes, atol=1e-15)

    def test_roundtrip_of_the_solve_values(self, tmp_path):
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.1, 2.0)
        values = np.linspace(-1.0, 1.0, mesh.n_total)
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, values, "deadbeef", eps=0.25,
                       grad_tol=3e-9, residual=1.5e-10, s=0.4)
        assert path.read_text().splitlines()[1:5] == [
            "# eps=0.25", "# grad_tol=3e-09", "# residual=1.5e-10", "# s=0.4"]
        header, _, back = read_solution(path, mesh)
        assert header == {"dim": 1, "h": 0.1, "n_total": mesh.n_total,
                          "eps": 0.25, "grad_tol": 3e-9, "residual": 1.5e-10,
                          "s": 0.4}
        np.testing.assert_array_equal(back, values)

    def test_bytes_match_per_value_formatting(self, tmp_path):
        mesh = fn.build_box_mesh(((0.0, 1.0), (0.0, 0.5)), 0.125, 1.2)
        values = np.random.default_rng(3).standard_normal(mesh.n_total) / 3.0
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, values, "cafe", eps=0.3)
        lines = [f"# fracneumann {fn.__version__} config_sha256=cafe",
                 "# eps=0.3", f"2 {_fmt(mesh.h)} {mesh.n_total}"]
        lines += [" ".join(_fmt(v) for v in (*mesh.nodes[i], values[i]))
                  for i in range(mesh.n_total)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        header, coords, back = read_solution(path, mesh)
        np.testing.assert_array_equal(back, values)
        np.testing.assert_array_equal(coords, mesh.nodes)

    def test_header_mismatch_detected(self, tmp_path):
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.1, 2.0)
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, np.zeros(mesh.n_total), "x")
        text = path.read_text().splitlines()
        text[1] = "1 0.1 7"  # lie about the node count
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="nodes"):
            read_solution(path)

    def test_header_without_nodes_rejected(self, tmp_path):
        path = tmp_path / "sol.txt"
        path.write_text("# fracneumann\n1 0.1 0\n")
        with pytest.raises(ValueError, match="header says 0 nodes"):
            read_solution(path)

    @pytest.mark.parametrize("line", [
        "-0.95 0.5 0.25",  # a third token on a 1D line
        "-0.95",           # the value missing
        "-0.95 abc",       # a token that is not a number
    ], ids=["extra-token", "missing-token", "bad-token"])
    def test_bad_data_line_is_named(self, tmp_path, line):
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.1, 2.0)
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, np.zeros(mesh.n_total), "x", eps=0.2)
        text = path.read_text().splitlines()
        text[5] = line  # the third data line, after manifest, eps and header
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=rf"solution file {re.escape(str(path))}, "
                                             r"line 6: expected 1 coordinates"):
            read_solution(path, mesh)

    @pytest.mark.parametrize("header", ["1 abc 21", "1 0.1 21.0", "1 0.1"],
                             ids=["bad-h", "bad-count", "missing-token"])
    def test_bad_header_is_named(self, tmp_path, header):
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.1, 2.0)
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, np.zeros(mesh.n_total), "x", eps=0.2)
        text = path.read_text().splitlines()
        text[2] = header  # after manifest and eps
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=rf"solution file {re.escape(str(path))}, "
                                             r"line 3: header must be 'dim h node_count'"):
            read_solution(path, mesh)


class TestCli:
    def test_identities_exit_zero(self, quick_cfg_file, tmp_path, capsys):
        rc = main(["identities", "--config", str(quick_cfg_file),
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_sweep_and_moser_pipeline(self, quick_cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(quick_cfg_file),
                     "--out", str(out)]) == 0
        assert main(["moser", "--config", str(quick_cfg_file),
                     "--solution", str(out / "solution_eps_0.15.txt"),
                     "--out", str(tmp_path / "moser")]) == 0

    def test_moser_takes_eps_from_the_snapshot(self, quick_cfg_file, tmp_path):
        # a config that sets no eps checks the snapshot at its recorded eps
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(quick_cfg_file),
                     "--out", str(out)]) == 0
        bare = tmp_path / "bare.cfg"
        bare.write_text(QUICK_SWEEP.replace("eps = 0.2\n", "")
                        .replace("eps_list = 0.3, 0.15\n", ""))
        assert load_config(bare).eps is None and not load_config(bare).eps_list
        summaries = []
        for cfg_file in (quick_cfg_file, bare):
            moser_out = tmp_path / cfg_file.stem
            assert main(["moser", "--config", str(cfg_file), "--solution",
                         str(out / "solution_eps_0.15.txt"),
                         "--out", str(moser_out)]) == 0
            summaries.append(json.loads((moser_out / "moser_summary.json").read_text()))
        full, bare_summary = summaries
        assert full["eps"] == 0.15 and full["all_ok"] is True
        for key in ("K", "sup_estimate", "eps", "all_ok"):
            assert bare_summary[key] == full[key]

    def test_runtime_imports_numpy_only(self):
        # a fresh interpreter: this test process has scipy loaded already
        src = Path(fn.__file__).resolve().parents[1]
        code = ("import sys, fracneumann.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_exported_names_resolve(self):
        # every name a module lists in __all__ exists, and every name the
        # package re-exports is in its module's __all__
        for info in pkgutil.iter_modules(fn.__path__):
            mod = importlib.import_module(f"fracneumann.{info.name}")
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), (info.name, name)
        tree = ast.parse(Path(fn.__file__).read_text())
        imports = [n for n in tree.body if isinstance(n, ast.ImportFrom)]
        assert imports
        for node in imports:
            mod = importlib.import_module(f"fracneumann.{node.module}")
            for alias in node.names:
                assert alias.name in mod.__all__, (node.module, alias.name)
                assert getattr(fn, alias.name) is getattr(mod, alias.name)

    def test_sigma_output(self, capsys):
        assert main(["sigma"]) == 0
        out = capsys.readouterr().out
        assert "sigma(1)" in out
        assert "0.793700525984" in out

    def test_constants_output(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "K_q(N=1, q=2) = 0.666666666667" in out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("domain.h = -1\n")
        rc = main(["identities", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_auto_tolerance_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "auto.cfg"
        bad.write_text(QUICK_SWEEP.replace("solver.grad_tol = 1e-8",
                                           "solver.grad_tol = auto"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert ("key 'solver.grad_tol': expected a number, got 'auto'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_numerical_failure_exit_one(self, quick_cfg_file, tmp_path,
                                        monkeypatch, capsys):
        def unreliable(*args, **kwargs):
            raise RuntimeError("threshold certificates are unreliable")

        monkeypatch.setattr("fracneumann.runners.endpoint", unreliable)
        rc = main(["sweep", "--config", str(quick_cfg_file),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error: threshold certificates" in capsys.readouterr().err

    def test_order_mismatch_exit_two(self, quick_cfg_file, tmp_path, capsys):
        cfg = load_config(quick_cfg_file)
        mesh = cfg.build_mesh()
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, np.ones(mesh.n_total), cfg.config_sha256,
                       eps=0.2, s=0.3)
        rc = main(["moser", "--config", str(quick_cfg_file), "--solution",
                   str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "s=0.3" in capsys.readouterr().err

    def test_bad_snapshot_number_exit_two(self, quick_cfg_file, tmp_path, capsys):
        cfg = load_config(quick_cfg_file)
        mesh = cfg.build_mesh()
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, np.ones(mesh.n_total), cfg.config_sha256,
                       eps=0.2)
        lines = path.read_text().splitlines()
        assert lines[1] == "# eps=0.2"
        lines[1] = "# eps=abc"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["moser", "--config", str(quick_cfg_file), "--solution",
                   str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert (f"solution file {path}, line 2: eps must be a number, got 'abc'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, old, new", [
        ("sweep", "eps_list = 0.3, 0.15", "eps_list = 0.3, nan"),
        ("sweep", "solver.grad_tol = 1e-8", "solver.grad_tol = nan"),
        ("sweep", "domain.r_ext = 2.0", "domain.r_ext = inf"),
        ("sweep", "domain.r_ext = 2.0", "domain.r_ext = nan"),
        ("identities", "eps = 0.2", "eps = nan"),
    ], ids=["eps_list", "grad_tol", "r_ext-inf", "r_ext-nan", "eps"])
    def test_non_finite_config_value_exit_two(self, tmp_path, capsys, command,
                                              old, new):
        bad = tmp_path / "bad.cfg"
        bad.write_text(QUICK_SWEEP.replace(f"\n{old}\n", f"\n{new}\n"))
        assert new in bad.read_text()
        out = tmp_path / "out"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        key, _, value = (part.strip() for part in new.partition("="))
        raw = value.split(", ")[-1]
        assert (f"key '{key}': expected a finite number, got '{raw}'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("index, line, message", [
        (1, "# eps=nan", "line 2: eps must be a finite positive number, got 'nan'"),
        (2, "# grad_tol=nan",
         "line 3: grad_tol must be a finite positive number, got 'nan'"),
        (2, "# grad_tol=-1",
         "line 3: grad_tol must be a finite positive number, got '-1'"),
        (5, "{x} nan", "line 6: expected 1 coordinates + value per line, all "
                       "finite, got '{x} nan'"),
    ], ids=["eps-nan", "grad_tol-nan", "grad_tol-negative", "value-nan"])
    def test_malformed_snapshot_exit_two(self, quick_cfg_file, tmp_path, capsys,
                                         index, line, message):
        cfg = load_config(quick_cfg_file)
        mesh = cfg.build_mesh()
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, np.ones(mesh.n_total), cfg.config_sha256,
                       eps=0.15, grad_tol=1e-8)
        lines = path.read_text().splitlines()
        x = lines[5].split()[0]
        lines[index] = line.format(x=x)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["moser", "--config", str(quick_cfg_file), "--solution",
                   str(path), "--out", str(out)])
        assert rc == 2
        assert (f"solution file {path}, {message.format(x=x)}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_failed_chain_exit_one(self, quick_cfg_file, tmp_path, monkeypatch):
        # an absurdly small embedding constant fails every chain check; the
        # summary keeps each residual and both sides of each chain
        cfg = load_config(quick_cfg_file)
        mesh = cfg.build_mesh()
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, np.ones(mesh.n_total), cfg.config_sha256,
                       eps=0.2)
        monkeypatch.setattr(runners, "estimate_embedding_constant", lambda op: 1e-6)
        rc = main(["moser", "--config", str(quick_cfg_file), "--solution",
                   str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        summary = json.loads((tmp_path / "out" / "moser_summary.json").read_text())
        assert summary["all_ok"] is False and summary["sup_bound_ok"] is True
        entries = summary["caccioppoli"]
        assert len(entries) == 6
        for entry in entries:
            assert entry["chain_ok"] is False and entry["residual_ok"] is True
            assert entry["residual"] == 0.0
            assert entry["chain_lhs"] > entry["chain_rhs"]

    def test_missing_config_exit_two(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 2
