import json

import numpy as np
import pytest

import fracneumann as fn
from fracneumann.cli import main
from fracneumann.config import ConfigError, parse_config
from fracneumann.reports import read_solution, write_solution
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
nonlinearity.model = power
nonlinearity.p = 3.0
solver.grad_tol = 1e-8
moser.n_max = 12
seed = 0
"""


@pytest.fixture()
def quick_cfg_file(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK_SWEEP)
    return path


class TestConfigParsing:
    def test_roundtrip_defaults(self):
        cfg = parse_config(QUICK_SWEEP)
        assert cfg.domain_kind == "interval"
        assert cfg.eps_list == [0.3, 0.15]
        assert cfg.grad_tol == 1e-8

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("domain.radius = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("s = 0.25\ns = 0.3\n")

    def test_empty_eps_list(self):
        with pytest.raises(ConfigError, match="eps_list is empty"):
            parse_config("eps_list =\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("domain.h = tiny\n")

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

    def test_fault_injection_fails_and_names_identity(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        ok = run_identity_suite(cfg, tmp_path, corrupt_weight=True)
        assert not ok
        report = json.loads((tmp_path / "identities.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert "gauss_identity_relative" in failed or \
            "green_identity_relative" in failed


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
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["level_over_epsN"]["ratio"] >= 1.0
        assert summary["smallest_eps_level_vs_constant"] < 1.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        run_scaling_sweep(cfg, tmp_path / "a")
        run_scaling_sweep(cfg, tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            other = tmp_path / "b" / f.name
            assert f.read_bytes() == other.read_bytes(), f.name

    def test_weights_assembled_once(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP)
        result = run_scaling_sweep(cfg, tmp_path)
        assert [sp.eps for sp in result.specs] == cfg.eps_list
        assert all(sp.op.weights is result.specs[0].op.weights
                   for sp in result.specs)

    def test_missing_eps_list(self, tmp_path):
        cfg = parse_config(QUICK_SWEEP.replace("eps_list = 0.3, 0.15\n", ""))
        with pytest.raises(ConfigError, match="eps_list"):
            run_scaling_sweep(cfg, tmp_path)


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

    def test_header_mismatch_detected(self, tmp_path):
        mesh = fn.build_interval_mesh(-1.0, 1.0, 0.1, 2.0)
        path = tmp_path / "sol.txt"
        write_solution(path, mesh, np.zeros(mesh.n_total), "x")
        text = path.read_text().splitlines()
        text[1] = "1 0.1 7"  # lie about the node count
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="nodes"):
            read_solution(path)


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

    def test_numerical_failure_exit_one(self, quick_cfg_file, tmp_path,
                                        monkeypatch, capsys):
        def unreliable(*args, **kwargs):
            raise RuntimeError("threshold certificates are unreliable")

        monkeypatch.setattr("fracneumann.runners.endpoint", unreliable)
        rc = main(["sweep", "--config", str(quick_cfg_file),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error: threshold certificates" in capsys.readouterr().err

    def test_missing_config_exit_two(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 2
