import json
from pathlib import Path

import pytest

from spinsearch.cli import EXIT_CLASSIFICATION, EXIT_OK, EXIT_USAGE, main, parse_config_file


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGateCommand:
    def test_all_labels(self, capsys):
        code, out, _ = run_cli(capsys, "gate", "--all")
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line.startswith("f")]
        assert len(lines) == 4
        for name, bits in (("f00", "00"), ("f01", "01"), ("f10", "10"), ("f11", "11")):
            assert any(line.startswith(f"{name}: result: |{bits}>") for line in lines)

    def test_single_label(self, capsys):
        code, out, _ = run_cli(capsys, "gate", "f01")
        assert code == EXIT_OK
        assert "result: |01>, probability 1.000" in out

    def test_invalid_label_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gate", "f2x"])
        assert excinfo.value.code == EXIT_USAGE


class TestSearchCommand:
    def test_two_qubit_row(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "2", "--k", "1")
        assert code == EXIT_OK
        assert "m=1" in out
        assert "p_success=1.000000" in out
        assert "classical_exact=2.5000" in out

    def test_scan_contains_quarter_marked_row(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--scan", "--n", "4")
        assert code == EXIT_OK
        row = next(line for line in out.splitlines() if "N=16" in line and "k=4" in line)
        assert "m=1" in row
        assert "p_success=1.000000" in row

    def test_ten_qubit_single_marked(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "10", "--k", "1")
        assert code == EXIT_OK
        assert "m=25" in out
        assert "p_success=0.9995" in out or "p_success=0.9994" in out

    def test_monte_carlo_with_seed_deterministic(self, capsys):
        code, out_a, _ = run_cli(capsys, "search", "--n", "4", "--k", "2",
                                 "--seed", "7", "--trials", "20000")
        code_b, out_b, _ = run_cli(capsys, "search", "--n", "4", "--k", "2",
                                   "--seed", "7", "--trials", "20000")
        assert code == code_b == EXIT_OK
        assert "monte_carlo=" in out_a
        assert out_a == out_b

    def test_scan_output_is_byte_identical(self, capsys):
        # the full table, Monte-Carlo column included, pinned byte for byte
        code, out, _ = run_cli(capsys, "search", "--scan", "--n", "10",
                               "--seed", "1", "--trials", "2000")
        assert code == EXIT_OK
        assert out == (GOLDEN / "search_scan_n10_seed1_trials2000.txt").read_text()

    def test_zero_trials_rejected(self, capsys):
        code, out, err = run_cli(capsys, "search", "--n", "4", "--k", "1",
                                 "--seed", "1", "--trials", "0")
        assert code == EXIT_USAGE
        assert "trials" in err
        assert "nan" not in out

    def test_k_larger_than_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "search", "--n", "2", "--k", "5")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_n_over_desk_scale_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--n", "21"])
        assert excinfo.value.code == EXIT_USAGE


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# fast test configuration\n"
        "nu1_hz = 80\n"
        "nu2_hz = -80\n"
        "j_hz = 7\n"
        "t2_s = 1.0\n"
        "spectral_width_hz = 512\n"
        "n_points = 1024\n"
    )
    return str(path)


class TestPulseCommand:
    def test_default_run_writes_outputs(self, capsys, tmp_path, fast_config):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "pulse", "--config", fast_config, "--out", str(out_dir)
        )
        assert code == EXIT_OK
        for name in ("ref", "f00", "f01", "f10", "f11"):
            assert (out_dir / f"{name}.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [doc["experiment"] for doc in summary] == ["ref", "f00", "f01", "f10", "f11"]
        by_name = {doc["experiment"]: doc for doc in summary}
        assert by_name["f10"]["qubits"] == [1, 0]
        assert by_name["f01"]["qubits"] == [0, 1]
        assert "fidelity" not in by_name["f00"]

    def test_reduced_purity_scales_heights(self, capsys, tmp_path, fast_config):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "pulse", "--config", fast_config, "--epsilon", "0.2",
            "--out", str(out_dir),
        )
        assert code == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        for doc in summary:
            if doc["experiment"] == "ref":
                continue
            for peak in doc["peaks"]:
                assert abs(peak["height_rel"]) == pytest.approx(0.2, abs=1e-3)
            assert doc["qubits"] == [int(doc["experiment"][1]), int(doc["experiment"][2])]

    def test_soft_pulse_run_reports_fidelity(self, capsys, tmp_path, fast_config):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "pulse", "--config", fast_config, "--error-tp", "2e-4",
            "--out", str(out_dir),
        )
        assert code == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        by_name = {doc["experiment"]: doc for doc in summary}
        heights = [abs(p["height_rel"]) for p in by_name["f00"]["peaks"]]
        assert any(abs(h - 1.0) > 0.01 for h in heights)
        for name in ("f00", "f01", "f10", "f11"):
            assert 0.0 < by_name[name]["fidelity"] < 1.0
            assert by_name[name]["qubits"] == [int(name[1]), int(name[2])]

    def test_scrambling_duration_reports_failure(self, capsys, tmp_path, fast_config):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "pulse", "--config", fast_config, "--error-tp", "5e-3",
            "--out", str(out_dir),
        )
        assert code == EXIT_CLASSIFICATION

    def test_byte_identical_outputs(self, capsys, tmp_path, fast_config):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert run_cli(capsys, "pulse", "--config", fast_config, "--out", str(dir_a))[0] == EXIT_OK
        assert run_cli(capsys, "pulse", "--config", fast_config, "--out", str(dir_b))[0] == EXIT_OK
        for name in ("ref.csv", "f00.csv", "f01.csv", "f10.csv", "f11.csv", "summary.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    @pytest.mark.parametrize(
        "config",
        [
            # lines half-way between 1 Hz grid points, beyond 3 linewidths (0.24 Hz)
            "nu1_hz = 200\nnu2_hz = -200\nj_hz = 7\nt2_s = 4\n"
            "spectral_width_hz = 1024\nn_points = 1024\n",
            # small J at the default 4096 points and 512 Hz
            "nu1_hz = 40\nnu2_hz = -40\nj_hz = 2\n",
            # a reference line more than 3 linewidths from every grid point
            "nu1_hz = -170\nnu2_hz = -826\nj_hz = 17.5\nt2_s = 4\n"
            "spectral_width_hz = 5000\nn_points = 2048\n",
        ],
        ids=["between-grid-points", "small-j", "far-off-grid"],
    )
    def test_off_grid_configurations_read_every_label(self, capsys, tmp_path, config):
        path = tmp_path / "run.cfg"
        path.write_text(config)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "pulse", "--config", str(path), "--out", str(out_dir))
        assert code == EXIT_OK, err
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [doc["experiment"] for doc in summary] == ["ref", "f00", "f01", "f10", "f11"]
        for doc in summary[1:]:
            assert doc["qubits"] == [int(doc["experiment"][1]), int(doc["experiment"][2])]

    def test_env_var_overrides_out_dir(self, capsys, tmp_path, fast_config, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("SPINSEARCH_OUT", str(env_dir))
        code, _, _ = run_cli(
            capsys, "pulse", "--config", fast_config, "--out", str(tmp_path / "ignored")
        )
        assert code == EXIT_OK
        assert (env_dir / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_seed_is_not_an_option(self, capsys, tmp_path, fast_config):
        # the pulse pipeline is deterministic; there is nothing to seed
        with pytest.raises(SystemExit) as excinfo:
            main(["pulse", "--config", fast_config, "--seed", "1", "--out", str(tmp_path)])
        assert excinfo.value.code == EXIT_USAGE

    def test_invalid_config_key_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("frequency = 80\n")
        code, _, err = run_cli(capsys, "pulse", "--config", str(bad))
        assert code == EXIT_USAGE
        assert "unknown key" in err

    def test_invalid_config_value_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("j_hz = -7\n")
        code, _, err = run_cli(capsys, "pulse", "--config", str(bad))
        assert code == EXIT_USAGE

    def test_non_finite_config_value_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("t2_s = nan\n")
        code, _, err = run_cli(capsys, "pulse", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "t2 must be finite" in err
        assert not (tmp_path / "summary.json").exists()

    def test_non_finite_pulse_duration_is_usage_error(self, capsys, tmp_path, fast_config):
        code, _, err = run_cli(capsys, "pulse", "--config", fast_config, "--error-tp", "nan",
                               "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "t_p must be finite" in err

    @pytest.mark.parametrize("value", ["4096.7", "1024.5", "inf"])
    def test_fractional_n_points_is_usage_error(self, capsys, tmp_path, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"n_points = {value}\n")
        code, _, err = run_cli(capsys, "pulse", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "n_points must be an integer" in err
        assert not (tmp_path / "summary.json").exists()


class TestConfigParser:
    def test_parses_keys_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("nu1_hz = 120 # comment\n\n# full line\nj_hz = 9\n")
        assert parse_config_file(str(path)) == {"nu1_hz": 120.0, "j_hz": 9.0}

    def test_rejects_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("nu1_hz 120\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(str(path))
