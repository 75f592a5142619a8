import inspect
import json
import math
import runpy
import sys
from pathlib import Path

import pytest

from spinsearch import cli
from spinsearch.cli import EXIT_CLASSIFICATION, EXIT_OK, EXIT_USAGE, main, parse_config_file
from spinsearch.experiment import run_experiments
from spinsearch.readout import AcquisitionParams
from spinsearch.spins import SpinSystem


GOLDEN = Path(__file__).parent / "golden"
SCAN_SCRIPT = Path(__file__).parents[1] / "scripts" / "pulse_error_scan.py"


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

    def test_all_labels_output_is_byte_identical(self, capsys):
        # every amplitude of the N = 4 search is exact, and a zero prints as
        # +0.000 whatever its sign bit
        code, out, _ = run_cli(capsys, "gate", "--all")
        assert code == EXIT_OK
        assert out == (GOLDEN / "gate_all.txt").read_text()

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
        # the n = 10 and n = 20 tables and four desk-scale rows, Monte-Carlo
        # column included, pinned byte for byte; n = 20, k = 1 runs 804 plane
        # steps and builds one 2**20-entry state
        goldens = {
            "search_scan_n10_seed1_trials2000.txt": [["--scan", "--n", "10"]],
            "search_scan_n20_seed1_trials2000.txt": [["--scan", "--n", "20"]],
            "search_n20_k1_seed1_trials2000.txt": [["--n", "20", "--k", "1"]],
            "search_large_n_seed1_trials2000.txt": [
                ["--n", "16", "--k", "1"],
                ["--n", "20", "--k", "262144"],
                ["--n", "20", "--k", "524288"],
            ],
        }
        for name, commands in goldens.items():
            out = ""
            for argv in commands:
                code, row, _ = run_cli(capsys, "search", *argv, "--seed", "1", "--trials", "2000")
                assert code == EXIT_OK
                out += row
            assert out == (GOLDEN / name).read_text(), name

    def test_multi_chunk_output_is_byte_identical(self, capsys):
        # 200000 trials draw the Monte-Carlo uniforms in four chunks; the row
        # equals the one made when all of them came from a single draw
        code, out, _ = run_cli(capsys, "search", "--n", "12", "--k", "1",
                               "--seed", "1", "--trials", "200000")
        assert code == EXIT_OK
        assert out == (GOLDEN / "search_n12_k1_seed1_trials200000.txt").read_text()

    def test_deepest_table_output_is_byte_identical(self, capsys):
        # n = 20, k = 1 grows the Monte-Carlo table to all 2**20 entries
        code, out, _ = run_cli(capsys, "search", "--n", "20", "--k", "1",
                               "--seed", "1", "--trials", "200000")
        assert code == EXIT_OK
        assert out == (GOLDEN / "search_n20_k1_seed1_trials200000.txt").read_text()

    def test_zero_trials_rejected(self, capsys):
        code, out, err = run_cli(capsys, "search", "--n", "4", "--k", "1",
                                 "--seed", "1", "--trials", "0")
        assert code == EXIT_USAGE
        assert "trials" in err
        assert "nan" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--trials", "-5"),
            ("--trials", "1"),
            ("--seed", "1", "--trials", "1"),
            ("--scan", "--trials", "0"),
            ("--scan", "--seed", "1", "--trials", "1"),
        ],
        ids=" ".join,
    )
    def test_fewer_than_two_trials_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, "search", "--n", "3", *argv)
        assert code == EXIT_USAGE
        assert "--trials must be at least 2" in err
        assert out == ""

    def test_two_trials_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "3", "--seed", "1", "--trials", "2")
        assert code == EXIT_OK
        assert "monte_carlo=" in out

    def test_k_larger_than_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "search", "--n", "2", "--k", "5")
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_scan_below_two_qubits_rejected(self, capsys, n):
        # the table starts at n = 2, so a smaller n would print no rows
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--scan", "--n", n])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--scan" in captured.err

    @pytest.mark.parametrize("flag,value", [("--k", "7"), ("--m", "99")])
    def test_scan_with_fixed_k_or_m_rejected(self, capsys, flag, value):
        # the scan chooses k in {1, N/4, N/2} and the optimal m itself
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--scan", "--n", "3", flag, value])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"drop {flag}" in captured.err

    def test_n_over_desk_scale_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--n", "21"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("n", ["-2", "0", "21"])
    def test_n_outside_qubit_range_rejected(self, capsys, n):
        # N = 2**n is a fraction for n < 0, so the range is checked before k
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--n", n])
        assert excinfo.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "between 1 and 20" in captured.err


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
        # the reference is read against itself
        assert [peak["height_rel"] for peak in by_name["ref"]["peaks"]] == [1.0] * 4

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

    def test_subnormal_pulse_duration_reads_every_label(self, capsys, tmp_path, fast_config):
        # the shortest positive duration is an ideal pulse, not an overflow
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "pulse", "--config", fast_config, "--error-tp", "5e-324",
            "--out", str(out_dir),
        )
        assert code == EXIT_OK, err
        for name in ("f00", "f01", "f10", "f11"):
            assert f"{name}: qubits [{name[1]}, {name[2]}], fidelity 1.000000" in out.splitlines()

    @pytest.mark.parametrize("t_p", ["1e306", "1e308"])
    def test_overflowing_pulse_duration_is_usage_error(self, capsys, tmp_path, fast_config, t_p):
        # the pulse's rotation overflows: a usage error naming t_p, not a math error
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "pulse", "--config", fast_config, "--error-tp", t_p, "--out", str(out_dir),
        )
        assert code == EXIT_USAGE
        assert "t_p" in err
        assert "math domain error" not in err
        assert not out_dir.exists()

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

    def test_omitted_keys_take_the_dataclass_defaults(self, capsys, tmp_path):
        # a config that spells out every default writes the same bytes as
        # one that leaves them to SpinSystem, AcquisitionParams and
        # run_experiments
        spin, acq = SpinSystem(), AcquisitionParams()
        epsilon = inspect.signature(run_experiments).parameters["epsilon"].default
        spelled = tmp_path / "spelled.cfg"
        spelled.write_text(
            f"nu1_hz = {spin.nu1}\nnu2_hz = {spin.nu2}\nj_hz = {spin.j}\nt2_s = {spin.t2}\n"
            f"spectral_width_hz = {acq.spectral_width}\nn_points = 1024\nepsilon = {epsilon}\n"
        )
        partial = tmp_path / "partial.cfg"
        partial.write_text("n_points = 1024\n")
        out_dir = tmp_path / "out"  # shared, so stdout names the same directory
        outs = []
        for path in (spelled, partial):
            code, stdout, _ = run_cli(capsys, "pulse", "--config", str(path), "--out", str(out_dir))
            assert code == EXIT_OK
            names = ("ref.csv", "f00.csv", "f01.csv", "f10.csv", "f11.csv", "summary.json")
            outs.append((stdout, [(out_dir / name).read_bytes() for name in names]))
        assert outs[0] == outs[1]

    def test_tiny_purity_reads_at_every_spectral_width(self, capsys, tmp_path):
        codes = {}
        for width in (512, 4096):
            path = tmp_path / f"sw{width}.cfg"
            path.write_text(f"spectral_width_hz = {width}\nn_points = 1024\n")
            codes[width] = run_cli(capsys, "pulse", "--config", str(path), "--epsilon", "1e-12",
                                   "--out", str(tmp_path / f"out{width}"))[0]
        assert codes == {512: EXIT_OK, 4096: EXIT_OK}

    @pytest.mark.parametrize(
        "config, flags, expected",
        [
            ("n_points = 1024\n", ["--epsilon", "-inf"], EXIT_USAGE),
            ("spectral_width_hz = 100\n", [], EXIT_USAGE),
            ("n_points = 1024\n", ["--epsilon", "1e-16"], EXIT_CLASSIFICATION),
        ],
        ids=["non-finite-purity", "aliasing-width", "no-signal"],
    )
    def test_rejected_run_creates_no_directory(self, capsys, tmp_path, config, flags, expected):
        path = tmp_path / "run.cfg"
        path.write_text(config)
        fresh = tmp_path / "fresh"
        code, out, _ = run_cli(capsys, "pulse", "--config", str(path), *flags,
                               "--out", str(fresh / "out"))
        assert code == expected
        assert out == ""
        assert not fresh.exists()

    def test_oversized_grid_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        # 2**40 points would need an 80 TiB block of spectra; the run must end
        # at validation, so a set that starts fails the test, not the host
        def no_set(*args, **kwargs):
            raise AssertionError("an experiment set started")

        monkeypatch.setattr(cli, "run_experiments", no_set)
        path = tmp_path / "huge.cfg"
        path.write_text("n_points = 1099511627776\n")
        fresh = tmp_path / "fresh"
        code, out, err = run_cli(capsys, "pulse", "--config", str(path), "--out", str(fresh))
        assert code == EXIT_USAGE
        assert out == ""
        assert "n_points must be at most 1048576" in err
        assert not fresh.exists()

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

    @pytest.mark.parametrize(
        "value",
        ["0", "0.0", "-0.0", "-1.5", "-1e-4", "-1.5E+3", "-.5e-2", "-inf", "-Infinity", "-NaN"],
    )
    def test_non_positive_pulse_duration_is_usage_error(self, capsys, tmp_path, fast_config, value):
        # "-inf" and "-nan" reach the package's finiteness check instead of
        # being read as options
        code, out, err = run_cli(capsys, "pulse", "--config", fast_config, "--error-tp", value,
                                 "--out", str(tmp_path))
        assert code == EXIT_USAGE
        finite = math.isfinite(float(value))
        assert ("soft-pulse mode requires t_p > 0" if finite else "t_p must be finite") in err
        assert out == ""
        assert not (tmp_path / "summary.json").exists()

    def test_negative_purity_with_exponent_is_usage_error(self, capsys, tmp_path, fast_config):
        # "-1e-3" reaches the purity check instead of being read as an option
        code, out, err = run_cli(capsys, "pulse", "--config", fast_config, "--epsilon", "-1e-3",
                                 "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "purity parameter must satisfy 0 < epsilon <= 1" in err
        assert out == ""
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("value", ["-inf", "-INF", "-infinity", "-Infinity", "-nan", "-NaN"])
    def test_negative_non_finite_purity_is_usage_error(self, capsys, tmp_path, fast_config, value):
        code, out, err = run_cli(capsys, "pulse", "--config", fast_config, "--epsilon", value,
                                 "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "purity parameter must satisfy 0 < epsilon <= 1" in err
        assert out == ""
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("key, value", [("n_points", "abc"), ("j_hz", "7 Hz"), ("t2_s", "")])
    def test_non_numeric_config_value_quotes_its_line(self, capsys, tmp_path, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"# comment\nnu1_hz = 80\n{key} = {value}\n")
        code, _, err = run_cli(capsys, "pulse", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert f"{bad}:3: {key} must be a number, got {value!r}" in err
        assert not (tmp_path / "summary.json").exists()

    def test_repeated_config_key_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_points = 1024\nj_hz = 7\n# again\nn_points = 2048\n")
        code, _, err = run_cli(capsys, "pulse", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert f"{bad}:4: repeated key 'n_points'" in err
        assert not (tmp_path / "summary.json").exists()

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


class TestPulseErrorScanScript:
    def test_output_is_byte_identical(self, capsys, monkeypatch):
        # three soft-pulse experiment sets, fidelities and readouts pinned byte for byte
        monkeypatch.setattr(sys, "argv", [str(SCAN_SCRIPT), "--points", "3"])
        assert runpy.run_path(str(SCAN_SCRIPT))["main"]() == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "pulse_error_scan_points3.txt").read_text()
