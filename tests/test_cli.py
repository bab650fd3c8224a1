"""Tests for the command-line interface and its file formats."""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import pilotspace.crb
from pilotspace import fileio
from pilotspace.cli import ConfigError, load_run_config, main
from pilotspace.experiments import ExperimentConfig, run_multipath
from pilotspace.models import UlaGeometry, steering_derivative, steering_vector


def run_cli(*argv):
    return main(list(argv))


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestMatrixRoundTrip:
    def test_bit_equal(self, tmp_path):
        rng = np.random.default_rng(0)
        M = random_complex(rng, 5, 3) * np.pi
        path = tmp_path / "m.json"
        fileio.write_matrix(path, M)
        back = fileio.read_matrix(path)
        assert back.shape == M.shape
        assert np.array_equal(back, M)  # exact, not approximate

    def test_rejects_wrong_dims(self, tmp_path):
        path = tmp_path / "bad.json"
        obj = fileio.matrix_to_json_obj(np.eye(2))
        obj["rows"] = 3
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="dims header"):
            fileio.read_matrix(path)

    @pytest.mark.parametrize("key, value, message", [
        ("rows", None, "nonnegative integers"),
        ("cols", "2", "nonnegative integers"),
        ("rows", 2.0, "nonnegative integers"),
        ("data", 5, "dims header"),
        ("data", [1, 2], "dims header"),
    ])
    def test_rejects_malformed_header(self, tmp_path, key, value, message):
        path = tmp_path / "bad.json"
        obj = fileio.matrix_to_json_obj(np.eye(2))
        obj[key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=message) as excinfo:
            fileio.read_matrix(path)
        assert str(excinfo.value).startswith(f"{path}: ")


class TestDesignCommand:
    def test_ls_design_files(self, tmp_path, capsys):
        out = tmp_path / "M.json"
        code = run_cli(
            "design", "--model", "ls", "--nt", "4", "--power", "1",
            "--sigma2", "0.5", "--output", str(out),
        )
        assert code == 0
        M = fileio.read_matrix(out)
        assert M.shape == (4, 4)
        report = json.loads((tmp_path / "M.report.json").read_text())
        assert report["crb_min"] == pytest.approx(0.5 * 16 / 1, rel=1e-9)
        assert report["achieved_crb"] == pytest.approx(report["crb_min"], rel=1e-8)
        assert report["n_columns"] == 4

    def test_physical_design_matches_closed_form(self, tmp_path):
        out = tmp_path / "M.json"
        code = run_cli(
            "design", "--model", "physical", "--azimuths", "0",
            "--nt", "64", "--power", "1", "--output", str(out),
        )
        assert code == 0
        M = fileio.read_matrix(out)
        assert M.shape == (64, 2)
        geom = UlaGeometry(64)
        e = steering_vector(geom, 0.0)
        de = steering_derivative(geom, 0.0)
        de = de / np.linalg.norm(de)
        scale = math.sqrt(1.0 / (math.sqrt(2) + 1))
        ref = np.stack([scale * 2**0.25 * e, scale * de], axis=1)
        # Compare up to per-column phases through M M^H.
        assert np.allclose(M @ np.conj(M.T), ref @ np.conj(ref.T), atol=1e-10)

    @pytest.mark.parametrize("model", ["physical", "angle-constrained"])
    def test_non_finite_azimuth_exit_1(self, tmp_path, capsys, model):
        code = run_cli("design", "--model", model, "--azimuths", "nan,10",
                       "--nt", "8", "--power", "1", "--output", str(tmp_path / "M.json"))
        assert code == 1
        assert capsys.readouterr().err == "error: azimuths must be finite\n"
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_azimuths_exit_2(self, capsys):
        code = run_cli(
            "design", "--model", "physical", "--azimuths", "0,0",
            "--nt", "64", "--power", "1",
        )
        assert code == 2
        assert "rank deficient" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sigma2", "--power"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_noise_or_power_exit_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "M.json"
        argv = {"--model": "physical", "--azimuths": "0,20", "--nt": "16",
                "--power": "1", "--sigma2": "1", "--output": str(out)}
        argv[flag] = value
        code = run_cli("design", *[t for pair in argv.items() for t in pair])
        assert code == 1
        assert f"{flag[2:]} must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_report_path(self, tmp_path, capsys):
        out, report = tmp_path / "M.json", tmp_path / "custom.json"
        code = run_cli("design", "--model", "ls", "--nt", "3", "--power", "2",
                       "--output", str(out), "--report", str(report))
        assert code == 0
        assert sorted(tmp_path.iterdir()) == [out, report]
        assert json.loads(report.read_text())["n_columns"] == 3
        assert capsys.readouterr().err == f"wrote {out} and {report}\n"

    def test_report_without_output_exit_1(self, tmp_path, capsys):
        report = tmp_path / "R.json"
        code = run_cli("design", "--model", "ls", "--nt", "3", "--power", "2",
                       "--report", str(report))
        assert code == 1
        captured = capsys.readouterr()
        assert "--report" in captured.err and "--output" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_report_same_as_output_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli("design", "--model", "ls", "--nt", "2", "--power", "1",
                       "--output", "same.json", "--report", "same.json")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --report same.json and --output same.json name the same file\n")
        assert list(tmp_path.iterdir()) == []

    def test_report_linked_to_output_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        link = tmp_path / "link.json"
        link.symlink_to("same.json")        # dangling until same.json is written
        code = run_cli("design", "--model", "ls", "--nt", "2", "--power", "1",
                       "--output", "same.json", "--report", "./link.json")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --report ./link.json and --output same.json name the same file\n")
        assert list(tmp_path.iterdir()) == [link]
        assert not (tmp_path / "same.json").exists()

    def test_report_hard_linked_to_output_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "same.json").write_text("kept\n")
        os.link(tmp_path / "same.json", tmp_path / "link.json")
        code = run_cli("design", "--model", "ls", "--nt", "2", "--power", "1",
                       "--output", "same.json", "--report", "link.json")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --report link.json and --output same.json name the same file\n")
        assert (tmp_path / "same.json").read_text() == "kept\n"

    @pytest.mark.parametrize("output, report", [("M.json", "nodir/R.json"),
                                                ("nodir/M.json", "R.json")])
    def test_unwritable_path_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                             output, report):
        monkeypatch.chdir(tmp_path)
        code = run_cli("design", "--model", "ls", "--nt", "2", "--power", "1",
                       "--output", output, "--report", report)
        assert code == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_stdout_payload(self, capsys):
        code = run_cli("design", "--model", "ls", "--nt", "2", "--power", "1")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"]["rows"] == 2
        assert "report" in payload


class TestCrbCommand:
    def test_round_trip_with_design(self, tmp_path, capsys):
        out = tmp_path / "M.json"
        sigma2 = 0.5
        run_cli(
            "design", "--model", "ls", "--nt", "4", "--power", "1",
            "--sigma2", str(sigma2), "--output", str(out),
        )
        report = json.loads((tmp_path / "M.report.json").read_text())
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps([0.1] * 8))
        code = run_cli(
            "crb", "--model", "ls", "--nt", "4", "--theta", str(theta),
            "--m", str(out), "--sigma2", str(sigma2),
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identifiable"] is True
        assert payload["crb"] == pytest.approx(report["crb_min"], rel=1e-8)
        assert payload["nm_required"] == 4 and payload["nm_given"] == 4

    def test_single_column_not_identifiable(self, tmp_path, capsys):
        geom = UlaGeometry(16)
        m_path = tmp_path / "one.json"
        fileio.write_matrix(m_path, steering_vector(geom, 0.0).reshape(-1, 1))
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps([1.0, 0.0, 0.0]))
        code = run_cli(
            "crb", "--model", "physical", "--nt", "16",
            "--theta", str(theta), "--m", str(m_path),
        )
        assert code == 0  # an answer, not a failure
        payload = json.loads(capsys.readouterr().out)
        assert payload["identifiable"] is False
        assert payload["crb"] == "inf"
        assert payload["nm_given"] == 1 and payload["nm_required"] == 2

    @pytest.mark.parametrize("command", ["crb", "identify"])
    def test_non_finite_sigma2_exit_1(self, tmp_path, capsys, command):
        m = tmp_path / "M.json"
        fileio.write_matrix(m, np.eye(4))
        code = run_cli(command, "--model", "ls", "--nt", "4", "--m", str(m),
                       "--sigma2", "inf")
        assert code == 1
        captured = capsys.readouterr()
        assert "sigma2 must be finite and positive" in captured.err
        assert captured.out == ""

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        theta = tmp_path / "theta.json"
        theta.write_text("[0.0, 0.0]")
        code = run_cli(
            "crb", "--model", "ls", "--nt", "1", "--theta", str(theta),
            "--m", str(bad),
        )
        assert code == 1

    def test_non_finite_matrix_exit_1(self, tmp_path, capsys):
        # Python's json reads NaN/Infinity literals; they must not reach LAPACK.
        m_path = tmp_path / "m.json"
        fileio.write_matrix(m_path, np.array([[np.nan + 0j], [1.0]]))
        theta = tmp_path / "theta.json"
        theta.write_text("[0.0, 0.0, 0.0, 0.0]")
        code = run_cli(
            "crb", "--model", "ls", "--nt", "2", "--theta", str(theta),
            "--m", str(m_path),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(m_path) in err and "non-finite" in err

    def test_non_finite_theta_exit_1(self, tmp_path, capsys):
        m_path = tmp_path / "m.json"
        fileio.write_matrix(m_path, np.eye(2))
        theta = tmp_path / "theta.json"
        theta.write_text("[0.0, Infinity, 0.0, 0.0]")
        code = run_cli(
            "crb", "--model", "ls", "--nt", "2", "--theta", str(theta),
            "--m", str(m_path),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(theta) in err and "non-finite" in err

    @pytest.mark.parametrize("data, problem", [
        ([[1.0], [2.0]], "not an [re, im] pair"),
        ([[["a", "b"]], [[1.0, 0.0]]], "not an [re, im] pair"),
        ([[[True, 1]], [[1.0, 0.0]]], "not an [re, im] pair"),
        ([[[1.0, 0.0, 0.0]], [[1.0, 0.0]]], "not an [re, im] pair"),
        ([[[10**400, 0]], [[1.0, 0.0]]], "non-finite"),
    ], ids=["number", "strings", "bool", "triple", "beyond-double"])
    def test_malformed_matrix_entry_exit_1(self, tmp_path, capsys, data, problem):
        m_path = tmp_path / "m.json"
        obj = fileio.matrix_to_json_obj(np.ones((2, 1)))
        obj["data"] = data
        m_path.write_text(json.dumps(obj))
        theta = tmp_path / "theta.json"
        theta.write_text("[0.0, 0.0, 0.0, 0.0]")
        code = run_cli(
            "crb", "--model", "ls", "--nt", "2", "--theta", str(theta),
            "--m", str(m_path),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{m_path}: entry [0][0]" in err and problem in err

    @pytest.mark.parametrize("content", [b"{ nope", b"\xff\xfe[]"],
                             ids=["invalid-json", "not-utf8"])
    @pytest.mark.parametrize("flag", ["--m", "--theta"])
    def test_invalid_json_names_file(self, tmp_path, capsys, flag, content):
        files = {"--m": tmp_path / "m.json", "--theta": tmp_path / "theta.json"}
        fileio.write_matrix(files["--m"], np.eye(2))
        files["--theta"].write_text("[0.0, 0.0, 0.0, 0.0]")
        files[flag].write_bytes(content)
        code = run_cli(
            "crb", "--model", "ls", "--nt", "2", "--theta", str(files["--theta"]),
            "--m", str(files["--m"]),
        )
        assert code == 1
        assert f"error: {files[flag]}: invalid JSON: " in capsys.readouterr().err

    def test_theta_beyond_double_range_exit_1(self, tmp_path, capsys):
        m_path = tmp_path / "m.json"
        fileio.write_matrix(m_path, np.eye(2))
        theta = tmp_path / "theta.json"
        theta.write_text(f"[0.0, {10**400}, 0.0, 0.0]")
        code = run_cli(
            "crb", "--model", "ls", "--nt", "2", "--theta", str(theta),
            "--m", str(m_path),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(theta) in err and "non-finite" in err

    def test_theta_length_mismatch_exit_1(self, tmp_path, capsys):
        m_path = tmp_path / "m.json"
        fileio.write_matrix(m_path, np.eye(2, dtype=complex))
        theta = tmp_path / "theta.json"
        theta.write_text("[0.0, 0.0, 0.0]")
        code = run_cli("crb", "--model", "ls", "--nt", "2", "--theta", str(theta),
                       "--m", str(m_path))
        assert code == 1
        assert capsys.readouterr().err == "error: theta has length 3, model expects 4\n"

    @pytest.mark.parametrize("command", ["crb", "identify"])
    def test_m_row_count_mismatch_exit_1(self, tmp_path, capsys, command):
        m_path = tmp_path / "m.json"
        fileio.write_matrix(m_path, np.ones((3, 2), dtype=complex))
        theta = tmp_path / "theta.json"
        theta.write_text("[0.0, 0.0, 0.0, 0.0]")
        code = run_cli(
            command, "--model", "ls", "--nt", "2", "--theta", str(theta),
            "--m", str(m_path),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(m_path) in err
        assert "3 rows" in err and "dimension is 2" in err

    @pytest.mark.parametrize("design_azimuths, verdict", [
        ("-30,5,41", (True, 5, 5)),
        ("12", (False, 2, 5)),
    ], ids=["matching", "undersized"])
    @pytest.mark.parametrize("command", ["crb", "identify"])
    def test_one_compression_spectrum(self, tmp_path, capsys, monkeypatch, command,
                                      design_azimuths, verdict):
        # Both the verdict and the bound come from a single spectrum.
        m_path = tmp_path / "M.json"
        run_cli("design", "--model", "physical", f"--azimuths={design_azimuths}",
                "--nt", "16", "--power", "1", "--output", str(m_path))
        capsys.readouterr()
        calls = []
        spectra = pilotspace.crb.compression_spectra

        def counted(basis, Ms):
            calls.append(Ms.shape)
            return spectra(basis, Ms)

        monkeypatch.setattr(pilotspace.crb, "compression_spectra", counted)
        code = run_cli(command, "--model", "physical", "--azimuths=-30,5,41",
                       "--nt", "16", "--m", str(m_path))
        assert code == 0
        assert len(calls) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["identifiable"], payload["nm_required"], payload["nm_given"]) == (
            verdict[0], verdict[2], verdict[1])

    def test_identify_drops_crb_field(self, tmp_path, capsys):
        m_path = tmp_path / "m.json"
        run_cli(
            "design", "--model", "angle-constrained", "--azimuths", "0,20",
            "--nt", "16", "--power", "1", "--output", str(m_path),
        )
        capsys.readouterr()
        code = run_cli(
            "identify", "--model", "angle-constrained", "--azimuths", "0,20",
            "--nt", "16", "--m", str(m_path),
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "crb" not in payload
        assert payload["identifiable"] is True
        assert "message" in payload


@pytest.fixture
def config_file(tmp_path):
    doc = {
        "schema_version": 1,
        "experiment": {
            "n_trials": 25,
            "seed": 7,
            "psnr_grid_db": [-10, 0, 10, 20, 30, 40, 50],
            "delta_deg": [0.0, 1.0, 5.0],
        },
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


class TestExperimentCommand:
    def test_single_path_csv_ratio(self, tmp_path, config_file):
        out = tmp_path / "sp.csv"
        assert run_cli("experiment", "single-path", "--config", str(config_file),
                       "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "strategy,delta_deg,psnr_db,relative_bound,relative_bound_db,trials"
        rows = [line.split(",") for line in lines[1:]]
        ac = {float(r[2]): float(r[3]) for r in rows if r[0] == "AngleConstrained" and float(r[1]) == 0.0}
        pr = {float(r[2]): float(r[3]) for r in rows if r[0] == "Proposed" and float(r[1]) == 0.0}
        target = 2 * (1 / math.sqrt(2) + 0.5) ** 2
        for db in ac:
            assert pr[db] / ac[db] == pytest.approx(target, rel=1e-9)

    def test_rows_sorted(self, tmp_path, config_file):
        out = tmp_path / "sp.csv"
        run_cli("experiment", "single-path", "--config", str(config_file),
                "--output", str(out))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        keys = [(r[0], float(r[1]), float(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_multipath_byte_identical(self, tmp_path, config_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("experiment", "multipath", "--config", str(config_file),
                       "--output", str(a)) == 0
        assert run_cli("experiment", "multipath", "--config", str(config_file),
                       "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_multipath_reports_redraws(self, config_file, capsys):
        assert run_cli("experiment", "multipath", "--config", str(config_file)) == 0
        captured = capsys.readouterr()
        table, info = run_multipath(load_run_config(config_file))
        # The count goes to stderr; stdout stays the curve CSV alone.
        assert captured.out == fileio.curve_table_csv(table)
        assert captured.err.splitlines() == [f"redraws: {info['redraws']}"]

    def test_plot_script_emitted(self, tmp_path, config_file):
        out, script = tmp_path / "sp.csv", tmp_path / "sp.gp"
        run_cli("experiment", "single-path", "--config", str(config_file),
                "--output", str(out), "--plot-script", str(script))
        text = script.read_text()
        assert "plot" in text and "AngleConstrained" in text

    @pytest.mark.parametrize("kind", ["single-path", "multipath"])
    def test_unwritable_plot_script_leaves_no_file(self, tmp_path, config_file, capsys,
                                                   monkeypatch, kind):
        monkeypatch.chdir(tmp_path)
        code = run_cli("experiment", kind, "--config", str(config_file),
                       "--output", "curves.csv", "--plot-script", "nodir/curves.gp")
        assert code == 1
        err = capsys.readouterr().err
        assert err.endswith(
            "error: [Errno 2] No such file or directory: 'nodir/curves.gp'\n")
        assert "wrote" not in err
        assert list(tmp_path.iterdir()) == [config_file]

    def test_plot_script_without_output_exit_1(self, tmp_path, config_file, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli("experiment", "single-path", "--config", str(config_file),
                       "--plot-script", "only.gp")
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: --plot-script needs --output (without it the CSV goes to stdout)\n")
        assert list(tmp_path.iterdir()) == [config_file]

    def test_seed_override_changes_output(self, tmp_path, config_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("experiment", "multipath", "--config", str(config_file),
                "--output", str(a))
        run_cli("experiment", "multipath", "--config", str(config_file),
                "--output", str(b), "--seed", "99")
        assert a.read_bytes() != b.read_bytes()

    def test_empty_psnr_grid_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "experiment": {"psnr_grid_db": []}}))
        assert run_cli("experiment", "single-path", "--config", str(path)) == 1
        assert "psnr_grid_db" in capsys.readouterr().err

    def test_infeasible_draws_exit_1(self, tmp_path, capsys):
        # A margin of 82 deg leaves too little of the circle for 7 separated
        # azimuths: the draw budget runs out.
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "experiment": {"delta_deg": [80], "n_trials": 20}}))
        assert run_cli("experiment", "multipath", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: could not draw")
        assert "Traceback" not in err

    def test_redraws_exhausted_exit_1(self, tmp_path, capsys, monkeypatch):
        import pilotspace.experiments
        from pilotspace.rlinalg import RankDeficientError

        def degenerate(geom, azimuths):
            raise RankDeficientError("degenerate")

        monkeypatch.setattr(pilotspace.experiments, "physical_variation_space", degenerate)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "experiment": {"n_trials": 1, "max_redraws": 3}}))
        assert run_cli("experiment", "multipath", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: trial 0:")
        assert "after 3 redraws" in err


class TestRunConfigValidation:
    def test_missing_schema_version(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": {}}))
        with pytest.raises(ValueError, match="schema_version"):
            load_run_config(path)

    @pytest.mark.parametrize("content", [b"{ nope", b"\xff\xfe{}"],
                             ids=["invalid-json", "not-utf8"])
    def test_unparsable_file_names_path(self, tmp_path, content):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: invalid JSON: ")):
            load_run_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1, "experiment": {"huh": 1}}))
        with pytest.raises(ValueError, match="unknown experiment key"):
            load_run_config(path)
        # The curves do not depend on the transmit power, so it is no key.
        path.write_text(json.dumps({"schema_version": 1, "experiment": {"power": 1.0}}))
        with pytest.raises(ValueError, match=re.escape("unknown experiment key(s) ['power']")):
            load_run_config(path)
        path.write_text(json.dumps({"schema_version": 1, "extra": {}}))
        with pytest.raises(ValueError, match="unknown top-level key"):
            load_run_config(path)

    def test_positivity(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "experiment": {"cluster_decay": -1.0}}))
        with pytest.raises(ValueError, match="positive"):
            load_run_config(path)

    def test_wrong_type(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "experiment": {"n_trials": "many"}}))
        with pytest.raises(ValueError, match="n_trials must be an integer"):
            load_run_config(path)

    @pytest.mark.parametrize("key, value, kind", [
        ("psnr_grid_db", [float("nan"), 0], "a sequence of finite numbers"),
        ("psnr_grid_db", [0, float("inf")], "a sequence of finite numbers"),
        ("delta_deg", [True], "a sequence of finite numbers"),
        ("delta_deg", ["x"], "a sequence of finite numbers"),
        ("delta_deg", [[1.0]], "a sequence of finite numbers"),
        ("delta_deg", [None], "a sequence of finite numbers"),
        ("min_gain", float("inf"), "a finite number"),
        ("separation_floor_deg", float("inf"), "a finite number"),
        ("cluster_decay", float("nan"), "a finite number"),
        ("n_trials", 2.5, "an integer"),
        ("seed", True, "an integer"),
        ("delta_deg", [float("nan")], "a sequence of finite numbers"),
        ("psnr_grid_db", [float("nan")], "a sequence of finite numbers"),
    ], ids=["nan-entry", "inf-entry", "bool-entry", "string-entry", "list-entry",
            "null-entry", "inf-gain", "inf-floor", "nan-decay", "float-trials",
            "bool-seed", "nan-delta", "nan-grid"])
    def test_non_finite_or_non_number_exit_1(self, tmp_path, capsys, key, value, kind):
        # ExperimentConfig is the one validator: the library gets the same
        # message as the CLI, which prefixes only the path.
        with pytest.raises(ValueError, match=re.escape(f"{key} must be {kind}, got ")) as lib:
            ExperimentConfig(**{key: value})
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1, "experiment": {key: value}}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {lib.value}")):
            load_run_config(path)
        assert run_cli("experiment", "single-path", "--config", str(path)) == 1
        assert capsys.readouterr().err == f"error: {path}: {lib.value}\n"

    def test_endfire_margin_exit_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "experiment": {"delta_deg": [400], "n_trials": 1}}))
        assert run_cli("experiment", "multipath", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "below 90 deg" in err

    def test_negative_seed_names_file_and_key(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "experiment": {"seed": -1, "n_trials": 1}}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: seed must be nonnegative")):
            load_run_config(path)
        assert run_cli("experiment", "multipath", "--config", str(path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: seed must be nonnegative")

    def test_negative_seed_flag_exit_1(self, config_file, capsys):
        code = run_cli("experiment", "single-path", "--config", str(config_file),
                       "--seed", "-1")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {config_file}: seed must be nonnegative, got -1\n")

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("`run.json` (all experiment keys optional)", 1)[1]
        example = example.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "run.json"
        path.write_text(example)
        assert load_run_config(path) == ExperimentConfig(**json.loads(example)["experiment"])

    def test_seed_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1, "experiment": {"seed": 3}}))
        assert load_run_config(path).seed == 3
        assert load_run_config(path, seed_override=11).seed == 11
