"""Command-line harness: gates, outputs, and manifest replay."""

import contextlib
import io
import math
import multiprocessing
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import airfl.cli
import airfl.config
import airfl.fltrain
from airfl.cli import main
from airfl.config import (
    STREAM_LAYOUT,
    RunConfig,
    SystemConfig,
    TrainConfig,
    VerifyDivergenceConfig,
    VerifyPdfConfig,
    VerifyXiConfig,
    config_to_kv,
)
from oracles import read_sweep_csv

SMALL_TRAIN = TrainConfig(
    task="synthetic_logistic",
    batch_size=8,
    rounds_m=5,
    data_per_device=40,
    n_features=5,
    test_size=100,
)


NO_SCAN = VerifyDivergenceConfig(k_scan=False)


def write_cfg(path, cfg, section=None):
    pairs = config_to_kv(cfg, section)
    path.write_text("\n".join(f"{k} = {v}" for k, v in pairs) + "\n")
    return str(path)


class TestParsing:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_format_exits(self):
        with pytest.raises(SystemExit):
            main(["verify-xi", "--format", "json"])

    def test_unknown_config_key_reports_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("rho = 0.8\nmystery = 1\n")
        rc = main(["verify-xi", "--config", str(cfg_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_value_reports_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("rho = 1.5\n")
        rc = main(["train", "--config", str(cfg_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_overflowing_threshold_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "hot.cfg"
        cfg_path.write_text("gamma_th = 800\n")
        rc = main(["verify-divergence", "--config", str(cfg_path), "--trials", "1000"])
        assert rc == 2
        assert "gamma_th" in capsys.readouterr().err

    def test_arithmetic_error_exits_2(self, tmp_path, capsys):
        # 10^(4000/10) W overflows while the noise power is converted
        cfg_path = tmp_path / "loud.cfg"
        cfg_path.write_text("sigma2_dbm = 4000\n")
        rc = main(["optimize-threshold", "--config", str(cfg_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_of_memory_exits_2_without_a_traceback(self, monkeypatch, capsys):
        # a size the config accepts can still exceed the host's memory; the
        # stand-in raises numpy's message without allocating anything
        message = "Unable to allocate 298. GiB for an array with shape (200000, 200000) and data type int64"

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(airfl.cli, "mc_joint_distribution_check", out_of_memory)
        assert main(["verify-pdf", "--trials", "1000000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: out of memory: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("leaf", [(), ("sub",)])
    def test_an_out_that_cannot_be_a_directory_is_refused_before_the_run(self, tmp_path, capsys, leaf):
        # a file at the output directory's path, or at its parent's
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        assert main(["verify-xi", "--trials", "10000", "--out", str(blocker.joinpath(*leaf))]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert captured.out == ""
        assert blocker.read_text() == "kept"

    def test_a_run_refused_after_its_out_directory_is_made_leaves_it_empty(self, tmp_path, capsys):
        out = tmp_path / "new" / "run"
        assert main(["verify-xi", "--trials", "5000", "--out", str(out)]) == 2
        assert "need at least 10000 samples" in capsys.readouterr().err
        assert out.is_dir() and list(out.iterdir()) == []

    def test_fixed_g_without_a_bound_is_a_config_error(self, tmp_path, capsys):
        # g_bound is the one G key: a word other than calibrate or genie, and
        # the g_mode key of older configs and manifests, are rejected when the
        # config loads, even by a command that trains nothing
        cfg_path = tmp_path / "fixed.cfg"
        for text, key in [("g_bound = fixed", "g_bound"), ("g_mode = fixed", "g_mode"), ("g_mode = genie", "g_mode")]:
            cfg_path.write_text(text + "\n")
            rc = main(["optimize-threshold", "--config", str(cfg_path)])
            assert rc == 2
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:") and repr(key) in lines[0]
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["optimize-threshold", "sweep-threshold", "train"])
    def test_trials_is_refused_where_no_trial_is_drawn(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--trials", "5"])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["optimize-threshold", "sweep-threshold", "train"])
    def test_trials_key_stays_out_of_a_manifest_that_draws_none(self, tmp_path, command):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("trials = 7\n" + "".join(f"{k} = {v}\n" for k, v in _BASE_CFG.items()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        (manifest,) = (tmp_path / "out").glob("*_manifest.txt")
        assert not any(line.startswith("trials") for line in manifest.read_text().splitlines())

    @pytest.mark.parametrize(
        "text, key",
        [("verify_xi.rho = 0.5", "verify_xi.rho"),  # misspelled: the key is rhos
         ("verify_pdf.bins = forty", "verify_pdf.bins"),
         ("sweep.seeds = 3.5", "sweep.seeds"),
         ("verify_divergence.k_scan = off", "verify_divergence.k_scan"),  # only 1 or 0
         ("verify_xi.rhos =", "verify_xi.rhos"),
         ("verify_divergence.scan_ks = 1,1", "verify_divergence.scan_ks"),  # a slope needs two sizes
         ("verify_xi.rhos = 1e-300", "verify_xi.rhos"),  # 1/rho^2 overflows
         ("verify_pdf.t_range = -3,0,3", "verify_pdf.t_range"),  # a window is two values
         ("verify_pdf.t_range = 0,1e-320", "verify_pdf.t_range"),  # bins / (hi - lo) overflows
         ("verify_pdf.gamma_range = -1e-320,0", "verify_pdf.gamma_range"),
         ("verify_pdf.t_range = -1e308,1e308", "verify_pdf.t_range"),  # hi - lo overflows
         ("verify_pdf.tail_gamma = 1e300", "verify_pdf.tail_gamma"),  # e^(2 gamma) overflows
         ("sweep.gammas = 0.1", "sweep.gammas"),
         ("run.mode = other", "run.mode")],
    )
    def test_bad_section_key_is_a_config_error(self, tmp_path, capsys, text, key):
        # checked when the config loads, by every command, whichever section it reads
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text + "\n")
        rc = main(["optimize-threshold", "--config", str(cfg_path)])
        assert rc == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and repr(key) in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "key, value",
        [("sigma2_dbm", "4000"), ("alpha", "400"), ("rho", "1e-200"), ("sigma2_dbm", "3100"),
         ("train.blob_separation", "1e300")],
    )
    def test_overflowing_value_names_its_key(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "extreme.cfg"
        cfg_path.write_text(f"{key} = {value}\n")
        rc = main(["optimize-threshold", "--config", str(cfg_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err


    @pytest.mark.parametrize(
        "command, extra, key",
        [("verify-divergence", {"p_max": "1e-300", "gamma_th": "300"}, "p_max"),  # zeta^2 underflows
         ("optimize-threshold", {"p_max": "1e307", "rho": "1.0"}, "p_max"),  # gamma* below the solver's floor
         ("sweep-threshold", {"eta": "1e300", "train.task": "small_mlp"}, "eta"),  # the warm-up diverges
         ("train", {"eta": "1e300", "gamma_th": "1e-300"}, "eta"),  # a training step overflows
         ("verify-divergence", {"alpha": "400", "distances": "1e-300,1,2"}, "alpha"),  # 100 m ** alpha
         ("optimize-threshold", {"sigma2_dbm": "-4000"}, "sigma2_dbm")],  # 0 W of noise
    )
    def test_numeric_failure_names_a_key(self, tmp_path, capsys, command, extra, key):
        # combinations the exit-code fuzz found: one error line, no warning
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in {**_BASE_CFG, **extra}.items()))
        trials = ["--trials", "1000"] if command == "verify-divergence" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--config", str(cfg_path), *trials])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0]


class TestWorkerPool:
    SCAN_CFG = SystemConfig(k_devices=3, train=SMALL_TRAIN, verify_divergence=VerifyDivergenceConfig(scan_trials=1000))

    def test_divergence_and_its_k_scan_share_one_pool(self, tmp_path, capsys, pools):
        # the main check and the four-K scan: one pool, not one per map
        cfg_path = write_cfg(tmp_path / "div.cfg", self.SCAN_CFG, "verify_divergence")
        assert main(["verify-divergence", "--config", cfg_path, "--trials", "1000", "--jobs", "2"]) == 0
        assert pools == [2]
        assert multiprocessing.active_children() == []

    # each parallel command at its smallest size that splits among two workers
    RUNS = {
        "verify-xi": (SystemConfig(verify_xi=VerifyXiConfig(rhos=(0.8,), gammas=(0.5,))), ["--trials", "65537"]),
        "verify-pdf": (SystemConfig(), ["--trials", "1000000"]),
        "verify-divergence": (SCAN_CFG, ["--trials", "1000"]),
        "sweep-threshold": (replace(SystemConfig(k_devices=3, train=SMALL_TRAIN),
                                    sweep=replace(SystemConfig().sweep, modes=("fixed",))), []),
    }

    def run(self, tmp_path, command, jobs):
        cfg, args = self.RUNS[command]
        (section,) = [c.section for c in airfl.cli.COMMANDS if c.name == command]
        cfg_path = write_cfg(tmp_path / "run.cfg", cfg, section)
        return main([command, "--config", cfg_path, *args, "--jobs", jobs])

    @pytest.mark.parametrize("command", ["verify-xi", "verify-pdf", "sweep-threshold"])
    def test_sweep_makes_one_pool(self, tmp_path, capsys, pools, command):
        assert self.run(tmp_path, command, "2") == 0
        assert pools == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["verify-xi", "verify-pdf", "verify-divergence", "sweep-threshold"])
    def test_one_job_makes_no_pool(self, tmp_path, capsys, pools, command):
        assert self.run(tmp_path, command, "1") == 0
        assert pools == []

    def test_an_error_after_the_pool_started_joins_it(self, tmp_path, capsys, pools, monkeypatch):
        def failing_scan(*args, **kwargs):
            raise ValueError("scan failed")

        monkeypatch.setattr(airfl.cli, "k_slope_scan", failing_scan)
        cfg_path = write_cfg(tmp_path / "div.cfg", self.SCAN_CFG, "verify_divergence")
        assert main(["verify-divergence", "--config", cfg_path, "--trials", "1000", "--jobs", "2"]) == 2
        assert capsys.readouterr().err == "error: scan failed\n"
        assert pools == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_bad_input(self, capsys, pools, jobs):
        assert main(["verify-divergence", "--trials", "1000", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "--jobs" in lines[0]
        assert captured.out == ""
        assert pools == []


class TestVerifyXi:
    def test_single_cell_gate_and_replay(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path / "xi.cfg",
            SystemConfig(train=SMALL_TRAIN, verify_xi=VerifyXiConfig(rhos=(1.0,), gammas=(0.5,))),
            "verify_xi",
        )
        out1 = tmp_path / "run1"
        rc = main(
            ["verify-xi", "--config", cfg_path, "--trials", "100000", "--out", str(out1)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "PASS xi_mean[rho=1 gamma=0.5]" in printed
        assert "PASS xi_var[rho=1 gamma=0.5]" in printed

        csv1 = out1 / "verify_xi.csv"
        manifest = out1 / "verify_xi_manifest.txt"
        assert csv1.exists() and manifest.exists()
        columns, rows = read_sweep_csv(csv1)
        assert len(rows) == 1
        assert dict(zip(columns, rows[0]))["n_samples"] == 100000

        out2 = tmp_path / "run2"
        rc = main(["verify-xi", "--config", str(manifest), "--out", str(out2)])
        assert rc == 0
        assert (out2 / "verify_xi.csv").read_bytes() == csv1.read_bytes()

    def test_minimum_size_prints_one_verdict_line_per_gate(self, capsys):
        rc = main(["verify-xi", "--trials", "10000"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 32 and all(l.startswith("PASS ") for l in lines)
        assert sum(l.startswith("PASS xi_var[") for l in lines) == 16

    def test_cell_without_active_samples_fails_as_untestable(self, tmp_path, capsys):
        # P(active) = e^-30: none of 10^4 samples is active, so the cell's
        # verdicts FAIL as before, and their lines say they tested nothing
        cfg_path = tmp_path / "g30.cfg"
        cfg_path.write_text("verify_xi.rhos = 0.8\nverify_xi.gammas = 30\n")
        rc = main(["verify-xi", "--config", str(cfg_path), "--trials", "10000", "--out", str(tmp_path / "run")])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert [l.split(": ")[0] for l in lines] == ["FAIL xi_mean[rho=0.8 gamma=30]", "FAIL xi_var[rho=0.8 gamma=30]"]
        assert all(l.split(": ", 1)[1].startswith("untestable: n=0 is below 2; ") for l in lines)
        columns, (row,) = read_sweep_csv(tmp_path / "run" / "verify_xi.csv")
        assert dict(zip(columns, row))["active_fraction"] == 0.0

    @pytest.mark.parametrize("rho", ["1e-70", "1e-76", "1e-80", "1e-150"])
    def test_tiny_rho_runs_without_overflow(self, tmp_path, capsys, rho):
        # xi - 1 is of order 1/rho: its fourth powers would overflow the
        # doubles from about rho = 1e-76 on, but the sums are taken in units
        # of the compensation e^gamma/rho
        cfg_path = tmp_path / "rho.cfg"
        cfg_path.write_text(f"verify_xi.rhos = {rho}\n")
        rc = main(["verify-xi", "--config", str(cfg_path), "--trials", "10000"])
        captured = capsys.readouterr()
        assert rc == 0, captured.out + captured.err
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 8 and all(l.startswith("PASS ") for l in lines)

    def test_rho_whose_closed_variance_overflows_fails_as_untestable(self, tmp_path, capsys):
        # at rho = 7.6e-155 the closed variance and the sample variance are
        # both inf: the variance lines say the reference is not finite, and
        # the mean of about 1e152 prints in exponent form, not in 150 digits
        cfg_path = tmp_path / "rho.cfg"
        cfg_path.write_text("verify_xi.rhos = 7.6e-155\nverify_xi.gammas = 0.1,2\n")
        rc = main(["verify-xi", "--config", str(cfg_path), "--trials", "10000", "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert rc == 1 and captured.err == ""
        lines = captured.out.splitlines()
        assert [l.split(": ")[0] for l in lines] == [
            "PASS xi_mean[rho=7.6e-155 gamma=0.1]", "FAIL xi_var[rho=7.6e-155 gamma=0.1]",
            "PASS xi_mean[rho=7.6e-155 gamma=2]", "FAIL xi_var[rho=7.6e-155 gamma=2]",
        ]
        for line in lines[1::2]:
            assert line.split(": ", 1)[1].startswith("untestable: reference=inf is not finite; mc=inf closed=inf ")
        assert lines[0].split(": ", 1)[1].startswith("mean=-9.4638365e+151 se=1.40e+152 ")
        assert max(len(l) for l in lines) < 150
        assert (tmp_path / "run" / "verify_xi.csv").exists()


class TestVerifyPdf:
    @pytest.mark.parametrize(
        "t_range, gamma_range, bins",
        [("-50,50", "-40,-0.000001", 2), ("-1000,1000", "-1,0", 3), ("-5,5", "-30,0", 5),
         ("0,1e-3", "-1e-3,0", 2), ("0,1e-305", "-4,-0.1", 40), ("-1e-310,1", "-4,-0.1", 40),
         ("-1e308,0", "-1.7e308,0", 2)],
    )
    def test_extreme_windows_pass(self, tmp_path, capsys, t_range, gamma_range, bins):
        # windows the config accepts, where the bin masses are hard to integrate
        # or a sample's index, a panel cut or a bin centre leaves the doubles
        cfg_path = tmp_path / "pdf.cfg"
        cfg_path.write_text(
            f"verify_pdf.t_range = {t_range}\nverify_pdf.gamma_range = {gamma_range}\nverify_pdf.bins = {bins}\n"
        )
        rc = main(["verify-pdf", "--config", str(cfg_path), "--trials", "1000000"])
        captured = capsys.readouterr()
        assert rc == 0, captured.out + captured.err
        assert captured.err == ""

    @pytest.mark.parametrize(
        "lo, hi, bins", [(-3.0, 3.0, 40), (0.0, 1e-305, 40), (-1.7e308, 0.0, 2)],
    )
    def test_bin_centres_are_the_midpoints(self, lo, hi, bins):
        # the sum of two neighbouring edges overflows in the last window; the
        # centres, halved first, are still the midpoints
        centres = airfl.config.bin_centers(lo, hi, bins)
        half_bin = (hi - lo) / (2 * bins)
        want = [lo + (2 * i + 1) * half_bin for i in range(bins)]
        assert all(math.isfinite(c) for c in centres)
        assert list(centres) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_empty_tail_fails_the_moment_gate(self, tmp_path, capsys):
        pdf = VerifyPdfConfig(t_range=(-2.0, 2.0), gamma_range=(-2.0, -0.2), bins=2, tail_gamma=25.0)
        cfg_path = write_cfg(tmp_path / "pdf.cfg", SystemConfig(verify_pdf=pdf), "verify_pdf")
        out = tmp_path / "run"
        rc = main(["verify-pdf", "--config", cfg_path, "--trials", "1000000", "--out", str(out)])
        assert rc == 1
        printed = capsys.readouterr().out
        (line,) = [l for l in printed.splitlines() if "conditional_second_moment" in l]
        assert line.startswith("FAIL conditional_second_moment: untestable: n=0 is below 2; mc=nan ")
        assert "PASS pdf_tv_distance" in printed
        assert (out / "verify_pdf.csv").exists()

    def test_unreachable_tail_fails_both_tail_gates_as_untestable(self, tmp_path, capsys):
        # no sample of 10^6 has |h_hat|^2 >= 30 (P = e^-30): the tail
        # probability is 0 at se 0 and the moment NaN, and both lines say
        # why; the deterministic gates still PASS
        cfg_path = tmp_path / "tail.cfg"
        cfg_path.write_text("verify_pdf.tail_gamma = 30\n")
        out = tmp_path / "run"
        rc = main(["verify-pdf", "--config", str(cfg_path), "--trials", "1000000", "--out", str(out)])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert [l.split(": ")[0] for l in lines] == [
            "PASS pdf_tv_distance", "PASS pdf_normalization", "PASS cdf_pdf_consistency", "PASS bin_mass_cdf",
            "FAIL truncation_tail", "FAIL conditional_second_moment",
        ]
        assert all(l.split(": ", 1)[1].startswith("untestable: n=0 is below 2; mc=") for l in lines[4:])
        manifest = (out / "verify_pdf_manifest.txt").read_text()
        assert "# meta cond_count = 0\n" in manifest and "tail_prob" not in manifest

    def test_bin_mass_off_the_cdf_rectangles_fails_its_gate(self, tmp_path, capsys, monkeypatch):
        # a density/CDF disagreement is a verdict like any other: one FAIL
        # line, the CSV and manifest written, exit 1
        real = airfl.harness.cdf_rect_masses
        monkeypatch.setattr(airfl.harness, "cdf_rect_masses", lambda *a: real(*a) + 1e-8)
        out = tmp_path / "run"
        rc = main(["verify-pdf", "--trials", "1000000", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        (line,) = [l for l in captured.out.splitlines() if l.startswith("FAIL ")]
        assert line.startswith("FAIL bin_mass_cdf: worst_abs_err=1.000e-08 limit=1e-09 margin=")
        assert (out / "verify_pdf.csv").exists()
        assert "# meta bin_mass_cdf_gap = " in (out / "verify_pdf_manifest.txt").read_text()


class TestVerifyDivergence:
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_gate_holds_where_rounds_skip(self, tmp_path, capsys, gamma):
        # p_skip = (1 - e^-gamma)^3 is 0.25 at gamma 1 and 0.65 at gamma 2;
        # skipped rounds add no noise, and the exact expectation says so
        cfg_path = write_cfg(
            tmp_path / "div.cfg",
            SystemConfig(k_devices=3, gamma_th=gamma, sigma2_dbm=-20.0, train=SMALL_TRAIN,
                         verify_divergence=NO_SCAN),
            "verify_divergence",
        )
        rc = main(["verify-divergence", "--config", cfg_path, "--trials", "4000"])
        printed = capsys.readouterr().out
        assert rc == 0, printed
        assert "PASS divergence_exact_4se" in printed and "untestable" not in printed

    def test_gate_on_a_huge_divergence_has_a_finite_se(self, tmp_path, capsys):
        # at rho = 1e-100 the divergence is about 1.7e199 and its squared
        # deviations would overflow; taken in a power-of-two unit, the se
        # is finite and the gate makes a real test
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("rho = 1e-100\nverify_divergence.k_scan = 0\n")
        rc = main(["verify-divergence", "--config", str(cfg_path), "--trials", "1000"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        (line,) = [l for l in captured.out.splitlines() if "divergence_exact_4se" in l]
        assert line == ("PASS divergence_exact_4se: mc=1.694968e+199 exact=1.671813e+199 se=2.86e+197 "
                        "bound=1.959711e+198 z=0.81 limit=4 margin=3.19")

    def test_gate_is_untestable_when_no_trial_transmits(self, tmp_path, capsys):
        # at gamma_th = 15 no device of any of the 1000 trials is active, so
        # every trial's divergence is ||g||^2, blind to the noise term: the
        # FAIL and its exit code stand, and the line says the gate tested nothing
        cfg_path = tmp_path / "g15.cfg"
        cfg_path.write_text("gamma_th = 15\nverify_divergence.k_scan = 0\n")
        rc = main(["verify-divergence", "--config", str(cfg_path), "--trials", "1000", "--out", str(tmp_path / "run")])
        (line,) = [l for l in capsys.readouterr().out.splitlines() if "divergence_exact_4se" in l]
        assert rc == 1
        assert line.startswith("FAIL divergence_exact_4se: untestable: n=0 is below 2; "
                               "mc=4.081420e-01 exact=2.431051e+05 se=")
        columns, (row,) = read_sweep_csv(tmp_path / "run" / "verify_divergence.csv")
        assert dict(zip(columns, row))["skip_fraction"] == 1.0

    def test_resolves_once(self, tmp_path, capsys, monkeypatch):
        # one distance draw and one threshold solve serve the check, its
        # K-scan and the manifest
        calls = []
        real = airfl.config.optimal_threshold

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(airfl.config, "optimal_threshold", counted)
        cfg = SystemConfig(k_devices=3, gamma_th="optimize", train=SMALL_TRAIN,
                           verify_divergence=VerifyDivergenceConfig(scan_trials=1000))
        cfg_path = write_cfg(tmp_path / "div.cfg", cfg, "verify_divergence")
        assert main(["verify-divergence", "--config", cfg_path, "--trials", "1000"]) == 0
        assert len(calls) == 1

    def test_stream_seeding_mismatch_exits_2(self, tmp_path, capsys):
        # a manifest written under stream layout 1 (no env line, or one that
        # says 1) or layout 2 (verify-xi and verify-pdf unkeyed by block)
        # records draws this layout does not make: one error line naming
        # both layouts, no traceback, nothing run
        cfg = SystemConfig(k_devices=3, train=SMALL_TRAIN, verify_divergence=NO_SCAN)
        argv = ["verify-divergence", "--config", write_cfg(tmp_path / "div.cfg", cfg), "--trials", "1000"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        manifest = tmp_path / "run" / "verify_divergence_manifest.txt"
        text = manifest.read_text()
        env = f"# env stream_layout={STREAM_LAYOUT}\n"
        assert f"\n{env}" in text
        for old_layout, line in ((1, ""), (1, "# env stream_layout=1\n"), (2, "# env stream_layout=2\n")):
            manifest.write_text(text.replace(env, line))
            capsys.readouterr()
            assert main(["verify-divergence", "--config", str(manifest)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert f"stream layout {old_layout}," in lines[0] and f"stream layout {STREAM_LAYOUT};" in lines[0]

    def test_plain_config_needs_no_layout(self, tmp_path, capsys):
        # only a manifest carries a layout; a hand-written config loads as before
        cfg_path = tmp_path / "plain.cfg"
        cfg_path.write_text("# my run\nk_devices = 3\nverify_divergence.k_scan = 0\n")
        assert main(["verify-divergence", "--config", str(cfg_path), "--trials", "1000"]) == 0

    @pytest.mark.parametrize("n_features", [5, 300])
    def test_jobs_change_no_byte(self, tmp_path, capsys, n_features):
        # 1000 trials is not a whole number of 256-trial blocks, and at d =
        # 300 the kernel draws each block's rows in slices
        cfg = SystemConfig(k_devices=3, train=replace(SMALL_TRAIN, n_features=n_features),
                           verify_divergence=VerifyDivergenceConfig(scan_trials=1000, scan_ks=(2, 3)))
        cfg_path = write_cfg(tmp_path / "div.cfg", cfg, "verify_divergence")
        outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            argv = ["verify-divergence", "--config", cfg_path, "--trials", "1000", "--jobs", str(jobs)]
            assert main(argv + ["--out", str(out)]) in (0, 1)
        for name in ("verify_divergence.csv", "verify_divergence_kscan.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_gate_and_replay(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path / "div.cfg",
            SystemConfig(k_devices=3, g_bound=2.0, train=SMALL_TRAIN, verify_divergence=NO_SCAN),
            "verify_divergence",
        )
        out1 = tmp_path / "run1"
        rc = main(
            [
                "verify-divergence",
                "--config",
                cfg_path,
                "--trials",
                "1500",
                "--out",
                str(out1),
            ]
        )
        assert rc == 0
        assert "PASS divergence_exact_4se" in capsys.readouterr().out
        csv1 = out1 / "verify_divergence.csv"
        manifest = out1 / "verify_divergence_manifest.txt"
        assert csv1.exists() and manifest.exists()
        assert not (out1 / "verify_divergence_kscan.csv").exists()

        assert f"\n# env stream_layout={STREAM_LAYOUT}\n" in manifest.read_text()

        out2 = tmp_path / "run2"
        rc = main(["verify-divergence", "--config", str(manifest), "--out", str(out2)])
        assert rc == 0
        assert (out2 / "verify_divergence.csv").read_bytes() == csv1.read_bytes()
        assert (out2 / "verify_divergence_manifest.txt").read_bytes() == manifest.read_bytes()


class TestOptimizeThreshold:
    def test_prints_all_modes_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "opt"
        rc = main(["optimize-threshold", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "joint: gamma = " in printed
        assert "communication_oriented: gamma = 0.5" in printed
        assert "computation_oriented: gamma = " in printed

        columns, rows = read_sweep_csv(out / "optimize_threshold.csv")
        modes = [row[0] for row in rows]
        assert modes == ["joint", "communication_oriented", "computation_oriented"]
        by_mode = {row[0]: dict(zip(columns, row)) for row in rows}
        assert abs(by_mode["joint"]["derivative_residual"]) <= 1e-10
        assert by_mode["communication_oriented"]["gamma_th"] == 0.5

    def test_a_minimum_below_the_bracket_start_is_found(self, tmp_path, capsys):
        # k1 = 0 and k2 near 3e-32: gamma* = sqrt(k2) lies far below 1e-8
        cfg_path = tmp_path / "opt.cfg"
        cfg_path.write_text("p_max = 1e30\nrho = 1.0\n")
        assert main(["optimize-threshold", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        columns, rows = read_sweep_csv(tmp_path / "optimize_threshold.csv")
        joint = dict(zip(columns, rows[0]))
        assert joint["mode"] == "joint"
        assert joint["gamma_th"] == pytest.approx(math.sqrt(joint["k2"]), rel=1e-9)

    def test_perfect_csi_drops_computation_mode(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path / "r1.cfg", SystemConfig(rho=1.0))
        rc = main(["optimize-threshold", "--config", cfg_path])
        assert rc == 0
        assert "computation_oriented" not in capsys.readouterr().out


class TestTrain:
    def test_run_and_replay(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path / "train.cfg", SystemConfig(k_devices=3, train=SMALL_TRAIN, seed=5)
        )
        out1 = tmp_path / "run1"
        rc = main(["train", "--config", cfg_path, "--out", str(out1)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "final_accuracy = " in printed
        assert "mode = aircomp" in printed

        csv1 = out1 / "train_trace.csv"
        manifest = out1 / "train_manifest.txt"
        columns, rows = read_sweep_csv(csv1)
        assert len(rows) == 5
        assert columns[0] == "round"

        # the calibrated G is pinned as its number
        g_used = airfl.fltrain.train(SystemConfig(k_devices=3, train=SMALL_TRAIN, seed=5)).g_bound
        assert f"\ng_bound = {g_used!r}\n" in manifest.read_text()

        out2 = tmp_path / "run2"
        rc = main(["train", "--config", str(manifest), "--out", str(out2)])
        assert rc == 0
        assert (out2 / "train_trace.csv").read_bytes() == csv1.read_bytes()

    @pytest.mark.parametrize("mode", ["aircomp", "ideal"])
    def test_run_builds_its_draws_once(self, tmp_path, monkeypatch, mode):
        # the shards are built once, and the calibration runs once in aircomp
        # mode and never in ideal mode
        calls = {"build_devices": 0, "calibrate_g_bound": 0}

        def counting(name):
            original = getattr(airfl.fltrain, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(airfl.fltrain, name, wrapper)

        cfg_path = write_cfg(
            tmp_path / "train.cfg", SystemConfig(k_devices=3, train=SMALL_TRAIN, run=RunConfig(mode)), "run"
        )
        counting("build_devices")
        counting("calibrate_g_bound")
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        assert calls == {"build_devices": 1, "calibrate_g_bound": int(mode == "aircomp")}

    @pytest.mark.parametrize("mode", ["aircomp", "ideal"])
    def test_manifest_meta_keys_are_pinned(self, tmp_path, capsys, mode):
        # a new printed number has to be added here on purpose
        cfg_path = write_cfg(
            tmp_path / "train.cfg", SystemConfig(k_devices=3, train=SMALL_TRAIN, run=RunConfig(mode)), "run"
        )
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "train_manifest.txt").read_text()
        keys = [line.split()[2] for line in text.splitlines() if line.startswith("# meta ")]
        assert sorted(keys) == ["final_accuracy", "final_loss", "mean_divergence_sq", "skipped_rounds"]

    def test_genie_pins_the_g_it_used_and_replays(self, tmp_path, capsys):
        # the body keeps the genie rule, and a comment notes the largest G it used
        cfg = SystemConfig(k_devices=3, g_bound="genie", train=SMALL_TRAIN)
        g_used = airfl.fltrain.train(cfg).g_bound
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["train", "--config", write_cfg(tmp_path / "genie.cfg", cfg), "--out", str(out1)]) == 0
        assert f"g_bound = {g_used!r}\n" in capsys.readouterr().out
        manifest = out1 / "train_manifest.txt"
        text = manifest.read_text()
        assert f"\n# g_bound = {g_used!r}\n" in text
        assert "\ng_bound = genie\n" in text and f"\ng_bound = {g_used!r}\n" not in text
        assert main(["train", "--config", str(manifest), "--out", str(out2)]) == 0
        assert (out2 / "train_trace.csv").read_bytes() == (out1 / "train_trace.csv").read_bytes()

    def test_ideal_mode_via_extras(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path / "ideal.cfg", SystemConfig(k_devices=3, train=SMALL_TRAIN, run=RunConfig("ideal")), "run"
        )
        rc = main(["train", "--config", cfg_path])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "mode = ideal" in printed
        assert "gamma_th" not in printed


# Tiny sizes so that every drawn command finishes in a fraction of a second.
_BASE_CFG = {
    "k_devices": "3",
    "train.rounds_m": "2",
    "train.batch_size": "4",
    "train.data_per_device": "8",
    "train.n_features": "3",
    "train.test_size": "20",
    "verify_xi.rhos": "0.8",
    "verify_xi.gammas": "0.5",
    "verify_divergence.scan_trials": "1000",
    "verify_divergence.scan_ks": "2,3",
    "sweep.gammas": "0.1,0.2,0.3,0.5,0.8,1.0,2.0,3.0",
    "sweep.modes": "communication_oriented",
}
_CFG_VALUES = {
    "k_devices": ["1", "2", "0", "-3", "x"],
    "rho": ["0.5", "1.0", "1e-200", "0", "1.5", "nan"],
    "gamma_th": ["0.5", "optimize", "1e-300", "300", "354.8", "800", "-1", "inf"],
    "alpha": ["2.2", "400", "0", "inf"],
    "p_max": ["0.1", "1e-300", "1e300", "-1"],
    "sigma2_dbm": ["-40", "4000", "-4000", "nan"],
    "eta": ["0.005", "1e300", "0"],
    "distances": ["uniform(0,500]", "uniform(5,1]", "10,20,30", "1e-300,1,2", "10", "a,b"],
    "g_bound": ["calibrate", "genie", "2.0", "1e-300", "0", "fixed"],
    # 2^64 - 3 runs three sweep seeds below 2^64, 2^64 - 1 does not, 2^64 and -1 alias other seeds
    "seed": ["0", "18446744073709551613", "18446744073709551615", "18446744073709551616", "-1"],
    "train.task": ["synthetic_logistic", "small_mlp", "mnist"],
    "train.label_skew": ["0.0", "0.9", "1.0"],
    "train.blob_separation": ["2.5", "1e300"],
    "verify_xi.rhos": ["0.8", "1.0,0.5", ",", "abc", "2", "1e-300", "0.5,0.5"],
    "verify_xi.gammas": ["0.5", "1e-300", "700", "-1"],
    "verify_divergence.k_scan": ["0", "1", "maybe", "off"],
    "verify_divergence.scan_ks": ["2,3", "0,1", "-1,2", "3", "x", "1,1"],
    "verify_divergence.scan_trials": ["1000", "10", "x"],
    "sweep.modes": ["communication_oriented", "joint", "bogus", "computation_oriented,fixed", "fixed,fixed"],
    "sweep.seeds": ["3", "2", "x", "1000"],
    "sweep.gammas": ["0.1", "800,1,2,3,4,5,6,7", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5"],
    "run.mode": ["aircomp", "ideal", "other"],
    "verify_pdf.t_range": ["-3,3", "-3,0,3", "3,-3", "0,1e-305", "-1e-310,1", "0,1e-320", "-1e308,1e308"],
    "verify_pdf.gamma_range": ["-4,-0.1", "-1.7e308,0", "-1e-320,0", "-1e-3,0", "-1e-300,0"],
    "verify_pdf.tail_gamma": ["1.0", "1e300", "0"],
    "verify_xi.rho": ["0.5"],  # misspelled: the key is rhos
}
# per command, trial counts below, at and just above its minimum; a command
# that draws no trials takes no --trials
_TRIALS = {
    "verify-xi": ["-1", "10", "10000"],
    "verify-divergence": ["0", "10", "1000"],
    "optimize-threshold": [],
    "sweep-threshold": [],
    "train": [],
}


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_TRIALS)))
    keys = draw(st.lists(st.sampled_from(sorted(_CFG_VALUES)), unique=True, max_size=3))
    cfg = {**_BASE_CFG, **{k: draw(st.sampled_from(_CFG_VALUES[k])) for k in keys}}
    flags = ["--jobs", "1"]
    if _TRIALS[command]:
        flags += ["--trials", draw(st.sampled_from(_TRIALS[command]))]
    seed = draw(st.none() | st.integers(min_value=-5, max_value=2**40))
    if seed is not None:
        flags += ["--seed", str(seed)]
        keys = [*keys, "seed"]  # the flag sets the key
    return command, keys, cfg, flags, draw(st.booleans())


class TestNoTraceback:
    @given(_invocations())
    def test_main_returns_an_exit_code(self, invocation):
        # bad input exits 2 with exactly one stderr line, an error: line that
        # names a drawn key (or the trial count), and no warning before it
        command, keys, cfg, flags, write = invocation
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "run.cfg"
            cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
            argv = [command, "--config", str(cfg_path), *flags]
            if write:
                argv += ["--out", str(Path(tmp) / "out")]
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                rc = main(argv)
        assert rc in (0, 1, 2)
        if rc == 2:
            lines = [str(w.message) for w in caught] + err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert any(key in lines[0] for key in [*keys, "trials"]), lines
