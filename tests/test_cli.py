"""CLI contract: verbs, flag/config precedence, reproducibility, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikedwide
from spikedwide import _runtime, cli, io
from spikedwide.cli import main
from spikedwide.ensemble import ModelConfig, sample_model, sample_noise, stream
from spikedwide.errors import CertificationError
from spikedwide.master import certify_outliers

SEED = 20260808


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPredict:
    def test_table_values(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "predict", "--taus", "1.6", "--beta", "0.005",
                               "--out-dir", str(tmp_path))
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["centered_limit"] == pytest.approx(2.950625, abs=1e-9)
        assert rows[0]["cosine_left"] == pytest.approx(0.92055, abs=1e-5)
        assert (tmp_path / "predictions.json").exists()
        assert (tmp_path / "metadata.json").exists()

    def test_multiple_taus(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "predict", "--taus", "2,1,0.5", "--beta", "0.01",
                               "--out-dir", str(tmp_path))
        assert code == 0
        rows = json.loads(out)
        assert [r["above_threshold"] for r in rows] == [True, False, False]


class TestEstimate:
    def test_pure_noise_gives_no_outliers(self, capsys, tmp_path):
        x = sample_noise(100, 10000, "gaussian", stream(SEED, "noise", 0))
        path = tmp_path / "x.csv"
        io.write_matrix(path, x)
        code, out, _ = run_cli(capsys, "estimate", "--input", str(path),
                               "--eta", "0.5", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads(out)
        assert report["outliers"] == []

    def test_planted_spike_found(self, capsys, tmp_path):
        config = ModelConfig(n=100, m=10000, r=1, taus=(2.5,), seed=SEED)
        sample = sample_model(config)
        path = tmp_path / "x.csv"
        io.write_matrix(path, sample.X_tilde)
        code, out, _ = run_cli(capsys, "estimate", "--input", str(path),
                               "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads(out)
        assert len(report["outliers"]) == 1
        assert report["outliers"][0]["tau_hat"] == pytest.approx(2.5, abs=0.4)

    def test_report_independent_of_the_default_blas_thread_count(self, tmp_path):
        # At 10000 x 100 the Gram rounds differently under one and two BLAS
        # threads; estimate runs on one whatever OPENBLAS_NUM_THREADS says.
        config = ModelConfig(n=100, m=10000, r=2, taus=(3.0, 1.6),
                             signal_family="orthonormal", seed=SEED)
        path = tmp_path / "x.csv"
        io.write_matrix(path, sample_model(config).X_tilde.T)
        outputs = set()
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            subprocess.run(
                [sys.executable, "-m", "spikedwide.cli", "estimate", "--input", str(path),
                 "--out-dir", str(out)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                         PYTHONPATH=str(Path(spikedwide.__file__).parents[1])),
                check=True, capture_output=True)
            outputs.add((out / "report.json").read_bytes())
        assert len(outputs) == 1

    def test_missing_input_is_validation_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", "--out-dir", str(tmp_path))
        assert code == 1
        assert "input" in err

    def test_nan_matrix_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,nan\n0.5,2.0\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path),
                               "--out-dir", str(tmp_path))
        assert code == 1


class TestSimulate:
    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        args = ("simulate", "--n", "50", "--m", "500", "--taus", "2",
                "--trials", "2", "--seed", "7")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, *args, "--out-dir", str(d1))[0] == 0
        assert run_cli(capsys, *args, "--out-dir", str(d2))[0] == 0
        assert (d1 / "trials.csv").read_bytes() == (d2 / "trials.csv").read_bytes()
        assert (d1 / "metadata.json").read_bytes() == (d2 / "metadata.json").read_bytes()

    def test_parallelism_byte_identical_where_blas_threads_matter(self, capsys, tmp_path):
        # At n = 100, X X' already rounds differently under one and two BLAS
        # threads, so trials.csv may not depend on the worker count.
        args = ("simulate", "--n", "100", "--m", "1000", "--taus", "2",
                "--trials", "12", "--seed", "7")
        outputs = set()
        for p in (1, 2, 4):
            out = tmp_path / f"p{p}"
            assert run_cli(capsys, *args, "--parallelism", str(p), "--out-dir", str(out))[0] == 0
            outputs.add((out / "trials.csv").read_bytes())
        assert len(outputs) == 1

    def test_split_draws_keep_the_serial_bytes(self, capsys, tmp_path, monkeypatch):
        # 64 x 32768 is two pieces of the smallest split: one worker splits
        # each draw over the idle core, two workers leave none idle, and one
        # core draws every piece serially.
        args = ("simulate", "--n", "64", "--m", "32768", "--taus", "2",
                "--trials", "3", "--seed", "7")
        outputs = {}
        for p in (1, 2):
            out = tmp_path / f"p{p}"
            assert run_cli(capsys, *args, "--parallelism", str(p), "--out-dir", str(out))[0] == 0
            outputs[p] = (out / "trials.csv").read_bytes()
        monkeypatch.setattr(_runtime, "available_cores", lambda: 1)
        out = tmp_path / "one_core"
        assert run_cli(capsys, *args, "--out-dir", str(out))[0] == 0
        assert outputs[1] == outputs[2] == (out / "trials.csv").read_bytes()

    def test_trials_independent_of_the_default_blas_thread_count(self, tmp_path):
        # Trials run on one BLAS thread whatever OPENBLAS_NUM_THREADS says.
        args = ["simulate", "--n", "100", "--m", "1000", "--taus", "2",
                "--trials", "12", "--seed", "7", "--parallelism", "2"]
        outputs = set()
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            subprocess.run(
                [sys.executable, "-m", "spikedwide.cli", *args, "--out-dir", str(out)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                         PYTHONPATH=str(Path(spikedwide.__file__).parents[1])),
                check=True, capture_output=True)
            outputs.add((out / "trials.csv").read_bytes())
        assert len(outputs) == 1

    def test_rademacher_trials_keep_their_bytes(self, capsys, tmp_path):
        # sha256 of trials.csv before the Rademacher draw was chunked.
        assert run_cli(capsys, "simulate", "--n", "50", "--m", "2000", "--taus", "2,1.2",
                       "--trials", "3", "--seed", "5", "--noise-family", "rademacher",
                       "--out-dir", str(tmp_path))[0] == 0
        digest = hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest()
        assert digest == "5266420cdba8f1d0f541ef54511ee5106adccda856e4153ce0f7156ef8f82801"

    def test_default_parallelism_sets_no_cap(self, capsys, tmp_path):
        assert run_cli(capsys, "simulate", "--n", "20", "--m", "200", "--taus", "2",
                       "--trials", "1", "--out-dir", str(tmp_path))[0] == 0
        assert io.read_json(tmp_path / "metadata.json")["parallelism"] == 0

    def test_eps_below_threshold_is_a_bulk_spike(self, capsys, tmp_path):
        # tau = 1.05 > 1, but theta = tau beta^(1/4) (1 + eps) is below beta^(1/4).
        assert run_cli(capsys, "simulate", "--n", "50", "--m", "2500", "--taus", "1.05",
                       "--eps=-0.1", "--out-dir", str(tmp_path))[0] == 0

    def test_metadata_records_provenance(self, capsys, tmp_path):
        assert run_cli(capsys, "simulate", "--n", "20", "--m", "200", "--taus", "2",
                       "--trials", "1", "--out-dir", str(tmp_path))[0] == 0
        meta = io.read_json(tmp_path / "metadata.json")
        assert meta["numpy_version"] == np.__version__
        assert meta["blas_threads_per_worker"] in (1, None)
        assert {"blas_name", "blas_version"} <= meta.keys()

    def test_rerun_from_metadata_reproduces(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "simulate", "--n", "40", "--m", "400", "--taus",
                       "2.2,1.1", "--trials", "3", "--seed", "11",
                       "--out-dir", str(d1))[0] == 0
        assert run_cli(capsys, "simulate", "--config", str(d1 / "metadata.json"),
                       "--out-dir", str(d2))[0] == 0
        assert (d1 / "trials.csv").read_bytes() == (d2 / "trials.csv").read_bytes()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        io.write_json(cfg_path, {"n": 30, "m": 300, "taus": [2.0], "trials": 2,
                                 "seed": 3})
        assert run_cli(capsys, "simulate", "--config", str(cfg_path), "--seed", "9",
                       "--out-dir", str(tmp_path))[0] == 0
        meta = io.read_json(tmp_path / "metadata.json")
        assert meta["seed"] == 9 and meta["n"] == 30

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        # SPIKE_SEED beats the default; a seed in the config file beats SPIKE_SEED.
        monkeypatch.setenv("SPIKE_SEED", "4242")
        cfg_path = tmp_path / "cfg.json"
        io.write_json(cfg_path, {"seed": 3})
        for extra, seed in (((), 4242), (("--config", str(cfg_path)), 3)):
            assert run_cli(capsys, "simulate", "--n", "20", "--m", "200", "--taus", "2",
                           "--trials", "1", *extra, "--out-dir", str(tmp_path))[0] == 0
            assert io.read_json(tmp_path / "metadata.json")["seed"] == seed

    @pytest.mark.parametrize("key, value, code", [
        ("n", 30.0, 1), ("trials", "2", 0), ("taus", 2.0, 0),
    ])
    def test_config_value_reads_like_its_flag(self, capsys, tmp_path, key, value, code):
        # A config value is converted as its flag converts the same text:
        # "30.0" is no int, "2" is two trials and "2.0" is the tau list (2.0,).
        base = {"n": 20, "m": 200, "taus": [2.0], "trials": 1, "seed": 3}
        base_path, cfg_path = tmp_path / "base.json", tmp_path / "cfg.json"
        io.write_json(base_path, base)
        io.write_json(cfg_path, {**base, key: value})
        got, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                              "--out-dir", str(tmp_path / "cfg"))
        flag, _, _ = run_cli(capsys, "simulate", "--config", str(base_path),
                             "--" + key, str(value), "--out-dir", str(tmp_path / "flag"))
        assert got == flag == code
        if code:
            assert err.startswith("validation error:") and repr(key) in err
        else:
            assert ((tmp_path / "cfg" / "metadata.json").read_bytes()
                    == (tmp_path / "flag" / "metadata.json").read_bytes())


class TestSweepVerb:
    def test_writes_tidy_csv(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep", "--n-values", "30,60",
                             "--beta-c", "0.1", "--beta-alpha", "0",
                             "--taus", "2.5", "--trials", "2", "--seed", "5",
                             "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + 2 sizes * 2 trials * 1 spike
        assert lines[0].startswith("n,m,beta,tau,trial")

    def test_rerun_from_metadata_reproduces(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "sweep", "--n-values", "30,60", "--beta-c", "0.1",
                       "--beta-alpha", "0", "--taus", "2.5", "--trials", "2",
                       "--seed", "5", "--out-dir", str(d1))[0] == 0
        assert run_cli(capsys, "sweep", "--config", str(d1 / "metadata.json"),
                       "--out-dir", str(d2))[0] == 0
        assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()


class TestVerify:
    SMALL = ("--n", "100", "--m", "1000", "--taus", "3,2", "--seed", "7")

    def test_certifies_and_reports(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "--n", "150", "--m", "15000",
                               "--taus", "2.5", "--signal-family", "orthonormal",
                               "--draws", "2", "--seed", str(SEED),
                               "--out-dir", str(tmp_path))
        assert code == 0
        assert "PASS d-transform round trip" in out
        assert out.count("PASS certificate") == 2
        certs = io.read_json(tmp_path / "certificates.json")
        assert all(c["winding"] == 1 for c in certs)

    def test_certificates_independent_of_the_default_blas_thread_count(self, tmp_path):
        # At n = 100 the Gram rounds differently under one and two BLAS
        # threads; draws run on one whatever OPENBLAS_NUM_THREADS says.
        outputs = set()
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            subprocess.run(
                [sys.executable, "-m", "spikedwide.cli", "verify", *self.SMALL,
                 "--out-dir", str(out)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                         PYTHONPATH=str(Path(spikedwide.__file__).parents[1])),
                check=True, capture_output=True)
            outputs.add((out / "certificates.json").read_bytes())
        assert len(outputs) == 1

    def test_worker_count_changes_no_byte(self, capsys, tmp_path, monkeypatch):
        outputs = set()
        for cores in (1, 4):
            monkeypatch.setattr(_runtime, "available_cores", lambda: cores)
            code, out, _ = run_cli(capsys, "verify", *self.SMALL, "--draws", "3",
                                   "--out-dir", str(tmp_path))
            assert code == 0
            outputs.add((out, (tmp_path / "certificates.json").read_bytes()))
        assert len(outputs) == 1

    def test_first_failing_draw_decides_the_error(self, capsys, tmp_path, monkeypatch):
        # Draws 1 and 2 fail, in whichever order the pool finishes them: the
        # error names draw 1, and only draw 0's certificates are printed.
        draw_of = {}
        real_sample, real_certify = cli.sample_model, cli.certify_outliers

        def sample(config, trial_index):
            drawn = real_sample(config, trial_index=trial_index)
            draw_of[id(drawn)] = trial_index
            return drawn

        def certify(drawn, **kw):
            draw = draw_of[id(drawn)]
            if draw > 0:
                raise CertificationError(f"synthetic failure {draw}")
            return real_certify(drawn, **kw)

        monkeypatch.setattr(cli, "sample_model", sample)
        monkeypatch.setattr(cli, "certify_outliers", certify)
        code, out, err = run_cli(capsys, "verify", *self.SMALL, "--draws", "3",
                                 "--out-dir", str(tmp_path))
        assert code == 2
        assert err == "numerical failure: draw 1: synthetic failure 1\n"
        certificate_lines = [line for line in out.splitlines() if "certificate" in line]
        assert len(certificate_lines) == 2
        assert all(line.startswith("PASS certificate draw=0 ") for line in certificate_lines)

    def test_no_draw_starts_after_a_failed_one(self, capsys, tmp_path, monkeypatch):
        calls = []

        def certify(drawn, **kw):
            calls.append(drawn)
            raise CertificationError("synthetic failure")

        monkeypatch.setattr(cli, "certify_outliers", certify)
        monkeypatch.setattr(_runtime, "available_cores", lambda: 1)
        code, _, err = run_cli(capsys, "verify", *self.SMALL, "--draws", "3",
                               "--out-dir", str(tmp_path))
        assert code == 2
        assert err == "numerical failure: draw 0: synthetic failure\n"
        assert len(calls) == 1

    def test_rerun_from_metadata_reproduces(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "verify", *self.SMALL, "--draws", "2",
                       "--out-dir", str(d1))[0] == 0
        assert io.read_json(d1 / "metadata.json")["blas_threads_per_worker"] in (1, None)
        assert run_cli(capsys, "verify", "--config", str(d1 / "metadata.json"),
                       "--out-dir", str(d2))[0] == 0
        assert ((d1 / "certificates.json").read_bytes()
                == (d2 / "certificates.json").read_bytes())

    def test_default_flags_certify(self, capsys, tmp_path):
        # i.i.d. signal vectors at the defaults (n=300, m=30000, tau=2, ell=0.2):
        # contours centred on the realised strength theta |u| |v| catch the
        # outlier; centred on the nominal theta, draw 0 of seed 1 misses it.
        code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert out.count("PASS certificate") == 3
        # The bytes certificates.json has had since verify joined the pinned pool.
        digest = hashlib.sha256((tmp_path / "certificates.json").read_bytes()).hexdigest()
        assert digest == "496dc95bc5b6614e3fb8f4b982c28986c01f1b1354aa131b8f26b7c6df91b8a8"

    @pytest.mark.skipif(_runtime._OPENBLAS is None,
                        reason="no OpenBLAS handle in this process")
    def test_library_certificates_are_verify_rows(self, capsys, tmp_path):
        # certify_outliers pins one BLAS thread on its own: on two OpenBLAS
        # threads a library call gives verify's rows to the last digit.
        assert run_cli(capsys, "verify", "--seed", "1", "--out-dir", str(tmp_path))[0] == 0
        config = ModelConfig(n=300, m=30000, r=1, taus=(2.0,), seed=1)
        get, set_ = _runtime._OPENBLAS
        before = get()
        set_(2)
        try:
            rows = [{"draw": draw, **cert.to_dict()} for draw in range(3)
                    for cert in certify_outliers(sample_model(config, trial_index=draw))]
        finally:
            set_(before)
        assert rows == io.read_json(tmp_path / "certificates.json")

    def test_uncertifiable_spike_is_numerical_failure(self, capsys, tmp_path):
        # Near-critical spike: the contour around the predicted location
        # provably swallows bulk eigenvalues, so certification must abort.
        code, _, err = run_cli(capsys, "verify", "--n", "100", "--m", "10000",
                               "--taus", "1.05", "--draws", "1",
                               "--seed", str(SEED), "--out-dir", str(tmp_path))
        assert code == 2

    def test_refused_contours_are_named(self, capsys, tmp_path):
        # tau = 1.3 at the defaults predicts its outlier 0.028 above the bulk
        # edge, inside the 0.032 radius: every rung of the ladder is refused.
        code, _, err = run_cli(capsys, "verify", "--taus", "1.3,1.1", "--seed", "0",
                               "--out-dir", str(tmp_path))
        assert code == 2
        head, *rungs = err.strip().split("; ")
        assert head == ("numerical failure: draw 0: no admissible contour around "
                        "spike 0 at 1.22981")
        assert rungs == [f"radius {r:.6g}: _contour_clear (noise eigenvalue on or "
                         "inside contour)" for r in (0.0319577, 0.0271641, 0.0223704)]


class TestSpikeList:
    SMALL = {
        "simulate": ("--n", "20", "--m", "200", "--trials", "1"),
        "predict": (),
        "sweep": ("--n-values", "20", "--beta-c", "0.1", "--beta-alpha", "0",
                  "--trials", "1"),
        "verify": ("--n", "20", "--m", "200", "--draws", "1"),
    }

    @pytest.mark.parametrize("taus", ["", "2,,1.2", "2,"])
    @pytest.mark.parametrize("verb", sorted(SMALL))
    def test_empty_spike_is_validation_error(self, capsys, tmp_path, verb, taus):
        code, _, err = run_cli(capsys, verb, *self.SMALL[verb], "--taus", taus,
                               "--out-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("validation error:") and "'taus'" in err

    def test_empty_config_list_is_validation_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        io.write_json(cfg_path, {"taus": []})
        code, _, err = run_cli(capsys, "predict", "--config", str(cfg_path),
                               "--out-dir", str(tmp_path))
        assert code == 1 and err.startswith("validation error:")

    def test_empty_eps_is_the_default(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", *self.SMALL["simulate"], "--taus", "2",
                             "--eps", "", "--out-dir", str(tmp_path))
        assert code == 0
        assert io.read_json(tmp_path / "metadata.json")["eps"] == []


class TestGitDescribe:
    def test_only_the_package_checkout_is_described(self, tmp_path):
        # Copies of the package inside one temporary repository: at its src/
        # the package is that checkout's; under lib/site-packages it is not.
        git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run(git + ["init", "-q"], check=True)
        (tmp_path / "README").write_text("x\n")
        subprocess.run(git + ["add", "README"], check=True)
        subprocess.run(git + ["commit", "-q", "--no-gpg-sign", "-m", "x"], check=True)
        head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        described = {}
        for where in ("src", "lib/site-packages"):
            dest = tmp_path / where / "spikedwide"
            shutil.copytree(Path(spikedwide.__file__).parent, dest,
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "-c",
                 "from spikedwide.cli import _git_describe; print(_git_describe())"],
                env=dict(os.environ, PYTHONPATH=str(dest.parent)),
                check=True, capture_output=True, text=True)
            described[where] = out.stdout.strip()
        assert described == {"src": head, "lib/site-packages": "None"}


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "predict", "--frobnicate", "1")
        assert code == 1

    def test_unknown_verb_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "transmogrify")
        assert code == 1

    @pytest.mark.parametrize("argv, reason", [
        (("sweep", "--n-values", "20,0", "--trials", "1"), "n=0"),
        (("sweep", "--n-values", "20,-5", "--trials", "1"), "n=-5"),
        (("sweep", "--n-values", ""), "need at least one size"),
        (("verify", "--n", "20", "--m", "200", "--draws", "0"), "need at least one draw"),
        (("simulate", "--n", "20", "--m", "200", "--trials", "0"), "need at least one trial"),
        (("estimate", "--input", "empty.csv"), "at least one row and one column"),
        (("verify", "--n", "20", "--m", "200", "--nodes", "0"), "64 contour nodes"),
        (("verify", "--n", "20", "--m", "200", "--ell", "0"), "ell must lie"),
        # No spike above threshold: no contour is drawn, nodes is still checked.
        (("verify", "--n", "20", "--m", "200", "--taus", "0.5", "--nodes", "0"),
         "64 contour nodes"),
        # eta is checked before the CSV is read, so its bad token is never reached.
        (("estimate", "--input", "unparsed.csv", "--eta", "0"), "eta must be positive"),
    ], ids=["sweep-zero", "sweep-negative", "sweep-empty", "verify-no-draws",
            "simulate-no-trials", "estimate-empty-file", "verify-no-nodes",
            "verify-zero-ell", "verify-subcritical-no-nodes", "estimate-zero-eta"])
    def test_bad_values_are_validation_errors(self, tmp_path, argv, reason):
        # A separate process, so stderr is all the CLI prints: warnings included.
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "unparsed.csv").write_text("1,2\n3,x\n")
        src = Path(spikedwide.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "spikedwide.cli", *argv], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")]))),
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert result.stderr.startswith("validation error:"), result.stderr
        assert reason in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert not (tmp_path / "sweep.csv").exists()
