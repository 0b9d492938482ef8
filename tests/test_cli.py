"""CLI contract: verbs, flag/config precedence, reproducibility, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikedwide
from spikedwide import io
from spikedwide.cli import main
from spikedwide.ensemble import ModelConfig, sample_model, sample_noise, stream

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


    def test_default_flags_certify(self, capsys, tmp_path):
        # i.i.d. signal vectors at the defaults (n=300, m=30000, tau=2, ell=0.2):
        # contours centred on the realised strength theta |u| |v| catch the
        # outlier; centred on the nominal theta, draw 0 of seed 1 misses it.
        code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert out.count("PASS certificate") == 3

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
