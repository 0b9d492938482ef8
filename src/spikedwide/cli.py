"""Command-line front end: simulate / predict / estimate / sweep / verify.

Flag values override config-file keys (flat JSON); every run writes a
metadata JSON with the full effective configuration, and re-running from
that file reproduces the outputs byte for byte. Exit codes: 0 success,
1 validation error, 2 numerical failure.
"""

import argparse
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__, estimator, io, master, mp
from .ensemble import ModelConfig, sample_model
from .errors import (
    CertificationError,
    DomainError,
    ExperimentError,
    NumericalError,
    PoleError,
    ValidationError,
)
from .estimator import analyze, estimate_tau
from .master import certify_outliers, contour_bytes, deterministic_master, rescale_blocks
from .montecarlo import (
    BetaSchedule,
    _pinned_map,
    _trial_blas_threads,
    run_experiment,
    sweep,
    trial_bytes,
    write_trials_csv,
)
from .predictions import predict, spike_eigenvalue_location

VALIDATION_ERRORS = (ValidationError, DomainError)
NUMERICAL_ERRORS = (
    PoleError, NumericalError, CertificationError, ExperimentError,
    np.linalg.LinAlgError, FloatingPointError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is exit 1.
    def error(self, message):
        raise _UsageError(message)


def _parse_list(item):
    # "" is the empty list; an empty item inside a list ("2,,1.2") is an error.
    return lambda text: tuple(item(x) for x in text.split(",")) if text else ()


def _parse_spikes(text):
    taus = _parse_list(float)(text)
    if not taus:
        raise ValueError("need at least one spike")
    return taus


@functools.cache
def _git_describe():
    # Describe the package's own checkout only: git may not search above it,
    # so a copy installed inside an unrelated repository reports None. The
    # code this process imported cannot change under it, so git runs once.
    root = Path(__file__).resolve().parents[2]
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, cwd=root,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
        return out.stdout.strip() or None
    except Exception:
        return None


#: verb -> (help, {key: default}). Each key is the flag --key (underscores as
#: dashes) and the config-file key; its converter follows from its default.
_VERBS = {
    "simulate": ("run repeated spiked-model trials, write tidy CSV", {
        "seed": 0, "n": 100, "m": 10000, "taus": (2.0,), "eps": (),
        "noise_family": "gaussian", "signal_family": "gaussian_iid",
        "trials": 10, "parallelism": 0,
    }),
    "predict": ("theory table for (taus, beta)", {
        "seed": 0, "taus": (2.0,), "beta": 0.01,
    }),
    "estimate": ("detect outliers and estimate strengths from a CSV matrix", {
        "seed": 0, "input": None, "eta": estimator.DEFAULT_ETA,
    }),
    "sweep": ("convergence sweep over n with a beta schedule", {
        "seed": 0, "n_values": (100, 200, 400), "beta_c": 1.0, "beta_alpha": 0.5,
        "taus": (2.0,), "noise_family": "gaussian",
        "signal_family": "gaussian_iid", "trials": 10, "parallelism": 0,
    }),
    "verify": ("certify outlier roots on fresh draws and run the identity suite", {
        "seed": 0, "n": 300, "m": 30000, "taus": (2.0,),
        "noise_family": "gaussian", "signal_family": "gaussian_iid",
        "draws": 3, "ell": master.DEFAULT_ELL, "nodes": master.DEFAULT_NODES,
    }),
}


def _converter(key, default):
    if key == "taus":
        return _parse_spikes
    if isinstance(default, tuple):
        return _parse_list(int if key == "n_values" else float)
    return str if default is None else type(default)


def build_parser():
    parser = _Parser(prog="spikedwide", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, defaults) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("--out-dir", help="output directory (default: cwd)")
        # Flag values stay text here; _effective_config converts them.
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"),
                           help="RNG seed (fallback: SPIKE_SEED env, then 0)"
                           if key == "seed" else None)
    return parser


#: Verbs whose draws run on the pinned-BLAS pool of montecarlo._pinned_map.
_PINNED_VERBS = {"simulate", "sweep", "verify"}

_META_ONLY = {"verb", "version", "git_describe", "tolerance_provenance",
              "numpy_version", "blas_name", "blas_version", "blas_threads_per_worker"}


def _effective_config(args):
    """Precedence: flag > config file > SPIKE_SEED > verb default."""
    defaults = _VERBS[args.verb][1]
    texts = {"seed": os.environ["SPIKE_SEED"]} if "SPIKE_SEED" in os.environ else {}
    if args.config:
        loaded = io.read_json(args.config)
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a flat JSON object")
        for key, value in loaded.items():
            if key in _META_ONLY or key == "out_dir":
                continue
            if key not in defaults:
                raise ValidationError(f"unknown config key {key!r} for verb {args.verb!r}")
            # A config value is read as its flag would read the same text;
            # JSON null keeps the default.
            if isinstance(value, list):
                value = ",".join(map(str, value))
            if value is not None:
                texts[key] = str(value)
    texts.update((key, getattr(args, key)) for key in defaults
                 if getattr(args, key) is not None)
    config = dict(defaults)
    for key, text in texts.items():
        try:
            config[key] = _converter(key, defaults[key])(text)
        except ValueError as exc:
            raise ValidationError(f"bad value {text!r} for {key!r}: {exc}") from exc
    return config


def _blas_build():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return {}


def _write_metadata(out_dir, verb, config):
    payload = dict(config)
    payload["verb"] = verb
    payload["version"] = __version__
    payload["git_describe"] = _git_describe()
    payload["numpy_version"] = np.__version__
    blas = _blas_build()
    payload["blas_name"] = blas.get("name")
    payload["blas_version"] = blas.get("version")
    if verb in _PINNED_VERBS:
        payload["blas_threads_per_worker"] = _trial_blas_threads()
    # Statistical thresholds (eta, ell, ...) carry no universal constants in
    # the underlying theory; the shipped defaults are pilot-calibrated.
    payload["tolerance_provenance"] = "pilot-derived"
    io.write_json(out_dir / "metadata.json", payload)


def _model_config(cfg, n, m):
    taus = tuple(cfg["taus"])
    return ModelConfig(
        n=n, m=m, r=len(taus), taus=taus, eps=tuple(cfg.get("eps", ())),
        noise_family=cfg["noise_family"], signal_family=cfg["signal_family"],
        seed=cfg["seed"],
    )


def _cmd_simulate(cfg, out_dir):
    config = _model_config(cfg, cfg["n"], cfg["m"])
    report = run_experiment(config, cfg["trials"], cfg["parallelism"])
    write_trials_csv(report.records, out_dir / "trials.csv")
    io.write_json(out_dir / "report.json", report.to_dict())
    print(f"simulate: {report.trial_count} trials -> {out_dir / 'trials.csv'}")
    return 0


def _cmd_predict(cfg, out_dir):
    rows = [p.to_dict() for p in predict(cfg["taus"], cfg["beta"])]
    text = json.dumps(rows, indent=2, sort_keys=True)
    print(text)
    io.write_json(out_dir / "predictions.json", rows)
    return 0


def _cmd_estimate(cfg, out_dir):
    if not cfg["input"]:
        raise ValidationError("estimate needs --input pointing at a CSV matrix")
    matrix = io.read_matrix(cfg["input"])
    report = analyze(matrix, eta=cfg["eta"])
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(text)
    io.write_json(out_dir / "report.json", report.to_dict())
    return 0


def _cmd_sweep(cfg, out_dir):
    n_max = max(cfg["n_values"])
    base = _model_config(cfg, n_max, 10 * n_max)
    schedule = BetaSchedule(c=cfg["beta_c"], alpha=cfg["beta_alpha"])
    results = sweep(base, cfg["n_values"], schedule, cfg["trials"], cfg["parallelism"])
    records = [rec for _, report in results for rec in report.records]
    write_trials_csv(records, out_dir / "sweep.csv")
    io.write_json(out_dir / "sweep_reports.json",
                  [report.to_dict() for _, report in results])
    print(f"sweep: {len(results)} sizes -> {out_dir / 'sweep.csv'}")
    return 0


def _identity_suite():
    """Fast exact-identity checks; returns (ok, lines)."""
    lines = []
    ok = True

    def check(name, passed, detail):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    worst = 0.0
    for beta in (0.5, 0.1, 0.01, 0.001):
        hi = beta ** -0.5
        for t in np.geomspace(0.01 * hi, 0.99 * hi, 50):
            z = mp.d_transform_inverse(t, beta)
            worst = max(worst, abs(mp.d_transform(z, beta) - t) / t)
    check("d-transform round trip", worst < 1e-9, f"max rel err {worst:.2e}")

    worst = 0.0
    for beta in (0.5, 0.1, 0.01):
        _, edge = mp.bulk_edges(beta)
        for z in np.linspace(edge + 0.05, edge + 5.0, 40):
            s, _ = mp.stieltjes(z, beta)
            worst = max(worst, abs(beta * z * s * s + (z + beta - 1) * s + 1))
    check("stieltjes quadratic residual", worst < 1e-12, f"max residual {worst:.2e}")

    theta = np.array([0.9, 0.5])
    worst = 0.0
    for beta in (0.25, 0.04):
        _, edge = mp.bulk_edges(beta)
        for z in np.linspace(edge * 1.01, edge * 1.01 + 3.0, 25):
            mbar = deterministic_master(theta, beta, z)
            d = mp.d_transform(z, beta)
            target = np.prod([d - th ** -2 for th in theta])
            det = mbar.det()
            worst = max(worst, abs(det - target) / max(1.0, abs(det)))
            resc = rescale_blocks(mbar)
            worst_resc = abs(det - beta ** -1.0 * resc.det()) / max(1.0, abs(det))
            worst = max(worst, worst_resc)
    check("master determinant factorization + rescaling", worst < 1e-10,
          f"max err {worst:.2e}")

    worst = 0.0
    for beta in (0.1, 0.01):
        for tau in (1.2, 1.6, 2.0, 3.0):
            th = tau * beta ** 0.25
            lam = spike_eigenvalue_location(th, beta)
            tau_hat, _ = estimate_tau(lam, beta)
            worst = max(worst, abs(tau_hat - tau))
    check("estimator round trip", worst < 1e-10, f"max err {worst:.2e}")

    return ok, lines


def _cmd_verify(cfg, out_dir):
    ok, lines = _identity_suite()
    for line in lines:
        print(line)
    config = _model_config(cfg, cfg["n"], cfg["m"])
    failed = []   # draws that raised; no later draw is started after one

    def certify(draw):
        # Only the certificates leave the task, so no sample outlives its draw.
        # A handled error is returned, so it is raised below in draw order,
        # after the lines of every earlier draw. A draw skipped here comes
        # after a failed one, so the loop below raises before it reaches it.
        if failed and min(failed) < draw:
            return None
        try:
            return certify_outliers(sample_model(config, trial_index=draw),
                                    ell=cfg["ell"], nodes=cfg["nodes"])
        except VALIDATION_ERRORS + NUMERICAL_ERRORS as exc:
            failed.append(draw)
            return exc

    draw_bytes = (trial_bytes(config.n, config.m, config.r, config.noise_family, False)
                  + contour_bytes(config.n, config.r, cfg["nodes"]))
    rows = []
    all_certified = True
    for draw, certs in enumerate(_pinned_map(certify, cfg["draws"], 0, draw_bytes)):
        if isinstance(certs, CertificationError):
            raise CertificationError(f"draw {draw}: {certs}") from certs
        if isinstance(certs, Exception):
            raise certs
        for cert in certs:
            rows.append({"draw": draw, **cert.to_dict()})
            all_certified = all_certified and cert.certified
            status = "PASS" if cert.certified else "FAIL"
            print(f"{status} certificate draw={draw} spike={cert.spike_index} "
                  f"winding={cert.winding} |gap|/sqrt(beta)={cert.centered_gap:.4f}")
    io.write_json(out_dir / "certificates.json", rows)
    if not ok or not all_certified:
        raise CertificationError("verification failed (see lines above)")
    print(f"verify: {len(rows)} certificates -> {out_dir / 'certificates.json'}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "predict": _cmd_predict,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _effective_config(args)
        out_dir = Path(args.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_metadata(out_dir, args.verb, cfg)
        return _COMMANDS[args.verb](cfg, out_dir)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
