"""One workload in its own process, so that its getrusage peak RSS is its own.

    python3 perfbench/worker.py --root . --workload W --seed N --seconds S \
        --mode {setup,run,trace} --workdir DIR [--spans FILE]

Imports spikedwide from ROOT/src, sets the workload up, runs one untimed
warm-up job, then (unless --mode setup) runs jobs in a closed loop for S
seconds. Each job is timed alone; its checks run outside the timed region. With
--mode trace the timed jobs' spans are written to FILE at the end.
Prints one JSON line on stdout; the library's own prints are captured.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _blas_threads():
    """BLAS thread count in effect, read from the loaded OpenBLAS (not set)."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def run_context(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _import_package(root):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import spikedwide
    import spikedwide.cli  # binds spikedwide.cli and spikedwide.io

    if Path(spikedwide.__file__).resolve().parent != src / "spikedwide":
        raise SystemExit(f"spikedwide was imported from {spikedwide.__file__}, not {src}")
    return spikedwide


def run(args):
    sw = _import_package(Path(args.root))
    import numpy as np

    workload = workloads.WORKLOADS[args.workload]()
    out_dir = Path(args.workdir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install(sw)

    attempted = failed = 0
    problems = []
    ref_err = None
    reference = None

    def one_job():
        nonlocal attempted, failed, ref_err, reference
        t0 = time.perf_counter()
        try:
            result = workload.job()
            seconds = time.perf_counter() - t0
            outcome = workload.check(result)
        except Exception:
            seconds = time.perf_counter() - t0
            traceback.print_exc()
            outcome = workloads.Outcome(workload.UNITS, workload.UNITS, [], None, ["job raised"])
        digest = None if outcome.problems else _digest(outcome.files)
        if reference is None:
            reference = digest
        elif digest != reference:
            outcome.problems.append("output hash differs from the first job")
            outcome.failed = outcome.units
        problems.extend(outcome.problems)
        attempted += outcome.units
        failed += outcome.failed
        if ref_err is None:
            ref_err = outcome.ref_err
        return outcome.units - outcome.failed, seconds

    workload.setup(sw, args.seed, out_dir)
    one_job()   # warm-up: untimed, but checked and the hash reference
    ready_at = time.monotonic()
    result = {"ready_at": ready_at}
    if args.mode != "setup":
        if tracer is not None:
            tracer.reset()
        jobs = []
        deadline = time.perf_counter() + args.seconds
        while True:
            jobs.append(one_job())
            if time.perf_counter() >= deadline:
                break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update({
            "jobs": jobs,
            "peak_rss_mb": peak_mb,
            "context": run_context(np),
        })
        if tracer is not None:
            units = sum(u for u, _ in jobs)
            layers = tracing.summarize(tracer.spans, units)
            layers["montecarlo.peak_over_x"] = (peak_mb / workload.x_mb(), "ratio")
            result["layers"] = layers
            tracing.write_spans(tracer.spans, args.spans)
    result.update({"attempted": attempted, "failed": failed, "problems": problems[:10],
                   "ref_err": ref_err, "hash": reference})
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="where --mode trace writes its spans (.json.gz)")
    args = p.parse_args(argv)
    if args.mode == "trace" and not args.spans:
        p.error("--mode trace needs --spans")
    proto = sys.stdout
    sys.stdout = sys.stderr   # stray prints must not corrupt the result line
    result = run(args)
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
