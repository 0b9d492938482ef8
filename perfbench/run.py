"""spikedwide benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload trials_measured --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ./src. Each
measured run happens in a child process (perfbench/worker.py), so the peak
RSS it reads from getrusage belongs to that workload alone. Before any child
starts, the run's peak memory is forecast from the workload's shapes and
compared with MemAvailable; a run that cannot fit is refused.

--trace 0 prints the end-to-end metrics. Set-up is repeated in separate
processes and setup_s is the median. --trace 1 runs the workload untraced
and then traced, for half the seconds each, and prints the per-layer
metrics plus trace.overhead (traced over untraced throughput). The traced
run's spans are kept in .perfbench_out/spans-<workload>-seed<seed>.json.gz.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it give the run context, the output hash and the metrics that
carry no bound (failed_frac, ref_err). The exit code is 0 only when every
job's output passed its checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Set-up samples per --trace 0 run: this many minus one set-up-only
#: processes, plus the measured process's own set-up.
SETUP_SAMPLES = 3
#: Every child must be done this long after the benchmark started.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run cannot produce a result."""


def mem_available_mb(meminfo="/proc/meminfo"):
    """MemAvailable in MB (2**20 bytes), or None when the kernel does not say."""
    try:
        with open(meminfo) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def check_memory(forecast, available):
    """Refuse, before allocating anything, a run whose forecast does not fit."""
    if available is not None and forecast > available:
        raise BenchError(f"forecast peak {forecast:.0f} MB exceeds MemAvailable "
                         f"{available:.0f} MB; refusing to start")


def _child(args, mode, seconds, workdir, started):
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode, "--workdir", str(workdir)]
    if mode == "trace":
        spans = spans_path(args)
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_git_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} child exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - spawned
    return result


def spans_path(args):
    return ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json.gz"


def _throughput(jobs):
    """Units completed per second of job time, over all timed jobs."""
    return sum(units for units, _ in jobs) / sum(seconds for _, seconds in jobs)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args):
    started = time.monotonic()
    workload = workloads.WORKLOADS[args.workload]()
    forecast = workload.forecast_mb(len(os.sched_getaffinity(0)))
    check_memory(forecast, mem_available_mb())

    work_root = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        children = []

        def child(mode, seconds):
            workdir = work_root / str(len(children))
            children.append(_child(args, mode, seconds, workdir, started))
            return children[-1]

        if args.trace:
            plain = child("run", args.seconds / 2)
            traced = child("trace", args.seconds / 2)
            metrics = {name: _metric(v, u) for name, (v, u) in traced["layers"].items()}
            metrics["trace.overhead"] = _metric(
                _throughput(traced["jobs"]) / _throughput(plain["jobs"]), "ratio")
            main = traced
            setups = []
        else:
            setups = [child("setup", 0)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            main = child("run", args.seconds)
            setups.append(main["setup_s"])
            metrics = {
                "throughput": _metric(_throughput(main["jobs"]), "1/s"),
                "setup_s": _metric(statistics.median(setups), "s"),
                "peak_rss_mb": _metric(main["peak_rss_mb"], "MB"),
            }
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c["problems"]]
    hashes = sorted({c["hash"] for c in children if c.get("hash")})
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "context": dict(main["context"], git_commit=_git_commit()),
        "forecast_peak_mb": forecast,
        "setup_samples_s": setups,
        "peak_rss_mb": main["peak_rss_mb"],
        "jobs": len(main["jobs"]),
        "output_sha256": hashes,
        "failed_frac": _metric(failed / attempted if attempted else 1.0, "ratio"),
        "unit": workload.unit,
        "ref_err": _metric(main["ref_err"], workload.ref_unit),
        "problems": problems,
    }
    if args.trace:
        detail["spans_file"] = str(spans_path(args).relative_to(ROOT))
    correct = not problems and failed == 0 and len(hashes) == 1
    return correct, attempted, failed, metrics, detail


def _git_env():
    # Keep git (run here and by the CLI for metadata.json) from searching
    # above the checkout.
    return dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=_git_env())
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "spikedwide" / "__init__.py").is_file():
        print(f"error: no spikedwide sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        correct, attempted, failed, metrics, detail = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"detail": detail}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
