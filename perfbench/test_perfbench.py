"""Tests of the benchmark's own arithmetic; no large arrays, no spikedwide.

    python3 -m pytest perfbench/test_perfbench.py
"""

import gzip
import json
import math
import threading
import types

import pytest

import run
import tracing
import workloads
from tracing import Span


def test_forecast_counts_float64_arrays_per_worker():
    # 1024 x 1024 float64 is 8 MB; two of them on each of three workers.
    assert workloads.forecast_mb(1024, 1024, 2, workers=3) == workloads.BASE_MB + 48.0
    assert workloads.forecast_mb(512, 1024, 3) == workloads.BASE_MB + 12.0


def test_workload_forecasts_use_their_shapes():
    assert workloads.TrialsMeasured().forecast_mb(nproc=2) == pytest.approx(
        workloads.BASE_MB + 3 * 200 * 40000 * 8 / 2 ** 20)
    sweep = workloads.SweepParallel()
    assert (sweep.N, sweep.M) == (400, 8000)
    # sweep runs one trial per core, never more workers than trials.
    assert sweep.workers(nproc=64) == 10 and sweep.workers(nproc=2) == 2
    assert sweep.forecast_mb(nproc=2) == pytest.approx(
        workloads.BASE_MB + 2 * 3 * 400 * 8000 * 8 / 2 ** 20)


def test_memory_check_refuses_only_what_cannot_fit(tmp_path):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:  8000000 kB\nMemAvailable:  2048000 kB\n")
    available = run.mem_available_mb(str(meminfo))
    assert available == 2000.0
    run.check_memory(1999.0, available)
    with pytest.raises(run.BenchError):
        run.check_memory(2001.0, available)
    assert run.mem_available_mb(str(tmp_path / "missing")) is None
    run.check_memory(1e9, None)


def test_self_time_subtracts_the_union_of_children():
    parent = Span("montecarlo.run_experiment", None, 0.0, 10.0)
    spans = [
        parent,
        Span("montecarlo.run_trial", parent, 1.0, 3.0),
        Span("montecarlo.run_trial", parent, 2.0, 5.0),   # overlaps: parallel worker
        Span("montecarlo.run_trial", parent, 9.0, 12.0),  # clipped at the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1:] == [2.0, 3.0, 3.0]


def test_covered_merges_and_clips():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 10.0) == 3.0
    assert tracing.covered([(-5.0, 5.0)], 0.0, 1.0) == 1.0


def test_percentile_reports_its_sample_count():
    assert tracing.percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)
    value, n = tracing.percentile(list(range(11)), 90)
    assert (value, n) == (9.0, 11)
    assert tracing.percentile([1.0, 2.0], 50) == (1.5, 2)
    value, n = tracing.percentile([], 90)
    assert math.isnan(value) and n == 0


def _fake_package():
    """A package shaped like spikedwide: a layer function imported by another layer."""
    pkg = types.ModuleType("fakepkg")
    layers = {name: types.ModuleType(f"fakepkg.{name}") for name in tracing.LAYERS}
    for name, mod in layers.items():
        setattr(pkg, name, mod)

    def draw(n):
        return [0.0] * n
    draw.__module__ = "fakepkg.ensemble"
    layers["ensemble"].draw = draw

    def run_trial(i):
        return len(layers["montecarlo"].draw(3)) + i
    run_trial.__module__ = "fakepkg.montecarlo"
    layers["montecarlo"].run_trial = run_trial
    layers["montecarlo"].draw = draw   # `from .ensemble import draw`

    def run_batch(trials):
        mc = layers["montecarlo"]
        threads = [threading.Thread(target=mc.run_trial, args=(i,)) for i in range(trials)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        return not any(t.is_alive() for t in threads)
    run_batch.__module__ = "fakepkg.montecarlo"
    layers["montecarlo"].run_batch = run_batch

    class EmpiricalMasterEvaluator:
        def __init__(self, x):
            self.x = x

        def __call__(self, z):
            return self.x * z

        def det(self, z):
            return self(z)

    class MasterMatrix:
        def det(self):
            return 1.0

    layers["master"].EmpiricalMasterEvaluator = EmpiricalMasterEvaluator
    layers["master"].MasterMatrix = MasterMatrix
    return pkg


def test_tracer_wraps_every_binding_and_nests_spans():
    pkg = _fake_package()
    original = pkg.ensemble.draw
    tracer = tracing.Tracer()
    tracer.install(pkg)
    assert pkg.montecarlo.draw is pkg.ensemble.draw is not original
    assert pkg.montecarlo.run_trial(1) == 4
    assert pkg.master.EmpiricalMasterEvaluator(2.0).det(3.0) == 6.0
    names = [s.name for s in tracer.spans]
    assert names == ["ensemble.draw", "montecarlo.run_trial",
                     "master.EmpiricalMasterEvaluator.__init__",
                     "master.EmpiricalMasterEvaluator.__call__",
                     "master.EmpiricalMasterEvaluator.det"]
    noise, trial, _, call, det = tracer.spans
    assert noise.parent is trial and trial.parent is None and call.parent is det
    tracer.uninstall()
    assert pkg.montecarlo.draw is original


def test_worker_thread_spans_are_adopted_by_the_open_main_span():
    pkg = _fake_package()
    tracer = tracing.Tracer()
    tracer.install(pkg)
    assert pkg.montecarlo.run_batch(3)
    exp = [s for s in tracer.spans if s.name == "montecarlo.run_batch"]
    trials = [s for s in tracer.spans if s.name == "montecarlo.run_trial"]
    noises = [s for s in tracer.spans if s.name == "ensemble.draw"]
    assert len(exp) == 1 and len(trials) == 3 and len(noises) == 3
    assert all(t.parent is exp[0] for t in trials)
    assert all(n.parent in trials for n in noises)
    tracer.uninstall()


def test_summary_normalises_per_unit():
    trial = Span("montecarlo.run_trial", None, 0.0, 0.4)
    noise = Span("ensemble.sample_noise", trial, 0.0, 0.1)
    noise.work = 2 ** 20
    gram = Span("spectra.sample_covariance", trial, 0.1, 0.3)
    gram.matrix = ((10, 1000), 10 * 1000 * 8)
    m = tracing.summarize([noise, gram, trial], units=2)
    assert m["ensemble.sample_noise.s"] == (0.05, "s/unit")
    assert m["ensemble.sample_noise.mb_per_s"][0] == pytest.approx(10.0)
    assert m["spectra.sample_covariance.gflops"][0] == pytest.approx(10 * 10 * 1000 / 1e9 / 0.2)
    assert m["spectra.input_mb"][0] == pytest.approx(80000 / 2 ** 20 / 2)
    assert m["montecarlo.self_s"][0] == pytest.approx(0.05)
    assert m["master.det.calls"] == (0.0, "calls/unit")
    assert m["montecarlo.trial_ms_n"] == (1, "count")


def test_spans_are_written_with_parent_indices(tmp_path):
    trial = Span("montecarlo.run_trial", None, 0.0, 0.4)
    noise = Span("ensemble.sample_noise", trial, 0.0, 0.1)
    path = tmp_path / "spans.json.gz"
    tracing.write_spans([noise, trial], path)
    with gzip.open(path, "rt") as fh:
        data = json.load(fh)
    assert data["fields"] == ["name", "parent", "start", "end"]
    assert data["spans"] == [["ensemble.sample_noise", 1, 0.0, 0.1],
                             ["montecarlo.run_trial", None, 0.0, 0.4]]
