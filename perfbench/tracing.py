"""In-memory span tracing of spikedwide, installed from outside the package.

The library binds names with ``from .x import f``, so a wrapper replaces every
module attribute in the package that refers to the original function, not
only the one in the defining module. Methods are wrapped on their class.
Spans are kept in memory with a parent stack per thread; a span that opens
on an empty stack in a worker thread is adopted by the span the main thread
has open (the ``run_experiment`` waiting on its pool), so parallel trials are
attributed to the experiment that submitted them.

Only the benchmark imports this module; nothing under ``src/`` knows of it.
"""

import functools
import gzip
import inspect
import json
import math
import os
import threading
import time
from collections import defaultdict

#: The library's modules, which are the benchmark's layers.
LAYERS = ("ensemble", "spectra", "mp", "predictions", "master", "estimator",
          "montecarlo", "io", "cli")

#: Methods traced on classes (public module-level functions are all traced).
METHODS = {
    "master": {
        "EmpiricalMasterEvaluator": ("__init__", "__call__", "det"),
        "MasterMatrix": ("det",),
    },
}

MB = float(2 ** 20)


def _largest_matrix(args):
    best = None
    for a in args:
        if getattr(a, "ndim", 0) == 2 and (best is None or a.nbytes > best.nbytes):
            best = a
    return None if best is None else (best.shape, best.nbytes)


#: Per-function quantity recorded on each span: f(args, kwargs, result).
WORK = {
    "ensemble.sample_noise": lambda a, k, res: res.nbytes,
    "io.read_matrix": lambda a, k, res: os.path.getsize(a[0]),
    "master.certify_outliers": lambda a, k, res: len(res),
    "estimator.analyze": lambda a, k, res: len(res.outliers),
    "montecarlo.run_experiment": lambda a, k, res: (
        k.get("parallelism", a[2] if len(a) > 2 else 1), res.failed_count),
}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "work", "matrix")

    def __init__(self, name, parent, start=0.0, end=0.0):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.start = start
        self.end = end
        self.work = None
        self.matrix = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records a span per call of every wrapped function."""

    def __init__(self):
        self.spans = []
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name):
        work = WORK.get(name)
        spectra = name.startswith("spectra.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = None
            span = Span(name, parent)
            if spectra:
                span.matrix = _largest_matrix(args)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every public function and listed method of the package's layers."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        modules += [m for m in vars(package).values()
                    if inspect.ismodule(m) and m.__name__.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(fn, f"{layer}.{attr}")
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, traced)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self.wrap(vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))

    def _patch(self, holder, key, value):
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def reset(self):
        self.spans = []


def write_spans(spans, path):
    """Write spans as gzipped JSON, one [name, parent, start, end] row each.

    parent is the row index of the parent span, or null for a root span;
    start and end are time.perf_counter() seconds.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [[s.name, None if s.parent is None else index.get(id(s.parent)), s.start, s.end]
            for s in spans]
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["name", "parent", "start", "end"], "spans": rows}, fh)


def covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return [s.duration - covered(children.get(id(s), ()), s.start, s.end) for s in spans]


def percentile(values, q):
    """(q-th percentile by linear interpolation, sample count); nan when empty."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return math.nan, 0
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), n


def _outermost(spans, key):
    """Spans with no ancestor sharing key(span): inclusive time is not double counted."""
    out = []
    for s in spans:
        k = key(s)
        p = s.parent
        while p is not None and key(p) != k:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def summarize(spans, units):
    """Per-layer metrics of a traced run, normalised per completed unit.

    Returns {name: (value, unit)}. A layer the workload never enters reads 0.
    """
    per = 1.0 / max(units, 1)
    selfs = self_times(spans)
    by_name = defaultdict(list)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    for s, st in zip(spans, selfs):
        by_name[s.name].append(s)
        self_by_name[s.name] += st
        self_by_layer[s.layer] += st

    def inclusive(name):
        return sum(s.duration for s in _outermost(by_name[name], lambda x: x.name))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    def secs(name):
        return (inclusive(name) * per, "s/unit")

    def self_secs(name):
        return (self_by_name[name] * per, "s/unit")

    def calls(name):
        return (len(by_name[name]) * per, "calls/unit")

    layer_s = defaultdict(float)
    for s in _outermost(spans, lambda x: x.layer):
        layer_s[s.layer] += s.duration
    layer_calls = defaultdict(int)
    for s in spans:
        layer_calls[s.layer] += 1

    m = {}
    noise_bytes = sum(s.work for s in by_name["ensemble.sample_noise"])
    m["ensemble.sample_noise.s"] = secs("ensemble.sample_noise")
    m["ensemble.sample_noise.calls"] = calls("ensemble.sample_noise")
    m["ensemble.sample_noise.mb_per_s"] = (
        rate(noise_bytes / MB, inclusive("ensemble.sample_noise")), "MB/s")
    m["ensemble.assemble_spiked.s"] = secs("ensemble.assemble_spiked")
    m["ensemble.sample_signal_vectors.s"] = secs("ensemble.sample_signal_vectors")

    # sample_covariance is X @ X.T, which numpy runs as a symmetric rank-k
    # update: n^2 m flops for an n x m input.
    flops = sum(s.matrix[0][0] ** 2 * s.matrix[0][1]
                for s in by_name["spectra.sample_covariance"] if s.matrix)
    m["spectra.sample_covariance.s"] = secs("spectra.sample_covariance")
    m["spectra.sample_covariance.calls"] = calls("spectra.sample_covariance")
    m["spectra.sample_covariance.gflops"] = (
        rate(flops / 1e9, inclusive("spectra.sample_covariance")), "GFLOP/s")
    entries = [s for s in spans if s.layer == "spectra" and s.matrix
               and (s.parent is None or s.parent.layer != "spectra")
               and s.matrix[0][0] <= s.matrix[0][1]]
    m["spectra.input_mb"] = (sum(s.matrix[1] for s in entries) / MB * per, "MB/unit")
    m["spectra.top_spectrum.self_s"] = self_secs("spectra.top_spectrum")
    m["spectra.covariance_eigenvalues.s"] = secs("spectra.covariance_eigenvalues")
    m["spectra.right_projection_energy.s"] = secs("spectra.right_projection_energy")
    m["spectra.empirical_stieltjes.calls"] = calls("spectra.empirical_stieltjes")
    m["spectra.overlap_matrix.s"] = secs("spectra.overlap_matrix")

    m["mp.s"] = (layer_s["mp"] * per, "s/unit")
    m["mp.calls"] = (layer_calls["mp"] * per, "calls/unit")
    m["predictions.s"] = (layer_s["predictions"] * per, "s/unit")

    certs = sum(s.work for s in by_name["master.certify_outliers"])
    windings = len(by_name["master.winding_count"])
    m["master.EmpiricalMasterEvaluator.init_s"] = secs("master.EmpiricalMasterEvaluator.__init__")
    m["master.det.calls"] = calls("master.EmpiricalMasterEvaluator.det")
    m["master.det.s"] = secs("master.EmpiricalMasterEvaluator.det")
    m["master.winding_count.calls"] = calls("master.winding_count")
    m["master.winding_count.s"] = secs("master.winding_count")
    m["master.certify_outliers.self_s"] = self_secs("master.certify_outliers")
    m["master.windings_per_cert"] = (windings / certs if certs else 0.0, "ratio")

    trials = by_name["montecarlo.run_trial"]
    trial_ms = [s.duration * 1e3 for s in trials]
    p50, count = percentile(trial_ms, 50)
    p90, _ = percentile(trial_ms, 90)
    experiments = by_name["montecarlo.run_experiment"]
    capacity = sum(s.duration * s.work[0] for s in experiments)
    m["montecarlo.run_trial.s"] = secs("montecarlo.run_trial")
    m["montecarlo.run_trial.calls"] = calls("montecarlo.run_trial")
    m["montecarlo.trial_ms_p50"] = (p50 if count else 0.0, "ms")
    m["montecarlo.trial_ms_p90"] = (p90 if count else 0.0, "ms")
    m["montecarlo.trial_ms_n"] = (count, "count")
    m["montecarlo.worker_util"] = (rate(sum(s.duration for s in trials), capacity), "ratio")
    m["montecarlo.run_experiment.self_s"] = self_secs("montecarlo.run_experiment")
    m["montecarlo.probe_deviation.s"] = secs("montecarlo.probe_deviation")
    m["montecarlo.write_trials_csv.s"] = secs("montecarlo.write_trials_csv")
    m["montecarlo.failed_trials"] = (sum(s.work[1] for s in experiments), "count")

    read_bytes = sum(s.work for s in by_name["io.read_matrix"])
    m["io.read_matrix.s"] = secs("io.read_matrix")
    m["io.read_matrix.mb_per_s"] = (rate(read_bytes / MB, inclusive("io.read_matrix")), "MB/s")
    m["io.write_json.s"] = secs("io.write_json")

    analyses = by_name["estimator.analyze"]
    m["estimator.analyze.self_s"] = self_secs("estimator.analyze")
    m["estimator.outliers_found"] = (
        sum(s.work for s in analyses) / len(analyses) if analyses else 0.0, "count")

    m["cli.main.self_s"] = self_secs("cli.main")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer] * per, "s/unit")
    return m
