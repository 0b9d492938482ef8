"""Model sampling: calibration, signal/noise draws, assembly, truncation."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spikedwide import _runtime, ensemble
from spikedwide.ensemble import (
    ModelConfig,
    SpikedSample,
    assemble_spiked,
    calibrate_signal_strengths,
    sample_model,
    sample_noise,
    sample_signal_vectors,
    stream,
    truncate_normalize,
    truncation_threshold,
)
from spikedwide.errors import ValidationError

SEED = 20260808


def _fresh_process_output(script):
    """stdout of `script` run by a new interpreter that imports this spikedwide."""
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(ensemble.__file__).parents[1]))).stdout


class TestCalibration:
    def test_single(self):
        theta = calibrate_signal_strengths([math.sqrt(2)], [0.0], 0.01)
        assert theta[0] == pytest.approx(0.447214, abs=1e-6)
        assert theta[0] ** 2 == pytest.approx(0.2, abs=1e-12)

    def test_square(self):
        assert calibrate_signal_strengths([1.0], [0.0], 1.0)[0] == 1.0

    def test_with_perturbations(self):
        theta = calibrate_signal_strengths([2.0, 1.0], [0.1, 0.0], 1e-4)
        assert theta == pytest.approx([0.22, 0.1], abs=1e-12)

    def test_rejects_unordered(self):
        with pytest.raises(ValidationError):
            calibrate_signal_strengths([1.0, 2.0], [0.0, 0.0], 0.1)
        with pytest.raises(ValidationError):
            calibrate_signal_strengths([1.0, 1.0], [0.0, 0.0], 0.1)


class TestSignalVectors:
    def test_rank_zero(self):
        u, v = sample_signal_vectors(5, 7, 0, "gaussian_iid", stream(SEED, "signal"))
        assert u.shape == (5, 0) and v.shape == (7, 0)

    def test_orthonormal_family(self):
        for seed in (1, 2, 3):
            u, v = sample_signal_vectors(40, 90, 3, "orthonormal", stream(seed, "signal"))
            assert np.abs(u.T @ u - np.eye(3)).max() < 1e-12
            assert np.abs(v.T @ v - np.eye(3)).max() < 1e-12

    def test_gaussian_norm_concentration(self):
        # Column norms concentrate near 1 (chi-square): all of 50 seeds within 0.05.
        hits = 0
        for seed in range(50):
            u, _ = sample_signal_vectors(10000, 10000, 1, "gaussian_iid",
                                         stream(seed, "signal"))
            hits += abs(np.linalg.norm(u[:, 0]) - 1) < 0.05
        assert hits >= 50 * 0.99

    def test_rank_too_large(self):
        with pytest.raises(ValidationError):
            sample_signal_vectors(4, 6, 5, "gaussian_iid", stream(SEED, "signal"))


class TestNoise:
    def test_deterministic(self):
        x1 = sample_noise(20, 30, "gaussian", stream(SEED, "noise", 3))
        x2 = sample_noise(20, 30, "gaussian", stream(SEED, "noise", 3))
        assert np.array_equal(x1, x2)

    def test_moments(self):
        x = sample_noise(1000, 1000, "gaussian", stream(SEED, "noise"))
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.01

    def test_rademacher(self):
        x = sample_noise(50, 60, "rademacher", stream(SEED, "noise"))
        assert set(np.unique(x)) == {-1.0, 1.0}
        assert np.all(x * x == 1.0)  # fourth moment exactly 1
        assert abs(x.mean()) < 0.05

    def test_rademacher_draw_is_the_int64_draw_at_lower_peak(self):
        shape = (333, 1001)
        old = (stream(SEED, "noise").integers(0, 2, size=shape).astype(float)
               * 2.0 - 1.0)
        tracemalloc.start()
        try:
            x = sample_noise(*shape, "rademacher", stream(SEED, "noise"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.tobytes() == old.tobytes()
        assert peak <= 1.6 * x.nbytes, f"peak {peak / x.nbytes:.2f} x X.nbytes"

    @pytest.mark.parametrize("shape", [(333, 1001), (3, 7), (1, ensemble.NOISE_CHUNK + 1)])
    def test_chunked_rademacher_is_the_one_shot_draw(self, shape):
        # 333 x 1001 is not a multiple of the chunk, and 3 x 7 is below one.
        one_shot = (stream(SEED, "noise").integers(0, 2, size=shape, dtype=np.int32)
                    .astype(float) * 2.0 - 1.0)
        x = sample_noise(*shape, "rademacher", stream(SEED, "noise"))
        assert x.dtype == np.float64 and x.flags.c_contiguous
        assert x.tobytes() == one_shot.tobytes()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64,
                                               np.random.MT19937])
    @pytest.mark.parametrize("buffered", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (1, ensemble.NOISE_CHUNK + 1),
                                       (1, 2 * ensemble.NOISE_CHUNK - 1)])
    def test_raw_word_draw_is_the_int32_draw(self, bit_generator, buffered, shape):
        # PCG64 and SFC64 are read as raw words, starting with a half left
        # buffered by earlier int32 draws; MT19937 keeps the integers loop.
        # Either way the stream goes on as after one integers call.
        def generator():
            rng = np.random.Generator(bit_generator(SEED))
            rng.integers(0, 2, size=buffered, dtype=np.int32)
            return rng

        rng, ref = generator(), generator()
        want = ref.integers(0, 2, size=shape, dtype=np.int32).astype(float) * 2.0 - 1.0
        assert sample_noise(*shape, "rademacher", rng).tobytes() == want.tobytes()
        assert np.array_equal(rng.integers(0, 2, size=5, dtype=np.int32),
                              ref.integers(0, 2, size=5, dtype=np.int32))
        assert rng.random(3).tobytes() == ref.random(3).tobytes()

    @pytest.mark.parametrize("family", ["gaussian", "rademacher", "student_t8"])
    def test_draw_peak_is_x_plus_one_chunk(self, family):
        # Every filler writes the one float64 result in place and holds one
        # chunk of its transient: none for Gaussian noise, 32-bit halves for
        # Rademacher noise, a float64 draw for Student-t noise. The slack
        # covers the Python objects of the draw (under 2 KB measured).
        sample_noise(3, 7, family, stream(SEED, "noise"))
        tracemalloc.start()
        try:
            x = sample_noise(300, 1000, family, stream(SEED, "noise"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        draw = ensemble._draw_bytes(300, 1000, family)
        assert peak <= draw + 4096, f"peak {peak - x.nbytes} B over X.nbytes"

    @pytest.mark.parametrize("shape", [(333, 1001), (3, 7), (1, ensemble.NOISE_CHUNK + 1)])
    def test_gaussian_draw_is_the_one_shot_draw(self, shape):
        # Every family's chunked draw has the bits of numpy's one call for
        # the whole matrix and leaves the generator where that call does.
        def one_shot(family, rng):
            if family == "gaussian":
                return rng.standard_normal(shape)
            if family == "rademacher":
                return rng.integers(0, 2, size=shape, dtype=np.int32) * 2.0 - 1.0
            return rng.standard_t(8, size=shape) * math.sqrt(6.0 / 8.0)

        def live_state(rng):
            # A buffered 32-bit half that is marked unused is never read.
            state = rng.bit_generator.state
            return state if state["has_uint32"] else dict(state, uinteger=None)

        for family in ("gaussian", "rademacher", "student_t8"):
            rng, ref = stream(SEED, "noise"), stream(SEED, "noise")
            x = sample_noise(*shape, family, rng)
            assert x.dtype == np.float64 and x.flags.c_contiguous
            assert x.tobytes() == one_shot(family, ref).tobytes(), family
            assert live_state(rng) == live_state(ref), family

    @pytest.mark.parametrize("family", ["gaussian", "rademacher", "student_t8"])
    def test_tracemalloc_counts_a_draw_while_it_lives(self, family):
        tracemalloc.start()
        try:
            x = sample_noise(300, 1000, family, stream(SEED, "noise"))
            view = x[1:]
            nbytes = x.nbytes
            del x
            held = tracemalloc.get_traced_memory()[0]
            del view
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held >= nbytes and left < 4096, (held, left)

    def test_repeated_draws_reuse_one_mapping(self):
        for family in ("gaussian", "rademacher", "student_t8"):
            ensemble._idle_maps.clear()
            ensemble._dead_sizes.clear()

            def draw(n):
                return sample_noise(n, 70, family, stream(SEED, "noise"))

            x = draw(30)
            del x   # the first mapping of a size to die is unmapped
            assert ensemble._idle_maps == []
            x = draw(30)
            address = x.ctypes.data
            del x   # a later one is kept
            assert len(ensemble._idle_maps) == 1
            smaller = draw(20)
            assert smaller.ctypes.data == address and ensemble._idle_maps == []
            del smaller
            larger = draw(40)   # too large for the idle mapping, which is dropped
            assert larger.ctypes.data != address and ensemble._idle_maps == []

    @pytest.mark.parametrize("family", ["gaussian", "rademacher", "student_t8"])
    def test_heap_history_does_not_grow_the_next_draw(self, family):
        # In a fresh process: a 30.5 MiB draw (under malloc's 32 MiB cap on
        # its mmap threshold) dies below a live block, and a 640 KB block
        # takes the start of its span. A heap-served next draw no longer fits
        # there and grows the heap by one more X.
        script = f"""
import numpy as np
from spikedwide.ensemble import sample_noise, stream

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * {os.sysconf("SC_PAGE_SIZE")}

rng = stream(1, "noise")
first = sample_noise(200, 20000, "{family}", rng)
del first
x = sample_noise(200, 20000, "{family}", rng)
pin = np.ones(50_000)
del x
temp = np.ones(80_000)
before = resident()
x = sample_noise(200, 20000, "{family}", rng)
print((resident() - before) / x.nbytes)
"""
        ratio = float(_fresh_process_output(script))
        assert ratio < 0.25, ratio

    def test_mid_sized_arrays_after_a_draw_stay_resident(self):
        # In a fresh process: after one draw, four 1.6 MB arrays made and
        # freed together (a contour pass's worth) are served again without
        # page faults, as they were when the draw itself came from malloc.
        script = """
import resource
import numpy as np
from spikedwide.ensemble import sample_noise, stream

def churn():
    arrays = [np.ones(200_000) for _ in range(4)]
    del arrays

x = sample_noise(200, 20000, "gaussian", stream(1, "noise"))
churn()
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        faults = int(_fresh_process_output(script))
        assert faults < 200, faults

    def test_student_t(self):
        x = sample_noise(400, 400, "student_t8", stream(SEED, "noise"))
        assert abs(x.var() - 1.0) < 0.05

    def test_rejects_thin_tails(self):
        with pytest.raises(ValidationError):
            sample_noise(5, 5, "student_t4", stream(SEED, "noise"))
        with pytest.raises(ValidationError):
            sample_noise(5, 5, "cauchy", stream(SEED, "noise"))


def _one_shot(family, rng, shape):
    if family == "gaussian":
        return rng.standard_normal(shape)
    return rng.standard_t(8, size=shape) * math.sqrt(6.0 / 8.0)


class TestSplitDraw:
    """Draws cut into pieces on idle cores keep the serial draw's bits."""

    #: Above three pieces of SPLIT_MIN values, and not a multiple of the chunk.
    SHAPE = (61, 52000)

    @pytest.fixture
    def pieces(self, monkeypatch):
        """The piece count of every draw, recorded through _draw_pieces."""
        counts = []
        real = ensemble._draw_pieces

        def recording(fill, flat, rng, pieces, words):
            counts.append(pieces)
            return real(fill, flat, rng, pieces, words)

        monkeypatch.setattr(ensemble, "_draw_pieces", recording)
        return counts

    @staticmethod
    def generators():
        # Both hold a buffered 32-bit half, which the split draw must keep.
        rng, ref = stream(SEED, "noise"), stream(SEED, "noise")
        for g in (rng, ref):
            g.integers(0, 2, size=1, dtype=np.int32)
        return rng, ref

    @pytest.mark.parametrize("family", ["gaussian", "student_t8"])
    @pytest.mark.parametrize("cores", [2, 3])
    def test_split_draw_is_the_one_shot_draw(self, monkeypatch, pieces, family, cores):
        assert math.prod(self.SHAPE) >= 3 * ensemble.SPLIT_MIN
        assert math.prod(self.SHAPE) % ensemble.NOISE_CHUNK
        monkeypatch.setattr(_runtime, "available_cores", lambda: cores)
        rng, ref = self.generators()
        x = sample_noise(*self.SHAPE, family, rng)
        assert pieces == [cores]
        assert x.tobytes() == _one_shot(family, ref, self.SHAPE).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        assert _runtime._cores_held == 0

    def test_a_missed_seam_draws_the_piece_again(self, monkeypatch, pieces):
        # Two words per Gaussian value start every helper piece past its true
        # start, so no seam is found and every piece is drawn again.
        monkeypatch.setattr(_runtime, "available_cores", lambda: 3)
        monkeypatch.setitem(ensemble.WORDS_MIN, "gaussian", 2)
        overlaps = []
        real = ensemble._overlap

        def recording(tail, span):
            overlaps.append(real(tail, span))
            return overlaps[-1]

        monkeypatch.setattr(ensemble, "_overlap", recording)
        rng, ref = self.generators()
        x = sample_noise(*self.SHAPE, "gaussian", rng)
        assert pieces == [3] and overlaps == [None, None]
        assert x.tobytes() == _one_shot("gaussian", ref, self.SHAPE).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("family, bit_generator", [
        ("rademacher", np.random.PCG64), ("gaussian", np.random.SFC64),
        ("gaussian", np.random.MT19937), ("student_t8", np.random.SFC64)])
    def test_unsplittable_draws_stay_one_piece(self, monkeypatch, pieces, family,
                                               bit_generator):
        # Rademacher values cannot mark a seam; SFC64 and MT19937 cannot advance.
        monkeypatch.setattr(_runtime, "available_cores", lambda: 3)
        rng, ref = (np.random.Generator(bit_generator(SEED)) for _ in range(2))
        x = sample_noise(*self.SHAPE, family, rng)
        if family == "rademacher":
            want = ref.integers(0, 2, size=self.SHAPE, dtype=np.int32) * 2.0 - 1.0
        else:
            want = _one_shot(family, ref, self.SHAPE)
        assert pieces == [1]
        assert x.tobytes() == want.tobytes()
        assert rng.random(3).tobytes() == ref.random(3).tobytes()

    def test_a_failed_piece_is_raised_after_every_piece_ends(self, monkeypatch):
        monkeypatch.setattr(_runtime, "available_cores", lambda: 3)
        ended = []
        real = ensemble._fill_span

        def failing(fill, rng, span):
            try:
                if threading.current_thread() is not threading.main_thread():
                    raise KeyError("helper piece")
                return real(fill, rng, span)
            finally:
                ended.append(threading.current_thread().name)

        monkeypatch.setattr(ensemble, "_fill_span", failing)
        threads = threading.active_count()
        tracemalloc.start()
        try:
            with pytest.raises(KeyError, match="helper piece"):
                sample_noise(*self.SHAPE, "gaussian", stream(SEED, "noise"))
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(ended) == 3
        assert threading.active_count() == threads
        assert _runtime._cores_held == 0
        assert left < 4096, f"{left} B left after the failed draw"

    @pytest.mark.parametrize("family", ["gaussian", "student_t8"])
    def test_split_peak_is_x_plus_one_chunk_per_piece(self, monkeypatch, pieces, family):
        # Each piece holds one chunk of its filler's transient at a time. The
        # slack covers the Python objects of the draw and, per helper piece,
        # its running thread and generator copy (about 4.6 KB and 0.8 KB
        # measured), and the seam search's 4 KB mask.
        monkeypatch.setattr(_runtime, "available_cores", lambda: 3)
        sample_noise(*self.SHAPE, family, stream(SEED, "noise"))
        rng = stream(SEED, "noise")
        tracemalloc.start()
        try:
            x = sample_noise(*self.SHAPE, family, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pieces == [3, 3]
        slack = 3 * 4096 + 4096
        assert peak <= ensemble._draw_bytes(*self.SHAPE, family) + slack, \
            f"peak {peak - x.nbytes} B over X.nbytes"

    def test_no_more_draw_threads_than_cores(self, monkeypatch, pieces):
        running, most = [0], [0]
        lock = threading.Lock()
        real = ensemble._fill_span

        def counting(fill, rng, span):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                return real(fill, rng, span)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(ensemble, "_fill_span", counting)
        for _ in range(4):
            sample_noise(*self.SHAPE, "gaussian", stream(SEED, "noise"))
        cores = _runtime.available_cores()
        assert pieces == [min(cores, 3)] * 4
        assert 1 <= most[0] <= cores and running[0] == 0


class TestAssembly:
    def test_rank_zero_passthrough(self):
        x = stream(SEED, "noise").standard_normal((3, 5))
        samp = assemble_spiked(np.zeros((3, 0)), np.zeros((5, 0)), np.zeros(0), x)
        assert np.array_equal(samp.X_tilde, x)

    def test_single_entry(self):
        u = np.zeros((3, 1)); u[0, 0] = 1.0
        v = np.zeros((4, 1)); v[0, 0] = 1.0
        samp = assemble_spiked(u, v, [1.0], np.zeros((3, 4)))
        want = np.zeros((3, 4)); want[0, 0] = 2.0  # sqrt(m) * theta
        assert np.array_equal(samp.X_tilde, want)

    def test_reconstruction_against_outer_sum(self):
        rng = stream(SEED, "noise")
        u = rng.standard_normal((3, 2)); v = rng.standard_normal((4, 2))
        theta = np.array([0.9, 0.4]); x = rng.standard_normal((3, 4))
        samp = assemble_spiked(u, v, theta, x)
        brute = sum(theta[i] * np.outer(u[:, i], v[:, i]) for i in range(2))
        assert np.abs(samp.scaled() - x / 2.0 - brute).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            assemble_spiked(np.zeros((3, 1)), np.zeros((5, 1)), [1.0], np.zeros((3, 4)))

    def test_sample_checks_its_own_shapes(self):
        with pytest.raises(ValidationError, match="shape mismatch"):
            SpikedSample(U=np.zeros((3, 1)), V=np.zeros((5, 1)), theta=[1.0],
                         X=np.ones((4, 5)))


class TestModelConfig:
    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            ModelConfig(n=10, m=20, r=2, taus=(1.0, 2.0))

    def test_eps_may_not_reorder_or_flip_strengths(self):
        # Spikes are matched to eigenvalues by rank, so theta must keep tau's order.
        for taus, eps in (((1.2, 1.1), (-0.2, 0.0)), ((2.0,), (-1.5,))):
            with pytest.raises(ValidationError):
                ModelConfig(n=10, m=20, r=len(taus), taus=taus, eps=eps)

    def test_aspect_ratio_enforced(self):
        with pytest.raises(ValidationError):
            ModelConfig(n=30, m=20, r=0)

    def test_zero_spikes_rejected(self):
        with pytest.raises(ValidationError):
            ModelConfig(n=10, m=20, r=1, taus=(0.0,))

    def test_json_round_trip(self):
        config = ModelConfig(n=10, m=40, r=2, taus=(2.0, 1.0), eps=(0.1, 0.0),
                             noise_family="rademacher", seed=17)
        assert ModelConfig.from_dict(config.to_dict()) == config

    def test_beta(self):
        assert ModelConfig(n=10, m=40, r=0).beta == 0.25


class TestSampleModel:
    def test_bitwise_determinism(self):
        config = ModelConfig(n=15, m=45, r=2, taus=(1.8, 1.1), seed=99)
        s1 = sample_model(config, 4)
        s2 = sample_model(config, 4)
        for name in ("U", "V", "theta", "X", "X_tilde"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name))

    def test_trials_differ(self):
        config = ModelConfig(n=15, m=45, r=1, taus=(1.5,), seed=99)
        assert not np.array_equal(sample_model(config, 0).X, sample_model(config, 1).X)

    def test_reconstruction_invariant(self):
        config = ModelConfig(n=20, m=60, r=2, taus=(2.0, 1.2), seed=3)
        samp = sample_model(config)
        resid = samp.scaled() - (samp.U * samp.theta) @ samp.V.T - samp.X / math.sqrt(60)
        assert np.abs(resid).max() < 1e-10

    def test_arrays_read_only(self):
        samp = sample_model(ModelConfig(n=5, m=9, r=1, taus=(1.5,), seed=1))
        with pytest.raises(ValueError):
            samp.X[0, 0] = 7.0


class TestTruncateNormalize:
    def test_identity_on_standardized_bounded_input(self):
        # Empirically standardized Gaussian input, all entries under the
        # threshold: the plug-ins are exactly (0, 1) and output == input.
        x = stream(SEED, "noise").standard_normal((500, 2000))
        x = (x - x.mean()) / x.std()
        assert np.abs(x).max() < truncation_threshold(500, 2000)
        out = truncate_normalize(x)
        assert np.abs(out - x).max() < 1e-6

    def test_huge_entry_clipped_to_zero(self):
        x = stream(SEED, "noise").standard_normal((100, 100))
        x[0, 0] = 1e9
        out = truncate_normalize(x)
        clipped = np.where(np.abs(x) <= truncation_threshold(100, 100), x, 0.0)
        assert out[0, 0] == pytest.approx(-clipped.mean() / clipped.std(), abs=1e-12)
        assert abs(out[0, 0]) < 0.05

    def test_gaussian_rarely_truncated(self):
        x = stream(SEED, "noise").standard_normal((100, 100))
        thr = truncation_threshold(100, 100)
        assert np.mean(np.abs(x) > thr) < 1e-3

    def test_degenerate_raises(self):
        with pytest.raises(ValidationError):
            truncate_normalize(np.full((10, 10), 1e9))

    def test_threshold_scales(self):
        # delta -> 0 while delta * (nm)^(1/4) -> infinity.
        t1 = truncation_threshold(100, 100)
        t2 = truncation_threshold(10000, 10000)
        assert t2 > t1
        d1 = t1 / (100 * 100) ** 0.25
        d2 = t2 / (10000 * 10000) ** 0.25
        assert d2 < d1
