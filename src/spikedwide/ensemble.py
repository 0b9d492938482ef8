"""Sampling of spiked signal-plus-noise matrices.

Model: (1/sqrt(m)) X_tilde = sum_i theta_i u_i v_i' + (1/sqrt(m)) X with an
n x m noise matrix X of i.i.d. unit-variance entries and signal strengths
calibrated as theta_i = tau_i * beta^(1/4) * (1 + eps_i), beta = n/m.

Randomness is drawn from PCG64 generators, one per SeedSequence(seed) spawn
key (purpose, index), so noise, signal, and probe draws never share state
and reruns are bitwise reproducible regardless of evaluation order.

A large Gaussian or Student-t noise draw runs on the cores no pool holds,
with the bits and the end state of the serial draw. It is cut into
contiguous pieces of X's flat view, one per idle core, each of at least
SPLIT_MIN values. Piece 0 is drawn from the caller's generator; the piece
from flat index lo on is drawn on its own thread from a copy advanced by
WORDS_MIN * (lo - 8) words. No value takes fewer words, so the copy starts
at or before value lo - 8, and once in step with the serial stream it
repeats the previous piece's last 8 values. Seam by seam, in order, the
index after their first copy is the overlap s: the piece moves left by s
and draws s more values at its end. A piece with no copy is drawn again
from the previous piece's generator, as the serial draw does. Idle cores
are those the core budget of _runtime leaves. A failing piece fails the
draw once every piece has ended (_runtime.on_threads).
"""

import contextlib
import copy
import ctypes
import math
import mmap
import os
import sys
import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _runtime
from .errors import ValidationError
from .spectra import _GramKernel

__all__ = [
    "ModelConfig",
    "SpikedSample",
    "stream",
    "calibrate_signal_strengths",
    "sample_signal_vectors",
    "sample_noise",
    "assemble_spiked",
    "sample_model",
    "truncate_normalize",
]

SIGNAL_FAMILIES = ("gaussian_iid", "orthonormal")

# Purpose tags for derived RNG streams.
_PURPOSE = {"noise": 0, "signal": 1, "probe": 2}


def stream(seed, purpose, index=0):
    """Independent Generator for (seed, purpose, index); order-insensitive."""
    try:
        tag = _PURPOSE[purpose]
    except KeyError:
        raise ValidationError(f"unknown stream purpose {purpose!r}") from None
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(tag, int(index)))
    return np.random.default_rng(ss)


#: Elements per fill of a noise draw: the only transient beside X is one
#: chunk of its filler's itemsize (a plain cast copy needs no ufunc buffer).
NOISE_CHUNK = 1 << 16


#: Fewest values in one piece of a split draw.
SPLIT_MIN = 16 * NOISE_CHUNK
#: Fewest 64-bit words one value takes: a normal, or for Student-t a normal
#: plus the normal and the uniform of its gamma.
WORDS_MIN = {"gaussian": 1, "student_t": 3}
#: Values matched to find a seam.
_SEAM = 8
#: Values compared per step of the seam search: its transient is one byte
#: per value, small beside any filler's chunk.
_SCAN = 1 << 12


def _pieces_max(size, words):
    """Most pieces a draw of size values splits into: one per core, each of
    at least SPLIT_MIN values; one where a value takes no known least word
    count (words = 0)."""
    if not words:
        return 1
    return max(1, min(_runtime.available_cores(), size // SPLIT_MIN))


_TRACK = ctypes.pythonapi.PyTraceMalloc_Track
_TRACK.argtypes = (ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t)
_UNTRACK = ctypes.pythonapi.PyTraceMalloc_Untrack
_UNTRACK.argtypes = (ctypes.c_uint, ctypes.c_size_t)

#: Mappings of noise draws that died, newest last, kept for the next draws;
#: at most one per core, as many as a pool of draws holds at once.
_idle_maps = []
#: Mapping sizes that have died before: only a repeated size is kept idle.
_dead_sizes = set()
#: numpy advises huge pages for its own buffers of 4 MiB or more; so do we.
_HUGEPAGE = getattr(mmap, "MADV_HUGEPAGE", None)
_HUGEPAGE_BYTES = 1 << 22


def _mapped_empty(shape):
    """Uninitialised float64 array in a private mapping: every noise draw's X.

    malloc serves blocks under its 32 MiB mmap-threshold cap from the calling
    thread's heap once a larger block has been freed. A draw then reuses the
    span an earlier draw left, unless smaller blocks took part of it; then
    the heap grows by one more draw and keeps it, so peak RSS stepped by one
    X at random. Here a draw takes the newest idle mapping when it is large
    enough, and otherwise drops every idle mapping and maps afresh. A draw's
    mapping is released, by _release, when its last view dies. So repeated
    draws reuse resident pages whatever the heap holds, and a single draw
    leaves nothing. While the draw lives, tracemalloc counts its bytes in
    numpy's domain, as numpy counts its own buffers.
    """
    nbytes = 8 * math.prod(shape)
    try:
        buf = _idle_maps.pop()
    except IndexError:
        buf = None
    if buf is None or len(buf) < nbytes:
        _idle_maps.clear()
        buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        if nbytes >= _HUGEPAGE_BYTES and _HUGEPAGE is not None:
            with contextlib.suppress(OSError):
                buf.madvise(_HUGEPAGE)
        # glibc raises its mmap threshold, and its trim threshold to twice
        # that, when it frees a block it had mapped. A heap-served draw did so
        # on its first free; without that, every mid-sized array of a trial
        # is mapped, trimmed and faulted in afresh. One untouched malloc block
        # of the draw's size, freed at once, raises them the same way.
        np.empty(nbytes, dtype=np.uint8)
    flat = np.frombuffer(buf, dtype=np.float64, count=nbytes // 8)
    _TRACK(np.lib.tracemalloc_domain, flat.ctypes.data, nbytes)
    weakref.finalize(flat, _release, buf, flat.ctypes.data)
    return flat.reshape(shape)


def _release(buf, address):
    """Untrack a dead draw's bytes and keep its mapping idle, unless it is
    the first of its size to die (malloc too unmaps its first mapped block
    of a size and keeps later ones on its heap) or available_cores() are
    idle already. weakref.finalize also runs it at exit, for draws still
    alive, before any module is torn down."""
    _UNTRACK(np.lib.tracemalloc_domain, address)
    size = len(buf)
    if size in _dead_sizes and len(_idle_maps) < _runtime.available_cores():
        _idle_maps.append(buf)
    _dead_sizes.add(size)


def _rademacher(rng, chunk):
    """Fill chunk with +-1.0 noise, the bits of integers(0, 2, dtype=np.int32).

    That call returns the top bit of each 32-bit half of the generator's
    64-bit words, low half first, and keeps an unused high half in the state
    (has_uint32) for the next 32-bit draw. _raw_signs reads the words with
    random_raw and honours that half, so the bits and the stream that follows
    are the same. MT19937, whose state has no such half, and big-endian hosts
    draw through integers.
    """
    bitgen = rng.bit_generator
    if "has_uint32" in bitgen.state and sys.byteorder == "little":
        _raw_signs(bitgen, chunk)
    else:
        chunk[...] = rng.integers(0, 2, size=chunk.size, dtype=np.int32)
    chunk *= 2.0
    chunk -= 1.0


def _raw_signs(bitgen, out):
    """Fill out with the top bits (0.0 or 1.0) of the next out.size 32-bit halves."""
    state = bitgen.state
    if state["has_uint32"]:
        out[0] = state["uinteger"] >> 31
        out = out[1:]
        state["has_uint32"] = 0
        bitgen.state = state
    count = out.size
    halves = bitgen.random_raw((count + 1) // 2).view(np.uint32)
    if count % 2:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, int(halves[-1])
        bitgen.state = state
    halves >>= 31
    out[...] = halves[:count]


def _noise_filler(family):
    """Resolve a noise family name to (fill, transient itemsize, words).

    Families are concrete mean-0 variance-1 laws with finite fourth moment:
    'gaussian', 'rademacher', and 'student_t<df>' (df > 4, standardized).
    fill(rng, chunk) writes the next chunk.size draws into a float64 chunk
    with the bits of numpy's one call for the whole matrix, and holds one
    transient of chunk.size elements of the itemsize (0: none). words is
    WORDS_MIN of the family, or 0 for Rademacher noise, whose +-1 values
    cannot mark a seam, so its draw is never split.
    """
    if family == "gaussian":
        return (lambda rng, chunk: rng.standard_normal(out=chunk)), 0, WORDS_MIN["gaussian"]
    if family == "rademacher":
        return _rademacher, 4, 0
    if family.startswith("student_t"):
        try:
            df = int(family[len("student_t"):])
        except ValueError:
            raise ValidationError(f"bad noise family {family!r}") from None
        if df <= 4:
            raise ValidationError("student_t noise needs df > 4 for a finite fourth moment")
        scale = math.sqrt((df - 2.0) / df)
        return (lambda rng, chunk: np.multiply(rng.standard_t(df, size=chunk.size),
                                               scale, out=chunk)), 8, WORDS_MIN["student_t"]
    raise ValidationError(f"unknown noise family {family!r}")


def _draw_bytes(n, m, noise_family):
    """Peak bytes of one n x m noise draw: X, plus its filler's chunk
    transient once per piece the draw may split into."""
    _, itemsize, words = _noise_filler(noise_family)
    return 8 * n * m + itemsize * min(n * m, NOISE_CHUNK) * _pieces_max(n * m, words)


@dataclass(frozen=True)
class ModelConfig:
    """Complete description of one spiked ensemble draw."""

    n: int
    m: int
    r: int
    taus: tuple = ()
    eps: tuple = ()
    noise_family: str = "gaussian"
    signal_family: str = "gaussian_iid"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        eps = self.eps if len(self.eps) else (0.0,) * self.r
        object.__setattr__(self, "eps", tuple(float(e) for e in eps))
        if self.n <= 0 or self.m <= 0:
            raise ValidationError("n and m must be positive")
        if self.m < self.n:
            raise ValidationError("need m >= n (beta = n/m in (0, 1]); transpose your data")
        if self.r < 0 or self.r > min(self.n, self.m):
            raise ValidationError("need 0 <= r <= min(n, m)")
        if len(self.taus) != self.r or len(self.eps) != self.r:
            raise ValidationError("taus and eps must have length r")
        calibrate_signal_strengths(self.taus, self.eps, self.beta)
        _noise_filler(self.noise_family)
        if self.signal_family not in SIGNAL_FAMILIES:
            raise ValidationError(f"unknown signal family {self.signal_family!r}")

    @property
    def beta(self):
        return self.n / self.m

    def to_dict(self):
        return {
            "n": self.n,
            "m": self.m,
            "r": self.r,
            "taus": list(self.taus),
            "eps": list(self.eps),
            "noise_family": self.noise_family,
            "signal_family": self.signal_family,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            n=int(d["n"]),
            m=int(d["m"]),
            r=int(d["r"]),
            taus=tuple(d.get("taus", ())),
            eps=tuple(d.get("eps", ())),
            noise_family=d.get("noise_family", "gaussian"),
            signal_family=d.get("signal_family", "gaussian_iid"),
            seed=int(d.get("seed", 0)),
        )

    def replace(self, **kw):
        return replace(self, **kw)


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpikedSample:
    """Realized factors of one draw; arrays are read-only after construction.

    The observed matrix X_tilde is formed on first access only. _kernel,
    the sample's one spectra._GramKernel, is built on first access, cached
    and freed with the sample; trials and certificates read it alone (see
    _GramKernel).
    """

    U: np.ndarray          # n x r left signal vectors
    V: np.ndarray          # m x r right signal vectors
    theta: np.ndarray      # r signal strengths
    X: np.ndarray          # n x m noise

    def __post_init__(self):
        for name in ("U", "V", "theta", "X"):
            object.__setattr__(self, name, _freeze(
                np.atleast_1d(np.asarray(getattr(self, name), float))))
        U, V, theta, X = self.U, self.V, self.theta, self.X
        if (X.ndim != 2 or theta.ndim != 1 or U.shape != (self.n, self.r)
                or V.shape != (self.m, self.r)):
            raise ValidationError(
                f"shape mismatch: U {U.shape}, V {V.shape}, theta {theta.shape}, X {X.shape}"
            )

    @cached_property
    def X_tilde(self):
        """n x m observed sqrt(m) U diag(theta) V' + X (divide by sqrt(m) for model form)."""
        if not self.r:
            return self.X
        return _freeze(math.sqrt(self.m) * ((self.U * self.theta) @ self.V.T) + self.X)

    @cached_property
    def _kernel(self):
        return _GramKernel(self.X, self.U, self.theta, self.V)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def m(self):
        return self.X.shape[1]

    @property
    def r(self):
        return self.theta.shape[0]

    @property
    def beta(self):
        return self.n / self.m

    def scaled(self):
        """(1/sqrt(m)) X_tilde, the matrix in model form."""
        return self.X_tilde / math.sqrt(self.m)


def calibrate_signal_strengths(taus, eps, beta):
    """theta_i = tau_i * beta^(1/4) * (1 + eps_i), in the given order.

    The one check of spike strengths. theta must be positive and strictly
    decreasing like tau, since spikes are matched to eigenvalues by rank.
    """
    taus = np.asarray(taus, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if taus.ndim != 1 or taus.shape != eps.shape:
        raise ValidationError("taus and eps must be one-dimensional with matching shapes")
    if not (0.0 < beta <= 1.0):
        raise ValidationError(f"beta must be in (0, 1], got {beta}")
    if not np.all(taus > 0):
        raise ValidationError("spike parameters tau must be positive (drop zero spikes)")
    if np.any(np.diff(taus) >= 0):
        raise ValidationError("taus must be strictly decreasing")
    if not np.all(np.isfinite(eps)):
        raise ValidationError("eps must be finite")
    theta = taus * beta ** 0.25 * (1.0 + eps)
    if not np.all(np.isfinite(theta) & (theta > 0)) or np.any(np.diff(theta) >= 0):
        raise ValidationError("theta = tau beta^(1/4) (1 + eps) must be finite, positive "
                              "and strictly decreasing")
    return theta


def sample_signal_vectors(n, m, r, signal_family, rng):
    """Draw (U, V) signal vectors.

    gaussian_iid: U = G_u / sqrt(n), V = G_v / sqrt(m) with standard normal
    entries (columns concentrate near unit norm). orthonormal: exactly
    orthonormal columns from a QR factorization of a Gaussian matrix.
    """
    if r > min(n, m):
        raise ValidationError("need r <= min(n, m)")
    if signal_family not in SIGNAL_FAMILIES:
        raise ValidationError(f"unknown signal family {signal_family!r}")
    if r == 0:
        return np.zeros((n, 0)), np.zeros((m, 0))
    rng_u, rng_v = rng.spawn(2)
    gu = rng_u.standard_normal((n, r))
    gv = rng_v.standard_normal((m, r))
    if signal_family == "gaussian_iid":
        return gu / math.sqrt(n), gv / math.sqrt(m)
    return _orthonormalize(gu), _orthonormalize(gv)


def _orthonormalize(g):
    q, rmat = np.linalg.qr(g)
    # Fix the QR sign ambiguity so the draw is a deterministic function of g.
    signs = np.sign(np.diag(rmat))
    signs[signs == 0] = 1.0
    return q * signs


def sample_noise(n, m, noise_family, rng):
    """n x m matrix of i.i.d. mean-0 variance-1 draws from the named family,
    in one private mapping, with the bits and the end state of numpy's one
    call for the whole matrix.

    Gaussian and Student-t draws from a PCG64 generator are split over the
    cores the budget leaves idle (see _draw_pieces); other draws are one
    piece.
    """
    if n <= 0 or m <= 0:
        raise ValidationError("n and m must be positive")
    fill, _, words = _noise_filler(noise_family)
    # Only these bit generators' advance(k) skips k 64-bit words. They are
    # named here, not at import: loading numpy.random there raised the peak
    # RSS of a process that draws later by about 0.6 MB.
    if not isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        words = 0
    x = _mapped_empty((n, m))
    flat = x.reshape(-1)
    with _runtime.hold_cores(_pieces_max(flat.size, words) - 1, idle_only=True) as helpers:
        _draw_pieces(fill, flat, rng, 1 + helpers, words)
    return x


def _draw_pieces(fill, flat, rng, pieces, words):
    """Fill flat with the bits of one serial draw from rng, in `pieces`
    contiguous pieces drawn at once; rng ends where the serial draw leaves it.

    Piece 0 is drawn from rng on this thread. Piece i, from flat index lo on,
    is drawn on a thread of its own from a copy of rng advanced by
    words * (lo - _SEAM) words, at or before the serial position of value
    lo - _SEAM. on_threads raises the lowest failing piece's error once
    every piece has ended. Then _align moves each piece onto its true start.
    """
    bounds = [flat.size * i // pieces for i in range(pieces + 1)]
    spans = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    gens = [rng] + [_advanced(rng, words * (lo - _SEAM)) for lo in bounds[1:-1]]
    _runtime.on_threads(lambda i: _fill_span(fill, gens[i], spans[i]), pieces)
    for i in range(1, pieces):
        gens[i] = _align(fill, flat[bounds[i] - _SEAM:bounds[i]], spans[i],
                         gens[i - 1], gens[i])
    if pieces > 1:
        state = gens[-1].bit_generator.state
        # advance() drops a buffered 32-bit half, which the serial draw keeps.
        kept = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = kept["has_uint32"], kept["uinteger"]
        rng.bit_generator.state = state


def _fill_span(fill, rng, span):
    """Draw span's values from rng, NOISE_CHUNK at a time."""
    for start in range(0, span.size, NOISE_CHUNK):
        fill(rng, span[start:start + NOISE_CHUNK])


def _advanced(rng, words):
    """A Generator on a copy of rng's bit generator, `words` words further on."""
    bitgen = copy.deepcopy(rng.bit_generator)
    bitgen.advance(words)
    return np.random.Generator(bitgen)


def _align(fill, tail, span, prev, gen):
    """Move span, drawn by gen, onto its true start; return the generator at its end.

    tail is the previous piece's last _SEAM values, and prev the generator at
    that piece's end. The index after tail's first copy in span is the
    overlap s: span moves left by s and gen draws s more values at its end.
    Without a copy, prev draws span again, as the serial draw does.
    """
    s = _overlap(tail, span)
    if s is None:
        _fill_span(fill, prev, span)
        return prev
    # In place: numpy's overlapping copy would allocate a temporary of the span's size.
    ctypes.memmove(span.ctypes.data, span.ctypes.data + 8 * s, 8 * (span.size - s))
    _fill_span(fill, gen, span[span.size - s:])
    return gen


def _overlap(tail, span):
    """Index after the first copy of tail in span, or None; _SCAN values at a time."""
    key = tail.view(np.int64)
    bits = span.view(np.int64)
    for start in range(0, bits.size, _SCAN):
        for at in start + np.flatnonzero(bits[start:start + _SCAN] == key[0]):
            if np.array_equal(bits[at:at + _SEAM], key):
                return int(at) + _SEAM
    return None


def assemble_spiked(U, V, theta, X):
    """Combine factors into a SpikedSample; X_tilde = sqrt(m) U diag(theta) V' + X is lazy."""
    return SpikedSample(U=U, V=V, theta=theta, X=X)


def sample_model(config, trial_index=0):
    """Draw one SpikedSample; deterministic in (config.seed, trial_index)."""
    theta = calibrate_signal_strengths(config.taus, config.eps, config.beta)
    U, V = sample_signal_vectors(
        config.n, config.m, config.r, config.signal_family,
        stream(config.seed, "signal", trial_index),
    )
    X = sample_noise(
        config.n, config.m, config.noise_family,
        stream(config.seed, "noise", trial_index),
    )
    return assemble_spiked(U, V, theta, X)


def truncation_threshold(n, m):
    """delta_nm * (n*m)^(1/4) with delta_nm = max((n*m)^(-1/16), 1/log(n*m))."""
    nm = float(n) * float(m)
    delta = max(nm ** (-1.0 / 16.0), 1.0 / math.log(nm))
    return delta * nm ** 0.25


def truncate_normalize(X):
    """Zero out entries beyond the truncation threshold, then standardize.

    Centering and scaling use the empirical mean and standard deviation of the
    truncated matrix (the law quantities are unavailable at runtime; the
    plug-in differs by O((n*m)^(-1/2))).
    """
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    thr = truncation_threshold(n, m)
    clipped = np.where(np.abs(X) <= thr, X, 0.0)
    mu = clipped.mean()
    sd = clipped.std()
    if sd <= 0.0 or not math.isfinite(sd):
        raise ValidationError("truncation left a degenerate (constant) matrix")
    return (clipped - mu) / sd
