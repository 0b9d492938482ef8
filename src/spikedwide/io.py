"""File exchange: headerless row-major CSV matrices and deterministic JSON."""

import itertools
import json
import mmap
import os
import threading

import numpy as np

from .errors import ValidationError

__all__ = ["read_matrix", "write_matrix", "write_json", "read_json"]

#: Input bytes per parse worker below which a matrix CSV is parsed by one
#: np.loadtxt call. On 2 cores two workers only broke even on a 3.2 MB file
#: and won 1.05-1.13x at 6.5 MB and 1.4-1.8x from 13 MB on (CHANGES.md).
SPLIT_BYTES = 4 << 20
#: Bytes read at a time while counting the lines of a range.
_BLOCK = 1 << 20
#: Suffixes np.loadtxt decompresses on the fly; such files are parsed whole.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def read_matrix(path):
    """Load a headerless CSV matrix (rows = observations).

    A file of at least SPLIT_BYTES per available core is parsed by forked
    workers, one per newline-aligned byte range, straight into one shared
    array. Whenever that path cannot vouch for its result (a small or
    compressed file, no fork or sched_getaffinity, other threads running, a
    worker that fails or parses an unexpected shape), the whole file is
    parsed by one np.loadtxt call, so the array and every error message are
    np.loadtxt's.
    """
    mat = _read_split(path)
    if mat is None:
        try:
            mat = np.loadtxt(path, delimiter=",", ndmin=2)
        except Exception as exc:
            raise ValidationError(f"could not parse matrix CSV {path}: {exc}") from exc
    return mat


def _worker_count():
    """Cores this process may run on; 1 where workers cannot be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _read_split(path):
    """The matrix parsed by one forked worker per range, or None."""
    try:
        size = os.path.getsize(path)
        compressed = os.fspath(path).lower().endswith(_COMPRESSED)
    except (OSError, TypeError, ValueError):
        return None
    workers = min(_worker_count(), size // SPLIT_BYTES)
    # fork copies only the calling thread, so other Python threads could
    # leave a lock held in the child.
    if workers < 2 or compressed or threading.active_count() > 1:
        return None
    with open(path, "rb") as fh:
        cols = fh.readline().count(b",") + 1
        cuts = {0, size}
        for i in range(1, workers):
            fh.seek(i * size // workers - 1)
            fh.readline()
            cuts.add(fh.tell())
        bounds = sorted(cuts)
        counts = [_count_lines(fh, a, b) for a, b in zip(bounds, bounds[1:])]
    rows = sum(counts)
    if len(counts) < 2:
        return None
    try:
        buf = mmap.mmap(-1, rows * cols * 8)
    except (OSError, OverflowError, ValueError):
        return None
    out = np.frombuffer(buf, dtype=np.float64).reshape(rows, cols)
    parts = np.split(out, np.cumsum(counts)[:-1])
    pids = []
    try:
        for start, part in zip(bounds, parts):
            pid = os.fork()
            if pid == 0:
                _parse_range(path, start, part)   # never returns
            pids.append(pid)
    except OSError:   # no process to spare
        return None
    finally:
        # Reap every worker started, also when a later fork failed.
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    return None if any(statuses) else out


def _count_lines(fh, start, end):
    """Lines that begin in [start, end) of a binary file, read in blocks."""
    fh.seek(start)
    lines, block = 0, b""
    for pos in range(start, end, _BLOCK):
        block = fh.read(min(_BLOCK, end - pos))
        lines += block.count(b"\n")
    return lines + (not block.endswith(b"\n"))


def _parse_range(path, start, out):
    """Worker body: parse len(out) lines from byte `start` into out, then exit.

    Exits 0 only when np.loadtxt gave exactly out's shape: a skipped comment
    or blank line, a ragged row or a bad token makes it exit 1, and the
    caller parses the file whole. Nothing is printed, and the exit skips the
    parent's cleanup handlers and unflushed buffers.
    """
    code = 1
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
        # Text mode with the default encoding decodes as np.loadtxt(path)
        # does; newline="\n" ends lines only at the bytes counted, so a lone
        # "\r" fails the parse instead of adding a row. For a stateless codec
        # such as UTF-8 a byte offset is a valid seek position.
        with open(path, newline="\n") as fh:
            fh.seek(start)
            part = np.loadtxt(itertools.islice(fh, len(out)), delimiter=",", ndmin=2)
        if part.shape == out.shape:
            out[...] = part
            code = 0
    finally:
        os._exit(code)


def write_matrix(path, matrix):
    """Write a matrix as headerless CSV with shortest round-trip floats."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError("matrix must be two-dimensional")
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def write_json(path, payload):
    """Deterministic JSON (sorted keys, stable layout)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
