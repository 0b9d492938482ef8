"""File exchange: headerless row-major CSV matrices and deterministic JSON.

A large matrix crosses the CSV boundary on every core, both ways, as
_runtime.available_cores() counts them: read_matrix parses one
newline-aligned byte range per core and write_matrix formats one contiguous
row range per core, each range in a forked worker (_fork_workers). Whenever
that path cannot vouch for its result, one serial call does the whole job
again, so the array, the bytes and every error are the serial call's.
"""

import functools
import itertools
import json
import mmap
import os
import signal
import sys
import threading

import numpy as np

from . import _runtime
from .errors import ValidationError

__all__ = ["read_matrix", "write_matrix", "write_json", "read_json"]

#: Input bytes per parse worker below which a matrix CSV is parsed by one
#: np.loadtxt call. On 2 cores two workers only broke even on a 3.2 MB file
#: and won 1.05-1.13x at 6.5 MB and 1.4-1.8x from 13 MB on (CHANGES.md).
SPLIT_BYTES = 4 << 20
#: Matrix elements per format worker below which write_matrix formats on
#: one core. On 2 cores two workers lost at 25 000 elements per worker, broke
#: even at 50 000 and won 1.3-1.6x at 100 000 and beyond (CHANGES.md).
WRITE_SPLIT_ELEMENTS = 100_000
#: Bytes read at a time while counting the lines of a range.
_BLOCK = 1 << 20
#: Bytes copied at a time from a format worker's pipe into the output file.
_PIPE_BLOCK = 1 << 16
#: Suffixes np.loadtxt decompresses on the fly; such files are parsed whole.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
#: Workers are forked only where os has fork and sched_getaffinity.
_FORKS = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")


def _worker_body(fn):
    """Make fn the body of a forked worker; calling it never returns.

    The worker sends file descriptor 2 to /dev/null, and sys.stderr with it
    (a caller may have pointed sys.stderr at another descriptor), and leaves
    through os._exit: 0 when fn returned true, 1 when it returned false or raised.
    So it prints nothing, and it runs none of the parent's cleanup handlers
    and flushes none of its buffers.
    """
    @functools.wraps(fn)
    def body(*args):
        code = 1
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
            sys.stderr = open(2, "w", closefd=False)
            code = 0 if fn(*args) else 1
        finally:
            os._exit(code)
    return body


def _fork_workers(body, jobs, parent=None):
    """Run body(*job) in one forked worker per job; whether every one exited 0.

    body is a _worker_body. parent(), when given, runs here once every worker
    has started. Other Python threads running or a failed fork give False,
    and an exception from parent() propagates; on either failure the workers
    started are killed first. Every worker started is reaped before this
    returns.
    """
    # fork copies only the calling thread, so other Python threads could
    # leave a lock held in the child.
    if threading.active_count() > 1:
        return False
    pids, done = [], False
    try:
        for job in jobs:
            try:
                pid = os.fork()
            except OSError:   # no process to spare
                return False
            if pid == 0:
                body(*job)   # never returns
            pids.append(pid)
        if parent is not None:
            parent()
        done = True
    finally:
        if not done:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    return not any(statuses)


def read_matrix(path):
    """Load a headerless CSV matrix (rows = observations).

    A file of at least SPLIT_BYTES per available core is parsed by forked
    workers, one per newline-aligned byte range, straight into one shared
    array. Whenever that path cannot vouch for its result (a small or
    compressed file, no fork or sched_getaffinity, other threads running, a
    failed fork, a worker that fails or parses an unexpected shape), the
    whole file is parsed by one np.loadtxt call, so the array and every
    error message are np.loadtxt's.
    """
    mat = _read_split(path)
    if mat is None:
        try:
            mat = np.loadtxt(path, delimiter=",", ndmin=2)
        except Exception as exc:
            raise ValidationError(f"could not parse matrix CSV {path}: {exc}") from exc
    return mat


def _read_split(path):
    """The matrix parsed by one forked worker per range, or None."""
    try:
        size = os.path.getsize(path)
        compressed = os.fspath(path).lower().endswith(_COMPRESSED)
    except (OSError, TypeError, ValueError):
        return None
    workers = min(_runtime.available_cores(), size // SPLIT_BYTES)
    if workers < 2 or compressed or not _FORKS:
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
    jobs = [(path, start, part) for start, part in zip(bounds, parts)]
    return out if _fork_workers(_parse_range, jobs) else None


def _count_lines(fh, start, end):
    """Lines that begin in [start, end) of a binary file, read in blocks."""
    fh.seek(start)
    lines, block = 0, b""
    for pos in range(start, end, _BLOCK):
        block = fh.read(min(_BLOCK, end - pos))
        lines += block.count(b"\n")
    return lines + (not block.endswith(b"\n"))


@_worker_body
def _parse_range(path, start, out):
    """Worker body: parse len(out) lines from byte `start` into out, then exit.

    Exits 0 only when np.loadtxt gave exactly out's shape: a skipped comment
    or blank line, a ragged row or a bad token makes it exit 1, and the
    caller parses the file whole.
    """
    # Text mode with the default encoding decodes as np.loadtxt(path) does;
    # newline="\n" ends lines only at the bytes counted, so a lone "\r" fails
    # the parse instead of adding a row. For a stateless codec such as UTF-8
    # a byte offset is a valid seek position.
    with open(path, newline="\n") as fh:
        fh.seek(start)
        part = np.loadtxt(itertools.islice(fh, len(out)), delimiter=",", ndmin=2)
    if part.shape != out.shape:
        return False
    out[...] = part
    return True


def write_matrix(path, matrix):
    """Write a matrix as headerless CSV with shortest round-trip floats.

    Each row is written as ",".join(map(repr, row.tolist())) + "\\n", in any
    memory order. A matrix of at least WRITE_SPLIT_ELEMENTS per available
    core, with at least one row per worker, is formatted by forked workers,
    one per contiguous row range, and the parent copies their text into the
    file in row order through a 64 KB buffer. Where that path cannot run (no
    fork or sched_getaffinity, other threads running, a failed fork) or any
    worker fails, the serial writer rewrites the whole file, so the bytes are
    the same either way. Complex input and a matrix with no rows or no
    columns raise ValidationError: the CSV could not carry them back.
    """
    matrix = np.asarray(matrix)
    if np.iscomplexobj(matrix):
        raise ValidationError("matrix must be real; CSV cannot carry imaginary parts")
    matrix = matrix.astype(float, copy=False)
    if matrix.ndim != 2:
        raise ValidationError("matrix must be two-dimensional")
    if matrix.size == 0:
        raise ValidationError(f"matrix must have at least one row and one column, "
                              f"got shape {matrix.shape}")
    if not _write_split(path, matrix):
        with open(path, "w") as fh:
            fh.writelines(map(_csv_line, matrix))


def _csv_line(row):
    return ",".join(map(repr, row.tolist())) + "\n"


def _write_split(path, matrix):
    """Write matrix through one forked format worker per row range; whether it did."""
    workers = min(_runtime.available_cores(), matrix.size // WRITE_SPLIT_ELEMENTS)
    if workers < 2 or len(matrix) < workers or not _FORKS:
        return False
    ranges = np.array_split(matrix, workers)
    reads, writes = [], []
    try:
        for _ in ranges:
            r, w = os.pipe()
            reads.append(r)
            writes.append(w)
    except OSError:
        _close_all(reads + writes)
        return False
    jobs = [(rows, w, [fd for fd in reads + writes if fd != w])
            for rows, w in zip(ranges, writes)]
    try:
        with open(path, "wb") as out:
            def copy():
                # The parent's write ends must go for each pipe to end.
                _close_all(writes)
                # One reused buffer: a fresh bytes object per read left the
                # heap, and so the peak RSS, 5 MB higher on the planted matrix.
                buf = bytearray(_PIPE_BLOCK)
                view = memoryview(buf)
                for r in reads:
                    while n := os.readv(r, [buf]):
                        out.write(view[:n])

            return _fork_workers(_format_range, jobs, copy)
    finally:
        _close_all(reads + writes)


@_worker_body
def _format_range(rows, fd, others):
    """Worker body: write the CSV text of rows into the pipe fd, then exit.

    The parent drains the pipes in row order, so this range's pipe may wait
    for every earlier range: the text is formatted in full, one bytes object
    per row, before the first write.
    """
    _close_all(others)   # an inherited write end would keep its pipe from ending
    lines = [_csv_line(row).encode() for row in rows]
    with open(fd, "wb", buffering=_PIPE_BLOCK) as pipe:
        pipe.writelines(lines)
    return True


def _close_all(fds):
    while fds:
        os.close(fds.pop())


def write_json(path, payload):
    """Deterministic JSON (sorted keys, stable layout); returns the text written."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
