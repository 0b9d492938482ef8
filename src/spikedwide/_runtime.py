"""The process's cores, core budget, OpenBLAS pin, memory headroom and task pool.

Every trial, certificate draw and estimate does its BLAS and LAPACK work on
TRIAL_BLAS_THREADS OpenBLAS threads, since the Gram and eigh round
differently under one and two threads: one_blas_thread pins the count
process-wide, the first entry saving it and the last exit restoring it,
from whichever threads they come. So outputs do not depend on the worker
count, the core count or OPENBLAS_NUM_THREADS.

One budget counts the cores in use. pinned_map, the one task pool, holds
its worker count while it runs. A noise draw takes only what is left, never
waiting, after its own thread's core unless the thread is a pool's worker,
and gives it back when it ends. The pool has max(1, min(cap, tasks,
available_cores(), MemAvailable // task_bytes)) threads, so the machine
chooses how many tasks run at once and never what they compute. One lock
guards the budget and the pin.

Only the stdlib and numpy are imported, and numpy.random is not loaded.
"""

import contextlib
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def available_cores():
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_lock = threading.Lock()
#: Cores held by running pools, by the threads of draws outside any pool and
#: by the helper threads of split draws.
_cores_held = 0
#: pool_worker is set on the threads of a running pool, whose cores the pool holds.
_thread_role = threading.local()


@contextlib.contextmanager
def hold_cores(count, idle_only=False):
    """Hold count cores of the budget while the body runs; yields the number held.

    With idle_only it never waits: it holds only as many as the budget
    leaves idle, after the calling thread's own core, which it holds as
    well unless the thread is a pool's worker (counted by its pool).
    """
    global _cores_held
    own = int(idle_only and not getattr(_thread_role, "pool_worker", False))
    with _lock:
        if idle_only:
            count = max(0, min(count, available_cores() - _cores_held - own))
        _cores_held += own + count
    try:
        yield count
    finally:
        with _lock:
            _cores_held -= own + count


def on_threads(task, count):
    """Run task(0) on this thread and task(1), ..., task(count - 1) on
    threads of their own; return once every one has ended."""
    helpers = []
    try:
        for i in range(1, count):
            helper = threading.Thread(target=task, args=(i,), name="spikedwide-draw")
            helper.start()
            helpers.append(helper)
        task(0)
    finally:
        for helper in helpers:
            helper.join()


#: OpenBLAS threads per trial: a constant, not the machine default.
TRIAL_BLAS_THREADS = 1


def _find_openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy links, or None.

    They are looked up through a handle on numpy's own linalg extension,
    whose symbol scope includes the BLAS it was linked against.
    """
    try:
        handle = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                           ("openblas_", "")):
        get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


#: None where no OpenBLAS is loaded; trials then run on the BLAS default.
_OPENBLAS = _find_openblas()
_pin_depth = 0
_pin_saved = None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on TRIAL_BLAS_THREADS OpenBLAS threads; entries nest across threads."""
    global _pin_depth, _pin_saved
    api = _OPENBLAS
    if api is None:
        yield
        return
    get, set_ = api
    with _lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(TRIAL_BLAS_THREADS)
        _pin_depth += 1
    try:
        yield
    finally:
        with _lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def trial_blas_threads():
    """OpenBLAS threads each trial runs on, or None when no handle was found."""
    return None if _OPENBLAS is None else TRIAL_BLAS_THREADS


def _mem_available(meminfo="/proc/meminfo"):
    """MemAvailable in bytes, or None where the kernel does not report it."""
    try:
        with open(meminfo) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def pinned_map(task, count, cap, task_bytes):
    """Yield task(0), ..., task(count - 1) in index order from a pinned-BLAS pool.

    cap = 0 sets no cap, and an unreadable MemAvailable sets no memory
    limit. The generator holds one_blas_thread() and its worker count of
    the budget while it runs, so every task, and the consumer's own BLAS
    calls between results, run on one OpenBLAS thread, and a task's noise
    draw splits only over the cores left idle.

    A task that raises fails the map: no task above it starts, the results
    of every lower index are yielded whatever the completion order, and then
    the lowest failing task's own exception is raised. Tasks still queued
    are cancelled when the generator ends.
    """
    # One BLAS thread per task, so more workers than cores only adds switching.
    workers = min(cap or count, count, available_cores())
    available = _mem_available()
    if available is not None:
        workers = min(workers, available // max(1, task_bytes))
    failed = []

    def run(i):
        # A skipped task lies above a failure, which is raised before it.
        if failed and min(failed) < i:
            return None
        _thread_role.pool_worker = True
        try:
            return task(i)
        except BaseException:
            failed.append(i)
            raise

    workers = max(1, workers)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        with one_blas_thread(), hold_cores(workers):
            yield from pool.map(run, range(count))
    finally:
        pool.shutdown(cancel_futures=True)
