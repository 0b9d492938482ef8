"""The process's one core count: patched once, it reaches the task pool, the
noise draw's split, the idle-mapping cap and the CSV fork path. And the
helper threads of on_threads: their failures reach the caller."""

import threading
import time

import numpy as np
import pytest

from spikedwide import _runtime, ensemble, io
from spikedwide.ensemble import stream


@pytest.mark.parametrize("cores", [1, 3])
def test_one_core_count_reaches_every_consumer(monkeypatch, tmp_path, cores):
    monkeypatch.setattr(_runtime, "available_cores", lambda: cores)

    # A file of three split sizes forks one parse worker per core, given two.
    path = tmp_path / "x.csv"
    np.savetxt(path, np.random.default_rng(9).standard_normal((40, 4)), delimiter=",")
    monkeypatch.setattr(io, "SPLIT_BYTES", path.stat().st_size // 3)
    forked = []
    fork_workers = io._fork_workers

    def recording_fork(body, jobs):
        forked.append(len(jobs))
        return fork_workers(body, jobs)

    monkeypatch.setattr(io, "_fork_workers", recording_fork)
    io.read_matrix(path)

    # Four draws of one size die together: the first is unmapped, and at
    # most one mapping per core of the other three is kept idle.
    ensemble._idle_maps.clear()
    ensemble._dead_sizes.clear()
    try:
        draws = [ensemble.sample_noise(4, 100, "gaussian", stream(9, "noise"))
                 for _ in range(4)]
        del draws
        idle = len(ensemble._idle_maps)
    finally:
        ensemble._idle_maps.clear()
        ensemble._dead_sizes.clear()

    # 96 x 32768 is three pieces of the smallest split: more than a
    # 2-core machine's own count would allow.
    pieces = []
    draw_pieces = ensemble._draw_pieces

    def recording_draw(fill, flat, rng, count, words):
        pieces.append(count)
        return draw_pieces(fill, flat, rng, count, words)

    monkeypatch.setattr(ensemble, "_draw_pieces", recording_draw)
    ensemble.sample_noise(96, 32768, "gaussian", stream(9, "noise"))

    sizes = []

    class Recording(_runtime.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(_runtime, "ThreadPoolExecutor", Recording)
    assert list(_runtime.pinned_map(lambda i: i, 8, 0, 1)) == list(range(8))

    assert sizes == [cores]
    assert pieces == [cores]
    assert forked == ([cores] if cores > 1 else [])
    assert idle == min(cores, 3)


@pytest.mark.parametrize("first", [0, 1])
def test_on_threads_raises_the_lowest_failure_once_all_have_ended(first):
    # Helper 2 fails last, after helper 1; task(0) fails too when first is 0.
    ended = threading.Event()

    def task(i):
        if i == 2:
            time.sleep(0.2)
            ended.set()
        if i >= first:
            raise KeyError(i)

    with pytest.raises(KeyError) as caught:
        _runtime.on_threads(task, 3)
    assert ended.is_set()
    assert caught.value.args == (first,)
