"""The process's one core count: patched once, it reaches the task pool, the
noise draw's split and the CSV fork path."""

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

    def recording_fork(body, jobs, parent=None):
        forked.append(len(jobs))
        return fork_workers(body, jobs, parent)

    monkeypatch.setattr(io, "_fork_workers", recording_fork)
    io.read_matrix(path)

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
