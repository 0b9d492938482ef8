"""Matrix CSV and JSON exchange: exact round trips, a split parse that gives
np.loadtxt's array or its exact error, and a split write that gives the
serial writer's bytes."""

import errno
import gzip
import hashlib
import json
import mmap
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spikedwide import _runtime, io
from spikedwide.errors import ValidationError

SEED = 20260808
SRC = Path(io.__file__).resolve().parents[1]


def loadtxt_outcome(path):
    """What one np.loadtxt call makes of the file: ("array", bytes) or ("error", text)."""
    try:
        mat = np.loadtxt(path, delimiter=",", ndmin=2)
    except Exception as exc:
        return "error", f"could not parse matrix CSV {path}: {exc}"
    return "array", (mat.shape, mat.tobytes())


def read_outcome(path):
    try:
        mat = io.read_matrix(path)
    except ValidationError as exc:
        return "error", str(exc)
    return "array", (mat.shape, mat.tobytes())


def rows_text(rows, cols=4, seed=SEED):
    x = np.random.default_rng(seed).standard_normal((rows, cols))
    return [",".join(map(repr, row.tolist())) + "\n" for row in x]


@pytest.fixture
def small_split(monkeypatch):
    """Split files of a few KB into three ranges, whatever the core count."""
    monkeypatch.setattr(io, "SPLIT_BYTES", 256)
    monkeypatch.setattr(_runtime, "available_cores", lambda: 3)


class TestWriteMatrix:
    def test_round_trip_is_bitwise_exact(self, tmp_path):
        x = np.random.default_rng(SEED).standard_normal((7, 5)) * 10.0 ** np.arange(-3, 2)
        x[0, :] = [0.0, -0.0, np.inf, -np.inf, np.nan]
        x[1, :] = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3]
        path = tmp_path / "x.csv"
        io.write_matrix(path, x)
        got = io.read_matrix(path)
        assert got.shape == x.shape and got.tobytes() == x.tobytes()

    def test_bytes_match_per_element_repr(self, tmp_path):
        x = np.random.default_rng(SEED).standard_normal((20, 3))
        path = tmp_path / "x.csv"
        io.write_matrix(path, x)
        expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in x)
        assert path.read_text() == expected

    def test_rejects_one_dimensional(self, tmp_path):
        with pytest.raises(ValidationError):
            io.write_matrix(tmp_path / "x.csv", np.zeros(3))

    @pytest.mark.parametrize("matrix", [[[1 + 2j, 3]], np.array([[1 + 2j, 3]])])
    def test_rejects_complex(self, tmp_path, matrix):
        path = tmp_path / "x.csv"
        with pytest.raises(ValidationError, match="real"):
            io.write_matrix(path, matrix)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_empty(self, tmp_path, shape):
        path = tmp_path / "x.csv"
        with pytest.raises(ValidationError, match="at least one row and one column"):
            io.write_matrix(path, np.zeros(shape))
        assert not path.exists()


class TestSplitParse:
    def test_above_split_size_matches_loadtxt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_runtime, "available_cores", lambda: 2)
        path = tmp_path / "big.csv"
        x = np.random.default_rng(SEED).standard_normal((2 * io.SPLIT_BYTES // 190, 10))
        io.write_matrix(path, x)
        assert path.stat().st_size >= 2 * io.SPLIT_BYTES
        split = io._read_split(path)
        assert split is not None
        assert split.flags.writeable and split.flags.c_contiguous
        expected = np.loadtxt(path, delimiter=",", ndmin=2)
        assert split.shape == expected.shape and split.tobytes() == expected.tobytes()
        assert io.read_matrix(path).tobytes() == x.tobytes()

    @pytest.mark.parametrize("name, text", [
        ("plain", "".join(rows_text(60))),
        ("crlf", "".join(line.replace("\n", "\r\n") for line in rows_text(60))),
        ("no final newline", "".join(rows_text(60))[:-1]),
        ("one column", "".join(rows_text(200, cols=1))),
    ])
    def test_well_formed_ranges_are_split(self, tmp_path, small_split, capfd, name, text):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        split = io._read_split(path)
        assert split is not None
        assert ("array", (split.shape, split.tobytes())) == loadtxt_outcome(path)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("name, edit", [
        ("comment line", lambda rows: rows.insert(45, "# a comment\n")),
        ("blank lines", lambda rows: rows.__setitem__(slice(45, 45), ["\n", "  \n"])),
        ("trailing comment", lambda rows: rows.__setitem__(50, rows[50][:-1] + " # c\n")),
        ("lone carriage return", lambda rows: rows.__setitem__(50, rows[50][:-1] + "\r")),
        ("ragged row", lambda rows: rows.__setitem__(50, "1.0,2.0\n")),
        ("bad token", lambda rows: rows.__setitem__(50, "1.0,2.0,oops,4.0\n")),
        ("nan token", lambda rows: rows.__setitem__(50, "1.0,nan,-inf,4.0\n")),
    ])
    def test_second_half_edits_give_loadtxt_outcome(self, tmp_path, small_split, capfd,
                                                    name, edit):
        rows = rows_text(60)
        edit(rows)
        path = tmp_path / "x.csv"
        path.write_bytes("".join(rows).encode())
        assert read_outcome(path) == loadtxt_outcome(path)
        # No worker traceback or warning reaches stderr.
        assert capfd.readouterr().err == ""

    def test_worker_warnings_stay_silent(self, tmp_path):
        # The last of three ranges holds only comments: its worker's np.loadtxt
        # warns that the input has no data, and that must not be printed.
        rows = rows_text(40) + ["# notes\n"] * 400
        path = tmp_path / "x.csv"
        path.write_bytes("".join(rows).encode())
        script = ("import sys; from spikedwide import _runtime, io; io.SPLIT_BYTES = 256; "
                  "_runtime.available_cores = lambda: 3; "
                  "print(io.read_matrix(sys.argv[1]).shape)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == (0, "(40, 4)\n", "")

    @pytest.mark.parametrize("text, code", [
        ("1.0,2.0,3.0\n4.0,5.0,6.0\n", 0),
        ("1.0\n2.0\n", 1),                    # would broadcast into three columns
        ("1.0,2.0,3.0\n# c\n", 1),            # one row short
        ("1.0,2.0,3.0\n4.0,x,6.0\n", 1),
    ])
    def test_worker_writes_only_the_exact_shape(self, tmp_path, text, code):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        buf = mmap.mmap(-1, 2 * 3 * 8)
        out = np.frombuffer(buf, dtype=np.float64).reshape(2, 3)
        pid = os.fork()
        if pid == 0:
            try:
                io._parse_range(path, 0, out)   # exits
            finally:
                os._exit(99)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == code
        expected = np.loadtxt(path, delimiter=",", ndmin=2) if code == 0 else np.zeros((2, 3))
        assert out.tobytes() == expected.tobytes()

    def test_refused_ranges_fall_back(self, tmp_path, small_split):
        rows = rows_text(60)
        rows[50] = "1.0,2.0\n"
        path = tmp_path / "x.csv"
        path.write_bytes("".join(rows).encode())
        assert io._read_split(path) is None

    def test_failed_fork_falls_back_and_reaps(self, tmp_path, small_split, monkeypatch):
        path = tmp_path / "x.csv"
        path.write_bytes("".join(rows_text(60)).encode())
        real_fork = os.fork
        forks = []

        def fork_once():
            forks.append(None)
            if len(forks) > 1:
                raise OSError(errno.EAGAIN, "no process to spare")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        assert io._read_split(path) is None
        monkeypatch.undo()
        assert read_outcome(path) == loadtxt_outcome(path)
        with pytest.raises(ChildProcessError):   # the one started worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_small_file_is_parsed_in_one_call(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        assert io._read_split(path) is None
        assert io.read_matrix(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_other_threads_keep_the_parse_in_one_call(self, tmp_path, small_split):
        path = tmp_path / "x.csv"
        path.write_bytes("".join(rows_text(60)).encode())
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert io._read_split(path) is None
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert io._read_split(path) is not None

    def test_compressed_file_is_parsed_in_one_call(self, tmp_path, small_split):
        path = tmp_path / "x.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("".join(rows_text(400)))
        assert path.stat().st_size > 3 * io.SPLIT_BYTES
        assert io._read_split(path) is None
        assert read_outcome(path) == loadtxt_outcome(path)

    def test_missing_file_is_validation_error(self, tmp_path):
        path = tmp_path / "absent.csv"
        assert read_outcome(path) == loadtxt_outcome(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def serial_write(path, matrix, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(_runtime, "available_cores", lambda: 1)
        io.write_matrix(path, matrix)
    return sha256(path)


def reaped():
    """Whether this process has no child left to wait for."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def small_write_split(monkeypatch):
    """Split matrices of a few hundred elements into three row ranges."""
    monkeypatch.setattr(io, "WRITE_SPLIT_ELEMENTS", 16)
    monkeypatch.setattr(_runtime, "available_cores", lambda: 3)


class TestSplitWrite:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308]

    def matrix(self, rows=30):
        x = np.random.default_rng(SEED).standard_normal((rows, len(self.SPECIAL)))
        x *= 10.0 ** np.arange(-4, 5)
        # The first and last row of each of the three ranges.
        for i in (0, 9, 10, 19, 20, 29):
            x[i] = np.roll(self.SPECIAL, i)
        return x

    def test_bytes_match_serial_writer(self, tmp_path, small_write_split, monkeypatch, capfd):
        x = self.matrix()
        path = tmp_path / "split.csv"
        assert io._write_split(path, x)
        assert sha256(path) == serial_write(tmp_path / "serial.csv", x, monkeypatch)
        io.write_matrix(tmp_path / "public.csv", x)
        assert sha256(tmp_path / "public.csv") == sha256(path)
        assert io.read_matrix(path).tobytes() == x.tobytes()
        assert capfd.readouterr().err == ""
        assert reaped()

    def test_transposed_view_matches_contiguous_copy(self, tmp_path, small_write_split):
        # estimate_csv writes X_tilde.T, an F-ordered view.
        x = np.asfortranarray(self.matrix())
        assert not x.flags.c_contiguous
        a, b = tmp_path / "view.csv", tmp_path / "copy.csv"
        assert io._write_split(a, x)
        assert io._write_split(b, np.ascontiguousarray(x))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("rows", [1, 2])
    def test_fewer_rows_than_workers_stay_serial(self, tmp_path, small_write_split,
                                                 monkeypatch, rows):
        monkeypatch.setattr(io, "WRITE_SPLIT_ELEMENTS", 1)
        x = self.matrix()[:rows]
        path = tmp_path / "x.csv"
        assert not io._write_split(path, x)
        assert not path.exists()
        io.write_matrix(path, x)
        assert sha256(path) == serial_write(tmp_path / "serial.csv", x, monkeypatch)

    def test_failed_worker_falls_back_to_serial_rewrite(self, tmp_path, small_write_split,
                                                        monkeypatch, capfd):
        x = self.matrix()
        last_row = x[-1].tobytes()
        real = io._format_range.__wrapped__

        @io._worker_body
        def fail_last_range(rows, fd, others):
            if rows[-1].tobytes() == last_row:
                os.write(2, b"the last range fails\n")
                os._exit(1)
            return real(rows, fd, others)

        monkeypatch.setattr(io, "_format_range", fail_last_range)
        path = tmp_path / "x.csv"
        assert not io._write_split(path, x)
        assert reaped()
        io.write_matrix(path, x)
        assert reaped()
        monkeypatch.undo()
        assert sha256(path) == serial_write(tmp_path / "serial.csv", x, monkeypatch)
        assert capfd.readouterr().err == ""

    def test_failed_fork_kills_and_reaps(self, tmp_path, monkeypatch):
        # Each range's text overfills its pipe: a started worker waits for a
        # reader that never comes, so it must be killed to be reaped.
        monkeypatch.setattr(io, "WRITE_SPLIT_ELEMENTS", 1000)
        monkeypatch.setattr(_runtime, "available_cores", lambda: 3)
        x = np.random.default_rng(SEED).standard_normal((600, 100))
        real_fork = os.fork
        forks = []

        def fork_once():
            forks.append(None)
            if len(forks) > 1:
                raise OSError(errno.EAGAIN, "no process to spare")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        path = tmp_path / "x.csv"
        assert not io._write_split(path, x)
        assert reaped()
        forks.clear()
        io.write_matrix(path, x)
        assert reaped()
        monkeypatch.undo()
        assert sha256(path) == serial_write(tmp_path / "serial.csv", x, monkeypatch)

    def test_other_threads_keep_the_write_serial(self, tmp_path, small_write_split):
        x = self.matrix()
        path = tmp_path / "x.csv"
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert not io._write_split(path, x)
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert io._write_split(path, x)

    def test_parent_holds_no_formatted_text(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "WRITE_SPLIT_ELEMENTS", 1000)
        monkeypatch.setattr(_runtime, "available_cores", lambda: 3)
        x = np.random.default_rng(SEED).standard_normal((3000, 100))
        path = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            assert io._write_split(path, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 1 << 20
        assert path.stat().st_size > 4 * bound
        assert peak < bound

    def test_python_stderr_of_failing_workers_stays_silent(self, tmp_path, small_split,
                                                           small_write_split, monkeypatch,
                                                           capfd):
        # Under capfd, sys.stderr writes to a descriptor of its own, not fd 2.
        @io._worker_body
        def noisy(*args):
            print("a worker's traceback", file=sys.stderr, flush=True)
            return False

        x = self.matrix()
        serial = serial_write(tmp_path / "serial.csv", x, monkeypatch)
        path = tmp_path / "x.csv"
        path.write_bytes("".join(rows_text(60)).encode())
        monkeypatch.setattr(io, "_parse_range", noisy)
        monkeypatch.setattr(io, "_format_range", noisy)
        assert read_outcome(path) == loadtxt_outcome(path)
        io.write_matrix(path, x)
        assert sha256(path) == serial
        assert capfd.readouterr().err == ""
        assert reaped()


class TestWriteJson:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        io.write_json(a, {"b": [1, 2.5], "a": {"y": None, "x": "s"}})
        io.write_json(b, {"a": {"x": "s", "y": None}, "b": [1, 2.5]})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == json.dumps(
            {"a": {"x": "s", "y": None}, "b": [1, 2.5]}, indent=2, sort_keys=True) + "\n"
        assert io.read_json(a) == {"a": {"x": "s", "y": None}, "b": [1, 2.5]}
