import os
import re

import numpy as np
import pytest

from svbench.container import iter_container, read_container, write_container
from svbench.errors import FormatError, UsageError


def test_round_trip(tmp_path):
    path = tmp_path / "x.svbf"
    header = {"alpha": 1, "name": "abc", "val": np.float64(2.5)}
    arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3),
              "b": np.array([1, 2, 3], dtype=np.int64)}
    write_container(str(path), "test_kind", header, arrays)
    kind, got_header, got_arrays = read_container(str(path))
    assert kind == "test_kind"
    assert got_header["alpha"] == 1 and got_header["name"] == "abc"
    assert got_header["val"] == 2.5
    np.testing.assert_array_equal(got_arrays["a"], arrays["a"])
    assert got_arrays["b"].dtype == np.int64


def test_expect_kind_mismatch(tmp_path):
    path = tmp_path / "x.svbf"
    write_container(str(path), "alpha", {}, {"a": np.zeros(1)})
    with pytest.raises(FormatError):
        read_container(str(path), expect_kind="beta")


def test_bad_magic(tmp_path):
    path = tmp_path / "x.svbf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        read_container(str(path))


def test_truncated_file(tmp_path):
    path = tmp_path / "x.svbf"
    write_container(str(path), "alpha", {}, {"a": np.zeros(100)})
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError):
        read_container(str(path))


@pytest.mark.parametrize("keep", [3, 20, -5], ids=["in-magic", "in-header", "in-data"])
def test_truncated_file_is_named(tmp_path, keep):
    path = str(tmp_path / "x.svbf")
    write_container(path, "alpha", {}, {"a": np.arange(10.0)})
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:keep])
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: "):
        read_container(path)


@pytest.mark.parametrize("arrays", [{"a": np.arange(10.0)}, {}], ids=["ten", "none"])
def test_trailing_bytes_are_refused(tmp_path, arrays):
    path = str(tmp_path / "x.svbf")
    write_container(path, "alpha", {}, arrays)
    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: bytes after the last"):
        read_container(path)


def test_iter_container_reads_one_array_at_a_time(tmp_path):
    path = str(tmp_path / "x.svbf")
    arrays = {name: np.full((2, 3), float(i)) for i, name in enumerate("abc")}
    write_container(path, "alpha", {"x": 1}, arrays)
    items = iter_container(path, expect_kind="alpha")
    assert next(items) == ("alpha", {"x": 1}, 3)
    name, first = next(items)
    assert name == "a" and first.tobytes() == arrays["a"].tobytes()
    # a file cut after its first array still yields that array, then names itself
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:-1])
    items = iter_container(path)
    next(items)
    assert next(items)[0] == "a"
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: truncated"):
        list(items)


def test_streamed_write_matches_the_mapping_write(tmp_path):
    arrays = {"b": np.arange(4, dtype=np.int32), "a": np.eye(2), "c": np.zeros((0, 3))}
    mapped, streamed = str(tmp_path / "mapped.svbf"), str(tmp_path / "streamed.svbf")
    write_container(mapped, "k", {"x": 1}, arrays)
    write_container(streamed, "k", {"x": 1}, ((n, arrays[n]) for n in sorted(arrays)), 3)
    with open(mapped, "rb") as f, open(streamed, "rb") as g:
        assert f.read() == g.read()
    got = read_container(streamed)[2]
    assert list(got) == ["a", "b", "c"] and got["c"].shape == (0, 3)


@pytest.mark.parametrize("given", [1, 3], ids=["fewer", "more"])
def test_streamed_write_refuses_a_wrong_count(tmp_path, given):
    path = str(tmp_path / "x.svbf")
    write_container(path, "old", {}, {"a": np.zeros(1)})
    with open(path, "rb") as f:
        before = f.read()
    pairs = ((f"{i}", np.zeros(2)) for i in range(given))
    with pytest.raises(UsageError, match=re.escape(path)):
        write_container(path, "new", {}, pairs, 2)
    assert os.listdir(tmp_path) == ["x.svbf"]
    with open(path, "rb") as f:
        assert f.read() == before
    os.remove(path)
    with pytest.raises(UsageError):
        write_container(path, "new", {}, ((f"{i}", np.zeros(2)) for i in range(given)), 2)
    assert os.listdir(tmp_path) == []


def test_write_is_deterministic(tmp_path):
    a = tmp_path / "a.svbf"
    b = tmp_path / "b.svbf"
    arrays = {"m": np.linspace(0, 1, 10)}
    write_container(str(a), "k", {"x": 1}, arrays)
    write_container(str(b), "k", {"x": 1}, arrays)
    assert a.read_bytes() == b.read_bytes()
