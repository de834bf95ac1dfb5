"""Binary tensor format and CSV matrix import."""

import io

import numpy as np
import pytest

from sysbridge import tensorio
from sysbridge.errors import DimensionError


def test_roundtrip_matrix(tmp_path):
    arr = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "m.sdbt"
    tensorio.save_tensor(path, arr)
    np.testing.assert_array_equal(tensorio.load_tensor(path), arr)


def test_roundtrip_rank3_and_scalar(tmp_path):
    for arr in (np.random.default_rng(0).standard_normal((2, 3, 5)), np.array(3.5)):
        path = tmp_path / "t.sdbt"
        tensorio.save_tensor(path, arr)
        np.testing.assert_array_equal(tensorio.load_tensor(path), arr)


def test_layout_is_little_endian_row_major(tmp_path):
    path = tmp_path / "t.sdbt"
    tensorio.save_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    blob = path.read_bytes()
    assert blob[:4] == b"SDBT"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:12], "little") == 2
    assert int.from_bytes(blob[12:16], "little") == 2
    payload = np.frombuffer(blob[16:], dtype="<f8")
    np.testing.assert_array_equal(payload, [1.0, 2.0, 3.0, 4.0])


def test_stream_concatenation():
    buf = io.BytesIO()
    a, b = np.ones(3), np.zeros((2, 2))
    tensorio.write_tensor(buf, a)
    tensorio.write_tensor(buf, b)
    buf.seek(0)
    np.testing.assert_array_equal(tensorio.read_tensor(buf), a)
    np.testing.assert_array_equal(tensorio.read_tensor(buf), b)


def test_bad_magic_rejected():
    with pytest.raises(DimensionError):
        tensorio.read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 16))


def test_truncated_payload_rejected():
    buf = io.BytesIO()
    tensorio.write_tensor(buf, np.ones(4))
    blob = buf.getvalue()[:-8]
    with pytest.raises(DimensionError):
        tensorio.read_tensor(io.BytesIO(blob))


@pytest.mark.parametrize("keep", [0, 2, 6, 10])
def test_truncated_header_rejected(keep):
    # cut inside the magic, the rank or the shape: a DimensionError, not struct.error
    buf = io.BytesIO()
    tensorio.write_tensor(buf, np.ones((2, 3)))
    with pytest.raises(DimensionError, match="truncated"):
        tensorio.read_tensor(io.BytesIO(buf.getvalue()[:keep]))


def test_expected_shape_checked_before_payload():
    buf = io.BytesIO()
    tensorio.write_tensor(buf, np.ones((2, 3)))
    blob = buf.getvalue()
    np.testing.assert_array_equal(tensorio.read_tensor(io.BytesIO(blob), (2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionError, match="shape"):
        # the payload is missing too: the shape is refused first
        tensorio.read_tensor(io.BytesIO(blob[:16]), (3, 2))


def test_csv_import(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.5,2.0\n-3.25,4.0\n", encoding="utf-8")
    np.testing.assert_array_equal(
        tensorio.load_matrix_csv(path), [[1.5, 2.0], [-3.25, 4.0]]
    )


def test_csv_roundtrip(tmp_path):
    arr = np.array([[0.1, -2.0, 3.0], [4.5, 5.0, -6.75]])
    path = tmp_path / "m.csv"
    tensorio.save_matrix_csv(path, arr)
    np.testing.assert_array_equal(tensorio.load_matrix_csv(path), arr)


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n", encoding="utf-8")
    with pytest.raises(DimensionError):
        tensorio.load_matrix_csv(path)
