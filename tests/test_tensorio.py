"""Binary tensor format and CSV matrix import."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _views():
    """Arrays of rank 0 to 3, zero-size sides included, as strided or
    transposed views when drawn so."""
    shapes = st.lists(st.integers(0, 4), max_size=3)
    return st.builds(
        lambda shape, seed, step, flip: _view(shape, seed, step, flip),
        shapes, st.integers(0, 2 ** 16), st.integers(1, 2), st.booleans(),
    )


def _view(shape, seed, step, flip):
    base = np.random.default_rng(seed).standard_normal([n * step for n in shape])
    view = base[tuple(slice(None, None, step) for _ in shape)]
    return view.T if flip else view


@settings(max_examples=200, deadline=None)
@given(_views())
def test_write_read_round_trip_keeps_shape_and_values(arr):
    buf = io.BytesIO()
    tensorio.write_tensor(buf, arr)
    buf.seek(0)
    back = tensorio.read_tensor(buf)
    assert back.shape == arr.shape
    assert back.tobytes() == np.ascontiguousarray(arr).tobytes()
    assert buf.read() == b""


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


def _record_bytes(array):
    buf = io.BytesIO()
    tensorio.write_tensor(buf, array)
    return buf.getvalue()


def _oversized_record():
    # a 28-byte record whose header claims 2^31 x 2^31 elements
    return tensorio.MAGIC + struct.pack("<3I", 2, 2 ** 31, 2 ** 31) + b"\x00" * 12


def test_oversized_claim_refused_before_reading():
    class CountingReads(io.BytesIO):
        def read(self, n=-1):
            self.asked = getattr(self, "asked", 0) + n
            return super().read(n)

    fh = CountingReads(_oversized_record())
    with pytest.raises(DimensionError, match="truncated"):
        tensorio.read_tensor(fh)
    assert fh.asked == 16  # magic, rank and shape only


class _Pipe(io.BytesIO):
    """A stream that cannot seek, like a pipe; records the sizes asked for."""

    def seekable(self):
        return False

    def read(self, n=-1):
        self.largest = max(getattr(self, "largest", 0), n)
        return super().read(n)


def test_oversized_claim_on_unseekable_stream_reads_in_bounded_chunks():
    fh = _Pipe(_oversized_record())
    with pytest.raises(DimensionError, match="truncated"):
        tensorio.read_tensor(fh)
    assert fh.largest <= 1 << 24


def test_unseekable_stream_roundtrip():
    arr = np.random.default_rng(3).standard_normal((5, 7))
    fh = _Pipe(_record_bytes(arr) + _record_bytes(arr[:2]))
    np.testing.assert_array_equal(tensorio.read_tensor(fh), arr)
    np.testing.assert_array_equal(tensorio.read_tensor(fh, (2, 7)), arr[:2])


# each is the content of a bad tensor file (None: no file)
BAD_TENSOR_FILES = {
    "missing_file": None,
    "truncated_record": _record_bytes(np.ones((2, 3)))[:-8],
    "oversized_header": _oversized_record(),
}


@pytest.mark.parametrize("fault", sorted(BAD_TENSOR_FILES))
def test_bad_tensor_file_raises_value_or_os_error(tmp_path, fault):
    path = tmp_path / "bad.sdbt"
    if BAD_TENSOR_FILES[fault] is not None:
        path.write_bytes(BAD_TENSOR_FILES[fault])
    expected = OSError if fault == "missing_file" else DimensionError
    with pytest.raises(expected):
        tensorio.load_tensor(path)


def _record_prefixes():
    """Magic, a rank and dimensions (small, zero or up to 2^32 - 1), then any bytes."""
    dims = st.lists(st.one_of(st.integers(0, 4), st.just(2 ** 32 - 1)), max_size=5)
    return st.builds(
        lambda rank, found, tail: tensorio.MAGIC + struct.pack(f"<I{len(found)}I", rank, *found) + tail,
        st.one_of(st.integers(0, 6), st.integers(0, 2 ** 32 - 1)), dims, st.binary(max_size=64),
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=96), st.binary(max_size=96).map(lambda b: tensorio.MAGIC + b),
                 _record_prefixes()))
def test_arbitrary_bytes_give_a_tensor_or_a_dimension_error(blob):
    for stream in (io.BytesIO(blob), _Pipe(blob)):
        try:
            tensorio.read_tensor(stream)
        except DimensionError:
            pass
