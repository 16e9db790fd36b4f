"""Wire-protocol edge cases for the fleet's length-prefixed framing.

The protocol carries every cross-process query, so its failure modes are
pinned explicitly: truncation mid-prefix / mid-header / mid-payload raises
:class:`TruncatedFrame` naming the part, oversized declarations are rejected
*before allocation* with :class:`FrameTooLarge`, and both sides normalise /
reject dtypes identically (float32 or strided input is converted exactly once
by ``encode_rows``; a payload that skipped it is refused by ``decode_array``
rather than reinterpreted).  The exact one-frame blocking reader and the
chunked :class:`FrameParser` the serving loops read through share the same
contract.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

import numpy as np
import pytest

from repro.serve.fleet.wire import (
    DEFAULT_MAX_PAYLOAD_BYTES,
    MAX_HEADER_BYTES,
    READ_SIZE,
    WIRE_DTYPE,
    FrameParser,
    FrameTooLarge,
    ProtocolError,
    TruncatedFrame,
    WireError,
    array_header,
    decode_array,
    encode_frame,
    encode_rows,
    read_frame,
    write_frame,
)

_PREFIX = struct.Struct(">II")


def frame_bytes(header: dict, payload: bytes = b"") -> bytes:
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _PREFIX.pack(len(raw), len(payload)) + raw + payload


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def read_after(writer, reader, data: bytes, **kwargs):
    """Write ``data``, close the writer, then read one frame."""
    writer.sendall(data)
    writer.close()
    return read_frame(reader, **kwargs)


class TestEncodeRows:
    def test_vector_becomes_single_row(self):
        rows = encode_rows(np.arange(4.0))
        assert rows.shape == (1, 4)

    def test_float32_is_upcast_exactly_once_client_side(self):
        single = np.array([[0.1, 0.2]], dtype=np.float32)
        rows = encode_rows(single)
        assert rows.dtype == np.float64
        # Exact upcast: every float32 is representable in float64.
        np.testing.assert_array_equal(rows, single.astype(np.float64))

    def test_non_contiguous_slice_is_normalised(self):
        base = np.arange(24.0).reshape(4, 6)
        strided = base[:, ::2]
        assert not strided.flags["C_CONTIGUOUS"]
        rows = encode_rows(strided)
        assert rows.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(rows, strided)

    def test_list_input_accepted(self):
        rows = encode_rows([[1, 2], [3, 4]])
        assert rows.dtype == np.float64 and rows.shape == (2, 2)

    def test_higher_rank_rejected(self):
        with pytest.raises(ProtocolError, match="1-D vector or a 2-D"):
            encode_rows(np.zeros((2, 3, 4)))

    def test_scalar_becomes_one_feature_row(self):
        # np.ascontiguousarray promotes 0-d to 1-d, so a bare scalar is a
        # single one-feature unit (the feature-count check lives server-side).
        assert encode_rows(np.float64(3.0)).shape == (1, 1)

    def test_normalised_then_declared_then_decoded_is_bitwise(self):
        """The full client-side pipeline both sides agree on: float32 and
        strided inputs produce identical bytes to their float64 originals."""
        base = np.arange(24.0).reshape(4, 6)
        for variant in (base, base.astype(np.float32), base[:, :].T.copy().T):
            rows = encode_rows(variant)
            decoded = decode_array(array_header(rows), rows.tobytes())
            assert decoded.tobytes() == np.ascontiguousarray(base).tobytes()


class TestDecodeArray:
    def test_round_trip_is_bitwise_including_special_values(self):
        rows = encode_rows(
            np.array([[np.nan, -0.0, 5e-324, np.inf, -1.5e308]])
        )
        decoded = decode_array(array_header(rows), rows.tobytes())
        assert decoded.tobytes() == rows.tobytes()

    def test_result_is_read_only_view(self):
        rows = encode_rows(np.ones((2, 3)))
        decoded = decode_array(array_header(rows), rows.tobytes())
        assert not decoded.flags["WRITEABLE"]

    def test_float32_payload_rejected_not_reinterpreted(self):
        wrong = np.ones((1, 4), dtype=np.float32)
        with pytest.raises(ProtocolError, match="dtype"):
            decode_array({"shape": [1, 4], "dtype": "<f4"}, wrong.tobytes())

    def test_undeclared_dtype_rejected(self):
        with pytest.raises(ProtocolError, match="dtype"):
            decode_array({"shape": [1, 1]}, b"\x00" * 8)

    def test_byte_count_mismatch_rejected(self):
        # float32 bytes smuggled under a float64 declaration: the count gives
        # it away before any value is produced.
        with pytest.raises(ProtocolError, match="declares"):
            decode_array(
                {"shape": [1, 4], "dtype": WIRE_DTYPE},
                np.ones((1, 4), dtype=np.float32).tobytes(),
            )

    def test_invalid_shapes_rejected(self):
        # The last three overflow int64 when their elements are counted.
        for shape in (
            [-1, 4],
            [1, "4"],
            "nope",
            None,
            [2**32, 2**32],
            [2**62, 4],
            [2**64 + 1],
        ):
            with pytest.raises(ProtocolError, match="shape"):
                decode_array({"shape": shape, "dtype": WIRE_DTYPE}, b"")

    def test_zero_row_array_decodes_to_empty(self):
        # The wire layer itself accepts an empty batch; the *worker* refuses
        # it at the predict op (exactly one row) — see the fleet tests.
        decoded = decode_array({"shape": [0, 7], "dtype": WIRE_DTYPE}, b"")
        assert decoded.shape == (0, 7)


class TestSyncFraming:
    def test_round_trip(self, pair):
        left, right = pair
        rows = encode_rows(np.arange(6.0).reshape(2, 3))
        write_frame(left, {"op": "predict", **array_header(rows)}, rows.tobytes())
        header, payload = read_frame(right)
        assert header["op"] == "predict"
        assert decode_array(header, payload).tobytes() == rows.tobytes()

    def test_clean_eof_between_frames_is_none(self, pair):
        left, right = pair
        left.close()
        assert read_frame(right) is None

    def test_truncated_mid_prefix(self, pair):
        left, right = pair
        with pytest.raises(TruncatedFrame) as info:
            read_after(left, right, frame_bytes({"op": "ping"})[:3])
        assert info.value.part == "prefix"
        assert info.value.received == 3

    def test_truncated_mid_header(self, pair):
        left, right = pair
        data = frame_bytes({"op": "ping", "pad": "x" * 64})
        with pytest.raises(TruncatedFrame) as info:
            read_after(left, right, data[: _PREFIX.size + 10])
        assert info.value.part == "header"

    def test_truncated_mid_payload(self, pair):
        left, right = pair
        rows = encode_rows(np.ones((1, 16)))
        data = frame_bytes(array_header(rows), rows.tobytes())
        with pytest.raises(TruncatedFrame) as info:
            read_after(left, right, data[:-40])
        assert info.value.part == "payload"
        assert info.value.expected == rows.nbytes

    def test_oversized_header_rejected_before_allocation(self, pair):
        left, right = pair
        declared = MAX_HEADER_BYTES + 1
        # Only the 8-byte prefix is sent: a reader that tried to allocate or
        # read the declared header would block forever instead of raising.
        left.sendall(_PREFIX.pack(declared, 0))
        with pytest.raises(FrameTooLarge) as info:
            read_frame(right)
        assert info.value.part == "header"
        assert info.value.declared == declared

    def test_oversized_payload_rejected_before_allocation(self, pair):
        left, right = pair
        left.sendall(_PREFIX.pack(2, 2**31))
        with pytest.raises(FrameTooLarge) as info:
            read_frame(right)
        assert info.value.part == "payload"
        assert info.value.limit == DEFAULT_MAX_PAYLOAD_BYTES

    def test_custom_payload_limit(self, pair):
        left, right = pair
        rows = encode_rows(np.ones((1, 64)))
        data = frame_bytes(array_header(rows), rows.tobytes())
        with pytest.raises(FrameTooLarge):
            read_after(left, right, data, max_payload=64)

    def test_non_json_header_rejected(self, pair):
        left, right = pair
        left.sendall(_PREFIX.pack(4, 0) + b"\xff\xfe\x00\x01")
        with pytest.raises(ProtocolError, match="UTF-8 JSON"):
            read_frame(right)

    def test_non_object_header_rejected(self, pair):
        left, right = pair
        raw = json.dumps([1, 2, 3]).encode()
        left.sendall(_PREFIX.pack(len(raw), 0) + raw)
        with pytest.raises(ProtocolError, match="JSON object"):
            read_frame(right)

    def test_empty_payload_frame(self, pair):
        left, right = pair
        write_frame(left, {"op": "ping"})
        header, payload = read_frame(right)
        assert header == {"op": "ping"} and payload == b""

    def test_errors_share_the_wireerror_base(self):
        assert issubclass(TruncatedFrame, WireError)
        assert issubclass(FrameTooLarge, WireError)
        assert issubclass(ProtocolError, WireError)


def read_async(data: bytes, **kwargs):
    """Feed ``data`` + EOF to a fresh StreamReader and read one frame.

    Reads as the front door does: whole chunks through a :class:`FrameParser`.
    """

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        parser = FrameParser(**kwargs)
        while True:
            chunk = await reader.read(READ_SIZE)
            if not chunk:
                parser.eof()
                return None
            for frame in parser.feed(chunk):
                return frame

    return asyncio.run(run())


class TestAsyncFraming:
    """Chunked reads from an asyncio stream through a parser enforce the identical contract."""

    def test_round_trip(self):
        rows = encode_rows(np.arange(4.0))
        header, payload = read_async(
            frame_bytes({"op": "predict", **array_header(rows)}, rows.tobytes())
        )
        assert decode_array(header, payload).tobytes() == rows.tobytes()

    def test_clean_eof_is_none(self):
        assert read_async(b"") is None

    def test_truncated_mid_prefix(self):
        with pytest.raises(TruncatedFrame) as info:
            read_async(frame_bytes({"op": "ping"})[:5])
        assert info.value.part == "prefix"

    def test_truncated_mid_header(self):
        with pytest.raises(TruncatedFrame) as info:
            read_async(frame_bytes({"op": "ping"})[: _PREFIX.size + 2])
        assert info.value.part == "header"

    def test_truncated_mid_payload(self):
        rows = encode_rows(np.ones((1, 8)))
        data = frame_bytes(array_header(rows), rows.tobytes())
        with pytest.raises(TruncatedFrame) as info:
            read_async(data[:-8])
        assert info.value.part == "payload"

    def test_oversized_payload_rejected(self):
        with pytest.raises(FrameTooLarge):
            read_async(_PREFIX.pack(2, 2**31) + b"{}")

    def test_custom_payload_limit(self):
        rows = encode_rows(np.ones((1, 64)))
        with pytest.raises(FrameTooLarge):
            read_async(
                frame_bytes(array_header(rows), rows.tobytes()), max_payload=64
            )


def parse(chunks, **kwargs):
    """Every frame of ``chunks`` (then EOF), fed to one parser in order."""
    parser = FrameParser(**kwargs)
    frames = []
    for chunk in chunks:
        frames.extend(parser.feed(chunk))
    parser.eof()
    return frames


class TestFrameParser:
    def test_burst_parses_the_same_fed_whole_or_byte_by_byte(self):
        rows = encode_rows(np.arange(5.0))
        frames = [
            ({"op": "predict", "id": 0, "stream": "s", **array_header(rows)}, rows.tobytes()),
            ({"op": "ping", "id": 1}, b""),
            ({"op": "predict", "id": 2, "stream": "s", "shape": [0, 5], "dtype": WIRE_DTYPE}, b""),
            ({"op": "result", "id": 3, "shape": [3], "dtype": WIRE_DTYPE}, np.ones(3).tobytes()),
        ]
        data = b"".join(encode_frame(header, payload) for header, payload in frames)
        # The shared header encoder writes exactly what json.dumps did.
        assert data == b"".join(frame_bytes(header, payload) for header, payload in frames)
        whole = parse([data])
        assert whole == frames
        assert parse([data[i : i + 1] for i in range(len(data))]) == whole

    def test_oversized_payload_rejected_from_the_prefix_alone(self):
        parser = FrameParser()
        with pytest.raises(FrameTooLarge) as info:
            list(parser.feed(_PREFIX.pack(2, 2**31)))
        assert info.value.part == "payload"
        assert info.value.declared == 2**31

    def test_frames_before_a_bad_one_are_yielded_first(self):
        data = frame_bytes({"op": "ping", "id": 1}) + _PREFIX.pack(MAX_HEADER_BYTES + 1, 0)
        frames = FrameParser().feed(data)
        assert next(frames) == ({"op": "ping", "id": 1}, b"")
        with pytest.raises(FrameTooLarge) as info:
            next(frames)
        assert info.value.part == "header"

    def test_eof_mid_frame_names_the_part(self):
        # TestAsyncFraming's truncations, after one whole frame and fed three
        # bytes at a time, so the partial frame spans several feeds.
        ping = frame_bytes({"op": "ping"})
        rows = encode_rows(np.ones((1, 8)))
        data = frame_bytes(array_header(rows), rows.tobytes())
        header_len = len(data) - _PREFIX.size - rows.nbytes
        for cut, part, expected, received in (
            (5, "prefix", _PREFIX.size, 5),
            (_PREFIX.size + 2, "header", header_len, 2),
            (len(data) - 8, "payload", rows.nbytes, rows.nbytes - 8),
        ):
            stream = ping + data[:cut]
            with pytest.raises(TruncatedFrame) as info:
                parse([stream[i : i + 3] for i in range(0, len(stream), 3)])
            assert (info.value.part, info.value.expected, info.value.received) == (
                part,
                expected,
                received,
            )
