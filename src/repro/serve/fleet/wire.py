"""Length-prefixed wire protocol between the front door and shard workers.

The fleet crosses a process boundary on every query, so the encoding *is* the
hot path.  The protocol is deliberately primitive — no pickle, no schema
library, nothing that could smuggle Python objects across the socket:

* every frame is ``[u32 header length][u32 payload length][header][payload]``
  (big-endian prefix);
* the **header** is a small UTF-8 JSON object (the op, the stream, the array
  shape/dtype, the model version) — cheap to build, cheap to parse, and safe
  to log.  Every sender encodes it with one shared compact encoder, so equal
  headers are equal bytes;
* the **payload** is the raw bytes of one C-contiguous float64 ndarray.  The
  sender writes ``array.data`` straight to the socket; the receiver rebuilds
  with ``np.frombuffer(...).reshape(shape)`` — a zero-copy, read-only view of
  the received buffer.  Bitwise identity across the boundary is therefore
  trivial: the eight bytes of every float are forwarded verbatim.

Both sides **normalise rows identically** before they touch the wire or a
model: :func:`encode_rows` coerces any accepted input (lists, float32,
non-contiguous slices, 1-D vectors) to a C-contiguous float64 ``(n, p)``
array, and the receiving side *rejects* any payload that does not declare
exactly that layout (:class:`ProtocolError`), instead of silently reinterpreting
bytes.  A query row is thus bit-identical on both sides of the socket no
matter which side a test inspects.

Frames are read in one of two ways.  The serving loops read whole chunks of
up to :data:`READ_SIZE` bytes and hand them to a :class:`FrameParser`, which
does no I/O itself and yields every complete frame buffered so far, so one
read serves a whole burst of pipelined frames.  :func:`read_frame` reads
exactly one frame from a blocking socket and never more, for request/reply
control clients that must leave later bytes on the socket.

Both enforce the defensive limits **before allocation**: as soon as a frame's
8-byte prefix is available, a declared header/payload size beyond the limit
raises :class:`FrameTooLarge` before any of the body is read or buffered — a
malformed or hostile peer cannot make a worker allocate an arbitrary buffer.
A connection that dies mid-frame raises :class:`TruncatedFrame` naming the
part it died in (``prefix``, ``header`` or ``payload``), while a clean EOF
*between* frames is the normal end of a conversation.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "DEFAULT_MAX_PAYLOAD_BYTES",
    "FrameParser",
    "FrameTooLarge",
    "MAX_HEADER_BYTES",
    "ProtocolError",
    "READ_SIZE",
    "TruncatedFrame",
    "WireError",
    "WIRE_DTYPE",
    "decode_array",
    "encode_frame",
    "encode_rows",
    "read_frame",
    "write_frame",
    "write_frame_async",
]

_PREFIX = struct.Struct(">II")

#: Headers are tiny JSON objects; anything bigger is a protocol violation.
MAX_HEADER_BYTES = 64 * 1024

#: Default ceiling for one frame's ndarray payload (64 MiB ≈ an 8e6 x 1
#: float64 batch — far beyond any canonical batch this repo serves).
DEFAULT_MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

#: The only dtype that crosses the wire (little-endian float64).
WIRE_DTYPE = "<f8"

#: Bytes a serving loop asks for per socket read; one read serves a whole
#: burst of pipelined frames.
READ_SIZE = 64 * 1024

# One compact encoder for every header: ``json.dumps`` with custom separators
# builds a new encoder on each call, which costs more than the encoding.
_HEADER_ENCODER = json.JSONEncoder(separators=(",", ":"))


class WireError(RuntimeError):
    """Base class of every wire-protocol failure."""


class TruncatedFrame(WireError):
    """The connection ended mid-frame (mid-prefix, mid-header or mid-payload)."""

    def __init__(self, expected: int, received: int, part: str) -> None:
        super().__init__(
            f"connection closed mid-{part}: expected {expected} bytes, "
            f"received {received}"
        )
        self.expected = expected
        self.received = received
        self.part = part


class FrameTooLarge(WireError):
    """A frame declared a size beyond the limit; rejected before allocation."""

    def __init__(self, declared: int, limit: int, part: str) -> None:
        super().__init__(
            f"declared {part} size {declared} bytes exceeds the limit of "
            f"{limit} bytes; frame rejected before allocation"
        )
        self.declared = declared
        self.limit = limit
        self.part = part


class ProtocolError(WireError):
    """A structurally valid frame carried semantically invalid content."""


# --------------------------------------------------------------------------- #
# ndarray <-> payload
# --------------------------------------------------------------------------- #
def encode_rows(rows: np.ndarray) -> np.ndarray:
    """Normalise query rows to the canonical wire layout.

    Accepts a 1-D vector (one unit) or a 2-D ``(n, p)`` array in any dtype /
    memory order and returns a C-contiguous float64 ``(n, p)`` array.  This is
    the *single* normalisation point: the sender calls it before writing, and
    the receiver refuses anything that does not already match the layout, so
    a float32 or strided input is converted exactly once, on the client side,
    and both sides of the socket see identical float64 bytes.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.ndim != 2:
        raise ProtocolError(
            f"query rows must be a 1-D vector or a 2-D (n, p) array; "
            f"got shape {rows.shape}"
        )
    return rows


def array_header(array: np.ndarray) -> dict:
    """Header fields describing ``array``'s payload bytes."""
    return {"shape": list(array.shape), "dtype": WIRE_DTYPE}


def decode_array(header: dict, payload: bytes) -> np.ndarray:
    """Rebuild the ndarray described by ``header`` from raw payload bytes.

    Zero-copy: the result is a read-only view of ``payload``.  The declared
    dtype must be exactly :data:`WIRE_DTYPE` and the byte count must match
    the declared shape — a peer that skipped :func:`encode_rows` (e.g. sent
    float32 bytes) is rejected with :class:`ProtocolError` rather than having
    its bytes reinterpreted into garbage floats.
    """
    if header.get("dtype") != WIRE_DTYPE:
        raise ProtocolError(
            f"payload dtype must be {WIRE_DTYPE!r}; got {header.get('dtype')!r} "
            f"(normalise with encode_rows before sending)"
        )
    shape = header.get("shape")
    if not isinstance(shape, list) or not all(
        isinstance(dim, int) and dim >= 0 for dim in shape
    ):
        raise ProtocolError(f"invalid payload shape {shape!r}")
    # Python integers are exact: a shape whose element count overflows int64
    # declares a huge byte count here instead of wrapping to a small one.
    expected = math.prod(shape) * 8
    if len(payload) != expected:
        raise ProtocolError(
            f"payload carries {len(payload)} bytes but shape {shape} "
            f"declares {expected}"
        )
    return np.frombuffer(payload, dtype=np.float64).reshape(shape)


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
def _check_sizes(header_len: int, payload_len: int, max_payload: int) -> None:
    if header_len > MAX_HEADER_BYTES:
        raise FrameTooLarge(header_len, MAX_HEADER_BYTES, "header")
    if payload_len > max_payload:
        raise FrameTooLarge(payload_len, max_payload, "payload")


def _parse_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"header is not valid UTF-8 JSON: {error}") from error
    if not isinstance(header, dict):
        raise ProtocolError(f"header must be a JSON object; got {type(header).__name__}")
    return header


def _frame_head(header: dict, payload_len: int) -> bytes:
    """The prefix and encoded header of a frame carrying ``payload_len`` bytes."""
    raw = _HEADER_ENCODER.encode(header).encode("utf-8")
    return _PREFIX.pack(len(raw), payload_len) + raw


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """One whole frame as bytes, for senders that write many frames at once."""
    return _frame_head(header, len(payload)) + payload


def write_frame(sock: socket.socket, header: dict, payload: bytes = b"") -> None:
    """Write one frame to a blocking socket.

    ``payload`` may be any bytes-like object (``array.data`` of a C-contiguous
    array is sent without an intermediate copy of the array bytes).
    """
    # One sendall for prefix+header (small, coalesced), one for the payload
    # (potentially large; no concatenation copy).
    sock.sendall(_frame_head(header, len(payload)))
    if len(payload):
        sock.sendall(payload)


def write_frame_async(outbox: List[bytes], header: dict, payload: bytes = b"") -> None:
    """Append one frame to a connection's outbox, which its owner sends in one write.

    The front door encodes every frame it sends through this module-level
    name, once per frame and on the submitting thread, so a tracer can wrap it.
    """
    outbox.append(encode_frame(header, payload))


def _recv_exactly(sock: socket.socket, n: int, part: str) -> bytes:
    buffer = bytearray(n)
    view = memoryview(buffer)
    received = 0
    while received < n:
        chunk = sock.recv_into(view[received:])
        if chunk == 0:
            raise TruncatedFrame(n, received, part)
        received += chunk
    return bytes(buffer)


def read_frame(
    sock: socket.socket, max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES
) -> Optional[Tuple[dict, bytes]]:
    """Read exactly one frame from a blocking socket, and not a byte more.

    Returns ``(header, payload)``, or ``None`` on a clean EOF at a frame
    boundary.  Size limits are enforced after the 8-byte prefix, before any
    header or payload allocation.
    """
    first = sock.recv(_PREFIX.size)
    if first == b"":
        return None
    while len(first) < _PREFIX.size:
        more = sock.recv(_PREFIX.size - len(first))
        if more == b"":
            raise TruncatedFrame(_PREFIX.size, len(first), "prefix")
        first += more
    header_len, payload_len = _PREFIX.unpack(first)
    _check_sizes(header_len, payload_len, max_payload)
    header = _parse_header(_recv_exactly(sock, header_len, "header"))
    payload = _recv_exactly(sock, payload_len, "payload") if payload_len else b""
    return header, payload


class FrameParser:
    """Incremental frame parser over the bytes of whole reads; does no I/O.

    A serving loop reads chunks of up to :data:`READ_SIZE` bytes and passes
    each to :meth:`feed`, which buffers it and returns an iterator over every
    complete frame buffered so far, in order, as ``(header, payload)``.  An
    incomplete frame stays buffered until the chunk that completes it.  A
    frame is checked against the size limits as soon as its 8-byte prefix is
    buffered, before any more of it is: the iteration raises
    :class:`FrameTooLarge` when it reaches that frame, after yielding the
    frames before it.  Header errors raise :class:`ProtocolError` the same
    way.  Call :meth:`eof` when the peer closes the connection.

    The parser is one connection's state and is not thread-safe.
    """

    __slots__ = ("max_payload", "_buffer", "_start")

    def __init__(self, max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES) -> None:
        self.max_payload = max_payload
        self._buffer = bytearray()
        self._start = 0  # offset of the first unparsed byte in _buffer

    def feed(self, data: bytes) -> Iterator[Tuple[dict, bytes]]:
        """Buffer ``data``; iterate over every complete frame buffered so far."""
        self._buffer += data
        return self

    def __iter__(self) -> Iterator[Tuple[dict, bytes]]:
        return self

    def __next__(self) -> Tuple[dict, bytes]:
        buffer = self._buffer
        start = self._start
        if len(buffer) - start >= _PREFIX.size:
            header_len, payload_len = _PREFIX.unpack_from(buffer, start)
            _check_sizes(header_len, payload_len, self.max_payload)
            split = start + _PREFIX.size + header_len
            end = split + payload_len
            if end <= len(buffer):
                self._start = end
                header = _parse_header(buffer[start + _PREFIX.size : split])
                payload = bytes(buffer[split:end]) if payload_len else b""
                return header, payload
        if start:
            # Only an incomplete frame remains: move it to the front, so the
            # buffer never holds more than one frame and one read.
            del buffer[:start]
            self._start = 0
        raise StopIteration

    def eof(self) -> None:
        """End of the stream: raise :class:`TruncatedFrame` if a frame is partial.

        Call it once every complete frame has been taken.  It names the part
        the stream ended in; a clean end between frames returns quietly.
        """
        buffered = len(self._buffer) - self._start
        if buffered == 0:
            return
        if buffered < _PREFIX.size:
            raise TruncatedFrame(_PREFIX.size, buffered, "prefix")
        header_len, payload_len = _PREFIX.unpack_from(self._buffer, self._start)
        received = buffered - _PREFIX.size
        if received < header_len:
            raise TruncatedFrame(header_len, received, "header")
        raise TruncatedFrame(payload_len, received - header_len, "payload")
