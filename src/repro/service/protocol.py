"""The length-prefixed frame protocol: one codec, two transports.

Every frame is a 4-byte big-endian length followed by one payload in
either encoding: canonical UTF-8 JSON, or the negotiated binary envelope
of :mod:`repro.service.wire` (magic + flags + optionally-deflated JSON).
Decoding sniffs the payload's first byte, so both encodings interleave
freely on one connection.

The synchronous endpoints (the socket worker and the service client)
use :func:`send_frame`/:func:`recv_frame` on blocking sockets; the
asyncio daemon uses :func:`read_frame`/:func:`write_frame` on
``asyncio`` streams.  Both pairs share :func:`encode_frame`, the length
check and the transport counters, so the two transports interoperate
byte-for-byte.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.service import wire
from repro.util.validation import ReproError

if TYPE_CHECKING:
    # Annotations only: the blocking endpoints (worker, client) import
    # this module and should not pay for importing asyncio.
    import asyncio

#: Bump when the frame vocabulary changes incompatibly.  The binary
#: columnar encoding is *not* a protocol bump: it is negotiated per
#: connection via the ``wire`` capability list in hello/welcome frames
#: (see :mod:`repro.service.wire`) and falls back to plain JSON frames.
PROTOCOL_VERSION = 1

#: Hard per-frame ceiling -- a corrupt length prefix must not allocate
#: GBs.  Shared with (and defined by) the binary wire codec.
MAX_FRAME_BYTES = wire.MAX_FRAME_BYTES

#: Handshake / connect socket timeout (seconds).  Liveness only: no value
#: derived from it ever reaches a record.
HANDSHAKE_TIMEOUT = 30.0


def encode_frame(obj) -> bytes:
    """Serialise one frame: 4-byte big-endian length + canonical JSON."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(blob) > MAX_FRAME_BYTES:
        raise ReproError(
            f"frame of {len(blob)} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    return struct.pack(">I", len(blob)) + blob


def _encode_counted(
    obj, binary: bool, stats: Optional[wire.WireStats]
) -> bytes:
    """One outbound frame in the chosen encoding, counted in ``stats``."""
    blob = wire.encode_binary_frame(obj) if binary else encode_frame(obj)
    if stats is not None:
        stats.add("bytes_sent", len(blob))
        if binary and blob[5] & wire.FLAG_ZLIB:
            stats.add("blocks_compressed", 1)
    return blob


def _frame_length(header: bytes) -> int:
    """The payload length of a 4-byte prefix, bounded by the ceiling."""
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ReproError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES} limit"
        )
    return length


def _decode_counted(blob: bytes, stats: Optional[wire.WireStats]):
    if stats is not None:
        stats.add("bytes_received", 4 + len(blob))
    return wire.decode_blob(blob, stats)


# ------------------------------------------------- blocking sockets


def send_frame(
    sock: socket.socket,
    obj,
    stats: Optional[wire.WireStats] = None,
    binary: bool = False,
) -> None:
    """Write one frame, JSON or (when negotiated) binary-enveloped."""
    sock.sendall(_encode_counted(obj, binary, stats))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 65536))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, stats: Optional[wire.WireStats] = None
):
    """Read one length-prefixed frame of either encoding (blocking)."""
    length = _frame_length(_recv_exact(sock, 4))
    return _decode_counted(_recv_exact(sock, length), stats)


# -------------------------------------------------- asyncio streams


async def read_frame(
    reader: asyncio.StreamReader,
    stats: Optional[wire.WireStats] = None,
):
    """Read one length-prefixed frame (either encoding) from a stream.

    Raises :class:`asyncio.IncompleteReadError` when the peer closes
    mid-frame and :class:`~repro.util.validation.ReproError` on a length
    prefix beyond :data:`MAX_FRAME_BYTES` (a corrupt prefix must not
    allocate gigabytes).
    """
    length = _frame_length(await reader.readexactly(4))
    return _decode_counted(await reader.readexactly(length), stats)


async def write_frame(
    writer: asyncio.StreamWriter,
    obj,
    binary: bool = False,
    stats: Optional[wire.WireStats] = None,
) -> None:
    """Write one frame and drain.

    ``binary`` selects the negotiated wire envelope (adaptively
    deflated) over plain JSON.  The whole frame goes through a single
    ``writer.write`` call, so concurrent tasks writing to the same peer
    never interleave partial frames -- per-connection locks are
    unnecessary.
    """
    writer.write(_encode_counted(obj, binary, stats))
    await writer.drain()


# ---------------------------------------------------------- helpers


def result_records(frame: Dict[str, object]) -> List[Dict[str, object]]:
    """The records of one RESULT frame, whichever encoding carried them:
    the columnar ``block`` (binary wire) or the plain ``records`` list."""
    block = frame.get("block")
    if block is not None:
        return [record for _index, record in wire.decode_record_block(block)]
    return frame.get("records", [])


def parse_address(address: Optional[str]) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; ``None`` means ephemeral loopback."""
    if address is None:
        return ("127.0.0.1", 0)
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ReproError(
            f"coordinator address {address!r} must look like host:port"
        )
    try:
        return (host, int(port))
    except ValueError:
        raise ReproError(f"coordinator port {port!r} is not an integer")


__all__ = [
    "HANDSHAKE_TIMEOUT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "encode_frame",
    "parse_address",
    "read_frame",
    "recv_frame",
    "result_records",
    "send_frame",
    "write_frame",
]
