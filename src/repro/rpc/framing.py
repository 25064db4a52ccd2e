"""Length-prefixed framing over a byte stream.

TCP delivers an undifferentiated byte stream; the RPC layer needs message
boundaries.  Every frame is a 4-byte big-endian unsigned payload length
followed by the payload bytes.  The decoder is sans-io (feed bytes, pop
complete frames) so the same state machine serves both ends of a
connection (the server's and the client's ``asyncio.Protocol``) and the
property tests, which replay arbitrary split/partial/concatenated reads
against it.

Oversized frames are rejected *from the length prefix alone*, before any
payload buffering, so a misbehaving peer cannot make the server allocate
unbounded memory.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.rpc.errors import FrameTooLargeError

HEADER = struct.Struct(">I")
HEADER_BYTES = HEADER.size

#: Default ceiling on one frame's payload (8 MiB) — generous for model
#: parameters, small enough that a bad length prefix cannot balloon memory.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024


def encode_frame(payload: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Wrap ``payload`` in a length prefix, enforcing the size ceiling."""
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame of {len(payload)} bytes exceeds limit {max_frame_bytes}",
            data={"size": len(payload), "limit": max_frame_bytes},
        )
    return HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame reassembly from arbitrary byte chunks."""

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._expected: Optional[int] = None

    def feed(self, data: bytes) -> List[bytes]:
        """Absorb ``data``; return every frame completed by it, in order."""
        self._buffer.extend(data)
        frames: List[bytes] = []
        while True:
            if self._expected is None:
                if len(self._buffer) < HEADER_BYTES:
                    break
                (length,) = HEADER.unpack_from(self._buffer)
                if length > self.max_frame_bytes:
                    raise FrameTooLargeError(
                        f"peer announced a {length}-byte frame "
                        f"(limit {self.max_frame_bytes})",
                        data={"size": length, "limit": self.max_frame_bytes},
                    )
                del self._buffer[:HEADER_BYTES]
                self._expected = length
            if len(self._buffer) < self._expected:
                break
            frames.append(bytes(self._buffer[: self._expected]))
            del self._buffer[: self._expected]
            self._expected = None
        return frames

    def at_boundary(self) -> bool:
        """True when no partial frame is buffered (clean EOF point)."""
        return not self._buffer and self._expected is None
