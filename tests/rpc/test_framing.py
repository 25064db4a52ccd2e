"""Property tests for the length-prefixed frame layer.

TCP delivers a byte *stream*: one write may arrive split across many reads,
and many writes may arrive concatenated in one read.  The decoder must
reassemble the exact frame sequence under every chunking, which is what the
hypothesis properties below drive.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.framing import (
    HEADER,
    FrameDecoder,
    FrameTooLargeError,
    encode_frame,
)

payloads = st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=8)


def chunkings(data: bytes):
    """Strategy producing arbitrary splits of ``data`` into chunks."""
    return st.lists(
        st.integers(min_value=1, max_value=max(1, len(data))),
        min_size=0,
        max_size=len(data) + 1,
    ).map(lambda sizes: _split(data, sizes))


def _split(data: bytes, sizes):
    chunks, index = [], 0
    for size in sizes:
        if index >= len(data):
            break
        chunks.append(data[index : index + size])
        index += size
    if index < len(data):
        chunks.append(data[index:])
    return chunks


@given(payloads=payloads, data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_chunking_reassembles_the_exact_frame_sequence(payloads, data):
    stream = b"".join(encode_frame(p) for p in payloads)
    chunks = data.draw(chunkings(stream))
    decoder = FrameDecoder()
    out = []
    for chunk in chunks:
        out.extend(decoder.feed(chunk))
    assert out == payloads
    assert decoder.at_boundary()


@given(payload=st.binary(min_size=0, max_size=500))
@settings(max_examples=100, deadline=None)
def test_single_byte_feed_roundtrip(payload):
    decoder = FrameDecoder()
    out = []
    for index in range(len(encode_frame(payload))):
        out.extend(decoder.feed(encode_frame(payload)[index : index + 1]))
    assert out == [payload]


def test_oversized_frame_rejected_from_header_alone():
    decoder = FrameDecoder(max_frame_bytes=64)
    header = HEADER.pack(65)  # body never sent — length alone is enough
    with pytest.raises(FrameTooLargeError) as err:
        decoder.feed(header)
    assert err.value.code == -32004


def test_encode_rejects_oversized_payload():
    with pytest.raises(FrameTooLargeError):
        encode_frame(b"x" * 65, max_frame_bytes=64)


def test_limit_sized_frame_is_accepted():
    decoder = FrameDecoder(max_frame_bytes=64)
    assert decoder.feed(encode_frame(b"x" * 64, max_frame_bytes=64)) == [b"x" * 64]


def test_decoder_not_at_boundary_mid_frame():
    decoder = FrameDecoder()
    frame = encode_frame(b"hello")
    decoder.feed(frame[:3])
    assert not decoder.at_boundary()
    decoder.feed(frame[3:])
    assert decoder.at_boundary()
