"""Every request's bytes against the whole-envelope encode they replace.

``codec.request_payload`` encodes a request's params on their own and
splices them into the envelope's bytes; the oracle encodes the whole
envelope at once, ``encode_payload(Request(...).to_wire())``.  Both must
give the same bytes, or raise the same ``SerializationError``.
"""

from __future__ import annotations

from typing import Any

from hypothesis import example, given, settings, strategies as st

from repro.common.errors import SerializationError
from repro.rpc import codec
from repro.rpc.codec import NO_ID, Request

_TEXT = st.text(max_size=12)  # any code point: escaped to ASCII by the encoder
_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT,
)
_JSON = st.recursive(
    _LEAF,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=16,
)
_PARAMS = st.one_of(
    st.none(),
    st.dictionaries(_TEXT, _JSON, max_size=5),
    st.lists(_JSON, max_size=5),
)
# What canonical JSON refuses: a non-str key, an unknown type, an
# unsortable set; placed anywhere in otherwise good params.
_UNENCODABLE = st.sampled_from([{1: "a"}, object(), {1, "a"}, {"k": {(1, 2): 3}}])
_BAD_PARAMS = st.one_of(
    st.builds(lambda good, bad, key: dict(good, **{key: bad}),
              st.dictionaries(_TEXT, _JSON, max_size=3), _UNENCODABLE, _TEXT),
    st.builds(lambda good, bad, at: good[:at] + [bad] + good[at:],
              st.lists(_JSON, max_size=3), _UNENCODABLE, st.integers(0, 3)),
)
_METHOD = st.one_of(st.sampled_from(["site.query", "p2p.push", "rpc.echo", "ctl.submit_tx"]), _TEXT)
_ID = st.one_of(st.just(NO_ID), st.none(), st.integers(-(2**40), 2**40), _TEXT)
_META = st.one_of(
    st.none(),
    st.just({}),
    st.just({"trace": {"collect": True}}),
    st.fixed_dictionaries(
        {"trace": st.fixed_dictionaries({"collect": st.just(True), "parent": _TEXT})}
    ),
)


def _encoded(encode) -> Any:
    try:
        return encode()
    except SerializationError as exc:
        return (type(exc).__name__, str(exc))


def _whole(method, params, request_id, meta) -> Any:
    request = Request(method=method, params=params, request_id=request_id, meta=meta)
    return _encoded(lambda: codec.encode_payload(request.to_wire()))


@settings(max_examples=400, deadline=None)
@given(_METHOD, _PARAMS, _ID, _META)
@example("site.query", {"vector": {"intent": "count", "bins": 8.0}, "ü": ["é", -0.0]}, 7, None)
@example("p2p.push", [], NO_ID, {"trace": {"collect": True}})
@example("rpc.echo", {}, None, {})
def test_spliced_request_equals_the_whole_envelope(method, params, request_id, meta):
    expected = _whole(method, params, request_id, meta)
    assert codec.request_payload(method, params, request_id, meta) == expected
    if params is not None:  # params handed over as their canonical bytes
        spliced = codec.request_payload(method, codec.encode_payload(params), request_id, meta)
        assert spliced == expected


@settings(max_examples=200, deadline=None)
@given(_METHOD, _BAD_PARAMS, _ID, _META)
def test_unencodable_params_raise_what_the_whole_envelope_raises(method, params, request_id, meta):
    expected = _whole(method, params, request_id, meta)
    assert isinstance(expected, tuple), "the oracle encoded what it must refuse"
    assert _encoded(lambda: codec.request_payload(method, params, request_id, meta)) == expected


def test_a_batch_is_its_requests_joined():
    calls = [("a", {"x": 1}, 1), ("b", None, 2), ("c", [1.5, "é"], 3)]
    batch = b"[" + b",".join(codec.request_payload(m, p, i) for m, p, i in calls) + b"]"
    assert batch == codec.encode_payload(
        [Request(method=m, params=p, request_id=i).to_wire() for m, p, i in calls]
    )
