"""Every spliced encode against the whole-value encode it replaces.

``codec.splice`` writes one member of an object from bytes already encoded;
``codec.response_payload`` splices a result that carries its canonical
bytes (``codec.Encoded``) into its response; a ``site.query`` outcome is
built with the tool result's bytes spliced in.  Each must give the bytes
``encode_payload`` gives for the whole value.
"""

from __future__ import annotations

import asyncio

from hypothesis import example, given, settings, strategies as st

from repro.query.parser import parse_query
from repro.rpc import codec
from repro.rpc.codec import Encoded, Response
from repro.rpc.errors import OverloadedError
from repro.rpc.methods import build_site_registry, vector_to_wire
from repro.rpc.site_server import build_site

_TEXT = st.text(max_size=8)  # any code point, escaped keys among them
_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=True, allow_infinity=True),
        _TEXT,
    ),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_TEXT, children, max_size=3),
    max_leaves=12,
)
_META = st.one_of(st.just({}), st.fixed_dictionaries({"spans": st.lists(_JSON, max_size=2)}))
_ID = st.one_of(st.none(), st.integers(-(2**40), 2**40), _TEXT)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(_TEXT, _JSON, max_size=5), _TEXT, _JSON)
@example({"task_id": "t", "flops": 1.5, "site": "s"}, "result", {"count": 3})
@example({"b": 1}, "a", [])
@example({}, "params", {"x": -0.0})
def test_a_spliced_member_equals_the_whole_object(obj, key, value):
    obj.pop(key, None)
    spliced = codec.splice(obj, key, codec.encode_payload(value))
    assert spliced == codec.encode_payload({**obj, key: value})


@settings(max_examples=200, deadline=None)
@given(_ID, st.dictionaries(_TEXT, _JSON, max_size=5), _META)
def test_an_encoded_result_is_spliced_into_its_response(request_id, result, meta):
    response = Response(
        request_id=request_id, result=Encoded(result, codec.encode_payload(result)), meta=meta
    )
    whole = Response(request_id=request_id, result=result, meta=meta)
    assert codec.response_payload(response) == codec.encode_payload(whole.to_wire())


def test_an_error_response_is_encoded_whole():
    response = codec.error_response(3, OverloadedError(data={"inflight": 2}))
    assert codec.response_payload(response) == codec.encode_payload(response.to_wire())


def test_a_site_query_outcome_carries_its_own_bytes():
    registry = build_site_registry(build_site("hospital-0", 3, 60, 2026))
    handler = registry.get("site.query").handler
    texts = (
        "how many patients have diabetes",
        "prevalence of stroke among smokers",
        "histogram of bmi between 15 and 55 with 4 bins",
        "compare bmi of smokers",
        "train a stroke model",
    )
    for text in texts:
        outcome = asyncio.run(handler(vector=vector_to_wire(parse_query(text))))
        assert isinstance(outcome, Encoded)
        assert outcome.data == codec.encode_payload(dict(outcome)), text
