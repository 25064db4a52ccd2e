"""JSON-RPC 2.0 codec over canonical serialization.

Requests, notifications (no ``id``), batches, responses, and typed error
objects — plus one protocol extension: an optional ``meta`` member on both
requests and responses.  ``meta.trace`` carries the caller's span id across
the wire and ``meta.spans`` ships the server-side spans back, which is how
:mod:`repro.obs` trace trees stay connected across processes.  ``meta`` is
ignored by any strict JSON-RPC peer, and absent entirely when tracing is
off, so the extension costs nothing on the hot path.

Payload bytes always come from :func:`repro.common.serialize.canonical_bytes`
so both transports (TCP and in-process) produce byte-identical envelopes for
the same logical call — the property the tcp/inproc equivalence gate rests on.
Every request is encoded by :func:`request_payload`, which splices the
params' canonical bytes into the envelope's, so a caller that already holds
those bytes (to measure them) does not encode the params a second time.
Every response is encoded by :func:`response_payload`, which does the same
for a result that carries its own canonical bytes (:class:`Encoded`).  Both
go through :func:`splice`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.serialize import canonical_bytes
from repro.rpc.errors import (
    InvalidRequestError,
    ParseError,
    RpcError,
    error_from_wire,
)

JSONRPC_VERSION = "2.0"

Params = Union[Dict[str, Any], List[Any], None]
#: What a request may carry as params: a value, or its canonical bytes.
EncodedParams = Union[Params, bytes]
#: One request of a frame: its method, its params (or their canonical bytes)
#: and its meta.
Outgoing = Tuple[str, EncodedParams, Optional[Dict[str, Any]]]
RequestId = Union[str, int, None]

#: Sentinel distinguishing "id absent" (notification) from "id: null".
NO_ID = object()


@dataclass
class Request:
    """One parsed request or notification."""

    method: str
    params: Params = None
    request_id: Any = NO_ID
    meta: Optional[Dict[str, Any]] = None

    @property
    def is_notification(self) -> bool:
        return self.request_id is NO_ID

    def to_wire(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {"jsonrpc": JSONRPC_VERSION, "method": self.method}
        if self.params is not None:
            obj["params"] = self.params
        if self.request_id is not NO_ID:
            obj["id"] = self.request_id
        if self.meta:
            obj["meta"] = self.meta
        return obj


@dataclass
class Response:
    """One parsed response: exactly one of ``result`` / ``error`` is set."""

    request_id: RequestId
    result: Any = None
    error: Optional[RpcError] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_wire(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {"jsonrpc": JSONRPC_VERSION, "id": self.request_id}
        if self.error is not None:
            obj["error"] = self.error.to_wire()
        else:
            obj["result"] = self.result
        if self.meta:
            obj["meta"] = self.meta
        return obj


class Encoded(dict):
    """A JSON object that carries its own canonical bytes in ``data``.

    It reads as the dict it is; :func:`response_payload` writes ``data``
    where it would encode the object again.  Do not change it once built.
    """

    __slots__ = ("data",)

    def __init__(self, value: Dict[str, Any], data: bytes):
        super().__init__(value)
        self.data = data


def encode_payload(obj: Any) -> bytes:
    """Canonical UTF-8 JSON bytes for one envelope (or batch list)."""
    return canonical_bytes(obj)


@functools.lru_cache(maxsize=None)
def _member(key: str) -> bytes:
    return encode_payload(key) + b":"


def splice(obj: Dict[str, Any], key: str, data: bytes) -> bytes:
    """``encode_payload({**obj, key: value})``, where ``data`` is ``value``'s
    canonical bytes: ``value`` is not encoded again.  ``obj`` has str keys
    and no ``key``.

    When ``key`` sorts after every key of ``obj`` (a request's ``params``, a
    response's ``result``, a ``site.query``'s ``vector``), that is ``obj``'s
    bytes with ``,"key":<data>`` before the closing brace; otherwise the keys
    before and after it are encoded apart.
    """
    if not obj or max(obj) < key:
        head = encode_payload(obj)
        return b"".join((head[:-1], b"," if obj else b"", _member(key), data, b"}"))
    before = {name: value for name, value in obj.items() if name < key}
    after = encode_payload({name: value for name, value in obj.items() if name > key})
    head = encode_payload(before)[:-1] + b"," if before else b"{"
    return b"".join((head, _member(key), data, b",", after[1:]))


def request_payload(
    method: str,
    params: EncodedParams = None,
    request_id: Any = NO_ID,
    meta: Optional[Dict[str, Any]] = None,
) -> bytes:
    """``encode_payload(Request(method, params, request_id, meta).to_wire())``,
    with ``params`` encoded on their own (or given as their canonical bytes)
    and spliced in: they sort last of a request's keys (``id`` < ``jsonrpc``
    < ``meta`` < ``method`` < ``params``).
    """
    envelope = Request(method=method, request_id=request_id, meta=meta).to_wire()
    if params is None:
        return encode_payload(envelope)
    if not isinstance(params, bytes):
        params = encode_payload(params)
    return splice(envelope, "params", params)


def requests_payload(requests: Sequence[Outgoing], ids: Iterable[Any]) -> bytes:
    """One frame's payload of ``requests``, numbered ``ids``: a lone request
    bare, several as a JSON-RPC batch."""
    payloads = [
        request_payload(method, params, request_id, meta)
        for (method, params, meta), request_id in zip(requests, ids)
    ]
    return payloads[0] if len(payloads) == 1 else b"[" + b",".join(payloads) + b"]"


def response_payload(response: "Response") -> bytes:
    """``encode_payload(response.to_wire())``, with a result that is
    :class:`Encoded` spliced in from its bytes: ``result`` sorts last of a
    response's keys (``error`` / ``id`` < ``jsonrpc`` < ``meta`` < ``result``)."""
    wire = response.to_wire()
    if response.error is None and isinstance(response.result, Encoded):
        return splice(wire, "result", wire.pop("result").data)
    return encode_payload(wire)


def notification_frame(method: str, params: EncodedParams = None) -> bytes:
    """The payload bytes of one notification (no id, so no reply)."""
    return request_payload(method, params)


def decode_payload(data: bytes) -> Any:
    """Parse raw frame bytes; malformed JSON becomes a typed parse error."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ParseError(f"malformed JSON payload: {exc}") from exc


def _validate_id(value: Any) -> Any:
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InvalidRequestError("id must be a string, integer, or null")


def parse_request(obj: Any) -> Request:
    """Validate one request object (spec §4); raises typed errors."""
    if not isinstance(obj, dict):
        raise InvalidRequestError("request must be an object")
    if obj.get("jsonrpc") != JSONRPC_VERSION:
        raise InvalidRequestError("jsonrpc member must be '2.0'")
    method = obj.get("method")
    if not isinstance(method, str) or not method:
        raise InvalidRequestError("method must be a non-empty string")
    params = obj.get("params")
    if params is not None and not isinstance(params, (dict, list)):
        raise InvalidRequestError("params must be an object or array")
    meta = obj.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise InvalidRequestError("meta must be an object")
    request_id = _validate_id(obj["id"]) if "id" in obj else NO_ID
    return Request(method=method, params=params, request_id=request_id, meta=meta)


def parse_response(obj: Any) -> Response:
    """Validate one response object; the error member becomes a typed error."""
    if not isinstance(obj, dict):
        raise InvalidRequestError("response must be an object")
    if obj.get("jsonrpc") != JSONRPC_VERSION:
        raise InvalidRequestError("response jsonrpc member must be '2.0'")
    if "id" not in obj:
        raise InvalidRequestError("response is missing id")
    meta = obj.get("meta") or {}
    if "error" in obj:
        error_obj = obj["error"]
        if not isinstance(error_obj, dict) or "code" not in error_obj:
            raise InvalidRequestError("error member must carry a code")
        return Response(
            request_id=obj["id"], error=error_from_wire(error_obj), meta=meta
        )
    if "result" not in obj:
        raise InvalidRequestError("response carries neither result nor error")
    return Response(request_id=obj["id"], result=obj["result"], meta=meta)


def parse_batch(payload: Any) -> Tuple[List[Any], bool]:
    """Split a decoded payload into request objects plus a was-batch flag.

    An empty batch is a spec violation; the caller answers it with a single
    INVALID_REQUEST response.
    """
    if isinstance(payload, list):
        if not payload:
            raise InvalidRequestError("batch must not be empty")
        return list(payload), True
    return [payload], False


def error_response(request_id: RequestId, error: RpcError) -> Response:
    return Response(request_id=request_id, error=error)
