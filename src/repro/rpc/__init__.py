"""repro.rpc — wire-level JSON-RPC serving for sites, oracle, and gateway.

The subsystem that turns the in-process platform into a deployable service
topology: length-prefixed framed TCP transport, a JSON-RPC 2.0 codec on
canonical serialization, an asyncio server with bounded concurrency and
explicit backpressure, a pipelined client with pooling and idempotent
retries, and a query gateway whose ``inproc`` and ``tcp`` transports
produce byte-identical composed results.
"""

import importlib

from repro.rpc.client import ConnectionPool, RetryPolicy, RpcClient, adopt_remote_spans
from repro.rpc.codec import NO_ID, Request, Response
from repro.rpc.errors import (
    FrameTooLargeError,
    InternalRpcError,
    InvalidParamsError,
    InvalidRequestError,
    MethodNotFoundError,
    OverloadedError,
    ParseError,
    RpcError,
    RpcTimeoutError,
    ServerRpcError,
    ShuttingDownError,
    error_from_wire,
    to_rpc_error,
)
from repro.rpc.framing import DEFAULT_MAX_FRAME_BYTES, FrameDecoder, encode_frame
from repro.rpc.runtime import EventLoopThread
from repro.rpc.server import MethodRegistry, MethodSpec, RpcServer

# The gateway and the site method surface are exported lazily (PEP 562):
# they import the data plane (datamgmt, query, analytics, numpy), which a
# validator process — repro.p2p.host uses only the server above — must not
# pay for.
_LAZY_EXPORTS = {
    "Gateway": "repro.rpc.gateway",
    "GatewayAnswer": "repro.rpc.gateway",
    "InprocGateway": "repro.rpc.gateway",
    "TcpGateway": "repro.rpc.gateway",
    "build_site_registry": "repro.rpc.methods",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "ConnectionPool",
    "RetryPolicy",
    "RpcClient",
    "adopt_remote_spans",
    "NO_ID",
    "Request",
    "Response",
    "FrameTooLargeError",
    "InternalRpcError",
    "InvalidParamsError",
    "InvalidRequestError",
    "MethodNotFoundError",
    "OverloadedError",
    "ParseError",
    "RpcError",
    "RpcTimeoutError",
    "ServerRpcError",
    "ShuttingDownError",
    "error_from_wire",
    "to_rpc_error",
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameDecoder",
    "encode_frame",
    "Gateway",
    "GatewayAnswer",
    "InprocGateway",
    "TcpGateway",
    "build_site_registry",
    "EventLoopThread",
    "MethodRegistry",
    "MethodSpec",
    "RpcServer",
]
