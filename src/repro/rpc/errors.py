"""Typed JSON-RPC 2.0 error objects and the domain-error mapping.

The wire protocol needs errors that (a) carry a stable integer code so
clients can branch without string matching, (b) serialize to the JSON-RPC
``{"code", "message", "data"}`` error object, and (c) reconstruct into the
same typed exception on the client side.  Standard spec codes live in
``-32700..-32600``; this platform's server codes live in the reserved
``-32000..-32099`` band and are stable across releases (append, never
renumber).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

from repro.common.errors import (
    AccessDeniedError,
    ChainError,
    DataAvailabilityError,
    MedchainError,
    OracleError,
    QueryError,
    ValidationError,
)

# -- JSON-RPC 2.0 spec codes -------------------------------------------------
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

# -- platform server codes (-32000..-32099, stable) --------------------------
SERVER_ERROR = -32000
OVERLOADED = -32001        # backpressure: in-flight limit hit, request rejected
TIMEOUT = -32002           # per-method deadline expired server-side
SHUTTING_DOWN = -32003     # server draining; retry against another replica
FRAME_TOO_LARGE = -32004   # request frame exceeded the transport limit
ORACLE_ERROR = -32010
CHAIN_ERROR = -32011
QUERY_ERROR = -32012
ACCESS_DENIED = -32013
INVALID_TX = -32014
TX_UNDERPRICED = -32015   # fee below the mempool's admission floor
RATE_LIMITED = -32016     # sender exceeded its mempool admission budget
STALE_NONCE = -32017      # tx nonce already consumed by committed state
DA_UNAVAILABLE = -32018   # chunk/blob not held or failed availability checks
STALE_CATALOG = -32019    # sub-query planned against a listing the site has since changed


class RpcError(MedchainError):
    """Base wire error: an integer code plus an optional structured payload."""

    code: int = SERVER_ERROR
    default_message: str = "server error"

    def __init__(self, message: str = "", data: Optional[Dict[str, Any]] = None):
        super().__init__(message or self.default_message)
        self.message = message or self.default_message
        self.data = data

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-RPC error object for a response."""
        obj: Dict[str, Any] = {"code": int(self.code), "message": self.message}
        if self.data is not None:
            obj["data"] = self.data
        return obj

    def __repr__(self) -> str:
        return f"{type(self).__name__}(code={self.code}, message={self.message!r})"


class ParseError(RpcError):
    code = PARSE_ERROR
    default_message = "parse error"


class InvalidRequestError(RpcError):
    code = INVALID_REQUEST
    default_message = "invalid request"


class MethodNotFoundError(RpcError):
    code = METHOD_NOT_FOUND
    default_message = "method not found"


class InvalidParamsError(RpcError):
    code = INVALID_PARAMS
    default_message = "invalid params"


class InternalRpcError(RpcError):
    code = INTERNAL_ERROR
    default_message = "internal error"


class ServerRpcError(RpcError):
    code = SERVER_ERROR
    default_message = "server error"


class OverloadedError(RpcError):
    """Explicit backpressure: the server refused to queue the request."""

    code = OVERLOADED
    default_message = "server overloaded; retry with backoff"


class RpcTimeoutError(RpcError):
    code = TIMEOUT
    default_message = "request timed out"


class ShuttingDownError(RpcError):
    code = SHUTTING_DOWN
    default_message = "server shutting down"


class FrameTooLargeError(RpcError):
    code = FRAME_TOO_LARGE
    default_message = "frame exceeds transport limit"


class RemoteOracleError(RpcError):
    code = ORACLE_ERROR
    default_message = "oracle bridge failure"


class RemoteChainError(RpcError):
    code = CHAIN_ERROR
    default_message = "chain lookup failure"


class RemoteQueryError(RpcError):
    code = QUERY_ERROR
    default_message = "query failure"


class RemoteAccessDenied(RpcError):
    code = ACCESS_DENIED
    default_message = "access denied"


class InvalidTxError(RpcError):
    code = INVALID_TX
    default_message = "invalid transaction"


class TxUnderpricedError(RpcError):
    """Fee below the mempool's current admission floor.

    ``data["fee_floor"]`` (when present) is the minimum effective fee per
    gas a resubmission must bid to be considered right now.
    """

    code = TX_UNDERPRICED
    default_message = "transaction underpriced for current fee floor"


class RateLimitedError(RpcError):
    code = RATE_LIMITED
    default_message = "sender rate limited; retry with backoff"


class StaleNonceError(RpcError):
    code = STALE_NONCE
    default_message = "transaction nonce already consumed"


class DaUnavailableError(RpcError):
    code = DA_UNAVAILABLE
    default_message = "chunk or blob unavailable at this site"


class StaleCatalogError(RpcError):
    """``site.query`` named a ``catalog_version`` the site no longer serves.

    ``data`` is the site's current ``site.catalog`` reply, so the caller can
    re-plan and retry without a second round trip.
    """

    code = STALE_CATALOG
    default_message = "catalog version is stale; re-plan against the listing in data"


_CODE_TO_CLASS: Dict[int, Type[RpcError]] = {
    cls.code: cls
    for cls in (
        ParseError,
        InvalidRequestError,
        MethodNotFoundError,
        InvalidParamsError,
        InternalRpcError,
        ServerRpcError,
        OverloadedError,
        RpcTimeoutError,
        ShuttingDownError,
        FrameTooLargeError,
        RemoteOracleError,
        RemoteChainError,
        RemoteQueryError,
        RemoteAccessDenied,
        InvalidTxError,
        TxUnderpricedError,
        RateLimitedError,
        StaleNonceError,
        DaUnavailableError,
        StaleCatalogError,
    )
}


def error_from_wire(obj: Dict[str, Any]) -> RpcError:
    """Reconstruct the typed exception from a JSON-RPC error object."""
    code = int(obj.get("code", SERVER_ERROR))
    cls = _CODE_TO_CLASS.get(code, ServerRpcError)
    error = cls(str(obj.get("message", "")), data=obj.get("data"))
    error.code = code
    return error


def to_rpc_error(exc: BaseException) -> RpcError:
    """Map any handler exception to a typed wire error.

    Domain errors keep their meaning across the wire; anything unexpected
    degrades to ``INTERNAL_ERROR`` carrying only the exception class name
    (no tracebacks leave the process).
    """
    if isinstance(exc, RpcError):
        return exc
    from repro.offchain.oracle import OracleEndpointError

    if isinstance(exc, OracleEndpointError):
        return RemoteOracleError(
            str(exc), data={"endpoint": exc.endpoint, "kind": exc.kind}
        )
    if isinstance(exc, OracleError):
        return RemoteOracleError(str(exc))
    if isinstance(exc, AccessDeniedError):
        return RemoteAccessDenied(str(exc))
    if isinstance(exc, QueryError):
        return RemoteQueryError(str(exc))
    if isinstance(exc, ValidationError):
        return InvalidTxError(str(exc))
    if isinstance(exc, DataAvailabilityError):
        return DaUnavailableError(str(exc))
    if isinstance(exc, ChainError):
        return RemoteChainError(str(exc))
    if isinstance(exc, (KeyError, TypeError, ValueError)):
        return InvalidParamsError(str(exc) or type(exc).__name__)
    if isinstance(exc, MedchainError):
        return ServerRpcError(str(exc))
    return InternalRpcError(
        "unhandled server exception", data={"type": type(exc).__name__}
    )
