"""Signed blockchain transactions.

Every ledger mutation in the medical blockchain — money transfer, contract
deployment, contract call, data-set registration, access grant — travels as
a :class:`Transaction`.  The transaction hash covers every field except the
signature, and the signature covers the hash.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.common.errors import CryptoError, ValidationError
from repro.common.hashing import hash_value
from repro.common.signatures import KeyPair, PublicKey, Signature

# Transaction kinds understood by the executor.
TX_TRANSFER = "transfer"
TX_DEPLOY = "deploy"
TX_CALL = "call"
VALID_TX_KINDS = frozenset({TX_TRANSFER, TX_DEPLOY, TX_CALL})

DEFAULT_GAS_LIMIT = 2_000_000


class VerifiedSignatures:
    """Bounded set of ``signing_digest + signature`` strings that verified.

    The wire hands a validator a fresh :class:`Transaction` for the same
    bytes several times (submission or gossip body, then the block body), and
    EC verification is the dearest step of admission.  The digest covers
    ``sender``, ``public_key`` and ``payload``, so digest and signature
    together fix every input of the check: an entry can only ever answer for
    a transaction that would verify again.  Only successes are remembered (a
    forgery costs its sender a full verification every time), the oldest
    entry is evicted first, and a miss merely verifies again.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._keys: "OrderedDict[bytes, None]" = OrderedDict()  # oldest first

    def __contains__(self, key: bytes) -> bool:
        with self._lock:
            return key in self._keys

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def add(self, key: bytes) -> None:
        with self._lock:
            self._keys[key] = None
            if len(self._keys) > self.capacity:
                self._keys.popitem(last=False)


# One per process, shared by every node and RPC handler thread in it.  2048
# entries (~0.4 MB full) span ten full blocks between a transaction's
# admission and the arrival of the block that carries it.
_VERIFIED = VerifiedSignatures(2048)


def _encodes_as_utf8(value: Any) -> bool:
    """Whether every string in ``value`` — keys included, at any depth —
    encodes as UTF-8.  A lone surrogate survives JSON and the signing digest
    (whose canonical form is ASCII-escaped) but not ``str.encode``, which
    the state trie applies to keys and the contract compiler to source."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return True
    if isinstance(value, dict):
        return all(
            _encodes_as_utf8(key) and _encodes_as_utf8(item)
            for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return all(map(_encodes_as_utf8, value))
    return True


@dataclass(frozen=True)
class Transaction:
    """An immutable signed transaction.

    ``payload`` must be canonical-JSON serializable without floats; its shape
    depends on ``kind``:

    - ``transfer``: ``{"to": address, "amount": int}``
    - ``deploy``:   ``{"contract": name, "source": str, "init": {...}}``
    - ``call``:     ``{"contract": contract_id, "method": str, "args": {...}}``
    """

    sender: str
    nonce: int
    kind: str
    payload: Dict[str, Any]
    gas_limit: int = DEFAULT_GAS_LIMIT
    # Fee-market bid (per gas unit): ``max_fee_per_gas`` is the absolute
    # ceiling the sender will pay, ``priority_fee_per_gas`` the tip offered
    # to the proposer on top of the pool's base fee.  Both are admission /
    # ordering signals for the mempool fee market; execution semantics are
    # fee-independent (see DESIGN.md §12).
    max_fee_per_gas: int = 0
    priority_fee_per_gas: int = 0
    timestamp_ms: int = 0
    public_key: bytes = b""
    signature: bytes = b""

    def signing_digest(self) -> bytes:
        """Hash over every field except the signature (memoized)."""
        cached = self.__dict__.get("_digest_memo")
        if cached is not None:
            return cached
        digest = hash_value(
            {
                "sender": self.sender,
                "nonce": self.nonce,
                "kind": self.kind,
                "payload": self.payload,
                "gas_limit": self.gas_limit,
                "max_fee_per_gas": self.max_fee_per_gas,
                "priority_fee_per_gas": self.priority_fee_per_gas,
                "timestamp_ms": self.timestamp_ms,
                "public_key": self.public_key,
            },
            allow_float=False,
        )
        object.__setattr__(self, "_digest_memo", digest)
        return digest

    def effective_fee_per_gas(self, base_fee: int = 0) -> int:
        """The per-gas price this bid realizes against ``base_fee``.

        Mirrors EIP-1559: the sender pays at most ``max_fee_per_gas``; of
        that, the proposer tip is ``priority_fee_per_gas`` capped by
        whatever headroom remains above the base fee.
        """
        return min(self.max_fee_per_gas, base_fee + self.priority_fee_per_gas)

    def effective_priority_fee(self, base_fee: int = 0) -> int:
        """Proposer tip realized against ``base_fee`` (never negative)."""
        return max(0, self.effective_fee_per_gas(base_fee) - base_fee)

    @property
    def tx_id(self) -> str:
        return self.signing_digest().hex()

    def signed_by(self, keypair: KeyPair) -> "Transaction":
        """Return a copy carrying the signer's public key and signature."""
        unsigned = replace(self, public_key=keypair.public.data, signature=b"")
        signature = keypair.sign(unsigned.signing_digest())
        return replace(unsigned, signature=signature.to_bytes())

    def verify_signature(self) -> bool:
        """True when signature is valid and matches the sender address (and
        the signed payload is text a validator can store, see ``validate``).

        Answered from the process-wide :class:`VerifiedSignatures` when these
        exact bytes verified before, whichever instance carried them.
        """
        return not self._first_contact_error()

    def _first_contact_error(self) -> str:
        """Why these bytes fail the checks made once per process, or ``""``."""
        key = self.signing_digest() + self.signature
        if key in _VERIFIED:
            return ""
        if not _encodes_as_utf8(self.payload):
            return "payload holds a string that does not encode as UTF-8"
        if not self._verify_signature_uncached():
            return f"bad signature on tx from {self.sender}"
        _VERIFIED.add(key)
        return ""

    def _verify_signature_uncached(self) -> bool:
        if not self.public_key or not self.signature:
            return False
        try:
            public = PublicKey(self.public_key)
            signature = Signature.from_bytes(self.signature)
        except CryptoError:
            return False
        if public.address() != self.sender:
            return False
        return public.verify(self.signing_digest(), signature)

    def validate(self) -> None:
        """Structural validation; raises :class:`ValidationError`.

        The signature and the payload's strings (all must encode as UTF-8,
        or ``state_root()`` and the contract compiler would raise in every
        validator after admission) are checked once per process per tx.
        """
        if self.kind not in VALID_TX_KINDS:
            raise ValidationError(f"unknown tx kind {self.kind!r}")
        if self.nonce < 0:
            raise ValidationError("nonce must be non-negative")
        if self.gas_limit <= 0:
            raise ValidationError("gas limit must be positive")
        if self.max_fee_per_gas < 0 or self.priority_fee_per_gas < 0:
            raise ValidationError("fee bids must be non-negative")
        if self.priority_fee_per_gas > self.max_fee_per_gas:
            raise ValidationError(
                "priority fee exceeds max fee "
                f"({self.priority_fee_per_gas} > {self.max_fee_per_gas})"
            )
        if not isinstance(self.payload, dict):
            raise ValidationError("payload must be a dict")
        error = self._first_contact_error()
        if error:
            raise ValidationError(error)

    def estimated_size_bytes(self) -> int:
        """Wire-size estimate used by the network simulator (memoized)."""
        cached = self.__dict__.get("_size_memo")
        if cached is not None:
            return cached
        from repro.common.serialize import canonical_bytes

        size = len(canonical_bytes(self, allow_float=False)) + 64
        object.__setattr__(self, "_size_memo", size)
        return size


def make_transfer(
    keypair: KeyPair,
    to: str,
    amount: int,
    nonce: int,
    timestamp_ms: int = 0,
    max_fee_per_gas: int = 0,
    priority_fee_per_gas: int = 0,
) -> Transaction:
    """Build and sign a value-transfer transaction."""
    tx = Transaction(
        sender=keypair.address,
        nonce=nonce,
        kind=TX_TRANSFER,
        payload={"to": to, "amount": amount},
        max_fee_per_gas=max_fee_per_gas,
        priority_fee_per_gas=priority_fee_per_gas,
        timestamp_ms=timestamp_ms,
    )
    return tx.signed_by(keypair)


def make_deploy(
    keypair: KeyPair,
    contract_name: str,
    source: str,
    init: Optional[Dict[str, Any]] = None,
    nonce: int = 0,
    gas_limit: int = DEFAULT_GAS_LIMIT,
    timestamp_ms: int = 0,
    max_fee_per_gas: int = 0,
    priority_fee_per_gas: int = 0,
) -> Transaction:
    """Build and sign a contract-deployment transaction."""
    tx = Transaction(
        sender=keypair.address,
        nonce=nonce,
        kind=TX_DEPLOY,
        payload={"contract": contract_name, "source": source, "init": init or {}},
        gas_limit=gas_limit,
        max_fee_per_gas=max_fee_per_gas,
        priority_fee_per_gas=priority_fee_per_gas,
        timestamp_ms=timestamp_ms,
    )
    return tx.signed_by(keypair)


def make_call(
    keypair: KeyPair,
    contract_id: str,
    method: str,
    args: Optional[Dict[str, Any]] = None,
    nonce: int = 0,
    gas_limit: int = DEFAULT_GAS_LIMIT,
    timestamp_ms: int = 0,
    max_fee_per_gas: int = 0,
    priority_fee_per_gas: int = 0,
) -> Transaction:
    """Build and sign a contract-call transaction."""
    tx = Transaction(
        sender=keypair.address,
        nonce=nonce,
        kind=TX_CALL,
        payload={"contract": contract_id, "method": method, "args": args or {}},
        gas_limit=gas_limit,
        max_fee_per_gas=max_fee_per_gas,
        priority_fee_per_gas=priority_fee_per_gas,
        timestamp_ms=timestamp_ms,
    )
    return tx.signed_by(keypair)
