"""Wire encoding for p2p payloads: transactions, headers, blocks.

Both transports carry the same plain-JSON dict shapes (bytes hex-encoded
with a ``"0x"`` prefix, the repo's canonical convention), so gossip and
sync logic is transport-uniform and a round-tripped block re-hashes to the
same block id — decode failures and id mismatches raise
:class:`ValidationError` and the sender is simply ignored.  Gossip ships a
block *compact* (header plus tx ids): the receiver rebuilds it from its own
pool.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.chain.blocks import Block, BlockHeader
from repro.chain.transactions import Transaction
from repro.common.errors import SerializationError, ValidationError
from repro.common.serialize import canonical_bytes, decode_hex_fields, to_jsonable


def _bytes_field(value: Any, name: str) -> bytes:
    if isinstance(value, str):
        try:
            return bytes.fromhex(value[2:] if value.startswith("0x") else value)
        except ValueError as exc:
            raise ValidationError(f"bad hex in {name}") from exc
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    raise ValidationError(f"{name} must be a hex string")


def tx_to_wire(tx: Transaction) -> Dict[str, Any]:
    return to_jsonable(tx)


def tx_from_wire(wire: Any) -> Transaction:
    """The transaction ``wire`` carries, its signing digest already taken.

    JSON admits what no transaction holds (``Infinity`` for a nonce, a float
    in the payload); every such body raises :class:`ValidationError` here,
    so ``tx_id`` cannot fail on a decoded transaction.
    """
    if not isinstance(wire, dict):
        raise ValidationError("wire transaction must be an object")
    try:
        tx = Transaction(
            sender=wire["sender"],
            nonce=int(wire["nonce"]),
            kind=wire["kind"],
            payload=dict(wire["payload"]),
            gas_limit=int(wire["gas_limit"]),
            max_fee_per_gas=int(wire.get("max_fee_per_gas", 0)),
            priority_fee_per_gas=int(wire.get("priority_fee_per_gas", 0)),
            timestamp_ms=int(wire["timestamp_ms"]),
            public_key=_bytes_field(wire["public_key"], "public_key"),
            signature=_bytes_field(wire["signature"], "signature"),
        )
        tx.signing_digest()
    except (KeyError, TypeError, ValueError, OverflowError, SerializationError) as exc:
        raise ValidationError(f"malformed wire transaction: {exc}") from exc
    return tx


def header_to_wire(header: BlockHeader, block_id: Optional[str] = None) -> Dict[str, Any]:
    wire = to_jsonable(header)
    if block_id is not None:
        wire["block_id"] = block_id
    return wire


def header_from_wire(wire: Any) -> BlockHeader:
    if not isinstance(wire, dict):
        raise ValidationError("wire header must be an object")
    try:
        # Consensus proofs carry raw signatures; every other value in the
        # proof dict is a short string/int/bool, so blanket hex-decoding
        # is safe here (addresses in this repo are bare hex, no prefix).
        consensus = decode_hex_fields(dict(wire.get("consensus") or {}))
        return BlockHeader(
            parent_hash=_bytes_field(wire["parent_hash"], "parent_hash"),
            height=int(wire["height"]),
            tx_root=_bytes_field(wire["tx_root"], "tx_root"),
            state_root=_bytes_field(wire["state_root"], "state_root"),
            timestamp_ms=int(wire["timestamp_ms"]),
            proposer=wire["proposer"],
            consensus=consensus,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed wire header: {exc}") from exc


def block_to_wire(block: Block) -> Dict[str, Any]:
    return {
        "header": header_to_wire(block.header),
        "transactions": [tx_to_wire(tx) for tx in block.transactions],
        "block_id": block.block_id,
    }


def block_from_wire(wire: Any) -> Block:
    if not isinstance(wire, dict):
        raise ValidationError("wire block must be an object")
    try:
        transactions = [tx_from_wire(tx) for tx in wire.get("transactions") or []]
    except TypeError as exc:
        raise ValidationError(f"malformed wire block: {exc}") from exc
    block = Block(header=header_from_wire(wire.get("header")), transactions=transactions)
    claimed = wire.get("block_id")
    if claimed is not None and block.block_id != claimed:
        raise ValidationError(
            f"wire block id mismatch: claimed {str(claimed)[:12]}, "
            f"decoded {block.block_id[:12]}"
        )
    return block


def compact_block_to_wire(block: Block) -> Dict[str, Any]:
    """A block as its header and tx ids, for a receiver that pools the txs."""
    return {
        "header": header_to_wire(block.header),
        "tx_ids": [tx.tx_id for tx in block.transactions],
    }


def compact_block_from_wire(wire: Any, block_id: str) -> Tuple[BlockHeader, List[str]]:
    """The header and tx ids of compact block ``block_id``.

    The header must hash to ``block_id``.  The txs' root is checked by block
    validation, as for a full body: a tx id is its signing digest, the tx
    root's leaf, so a block rebuilt from the pool by id is the block sent.
    """
    tx_ids = wire.get("tx_ids") if isinstance(wire, dict) else None
    if not isinstance(tx_ids, list) or not all(isinstance(tx_id, str) for tx_id in tx_ids):
        raise ValidationError("wire compact block must carry a list of tx ids")
    header = header_from_wire(wire.get("header"))
    if header.block_hash().hex() != block_id:
        raise ValidationError(f"compact block is not {block_id[:12]}")
    return header, tx_ids


def payload_size(payload: Any) -> int:
    """Wire-size estimate for the sim network's bandwidth accounting."""
    try:
        return len(canonical_bytes(payload)) + 32
    except Exception:
        return 256
