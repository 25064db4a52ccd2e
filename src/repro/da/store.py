"""Per-site share storage with verify-on-ingest.

A :class:`ChunkStore` is the site-local half of the DA subsystem: it holds
the share chunks dispersed to this site, keyed by ``(blob_id, leaf_index)``,
each alongside the Merkle proof the disperser shipped with it.  Ingest is
*verifying*: a chunk whose digest or proof does not reach the blob's
committed root is rejected, so a site never serves bytes it could not later
prove.  Audits (``da.sample``) answer straight from the store — chunk plus
stored proof — and the auditor re-verifies both against the on-chain root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import DataAvailabilityError, IntegrityError
from repro.common.hashing import sha256
from repro.common.merkle import MerkleProof
from repro.sim.metrics import current_metrics


@dataclass
class StoredChunk:
    """One share chunk held at a site."""

    blob_id: str
    index: int
    data: bytes = field(repr=False)
    proof: MerkleProof = field(repr=False)


@dataclass
class BlobHolding:
    """What one site knows about one blob."""

    blob_id: str
    root_hex: str
    chunks: Dict[int, StoredChunk] = field(default_factory=dict)


class ChunkStore:
    """Site-local storage of erasure-coded share chunks."""

    def __init__(self, site: str):
        self.site = site
        self._blobs: Dict[str, BlobHolding] = {}

    # -- ingest ------------------------------------------------------------
    def put_chunk(
        self,
        blob_id: str,
        root_hex: str,
        index: int,
        data: bytes,
        proof: MerkleProof,
    ) -> bool:
        """Store one chunk after verifying it against the blob's root.

        Returns ``True`` when the chunk was newly stored, ``False`` when an
        identical chunk was already held (idempotent re-puts).
        """
        if proof.index != index:
            raise IntegrityError(
                f"proof is for leaf {proof.index}, chunk claims {index}"
            )
        if proof.leaf != sha256(data):
            raise IntegrityError(f"chunk {index} does not hash to its proof leaf")
        if proof.root().hex() != root_hex:
            raise IntegrityError(
                f"chunk {index} proof does not reach root {root_hex[:12]}"
            )
        holding = self._blobs.get(blob_id)
        if holding is None:
            holding = self._blobs[blob_id] = BlobHolding(
                blob_id=blob_id, root_hex=root_hex
            )
        elif holding.root_hex != root_hex:
            raise IntegrityError(
                f"blob {blob_id[:12]} already held under a different root"
            )
        if index in holding.chunks:
            return False
        holding.chunks[index] = StoredChunk(
            blob_id=blob_id, index=index, data=data, proof=proof
        )
        metrics = current_metrics()
        metrics.add("da_chunks_stored", scope=self.site)
        metrics.add_bytes(len(data), scope=f"da.store.{self.site}")
        return True

    # -- reads -------------------------------------------------------------
    def get_chunk(self, blob_id: str, index: int) -> StoredChunk:
        chunk = self._holding(blob_id).chunks.get(index)
        if chunk is None:
            raise DataAvailabilityError(
                f"site {self.site}: chunk {index} of blob {blob_id[:12]} not held"
            )
        return chunk

    def sample(
        self, blob_id: str, indices: Iterable[int]
    ) -> List[Optional[StoredChunk]]:
        """Audit read: the held chunk for each index, ``None`` where missing.

        Missing entries are reported rather than raised so one audit call
        covers every sampled index — the auditor decides what a miss means.
        """
        holding = self._blobs.get(blob_id)
        return [
            holding.chunks.get(index) if holding is not None else None
            for index in indices
        ]

    def indices(self, blob_id: str) -> List[int]:
        holding = self._blobs.get(blob_id)
        return sorted(holding.chunks) if holding is not None else []

    def blob_ids(self) -> List[str]:
        return sorted(self._blobs)

    def root_of(self, blob_id: str) -> str:
        return self._holding(blob_id).root_hex

    # -- fault injection / maintenance ------------------------------------
    def drop_chunks(self, blob_id: str, indices: Iterable[int]) -> int:
        """Delete held chunks (site failure / withholding simulation)."""
        holding = self._blobs.get(blob_id)
        if holding is None:
            return 0
        dropped = 0
        for index in indices:
            if holding.chunks.pop(index, None) is not None:
                dropped += 1
        return dropped

    def drop_blob(self, blob_id: str) -> int:
        holding = self._blobs.pop(blob_id, None)
        return len(holding.chunks) if holding is not None else 0

    def stats(self) -> Dict[str, Any]:
        chunk_count = sum(len(h.chunks) for h in self._blobs.values())
        return {
            "site": self.site,
            "blobs": len(self._blobs),
            "chunks": chunk_count,
            "bytes": sum(
                len(c.data) for h in self._blobs.values() for c in h.chunks.values()
            ),
        }

    def _holding(self, blob_id: str) -> BlobHolding:
        holding = self._blobs.get(blob_id)
        if holding is None:
            raise DataAvailabilityError(
                f"site {self.site} holds no chunks of blob {blob_id[:12]}"
            )
        return holding


def stored_chunk_wire(chunk: StoredChunk) -> Tuple[str, Dict[str, Any]]:
    """(hex data, proof wire) pair for shipping a stored chunk over RPC."""
    from repro.da.manifest import proof_to_wire

    return chunk.data.hex(), proof_to_wire(chunk.proof)
