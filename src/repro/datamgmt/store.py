"""Hospital data store: locally hosted, legacy-formatted, anchor-able.

Each hospital keeps its records in its own legacy format (the silo problem,
section III.A).  The store exposes the :class:`DatasetHost` duck-type the
control node expects — ``get_records`` serves the canonical view of the
legacy rows, so the schema mappers and the canonical validation sit on every
real access path.  The view is parsed and validated once per dataset content
(not once per access) and dropped by every mutation the store performs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.common.errors import DataFormatError, OracleError
from repro.common.hashing import hash_value_hex
from repro.datamgmt.formats import KNOWN_FORMATS, export_record, parse_record
from repro.offchain.anchoring import DatasetAnchor


@dataclass
class StoredDataset:
    """One dataset held at a site, in its native legacy format."""

    dataset_id: str
    fmt: str
    raw_records: List[Dict[str, Any]]
    owner: str = ""
    schema: str = "patient-canonical-v1"


class HospitalDataStore:
    """Per-site data silo.

    Implements ``has_dataset`` / ``get_records`` so it can be plugged
    directly into :class:`repro.offchain.control.ControlNode`.
    """

    def __init__(self, site: str):
        self.site = site
        self._datasets: Dict[str, StoredDataset] = {}
        # Derived from ``_datasets`` and rebuilt on demand; RPC handlers read
        # the store from worker threads, so both are guarded by ``_lock`` and
        # dropped by ``_changed`` — the one place a mutation reports itself.
        self._lock = threading.Lock()
        self._views: Dict[str, List[Dict[str, Any]]] = {}
        self._catalog_version: Optional[str] = None

    # -- ingestion -----------------------------------------------------------
    def add_canonical(
        self,
        dataset_id: str,
        canonical_records: List[Dict[str, Any]],
        fmt: str = "canonical",
        owner: str = "",
    ) -> StoredDataset:
        """Store canonical records, converting to the site's legacy format."""
        if fmt != "canonical" and fmt not in KNOWN_FORMATS:
            raise DataFormatError(f"unknown format {fmt!r}")
        if dataset_id in self._datasets:
            raise OracleError(f"dataset {dataset_id!r} already exists at {self.site}")
        raw = [export_record(record, fmt) for record in canonical_records]
        dataset = StoredDataset(
            dataset_id=dataset_id, fmt=fmt, raw_records=raw, owner=owner
        )
        self._datasets[dataset_id] = dataset
        self._changed(dataset_id)
        return dataset

    def add_raw(
        self,
        dataset_id: str,
        raw_records: List[Dict[str, Any]],
        fmt: str,
        owner: str = "",
    ) -> StoredDataset:
        """Store already-legacy records (validated by a trial parse)."""
        for raw in raw_records[:3]:
            parse_record(raw, fmt)
        dataset = StoredDataset(
            dataset_id=dataset_id, fmt=fmt, raw_records=list(raw_records), owner=owner
        )
        if dataset_id in self._datasets:
            raise OracleError(f"dataset {dataset_id!r} already exists at {self.site}")
        self._datasets[dataset_id] = dataset
        self._changed(dataset_id)
        return dataset

    # -- DatasetHost interface ------------------------------------------------
    def has_dataset(self, dataset_id: str) -> bool:
        return dataset_id in self._datasets

    def get_records(self, dataset_id: str) -> List[Dict[str, Any]]:
        """Canonical records: a fresh list over the parsed-once canonical view.

        The list is the caller's to reorder or filter; the records in it are
        shared with every other reader and must not be mutated.
        """
        with self._lock:
            view = self._views.get(dataset_id)
            if view is None:
                dataset = self._require(dataset_id)
                view = [parse_record(raw, dataset.fmt) for raw in dataset.raw_records]
                self._views[dataset_id] = view
            return list(view)

    # -- management -----------------------------------------------------------
    def get_raw(self, dataset_id: str) -> List[Dict[str, Any]]:
        return list(self._require(dataset_id).raw_records)

    def dataset_ids(self) -> List[str]:
        return sorted(self._datasets)

    def dataset_format(self, dataset_id: str) -> str:
        return self._require(dataset_id).fmt

    def record_count(self, dataset_id: str) -> int:
        return len(self._require(dataset_id).raw_records)

    def catalog_version(self) -> str:
        """Short content hash of what this store lists (dataset ids and sizes).

        Memoised until the next mutation, so asking costs nothing between
        changes; a mutation that leaves the listing as it was (``tamper``)
        recomputes the same value.
        """
        with self._lock:
            if self._catalog_version is None:
                listing = [
                    [dataset_id, len(dataset.raw_records)]
                    for dataset_id, dataset in sorted(self._datasets.items())
                ]
                self._catalog_version = hash_value_hex(listing)[:16]
            return self._catalog_version

    def anchor(self, dataset_id: str) -> DatasetAnchor:
        """Merkle anchor over the canonical view (what verifiers recompute)."""
        return DatasetAnchor.build(self.get_records(dataset_id))

    def tamper(
        self, dataset_id: str, index: int, key: str, value: Any
    ) -> None:
        """Mutate a stored record in place — used by integrity experiments
        (E7) to inject post-registration falsification."""
        dataset = self._require(dataset_id)
        if not 0 <= index < len(dataset.raw_records):
            raise OracleError(f"record index {index} out of range")
        dataset.raw_records[index][key] = value
        self._changed(dataset_id)

    def _changed(self, dataset_id: str) -> None:
        """Every mutation path ends here: drop what was derived from the old
        content (the dataset's canonical view, the memoised listing hash)."""
        with self._lock:
            self._views.pop(dataset_id, None)
            self._catalog_version = None

    def _require(self, dataset_id: str) -> StoredDataset:
        dataset = self._datasets.get(dataset_id)
        if dataset is None:
            raise OracleError(f"dataset {dataset_id!r} is not hosted at {self.site}")
        return dataset
