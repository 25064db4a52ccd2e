"""Hospital data store: locally hosted, legacy-formatted, anchor-able.

Each hospital keeps its records in its own legacy format (the silo problem,
section III.A).  The store is what a site's control code, exchange and
served methods read — ``get_records`` serves the canonical view of the
legacy rows, so the schema mappers and the canonical validation sit on every
real access path.  The view is parsed and validated once per dataset content
(not once per access), kept as a :class:`~repro.datamgmt.columns.Table` whose
columns the site tools scan, and dropped, columns and all, by every mutation
the store performs.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import DataFormatError, OracleError
from repro.common.hashing import hash_value_hex
from repro.datamgmt.columns import Path, Table
from repro.datamgmt.formats import KNOWN_FORMATS, export_record, parse_record
from repro.offchain.anchoring import DatasetAnchor


def listing_version(listing: Iterable[Tuple[str, int]]) -> str:
    """Short content hash of a site's listing: its (dataset id, record
    count) pairs, in any order."""
    return hash_value_hex(sorted([dataset_id, count] for dataset_id, count in listing))[:16]


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
        self._tables: Dict[str, Table] = {}
        self._catalog_version: Optional[str] = None
        #: Columns projected from a dataset's records and kept, per (dataset
        #: id, path): one per content and path, however many queries read it.
        self.column_projections: Counter = Counter()

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

    # -- record access --------------------------------------------------------
    def has_dataset(self, dataset_id: str) -> bool:
        return dataset_id in self._datasets

    def get_records(self, dataset_id: str) -> List[Dict[str, Any]]:
        """Canonical records: a fresh list over the parsed-once canonical view.

        The list is the caller's to reorder or filter; the records in it are
        shared with every other reader and must not be mutated.
        """
        return list(self._table(dataset_id).records)

    def table(self, dataset_ids: Sequence[str]) -> Table:
        """The datasets' canonical views, in the order given, as one table.

        A table is read-only.  One dataset's table is the cached one: its
        columns are projected on first use and kept until the dataset next
        changes.  Several datasets make a new table, projected per call.
        """
        tables = [self._table(dataset_id) for dataset_id in dataset_ids]
        if len(tables) == 1:
            return tables[0]
        return Table([record for table in tables for record in table.records])

    def _table(self, dataset_id: str) -> Table:
        with self._lock:
            table = self._tables.get(dataset_id)
            if table is None:
                dataset = self._require(dataset_id)
                view = [parse_record(raw, dataset.fmt) for raw in dataset.raw_records]

                def projected(path: Path) -> None:
                    self.column_projections[(dataset_id, path)] += 1

                table = self._tables[dataset_id] = Table(view, projected)
            return table

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
                self._catalog_version = listing_version(
                    (dataset_id, len(dataset.raw_records))
                    for dataset_id, dataset in self._datasets.items()
                )
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
        content (the dataset's canonical view and its columns, the memoised
        listing hash)."""
        with self._lock:
            self._tables.pop(dataset_id, None)
            self._catalog_version = None

    def _require(self, dataset_id: str) -> StoredDataset:
        dataset = self._datasets.get(dataset_id)
        if dataset is None:
            raise OracleError(f"dataset {dataset_id!r} is not hosted at {self.site}")
        return dataset
