"""Columnar view of canonical records: what a site tool scans.

A :class:`Table` is a list of canonical records plus, per path asked for
that some record holds, a :class:`Column` projected once and kept: the
path's values in record order and what the tools need to know about each
(present or not, its kind, its float64 value if it is a plain number,
``bool(value)``, a code if it is a string).  The tools in
:mod:`repro.analytics.tools` evaluate filters and aggregates as array
operations over these columns; a record the arrays cannot decide (a
missing path, a value of the wrong type) is handed back to the tool's
per-record step, which raises what the record loop always raised.

:class:`repro.datamgmt.store.HospitalDataStore` keeps one table per
dataset content and drops it, columns included, with the canonical view.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

Path = Tuple[Any, ...]

#: ``Column.kinds`` values (``_INT`` only while a column is projected).
ABSENT, NUMBER, DICT, LIST, OTHER, _INT = range(6)

#: A float64 holds every int below this magnitude, and ``2018 - value`` of
#: one, exactly: so ``NUMBER`` values compare in float64 as in Python.
_EXACT_INT = 2**52

_TYPE_KINDS = {float: NUMBER, int: _INT, bool: _INT, dict: DICT, list: LIST}


def split_path(path: str) -> Path:
    """A dotted path (``vitals.sbp``) as the keys it walks."""
    return tuple(path.split("."))


def kind_of(value: Any) -> int:
    """The :data:`kind <ABSENT>` of a present value."""
    kind = _TYPE_KINDS.get(type(value), OTHER)
    if kind == _INT:
        return NUMBER if -_EXACT_INT < value < _EXACT_INT else OTHER
    return kind


def _walk(records: List[Dict[str, Any]], path: Path) -> Tuple[Sequence, List[Any]]:
    """The indices of the records that hold ``path``, and its values there."""
    got: List[Any] = records
    for key in path:  # every record a plain dict that has the key: one map a step
        if not set(map(type, got)) <= {dict}:
            break
        try:
            got = list(map(itemgetter(key), got))
        except KeyError:
            break
    else:
        return range(len(records)), got
    found: List[int] = []
    got = []
    for index, value in enumerate(records):
        for key in path:
            if not isinstance(value, dict) or key not in value:
                break
            value = value[key]
        else:
            found.append(index)
            got.append(value)
    return found, got


class Column:
    """One path over a table's records, as parallel arrays in record order.

    ``values`` holds the value (``None`` where absent) and ``kinds`` its
    :data:`kind <ABSENT>`; ``floats`` is ``float(value)`` where the kind is
    ``NUMBER`` (and means nothing elsewhere), and ``truthy`` is
    ``bool(value)`` (``False`` where absent).  ``present`` is where
    :func:`repro.datamgmt.virtual.field_getter` would return instead of
    raising, and ``numeric`` where the kind is ``NUMBER``.  If some value is
    a ``str``, ``codes`` numbers each distinct string from 0 in order of
    first appearance (-1 where the value is not a ``str``) and ``code_of``
    maps a string to its code; otherwise both are ``None``.
    """

    __slots__ = ("values", "kinds", "floats", "truthy", "present", "numeric", "codes", "code_of")

    def __init__(
        self,
        values: np.ndarray,
        kinds: np.ndarray,
        floats: np.ndarray,
        truthy: np.ndarray,
        codes: Optional[np.ndarray] = None,
        code_of: Optional[Dict[str, int]] = None,
    ) -> None:
        self.values = values
        self.kinds = kinds
        self.floats = floats
        self.truthy = truthy
        self.present = kinds != ABSENT
        self.numeric = kinds == NUMBER
        self.codes = codes
        self.code_of = code_of

    @classmethod
    def project(cls, records: List[Dict[str, Any]], path: Path) -> "Column":
        """Walk ``path`` in every record, with ``field_getter``'s rule: each
        step needs a dict that has the key."""
        found, got = _walk(records, path)
        size, count = len(records), len(got)
        values = np.empty(size, dtype=object)
        kinds = np.zeros(size, dtype=np.int8)
        floats = np.zeros(size)
        truthy = np.zeros(size, dtype=bool)
        codes = code_of = None
        if count:
            at = np.arange(size) if count == size else np.asarray(found, dtype=np.intp)
            values[at] = np.fromiter(got, dtype=object, count=count)
            truthy[at] = np.fromiter(map(bool, got), dtype=bool, count=count)
            types = list(map(type, got))
            kind = np.fromiter(map(_TYPE_KINDS.get, types, repeat(OTHER)), np.int8, count)
            numeric = (kind == NUMBER) | (kind == _INT)
            try:
                numbers = np.fromiter(values[at[numeric]], dtype=float)
            except OverflowError:  # an int past the float range is OTHER, as kind_of says
                kind = np.fromiter(map(kind_of, got), np.int8, count)
                numeric = kind == NUMBER
                numbers = np.fromiter(values[at[numeric]], dtype=float)
            floats[at[numeric]] = numbers
            # An int whose float is rounded is OTHER too (|float| >= 2**52 iff |int| is).
            kind[(kind == _INT) & (np.abs(floats[at]) >= _EXACT_INT)] = OTHER
            kind[kind == _INT] = NUMBER
            kinds[at] = kind
            if str in types:
                code_of = {}
                codes = np.full(size, -1, dtype=np.int32)
                codes[at] = [
                    code_of.setdefault(value, len(code_of)) if of is str else -1
                    for value, of in zip(got, types)
                ]
        return cls(values, kinds, floats, truthy, codes, code_of)


class Table(Sequence):
    """Canonical records in a fixed order, with columns projected on first use.

    It is a read-only sequence of the records, so a tool that loops over
    records works on it unchanged.  A column is kept only if some record
    holds its path, so the paths a client names cannot grow the table past
    the records' own; ``on_projection(path)`` is told of every column kept
    (a store counts them).
    """

    def __init__(
        self,
        records: List[Dict[str, Any]],
        on_projection: Optional[Callable[[Path], None]] = None,
    ) -> None:
        self.records = records
        self._on_projection = on_projection
        self._columns: Dict[Path, Column] = {}
        self._lock = threading.Lock()

    def column(self, path: Path) -> Column:
        with self._lock:
            column = self._columns.get(path)
            if column is None:
                column = Column.project(self.records, path)
                if column.present.any():
                    self._columns[path] = column
                    if self._on_projection is not None:
                        self._on_projection(path)
            return column

    def rows(self, mask: np.ndarray) -> List[Dict[str, Any]]:
        """The records where ``mask`` is true, in order."""
        return [self.records[index] for index in np.flatnonzero(mask)]

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: Any) -> Any:
        return self.records[index]

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.records)


def as_table(records: Any) -> Table:
    """``records`` if it is a table already, else a table over a copy of them."""
    return records if isinstance(records, Table) else Table(list(records))
