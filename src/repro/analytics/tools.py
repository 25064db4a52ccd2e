"""Standard analytics tools deployable at every site.

These are the concrete ``ToolSpec`` implementations the control nodes
register (Figure 1's "task code"): each takes local canonical records plus
parameters and returns a small, mergeable result dict — never raw records.
The federated trainer and the query engine both dispatch onto these.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.analytics.clustering import kmeans
from repro.analytics.features import FEATURE_DIM, dataset_for, featurize
from repro.analytics.models import LogisticModel, MLPModel, params_size_bytes
from repro.analytics.stats import describe
from repro.common.errors import OracleError
from repro.datamgmt.columns import (
    LIST,
    NUMBER,
    Column,
    Table,
    as_table,
    kind_of,
    split_path,
)
from repro.datamgmt.virtual import NumericSummary, field_getter
from repro.offchain.tasks import ToolRegistry, ToolSpec

Records = Sequence[Dict[str, Any]]
Check = Callable[[Dict[str, Any]], bool]
Mask = np.ndarray

#: The most bins a histogram may ask for.  Its counts are allocated before
#: any record is read, so an unbounded ``bins`` is a memory request any
#: caller could make; callers ask for 8-50.
MAX_HISTOGRAM_BINS = 100_000


def _compile_filters(filters: Dict[str, Any]) -> List[Check]:
    """One check per filter entry, in the dict's order.

    Simple equality/range filter: ``{"sex": "F", "age_min": 50}``.  These
    checks define what a filter means for one record; :func:`_selected`
    runs them only on the records its column masks cannot decide.
    """
    checks: List[Check] = []
    for key, wanted in filters.items():
        if key == "age_min":
            checks.append(lambda r, w=wanted: not (2018 - r["birth_year"] < w))
        elif key == "age_max":
            checks.append(lambda r, w=wanted: not (2018 - r["birth_year"] > w))
        elif key == "diagnosis":
            checks.append(lambda r, w=wanted: w in r.get("diagnoses", []))
        elif key.startswith("has_outcome_"):
            outcome = key[len("has_outcome_"):]
            checks.append(
                lambda r, o=outcome, w=bool(wanted): (
                    bool(r.get("outcomes", {}).get(o, 0)) == w
                )
            )
        else:
            checks.append(lambda r, f=field_getter(key), w=wanted: not (f(r) != w))
    return checks


def _scalar(value: Any) -> np.ndarray:
    """``value`` as a 0-d object array: compared as one object, never broadcast."""
    boxed = np.empty((), dtype=object)
    boxed[()] = value
    return boxed


def _with_defaults(table: Table, column: Column, decided: Mask, plain: Check) -> Mask:
    """``decided`` plus the records without ``column``'s path on which
    ``plain`` holds: those a ``.get(key, default)`` chain answers with its
    default, not an error.  ``decided`` itself (a column's own mask, which
    no caller writes to) when every record holds the path."""
    if column.present.all():
        return decided
    decided = decided.copy()
    absent = np.flatnonzero(~column.present)
    decided[absent] = [plain(table[index]) for index in absent]
    return decided


def _outcome_flags(table: Table, outcome: Any) -> Tuple[Mask, Mask]:
    """``bool(record.get("outcomes", {}).get(outcome, 0))`` per record, and
    where the column decides it."""
    try:
        hash(outcome)
    except TypeError:  # ``.get`` raises on the record
        return np.zeros(len(table), dtype=bool), np.zeros(len(table), dtype=bool)
    column = table.column(("outcomes", outcome))
    return column.truthy, _with_defaults(
        table,
        column,
        column.present,
        lambda r: isinstance(r, dict) and isinstance(r.get("outcomes", {}), dict),
    )


def _equal(column: Column, wanted: Any) -> Mask:
    """``not (value != wanted)`` at each present record of ``column``.

    Typed first: a plain-number ``wanted`` meets the ``NUMBER`` values in
    float64 (exact, as both are below 2**52 or floats), a ``str`` meets the
    strings by code, and a number never equals a string.  Only the records
    neither rule decides are compared as Python objects.
    """
    if kind_of(wanted) == NUMBER:
        equal = column.numeric & (column.floats == float(wanted))
    elif type(wanted) is str:
        code = column.code_of.get(wanted, -1) if column.code_of is not None else -1
        equal = column.codes == code if code >= 0 else np.zeros(len(column.kinds), dtype=bool)
    else:
        return ~np.not_equal(column.values, _scalar(wanted))
    decided = column.numeric if column.codes is None else column.numeric | (column.codes >= 0)
    rest = column.present & ~decided
    if rest.any():
        equal[rest] = ~np.not_equal(column.values[rest], _scalar(wanted))
    return equal


def _filter_mask(table: Table, key: str, wanted: Any) -> Tuple[Mask, Mask]:
    """One filter over the columns: where it passes, and where that is decided.

    An undecided record is one the record's own check may raise on (a
    missing path, a value of a type the comparison may refuse).
    """
    size = len(table)
    if key in ("age_min", "age_max"):
        if kind_of(wanted) != NUMBER:  # the record's own check decides
            return np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
        birth = table.column(("birth_year",))
        age = 2018 - birth.floats
        passes = ~(age < wanted) if key == "age_min" else ~(age > wanted)
        return passes, birth.numeric
    if key == "diagnosis":
        diagnoses = table.column(("diagnoses",))
        lists = diagnoses.kinds == LIST
        passes = np.zeros(size, dtype=bool)
        passes[lists] = [wanted in value for value in diagnoses.values[lists]]
        return passes, _with_defaults(table, diagnoses, lists, lambda r: isinstance(r, dict))
    if key.startswith("has_outcome_"):
        flags, decided = _outcome_flags(table, key[len("has_outcome_"):])
        return flags == bool(wanted), decided
    column = table.column(split_path(key))
    return _equal(column, wanted), column.present


def _selected(table: Table, params: Dict[str, Any]) -> Mask:
    """Where the records match ``params["filters"]``.

    Record-major, as a loop over records would be: a record the masks leave
    undecided is run through every check in order, and the first such record
    to raise stops the scan with its error.
    """
    filters = params.get("filters") or {}
    if not isinstance(filters, dict):
        raise TypeError(f"filters must be an object, not {type(filters).__name__}")
    if not filters:
        return np.ones(len(table), dtype=bool)
    selected = undecided = None
    for key, wanted in filters.items():
        passes, decided = _filter_mask(table, key, wanted)
        if selected is None:
            selected, undecided = decided & passes, ~decided
        else:
            undecided |= selected & ~decided
            selected &= decided & passes
    if undecided.any():
        checks = _compile_filters(filters)
        for index in np.flatnonzero(undecided):
            record = table[index]
            selected[index] = all(check(record) for check in checks)
    return selected


def _path(params: Dict[str, Any], key: str) -> str:
    """``params[key]`` if it is a dotted path string (not given: ``""``)."""
    path = params.get(key)
    if path is None:
        return ""
    if not isinstance(path, str):
        raise TypeError(f"{key} must be a dotted path string, not {type(path).__name__}")
    return path


def _filtered(records: Records, params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The records matching ``params["filters"]``, in order."""
    table = as_table(records)
    return table.rows(_selected(table, params))


def _floats(
    table: Table, rows: Mask, path: str, field: Callable[[Dict[str, Any]], Any]
) -> np.ndarray:
    """``float(field(record))`` for every record (meaningful in ``rows``).

    A record of ``rows`` whose value is not a plain number runs that step
    itself, in order: the first one it fails on raises the loop's error.
    """
    column = table.column(split_path(path))
    odd = rows & ~column.numeric
    if not odd.any():
        return column.floats
    values = column.floats.copy()
    for index in np.flatnonzero(odd):
        values[index] = float(field(table[index]))
    return values


# ---------------------------------------------------------------------------
# tool implementations
# ---------------------------------------------------------------------------

def tool_count(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Count records matching the filters."""
    return {"count": int(np.count_nonzero(_selected(as_table(records), params)))}


def tool_numeric_summary(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Mergeable numeric summary of one field over matching records."""
    path = _path(params, "field")
    if not path:
        raise OracleError("numeric_summary requires params['field']")
    field = field_getter(path)
    table = as_table(records)
    selected = _selected(table, params)
    values = _floats(table, selected, path, field)[selected]
    return {"field": path, "summary": NumericSummary.of_floats(values).to_dict()}


def tool_prevalence(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Outcome prevalence among matching records (count + positives)."""
    outcome = params.get("outcome")
    if not outcome:
        raise OracleError("prevalence requires params['outcome']")
    table = as_table(records)
    selected = _selected(table, params)
    flags, decided = _outcome_flags(table, outcome)
    positives = int(np.count_nonzero(selected & decided & flags))
    for index in np.flatnonzero(selected & ~decided):
        if table[index].get("outcomes", {}).get(outcome, 0):
            positives += 1
    return {"outcome": outcome, "n": int(np.count_nonzero(selected)), "positives": positives}


def tool_histogram(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Fixed-bin histogram of a numeric field (bins merge across sites)."""
    path = _path(params, "field")
    low = float(params.get("low", 0.0))
    high = float(params.get("high", 1.0))
    bins = int(params.get("bins", 10))
    if not path or bins <= 0 or bins > MAX_HISTOGRAM_BINS or high <= low:
        raise OracleError(
            "histogram requires field, low < high, bins > 0"
            + (f", bins <= {MAX_HISTOGRAM_BINS}" if bins > MAX_HISTOGRAM_BINS else "")
        )
    field = field_getter(path)
    width = (high - low) / bins
    table = as_table(records)
    selected = _selected(table, params)
    column = table.column(split_path(path))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaled = (column.floats - low) / width
        # int() truncates toward zero; clamp before the cast so no value overflows.
        index = np.clip(np.trunc(scaled), 0, bins - 1).astype(np.int64)
    # Not a plain number, or a NaN / infinite bin that int() refuses: the
    # record runs the loop's step itself, in order.
    odd = selected & ~(column.numeric & np.isfinite(scaled))
    for row in np.flatnonzero(odd):
        index[row] = min(max(int((float(field(table[row])) - low) / width), 0), bins - 1)
    counts = np.bincount(index[selected], minlength=bins).tolist()
    return {"field": path, "low": low, "high": high, "counts": counts}


def tool_describe(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Full descriptive statistics of one field."""
    path = _path(params, "field")
    if not path:
        raise OracleError("describe requires params['field']")
    field = field_getter(path)
    table = as_table(records)
    selected = _selected(table, params)
    column = table.column(split_path(path))
    for row in np.flatnonzero(selected & ~column.present)[:1]:
        field(table[row])  # raises the loop's error for the first missing value
    return {"field": path, "stats": describe(list(column.values[selected]))}


def tool_local_train(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """One federated round of local training from given global params.

    ``params``: outcome, model ("logistic"|"mlp"), epochs, lr, batch_size,
    seed, and ``global_params`` as nested float lists (wire format).
    Returns updated params (lists), sample count, and local loss.
    """
    outcome = params.get("outcome", "stroke")
    model_kind = params.get("model", "logistic")
    X, y = dataset_for(_filtered(records, params), outcome)
    if model_kind == "logistic":
        model: Any = LogisticModel(FEATURE_DIM, seed=int(params.get("seed", 0)))
    elif model_kind == "mlp":
        model = MLPModel(
            FEATURE_DIM,
            hidden=int(params.get("hidden", 16)),
            seed=int(params.get("seed", 0)),
        )
    else:
        raise OracleError(f"unknown model kind {model_kind!r}")
    global_params = params.get("global_params")
    if global_params is not None:
        model.set_params([np.asarray(p, dtype=float) for p in global_params])
    loss = model.train_epochs(
        X,
        y,
        epochs=int(params.get("epochs", 1)),
        lr=float(params.get("lr", 0.1)),
        batch_size=int(params.get("batch_size", 32)),
        seed=int(params.get("seed", 0)),
    )
    new_params = model.get_params()
    return {
        "params": [p.tolist() for p in new_params],
        "n": int(len(X)),
        "loss": float(loss),
        "bytes": params_size_bytes(new_params),
        "flops": float(model.flops),
    }


def tool_evaluate_model(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate supplied model parameters on local data (no training)."""
    outcome = params.get("outcome", "stroke")
    model_kind = params.get("model", "logistic")
    X, y = dataset_for(_filtered(records, params), outcome)
    if model_kind == "logistic":
        model: Any = LogisticModel(FEATURE_DIM)
    else:
        model = MLPModel(FEATURE_DIM, hidden=int(params.get("hidden", 16)))
    model.set_params(
        [np.asarray(p, dtype=float) for p in params["global_params"]]
    )
    return {k: float(v) for k, v in model.evaluate(X, y).items()}


def tool_compare_groups(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Mergeable moments for two patient groups (distributed two-sample test).

    ``params``: field (dotted numeric path), group_field (dotted path or a
    top-level key like ``sex``), group_values (exactly two), plus the usual
    filters.  Sites return only the two groups' moment summaries; the
    composer merges them and computes Welch's t — so a cross-site hypothesis
    test runs without any record leaving a site.
    """
    field_path = _path(params, "field")
    group_field = _path(params, "group_field")
    group_values = params.get("group_values") or []
    if not field_path or not group_field or len(group_values) != 2:
        raise OracleError("compare_groups requires field, group_field, 2 group_values")
    field = field_getter(field_path)
    field_getter(group_field)  # a bad group_field raises here, as it always did
    table = as_table(records)
    selected = _selected(table, params)
    group = table.column(split_path(group_field))  # a record without one is skipped
    members = [
        selected & group.present & _equal(group, wanted)
        for wanted in group_values
    ]
    values = _floats(table, members[0] | members[1], field_path, field)
    return {
        "field": field_path,
        "group_field": group_field,
        "group_values": list(group_values),
        "groups": [NumericSummary.of_floats(values[rows]).to_dict() for rows in members],
    }


def tool_cluster(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Local k-means subtyping; returns centroids and sizes only."""
    k = int(params.get("k", 3))
    X = featurize(_filtered(records, params))
    if len(X) < k:
        return {"k": k, "centroids": [], "sizes": [], "inertia": 0.0}
    result = kmeans(X, k, seed=int(params.get("seed", 0)))
    return {
        "k": k,
        "centroids": result.centroids.tolist(),
        "sizes": result.cluster_sizes,
        "inertia": float(result.inertia),
    }


#: Tool ids and their implementations / flop weights.
STANDARD_TOOLS = (
    ToolSpec("count", tool_count, "count matching records", 5.0),
    ToolSpec("numeric_summary", tool_numeric_summary, "mergeable field summary", 20.0),
    ToolSpec("prevalence", tool_prevalence, "outcome prevalence", 10.0),
    ToolSpec("histogram", tool_histogram, "fixed-bin histogram", 15.0),
    ToolSpec("describe", tool_describe, "descriptive statistics", 25.0),
    ToolSpec("local_train", tool_local_train, "one federated training round", 5_000.0),
    ToolSpec("evaluate_model", tool_evaluate_model, "evaluate global model", 500.0),
    ToolSpec("cluster", tool_cluster, "k-means patient subtyping", 2_000.0),
    ToolSpec("compare_groups", tool_compare_groups, "two-group moment summaries", 25.0),
)


def standard_registry() -> ToolRegistry:
    """A fresh registry holding every standard tool."""
    registry = ToolRegistry()
    for spec in STANDARD_TOOLS:
        registry.register(
            ToolSpec(spec.tool_id, spec.fn, spec.description, spec.flops_per_record)
        )
    return registry
