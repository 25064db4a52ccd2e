"""Standard analytics tools deployable at every site.

These are the concrete ``ToolSpec`` implementations the control nodes
register (Figure 1's "task code"): each takes local canonical records plus
parameters and returns a small, mergeable result dict — never raw records.
The federated trainer and the query engine both dispatch onto these.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.analytics.clustering import kmeans
from repro.analytics.features import FEATURE_DIM, dataset_for, featurize
from repro.analytics.models import LogisticModel, MLPModel, params_size_bytes
from repro.analytics.stats import describe
from repro.common.errors import OracleError
from repro.datamgmt.virtual import NumericSummary, field_getter
from repro.offchain.tasks import ToolRegistry, ToolSpec

Records = Sequence[Dict[str, Any]]
Check = Callable[[Dict[str, Any]], bool]


def _compile_filters(filters: Dict[str, Any]) -> List[Check]:
    """One check per filter entry, in the dict's order.

    Simple equality/range filter: ``{"sex": "F", "age_min": 50}``.  The key
    kind is decided here, once per call, instead of once per record; each
    check keeps the comparison its key always had, so a record matches (or
    raises) exactly as before.
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


def _filtered(records: Records, params: Dict[str, Any]) -> List[Dict[str, Any]]:
    checks = _compile_filters(params.get("filters") or {})
    matching = []
    for record in records:
        for check in checks:
            if not check(record):
                break
        else:
            matching.append(record)
    return matching


# ---------------------------------------------------------------------------
# tool implementations
# ---------------------------------------------------------------------------

def tool_count(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Count records matching the filters."""
    return {"count": len(_filtered(records, params))}


def tool_numeric_summary(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Mergeable numeric summary of one field over matching records."""
    path = params.get("field")
    if not path:
        raise OracleError("numeric_summary requires params['field']")
    field = field_getter(path)
    summary = NumericSummary()
    for record in _filtered(records, params):
        summary.add(field(record))
    return {"field": path, "summary": summary.to_dict()}


def tool_prevalence(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Outcome prevalence among matching records (count + positives)."""
    outcome = params.get("outcome")
    if not outcome:
        raise OracleError("prevalence requires params['outcome']")
    matching = _filtered(records, params)
    positives = sum(
        1 for record in matching if record.get("outcomes", {}).get(outcome, 0)
    )
    return {"outcome": outcome, "n": len(matching), "positives": positives}


def tool_histogram(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Fixed-bin histogram of a numeric field (bins merge across sites)."""
    path = params.get("field")
    low = float(params.get("low", 0.0))
    high = float(params.get("high", 1.0))
    bins = int(params.get("bins", 10))
    if not path or bins <= 0 or high <= low:
        raise OracleError("histogram requires field, low < high, bins > 0")
    field = field_getter(path)
    counts = [0] * bins
    width = (high - low) / bins
    for record in _filtered(records, params):
        value = float(field(record))
        index = int((value - low) / width)
        counts[min(max(index, 0), bins - 1)] += 1
    return {"field": path, "low": low, "high": high, "counts": counts}


def tool_describe(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Full descriptive statistics of one field."""
    path = params.get("field")
    if not path:
        raise OracleError("describe requires params['field']")
    field = field_getter(path)
    values = [field(record) for record in _filtered(records, params)]
    return {"field": path, "stats": describe(values)}


def tool_local_train(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """One federated round of local training from given global params.

    ``params``: outcome, model ("logistic"|"mlp"), epochs, lr, batch_size,
    seed, and ``global_params`` as nested float lists (wire format).
    Returns updated params (lists), sample count, and local loss.
    """
    outcome = params.get("outcome", "stroke")
    model_kind = params.get("model", "logistic")
    matching = _filtered(records, params)
    X, y = dataset_for(matching, outcome)
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
    matching = _filtered(records, params)
    X, y = dataset_for(matching, outcome)
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
    field_path = params.get("field")
    group_field = params.get("group_field")
    group_values = params.get("group_values") or []
    if not field_path or not group_field or len(group_values) != 2:
        raise OracleError("compare_groups requires field, group_field, 2 group_values")
    field = field_getter(field_path)
    group = field_getter(group_field)
    summaries = [NumericSummary(), NumericSummary()]
    for record in _filtered(records, params):
        try:
            group_value = group(record)
        except Exception:
            continue
        for index, wanted in enumerate(group_values):
            if group_value == wanted:
                summaries[index].add(field(record))
    return {
        "field": field_path,
        "group_field": group_field,
        "group_values": list(group_values),
        "groups": [summary.to_dict() for summary in summaries],
    }


def tool_cluster(records: Records, params: Dict[str, Any]) -> Dict[str, Any]:
    """Local k-means subtyping; returns centroids and sizes only."""
    k = int(params.get("k", 3))
    matching = _filtered(records, params)
    X = featurize(matching)
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
