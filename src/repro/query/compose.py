"""Decomposition of a query vector into per-site tasks, and composition of
per-site partial results into one global answer (Figures 5/6).

Composition is intent-specific; for every mergeable intent the composed
answer is mathematically identical to running the query over the pooled
data (property-tested), which is what lets the platform answer global
questions without moving records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.analytics.models import average_params
from repro.common.errors import QueryError
from repro.datamgmt.virtual import DatasetRef, NumericSummary
from repro.query.vector import QueryVector


@dataclass
class SiteTask:
    """One decomposed unit of work for one site."""

    task_id: str
    site: str
    dataset_ids: List[str]
    tool_id: str
    params: Dict[str, Any]
    purpose: str


def decompose(
    vector: QueryVector,
    catalog: Sequence[DatasetRef],
    extra_params: Optional[Dict[str, Any]] = None,
) -> List[SiteTask]:
    """Split a query into one task per hosting site.

    ``catalog`` lists every registered dataset (from the on-chain data
    registry); each site receives one task covering all its datasets, with
    the query's predicates pushed down inside the tool params.
    """
    vector.validate()
    by_site: Dict[str, List[str]] = {}
    for ref in catalog:
        by_site.setdefault(ref.site, []).append(ref.dataset_id)
    if not by_site:
        raise QueryError("no datasets in the catalog")
    # Catalog-aware pruning (the paper's "optimized query vector", §V):
    # a site-equality predicate means only that site's data can match, so
    # no task is dispatched anywhere else.
    wanted_site = vector.filters.get("site")
    if wanted_site is not None:
        if wanted_site not in by_site:
            raise QueryError(f"no datasets registered at site {wanted_site!r}")
        by_site = {wanted_site: by_site[wanted_site]}
    tool_id = vector.tool_id()
    query_id = vector.query_id
    tasks = []
    for index, site in enumerate(sorted(by_site)):
        params = vector.tool_params()
        if extra_params:
            params.update(extra_params)
        tasks.append(
            SiteTask(
                task_id=f"{query_id}-s{index}",
                site=site,
                dataset_ids=sorted(by_site[site]),
                tool_id=tool_id,
                params=params,
                purpose=vector.purpose,
            )
        )
    return tasks


def compose(vector: QueryVector, partials: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-site partial results into the global answer."""
    vector.validate()
    partials = [partial for partial in partials if partial is not None]
    if not partials:
        raise QueryError("no partial results to compose")
    if vector.intent == "count":
        return {"count": sum(int(partial["count"]) for partial in partials)}
    if vector.intent == "prevalence":
        n = sum(int(partial["n"]) for partial in partials)
        positives = sum(int(partial["positives"]) for partial in partials)
        return {
            "outcome": vector.outcome,
            "n": n,
            "positives": positives,
            "prevalence": positives / n if n else 0.0,
        }
    if vector.intent == "mean":
        merged = NumericSummary()
        for partial in partials:
            merged = merged.merge(NumericSummary.from_dict_parts(partial["summary"]))
        return {"field": vector.target_field, **merged.to_dict()}
    if vector.intent == "histogram":
        counts = None
        for partial in partials:
            values = list(partial["counts"])
            counts = values if counts is None else [a + b for a, b in zip(counts, values)]
        return {
            "field": vector.target_field,
            "low": partials[0]["low"],
            "high": partials[0]["high"],
            "counts": counts or [],
        }
    if vector.intent == "describe":
        # Median/sd of medians are approximations; count/mean/min/max exact.
        total_n = sum(partial["stats"]["n"] for partial in partials)
        if total_n == 0:
            return {"field": vector.target_field, "stats": {"n": 0}}
        mean = (
            sum(partial["stats"]["mean"] * partial["stats"]["n"] for partial in partials)
            / total_n
        )
        return {
            "field": vector.target_field,
            "stats": {
                "n": total_n,
                "mean": mean,
                "min": min(partial["stats"]["min"] for partial in partials),
                "max": max(partial["stats"]["max"] for partial in partials),
                "median_approx": (
                    sum(
                        partial["stats"]["median"] * partial["stats"]["n"]
                        for partial in partials
                    )
                    / total_n
                ),
            },
        }
    if vector.intent == "train":
        param_sets = [
            [np.asarray(p, dtype=float) for p in partial["params"]]
            for partial in partials
            if partial.get("n", 0) > 0
        ]
        weights = [float(partial["n"]) for partial in partials if partial.get("n", 0) > 0]
        if not param_sets:
            raise QueryError("no site produced a model update")
        merged = average_params(param_sets, weights)
        return {
            "model": vector.model,
            "params": [p.tolist() for p in merged],
            "n": int(sum(weights)),
            "mean_local_loss": float(
                np.average(
                    [partial["loss"] for partial in partials if partial.get("n", 0) > 0],
                    weights=weights,
                )
            ),
        }
    if vector.intent == "evaluate":
        total_n = sum(float(partial.get("n", 0)) for partial in partials)
        if total_n <= 0:
            raise QueryError("no evaluation samples at any site")
        merged_metrics = {}
        for key in ("loss", "accuracy", "auc"):
            merged_metrics[key] = float(
                sum(
                    partial[key] * partial.get("n", 0) for partial in partials
                )
                / total_n
            )
        return {
            "outcome": vector.outcome,
            "n": int(total_n),
            "per_site_n": [int(partial.get("n", 0)) for partial in partials],
            **merged_metrics,
        }
    if vector.intent == "compare":
        import math

        merged = [NumericSummary(), NumericSummary()]
        for partial in partials:
            for index in range(2):
                merged[index] = merged[index].merge(
                    NumericSummary.from_dict_parts(partial["groups"][index])
                )
        a, b = merged
        if a.count < 2 or b.count < 2:
            raise QueryError("compare needs at least 2 samples in each group")
        # Welch's t from merged moments (sample variances).
        var_a = a.variance * a.count / (a.count - 1)
        var_b = b.variance * b.count / (b.count - 1)
        denom = math.sqrt(var_a / a.count + var_b / b.count)
        t_statistic = (a.mean - b.mean) / denom if denom else 0.0
        from repro.analytics.stats import normal_sf

        p_value = 2.0 * normal_sf(abs(t_statistic))
        return {
            "field": vector.target_field,
            "group_field": vector.group_field,
            "group_values": list(vector.group_values),
            "groups": [a.to_dict(), b.to_dict()],
            "mean_difference": a.mean - b.mean,
            "t_statistic": t_statistic,
            "p_value": p_value,
        }
    if vector.intent == "cluster":
        # Clusters are site-local structure; report them side by side.
        return {
            "k": partials[0].get("k"),
            "per_site": list(partials),
        }
    raise QueryError(f"cannot compose intent {vector.intent!r}")
