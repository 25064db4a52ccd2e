"""E10 — Query decomposition and composition (Figures 5/6, section IV).

Claim: a research query (natural language -> query vector) can be
decomposed into per-site smart contracts, executed against local data, and
composed into a global answer that matches what a centralized system would
return — while the requester never learns where the data lives.

Workload: a suite of natural-language queries over a 3-site platform.
Reported per query: composed answer vs pooled ground truth (must match),
end-to-end simulated latency, and bytes on the wire.  Also a decomposition-
granularity ablation (predicate push-down vs fetch-then-filter).
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, format_table, human_bytes

from repro.common.signatures import KeyPair
from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
from repro.core.queryservice import GlobalQueryService
from repro.core.strategies import data_to_compute
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.query.parser import parse_query

QUERIES = (
    "how many patients have diabetes",
    "prevalence of stroke among smokers",
    "average systolic blood pressure for women over 50",
    "histogram of bmi between 15 and 55 with 8 bins",
    "how many men aged 40 to 60 have cancer",
)
SITES = 3
RECORDS_PER_SITE = 200


def ground_truth(query_text, pooled):
    from repro.analytics.tools import STANDARD_TOOLS

    vector = parse_query(query_text)
    tool = next(t for t in STANDARD_TOOLS if t.tool_id == vector.tool_id())
    return vector, tool.fn(pooled, vector.tool_params())


def run_experiment():
    generator = CohortGenerator(seed=44)
    profiles = default_site_profiles(SITES)
    cohorts = generator.generate_multi_site(profiles, RECORDS_PER_SITE)
    pooled = [record for records in cohorts.values() for record in records]
    platform = MedicalBlockchainNetwork(
        PlatformConfig(site_count=SITES, consensus="poa", include_fda=False, seed=10)
    )
    formats = ["hl7v2", "fhirjson", "legacycsv"]
    for index, (site, records) in enumerate(sorted(cohorts.items())):
        platform.register_dataset(site, f"emr-{site}", records, fmt=formats[index])
    researcher = KeyPair.generate("e10-researcher")
    for site in platform.site_names:
        platform.grant_access(site, f"emr-{site}", researcher.address, "research")
    service = GlobalQueryService(platform, researcher)
    rows = []
    for text in QUERIES:
        vector, reference = ground_truth(text, pooled)
        started = perf_counter()
        answer = service.ask(text)
        wall_ms = (perf_counter() - started) * 1e3
        matches = _matches(vector.intent, answer.result, reference)
        rows.append(
            {
                "query": text,
                "intent": vector.intent,
                "matches_pooled": matches,
                "latency_s": answer.latency_s,
                # Real time, not simulated: the three stores hold legacy
                # formats, so this is where re-parsing them per query would show.
                "wall_ms": wall_ms,
                "bytes": answer.bytes_on_wire,
                "sites": len(answer.site_partials),
            }
        )
    # Granularity ablation: same first query via fetch-everything.
    vector = parse_query(QUERIES[0])
    pushdown_bytes = rows[0]["bytes"]
    fetched = data_to_compute(platform, researcher, vector)
    ablation = {
        "pushdown_bytes": pushdown_bytes,
        "fetch_bytes": fetched.bytes_moved,
    }
    return rows, ablation


def _matches(intent, result, reference):
    if intent == "count":
        return result["count"] == reference["count"]
    if intent == "prevalence":
        return (
            result["positives"] == reference["positives"]
            and result["n"] == reference["n"]
        )
    if intent == "mean":
        return abs(result["mean"] - reference["summary"]["mean"]) < 1e-9
    if intent == "histogram":
        return result["counts"] == reference["counts"]
    return False


def report(payload):
    rows, ablation = payload
    table = format_table(
        "E10: NL query -> decomposed contracts -> composed answer",
        ["query", "intent", "matches pooled?", "latency (sim s)", "bytes", "sites"],
        [
            [r["query"][:44], r["intent"], r["matches_pooled"], r["latency_s"],
             human_bytes(r["bytes"]), r["sites"]]
            for r in rows
        ],
    )
    ablation_table = format_table(
        "E10b: decomposition granularity (query 1)",
        ["strategy", "bytes moved"],
        [
            ["predicate push-down (per-site tasks)", human_bytes(ablation["pushdown_bytes"])],
            ["fetch-then-filter (copy records)", human_bytes(ablation["fetch_bytes"])],
        ],
    )
    emit("e10_query_decomposition", table + "\n\n" + ablation_table)
    return payload


def test_e10_query_decomposition(benchmark):
    rows, ablation = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report((rows, ablation))
    assert all(row["matches_pooled"] for row in rows)
    assert all(row["sites"] == SITES for row in rows)
    assert ablation["fetch_bytes"] > 50 * ablation["pushdown_bytes"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a {bench, params, metrics, timestamp} "
                             "envelope to PATH")
    args = parser.parse_args(argv)
    rows, ablation = report(run_experiment())
    emit_json(args.json, "e10_query_decomposition",
              {"sites": SITES, "records_per_site": RECORDS_PER_SITE,
               "queries": list(QUERIES)},
              {"rows": rows, "ablation": ablation,
               "all_match_pooled": all(r["matches_pooled"] for r in rows)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
