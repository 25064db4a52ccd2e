"""Smoke test of the E22 benchmark; run explicitly, tier-1 does not collect it:

    python -m pytest benchmarks/e22_pipeline/test_e22_smoke.py

Boots the real process topology on tiny inputs (``--smoke``) and checks the
output schema, that metric and workload names equal ``BENCHMARK.json``, and
the correctness gate.  Numbers from a smoke run mean nothing and are not
compared with any bound.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(HERE, "run.py"), "--smoke"]


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def names(entries):
    return [entry["name"] for entry in entries]


def test_contract_file_is_well_formed():
    doc = contract()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/e22_pipeline"]
    assert 2 <= len(doc["workloads"]) <= 8
    all_names = names(doc["workloads"]) + names(doc["end_to_end"]) + names(doc["per_layer"])
    assert len(all_names) == len(set(all_names))
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_smoke_all_workloads_traced(tmp_path):
    doc = contract()
    out = tmp_path / "e22.json"
    proc = subprocess.run(
        RUN + ["--trace", "--seed", "7", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = json.loads(out.read_text())["runs"]
    assert [run["workload"] for run in runs] == names(doc["workloads"])
    for run in runs:
        assert run["smoke"] and run["seed"] == 7
        assert sorted(run["end_to_end"]) == sorted(names(doc["end_to_end"]))
        assert sorted(run["per_layer"]) == sorted(names(doc["per_layer"]))
        assert all(value > 0 for value in run["end_to_end"].values()), run["end_to_end"]
        # The correctness gate: one head and root, every op receipted everywhere
        # (or every query hash equal to the in-process gateway's), no forks.
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
        assert run["per_layer"]["consensus.forks"] == 0
        assert run["per_layer"]["failed_share"] == 0
        assert run["per_layer"]["walk.coverage"] > 0
        assert len(run["info"]["inputs_sha256"]) == 64
        assert os.path.getsize(os.path.join(ROOT, run["info"]["span_file"])) > 0
        assert f"== {run['workload']}" in proc.stdout


def test_single_workload_prints_the_result_object_last():
    doc = contract()
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(
            RUN + ["--workload", "federated_query", "--seed", "3", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == names(doc[group])
        units = {m["name"]: m["unit"] for m in doc[group]}
        assert all(
            set(entry) == {"value", "unit"} and entry["unit"] == units[name]
            for name, entry in result["metrics"].items()
        )


def test_same_seed_feeds_identical_inputs():
    from_runs = []
    for _ in range(2):
        proc = subprocess.run(
            RUN + ["--workload", "ledger_mix", "--seed", "11"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        from_runs.append(
            next(line for line in proc.stdout.splitlines() if "inputs_sha256" in line)
        )
    assert from_runs[0] == from_runs[1]
