"""Off-chain layer tests: anchoring, oracle, task runner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IntegrityError, OracleError
from repro.offchain.anchoring import (
    DatasetAnchor,
    require_dataset_integrity,
    verify_dataset,
    verify_record_proof,
)
from repro.offchain.oracle import DataOracle
from repro.offchain.tasks import TaskRunner, ToolRegistry, ToolSpec
from repro.sim.metrics import current_metrics


def _records(n=5):
    return [{"id": i, "value": i * 1.5, "tags": ["a", "b"]} for i in range(n)]


class TestAnchoring:
    def test_anchor_round_trip(self):
        records = _records()
        anchor = DatasetAnchor.build(records)
        assert verify_dataset(records, anchor.root_hex)
        assert anchor.record_count == 5

    def test_tampered_value_detected(self):
        records = _records()
        anchor = DatasetAnchor.build(records)
        records[2]["value"] = 999.0
        assert not verify_dataset(records, anchor.root_hex)

    def test_added_record_detected(self):
        records = _records()
        anchor = DatasetAnchor.build(records)
        assert not verify_dataset(records + [{"id": 99}], anchor.root_hex)

    def test_removed_record_detected(self):
        records = _records()
        anchor = DatasetAnchor.build(records)
        assert not verify_dataset(records[:-1], anchor.root_hex)

    def test_reordered_records_detected(self):
        records = _records()
        anchor = DatasetAnchor.build(records)
        assert not verify_dataset(list(reversed(records)), anchor.root_hex)

    def test_require_raises_on_mismatch(self):
        records = _records()
        anchor = DatasetAnchor.build(records)
        records[0]["id"] = -1
        with pytest.raises(IntegrityError):
            require_dataset_integrity(records, anchor.root_hex, "ds1")

    def test_per_record_proof(self):
        records = _records()
        anchor = DatasetAnchor.build(records)
        proof = anchor.proof_for(3)
        assert verify_record_proof(records[3], proof, anchor.root_hex)
        assert not verify_record_proof(records[2], proof, anchor.root_hex)

    def test_verify_record_helper(self):
        records = _records()
        anchor = DatasetAnchor.build(records)
        assert anchor.verify_record(records[1], 1)
        assert not anchor.verify_record({"id": "evil"}, 1)

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=15), st.data())
    def test_property_any_single_field_tamper_detected(self, count, data):
        records = [{"id": i, "v": i} for i in range(count)]
        anchor = DatasetAnchor.build(records)
        victim = data.draw(st.integers(min_value=0, max_value=count - 1))
        records[victim]["v"] = -42
        assert not verify_dataset(records, anchor.root_hex)


class TestDataOracle:
    def test_endpoint_call_normalizes(self):
        oracle = DataOracle()
        oracle.register_endpoint("echo", lambda req: {"got": req.get("x")})
        assert oracle.call("echo", {"x": 5}) == {"got": 5}

    def test_unknown_endpoint(self):
        oracle = DataOracle()
        with pytest.raises(OracleError):
            oracle.call("ghost")

    def test_non_dict_response_rejected(self):
        oracle = DataOracle()
        oracle.register_endpoint("bad", lambda req: [1, 2, 3])
        with pytest.raises(OracleError):
            oracle.call("bad")

    def test_handler_exception_wrapped(self):
        oracle = DataOracle()
        oracle.register_endpoint("boom", lambda req: 1 / 0)
        with pytest.raises(OracleError):
            oracle.call("boom")

    def test_call_log_records_outcomes(self):
        oracle = DataOracle()
        oracle.register_endpoint("ok", lambda req: {})
        oracle.call("ok")
        with pytest.raises(OracleError):
            oracle.call("missing")
        assert [record.ok for record in oracle.call_log] == [True, False]

    def test_duplicate_endpoint_rejected(self):
        oracle = DataOracle()
        oracle.register_endpoint("e", lambda req: {})
        with pytest.raises(OracleError):
            oracle.register_endpoint("e", lambda req: {})


class TestTaskRunner:
    def _runner(self):
        registry = ToolRegistry()
        registry.register(
            ToolSpec("count", lambda recs, params: {"n": len(recs)}, flops_per_record=10)
        )
        return TaskRunner("site-a", registry)

    def test_run_produces_hashed_result(self):
        runner = self._runner()
        result = runner.run("t1", "count", _records(4), {})
        assert result.result == {"n": 4}
        assert len(result.result_hash) == 64
        assert result.records_used == 4
        assert result.flops == 40

    def test_result_hash_is_content_addressed(self):
        runner = self._runner()
        a = runner.run("t1", "count", _records(4), {})
        b = runner.run("t2", "count", _records(4), {})
        assert a.result_hash == b.result_hash

    def test_run_counts_tasks_and_flops_per_site(self):
        runner = self._runner()
        metrics = current_metrics()
        tasks, flops = metrics.counter("tool_tasks", "site-a"), metrics.counter("tool_flops", "site-a")
        runner.run("t1", "count", _records(4), {})
        runner.run("t2", "count", _records(2), {})
        assert metrics.counter("tool_tasks", "site-a") - tasks == 2
        assert metrics.counter("tool_flops", "site-a") - flops == 40 + 20

    def test_raising_tool_propagates_uncounted(self):
        registry = ToolRegistry()
        registry.register(ToolSpec("boom", lambda recs, params: 1 / 0))
        metrics = current_metrics()
        tasks = metrics.counter_total("tool_tasks")
        with pytest.raises(ZeroDivisionError):
            TaskRunner("s", registry).run("t", "boom", _records(1), {})
        assert metrics.counter_total("tool_tasks") == tasks

    def test_unknown_tool(self):
        runner = self._runner()
        with pytest.raises(OracleError):
            runner.run("t1", "ghost", [], {})

    def test_non_dict_result_rejected(self):
        registry = ToolRegistry()
        registry.register(ToolSpec("bad", lambda recs, params: 42))
        runner = TaskRunner("s", registry)
        with pytest.raises(OracleError):
            runner.run("t", "bad", [], {})

    def test_summary_is_chain_safe(self):
        runner = self._runner()
        result = runner.run("t1", "count", _records(2), {})
        from repro.common.serialize import canonical_bytes

        canonical_bytes(result.summary(), allow_float=False)  # no floats

    def test_registry_listing(self):
        runner = self._runner()
        assert runner.registry.tool_ids() == ["count"]
        assert runner.registry.has("count")

    def test_duplicate_tool_rejected(self):
        registry = ToolRegistry()
        spec = ToolSpec("x", lambda r, p: {})
        registry.register(spec)
        with pytest.raises(OracleError):
            registry.register(spec)


class TestAssembleSite:
    def test_data_only_site_has_no_chain_side(self):
        from repro.datamgmt.store import HospitalDataStore
        from repro.offchain.site import assemble_site

        site = assemble_site("h0", HospitalDataStore("h0"))
        assert (site.node, site.oracle, site.monitor, site.control, site.exchange) == (None,) * 5

    @pytest.mark.parametrize("bound", ["node", "contracts"])
    def test_node_and_contracts_come_together(self, bound):
        from repro.datamgmt.store import HospitalDataStore
        from repro.offchain.site import assemble_site

        with pytest.raises(ValueError, match="both node and contracts"):
            assemble_site("h0", HospitalDataStore("h0"), **{bound: object()})
