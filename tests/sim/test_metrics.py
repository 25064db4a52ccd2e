"""Metrics and energy accounting tests."""

import pytest

from repro.sim.metrics import (
    EnergyModel,
    Histogram,
    MetricsRegistry,
    current_metrics,
)


class TestHistogram:
    def test_empty_defaults(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(0.5) == 0.0

    def test_summary_statistics(self):
        histogram = Histogram()
        for value in [1, 2, 3, 4]:
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.mean == 2.5
        assert histogram.minimum == 1
        assert histogram.maximum == 4

    def test_percentiles(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.record(value)
        assert histogram.percentile(0.0) == 1
        assert histogram.percentile(1.0) == 100
        assert 49 <= histogram.percentile(0.5) <= 52

    def test_percentile_on_empty_histogram_is_zero(self):
        histogram = Histogram()
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert histogram.percentile(fraction) == 0.0

    def test_percentile_single_sample_every_fraction(self):
        histogram = Histogram()
        histogram.record(42.0)
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert histogram.percentile(fraction) == 42.0

    def test_percentile_out_of_range_fractions_clamped(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.record(value)
        assert histogram.percentile(-0.5) == 1.0
        assert histogram.percentile(2.0) == 3.0


class TestMetricsRegistry:
    def test_counters_scoped(self):
        metrics = MetricsRegistry()
        metrics.add("gas", 10, scope="node0")
        metrics.add("gas", 5, scope="node1")
        assert metrics.counter("gas", "node0") == 10
        assert metrics.counter_total("gas") == 15

    def test_counter_total_aggregates_default_and_named_scopes(self):
        metrics = MetricsRegistry()
        metrics.add("gas", 1)  # default ("") scope
        metrics.add("gas", 2, scope="n0")
        metrics.add("gas", 4, scope="n1")
        metrics.add("gasoline", 100, scope="n0")  # near-miss name excluded
        assert metrics.counter_total("gas") == 7
        assert metrics.scopes("gas") == {"": 1, "n0": 2, "n1": 4}

    def test_scopes_view(self):
        metrics = MetricsRegistry()
        metrics.add("hashes", 3, scope="a")
        metrics.add("hashes", 4, scope="b")
        assert metrics.scopes("hashes") == {"a": 3, "b": 4}

    def test_missing_counter_is_zero(self):
        assert MetricsRegistry().counter("nope") == 0.0

    def test_energy_model_combination(self):
        model = EnergyModel(
            joules_per_hash=1.0,
            joules_per_gas=2.0,
            joules_per_byte_transferred=3.0,
            joules_per_flop=4.0,
        )
        assert model.energy_joules(hashes=1, gas=1, bytes_transferred=1, flops=1) == 10.0

    def test_total_energy_from_counters(self):
        metrics = MetricsRegistry(EnergyModel(joules_per_hash=2.0))
        metrics.add_hashes(5, scope="miner")
        assert metrics.total_energy_joules() == pytest.approx(10.0)

    def test_node_energy_isolated(self):
        metrics = MetricsRegistry(EnergyModel(joules_per_gas=1.0))
        metrics.add_gas(7, scope="n0")
        metrics.add_gas(3, scope="n1")
        assert metrics.node_energy_joules("n0") == pytest.approx(7.0)

    def test_summary_includes_energy(self):
        metrics = MetricsRegistry()
        metrics.add_flops(100)
        summary = metrics.summary()
        assert "flops" in summary
        assert "energy_joules" in summary

    def test_histogram_access(self):
        metrics = MetricsRegistry()
        metrics.observe("latency", 0.2)
        metrics.observe("latency", 0.4)
        assert metrics.histogram("latency").mean == pytest.approx(0.3)


class TestSnapshot:
    def test_snapshot_round_trip(self):
        source = MetricsRegistry()
        source.add("gas", 5, scope="n0")
        source.observe("lat", 0.5)
        assert source.snapshot() == {
            "counters": [["gas", "n0", 5.0]],
            "histograms": {"lat": [0.5]},
        }


class TestAmbientRegistry:
    def test_current_metrics_never_none(self):
        assert current_metrics() is not None
