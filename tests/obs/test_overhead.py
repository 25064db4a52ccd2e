"""Disabled-tracer overhead guard.

The instrumentation contract (``repro.obs``) is near-zero cost when tracing
is off: ``trace_span`` returns a shared no-op, so ``TaskRunner.run`` adds
only its ``tool.run`` span and its ``tool_tasks`` / ``tool_flops`` counters
around the tool.  This guard runs a registered tool of a few milliseconds
per call through ``TaskRunner.run`` and requires it to stay within 5% of a
bare Python loop that calls the same function and hashes its result, so the
ratio measures the instrumentation alone.

The two sides are timed alternately, in short back-to-back pairs, and each
pair gives one instrumented/raw ratio; the guard reads the lower quartile of
those ratios.  Other tenants of a shared box only ever add time, in bursts of
100 ms and more, so a burst spoils the pairs it lands on and leaves the rest
alone, whereas timing each side in its own block lets one burst shift a whole
side.  On a host where single batches ranged 60-190 ms, best-of-block ratios
read 0.86x-1.17x from run to run and the lower-quartile pair ratio
0.97x-1.01x.
"""

from repro.common.hashing import hash_value_hex
from repro.obs.tracer import NOOP_SPAN, disable, trace_span
from repro.offchain.tasks import TaskRunner, ToolRegistry, ToolSpec

TASK_ITERS = 50000
TASK_COUNT = 5
TRIALS = 28
MAX_OVERHEAD = 1.05


def _busy_task(records, params):
    total = 0
    for value in range(params["iters"]):
        total += value * value
    return {"total": total}


def test_disabled_tracer_tool_run_overhead_within_5_percent(lower_quartile_pair):
    disable()
    assert trace_span("probe") is NOOP_SPAN  # precondition: tracing is off

    registry = ToolRegistry()
    registry.register(ToolSpec("busy", _busy_task))
    runner = TaskRunner("site-a", registry)
    params = {"iters": TASK_ITERS}
    expected = [hash_value_hex(_busy_task([], params))] * TASK_COUNT

    def raw_loop():
        return [hash_value_hex(_busy_task([], dict(params))) for __ in range(TASK_COUNT)]

    def instrumented():
        hashes = [
            runner.run(f"t{i}", "busy", [], params).result_hash
            for i in range(TASK_COUNT)
        ]
        assert hashes == expected

    # Warm both paths (bytecode caches, allocator) before timing.
    raw_loop()
    instrumented()

    baseline, traced = lower_quartile_pair(TRIALS, raw_loop, instrumented)
    overhead = traced / baseline
    assert overhead <= MAX_OVERHEAD, (
        f"disabled-tracer TaskRunner.run took {overhead:.3f}x the raw loop "
        f"({traced * 1000:.1f}ms vs {baseline * 1000:.1f}ms baseline; "
        f"limit {MAX_OVERHEAD}x)"
    )
