"""Disabled-tracer overhead guard.

The instrumentation contract (ISSUE: repro.obs) is near-zero cost when
tracing is off: ``trace_span`` returns a shared no-op and the executor's
telemetry envelope adds only a registry allocation and an empty snapshot
merge per task.  This guard runs an instrumented ``map_tasks`` batch over a
workload of a few milliseconds per task and requires it to stay within 5%
of a bare Python loop over the same functions (a *stricter* baseline than
pre-instrumentation ``map_tasks``, which already carried retry/ordering
machinery).

The two sides are timed alternately, in short back-to-back pairs, and each
pair gives one instrumented/raw ratio; the guard reads the lower quartile of
those ratios.  Other tenants of a shared box only ever add time, in bursts of
100 ms and more, so a burst spoils the pairs it lands on and leaves the rest
alone, whereas timing each side in its own block lets one burst shift a whole
side.  On a host where single batches ranged 60-190 ms, best-of-block ratios
read 0.86x-1.17x from run to run and the lower-quartile pair ratio
0.97x-1.01x.
"""

from repro.obs.tracer import NOOP_SPAN, disable, trace_span
from repro.parallel.executor import SerialExecutor, TaskSpec

TASK_ITERS = 50000
TASK_COUNT = 5
TRIALS = 28
MAX_OVERHEAD = 1.05


def _busy_task(iters):
    total = 0
    for value in range(iters):
        total += value * value
    return total


def test_disabled_tracer_map_tasks_overhead_within_5_percent(lower_quartile_pair):
    disable()
    assert trace_span("probe") is NOOP_SPAN  # precondition: tracing is off

    specs = [
        TaskSpec(key=f"t{i}", fn=_busy_task, args=(TASK_ITERS,))
        for i in range(TASK_COUNT)
    ]
    expected = [_busy_task(TASK_ITERS)] * TASK_COUNT
    executor = SerialExecutor()

    def raw_loop():
        return [_busy_task(TASK_ITERS) for __ in range(TASK_COUNT)]

    def instrumented():
        assert executor.map_tasks(specs) == expected

    # Warm both paths (bytecode caches, allocator) before timing.
    raw_loop()
    instrumented()

    baseline, traced = lower_quartile_pair(TRIALS, raw_loop, instrumented)
    overhead = traced / baseline
    assert overhead <= MAX_OVERHEAD, (
        f"disabled-tracer map_tasks took {overhead:.3f}x the raw loop "
        f"({traced * 1000:.1f}ms vs {baseline * 1000:.1f}ms baseline; "
        f"limit {MAX_OVERHEAD}x)"
    )
