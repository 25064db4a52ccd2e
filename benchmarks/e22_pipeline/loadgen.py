"""Single-threaded asyncio load generation shared by the chain and query drivers.

Two phases, both timed with ``time.monotonic()`` (system-wide on Linux, so
client due times and the validators' commit stamps share one clock):

- *sat* — closed loop, driven by the caller; yields the run's own saturation
  throughput.
- *paced* — open loop at ``PACED_LOAD`` of that throughput: op ``i`` is due at
  ``start + i / rate`` whatever the replies do; latency counts from the due
  time and the generator's own lateness (actual send minus due) is reported.

A phase that makes no progress for ``STALL_S`` is abandoned and its
unfinished ops count as failed: the benchmark must never hang.

The sandbox this runs in shares its cores: between 4 % and 51 % of CPU time
was stolen by other tenants from one sizing run to the next, and the same
Python work cost up to 1.7x its quiet CPU time.  Raw ops/s followed suit
(11.7..37.6 on one workload within ten minutes).  :class:`HostSampler` therefore
records both effects while the phases run and the drivers report
host-normalised numbers next to the raw ones; see README.md.
"""

from __future__ import annotations

import asyncio
import bisect
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence

STALL_S = 10.0
#: Offered load of the paced phase as a share of the sat phase's raw ops/s.
PACED_LOAD = 0.4
#: The paced schedule is cut into stretches, each with its own latency quantiles
#: and its own host factors: long enough for about this many ops, and at least
#: this many seconds (host factors need a few 50 ms samples).
PACED_WINDOW_OPS = 12
PACED_WINDOW_MIN_S = 0.3


@dataclass
class OpRecord:
    due: float
    sent: float = 0.0
    acked: Optional[float] = None  # reply to the submit / the query answer
    done: Optional[float] = None  # committed on every validator / answer checked
    ok: bool = False


class Progress:
    """Stall detector: ``touch`` on every ack or commit, ``stalled`` to test."""

    def __init__(self) -> None:
        self.last = time.monotonic()

    def touch(self) -> None:
        self.last = time.monotonic()

    def stalled(self) -> bool:
        return time.monotonic() - self.last > STALL_S


async def paced_loop(
    count: int, rate: float, fire: Callable[[int, OpRecord], Awaitable[None]]
) -> List[OpRecord]:
    """Fire ``count`` ops on a fixed schedule; returns once every reply is in."""
    start = time.monotonic() + 0.05
    records: List[OpRecord] = []
    tasks = []
    for index in range(count):
        record = OpRecord(due=start + index / rate)
        delay = record.due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        record.sent = time.monotonic()
        records.append(record)
        tasks.append(asyncio.create_task(fire(index, record)))
    await asyncio.gather(*tasks)
    return records


# -- host speed ---------------------------------------------------------------

_PROBE_PRIME = 2**255 - 19
#: CPU seconds one probe chunk costs on the sizing box (2 vCPU, Python 3.11)
#: while a phase runs and nothing is stolen.  Only fixes the scale of the
#: normalised metrics; it cancels out of every comparison between two runs.
PROBE_REF_S = 1.0e-3
#: A 1 ms chunk charged more CPU than this is a glitch of the guest's thread
#: clock, not contention: single chunks of 57, 64 and 206 ms were seen, each
#: enough to halve a run's normalised CPU per op.
PROBE_CLIP_S = 8.0e-3
SAMPLE_PERIOD_S = 0.05


def _probe_chunk() -> None:
    """About a millisecond of the interpreter work the system is made of:
    256-bit modular arithmetic (signatures) and dict updates (VM, state)."""
    acc = 0x1234567890ABCDEF1234567890ABCDEF
    for i in range(1500):
        acc = (acc * acc + i) % _PROBE_PRIME
    counts: Dict[int, int] = {}
    for i in range(3000):
        counts[i & 255] = counts.get(i & 255, 0) + i


@dataclass
class Window:
    """What happened between two instants of a phase."""

    wall_s: float
    server_cpu_s: float
    cpu_inflation: float  # CPU time of the same work, relative to PROBE_REF_S
    steal_share: float  # share of the guest's CPU time the hypervisor kept

    @property
    def slowdown(self) -> float:
        """Wall time per unit of CPU-bound work, relative to a quiet host."""
        return self.cpu_inflation / (1.0 - self.steal_share)

    @property
    def hop_slowdown(self) -> float:
        """Latency of a chain of short hops, relative to a quiet host.

        A federated query is a dozen sequential thread and process wake-ups
        with well under a millisecond of work between them.  Each wake-up
        waits for a vCPU that is away ``steal_share`` of the time, on top of
        the work itself running slower, so its latency grows faster than
        ``slowdown``.  The exponents are empirical: over 33 runs with 0..45 %
        steal they keep normalised p50/p90 within -17..+11 % / -12..+25 % of
        the median run, where dividing by ``slowdown`` leaves +106 % / +179 %.
        On a quiet host both factors tend to 1 and the choice does not matter.
        """
        return self.cpu_inflation**1.25 / (1.0 - self.steal_share) ** 2.5


class HostSampler:
    """A 50 ms time series of host speed and server CPU, queried after the fact.

    Each tick records: this thread's CPU time for a fixed chunk of pure-Python
    work (2 % duty; contention for caches and sibling hyper-threads makes the
    same bytecode cost more CPU), the guest's cumulative *steal* and total
    ticks from ``/proc/stat`` (time a runnable vCPU was not run), and the
    server processes' cumulative CPU.  ``window(t0, t1)`` then gives the host
    factors of any stretch of a phase.  Over 8 sizing runs with 4..51 % steal,
    ``cpu_ms_per_op / cpu_inflation`` stayed within +-4 % and
    ``ops_per_s * slowdown`` within +-5 % while the raw values moved by 1.6x
    and 3.2x.
    """

    def __init__(self, server_cpu_seconds: Callable[[], float] = lambda: 0.0):
        self._server_cpu_seconds = server_cpu_seconds
        self._times: List[float] = []
        self._rows: List[Sequence[float]] = []  # cumulative probe cpu, steal, total, server cpu
        self._probe_cpu = 0.0
        self._task: Optional[asyncio.Task] = None

    def sample(self) -> None:
        """One tick; also called by hand from set-up code that blocks the loop."""
        started = time.thread_time()
        _probe_chunk()
        self._probe_cpu += min(time.thread_time() - started, PROBE_CLIP_S)
        with open("/proc/stat") as handle:
            ticks = [int(field) for field in handle.readline().split()[1:9]]
        self._times.append(time.monotonic())
        self._rows.append((self._probe_cpu, ticks[7], sum(ticks), self._server_cpu_seconds()))

    async def _run(self) -> None:
        while True:
            self.sample()
            await asyncio.sleep(SAMPLE_PERIOD_S)

    def start(self) -> None:
        self._task = asyncio.create_task(self._run())

    async def stop(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self.sample()

    def window(self, t0: float, t1: float) -> Window:
        """Host factors and server CPU between two ``time.monotonic()`` instants."""
        first = max(0, bisect.bisect_right(self._times, t0) - 1)
        last = min(len(self._times) - 1, max(first + 1, bisect.bisect_left(self._times, t1)))
        chunks = last - first
        probe, steal, total, server = (
            after - before for before, after in zip(self._rows[first], self._rows[last])
        )
        return Window(
            wall_s=t1 - t0,
            server_cpu_s=server * (t1 - t0) / (self._times[last] - self._times[first]),
            cpu_inflation=probe / chunks / PROBE_REF_S,
            steal_share=steal / total if total else 0.0,
        )


# -- statistics ---------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def raw_sat_rate(sat: List[OpRecord]) -> float:
    """Ops completed / (first submit -> last completion), as measured."""
    done = [record.done for record in sat if record.ok]
    return len(done) / (max(done) - sat[0].sent) if done else 0.0


def summarize(
    paced: List[OpRecord],
    sat: List[OpRecord],
    sampler: HostSampler,
    timer_s: float,
    latency_slowdown: Callable[[Window], float],
) -> Dict[str, Any]:
    """The phase metrics both drivers report, raw and host-normalised.

    - sat: ``ops / wall * slowdown`` and ``server cpu / ops / cpu_inflation``
      over the whole phase, first submit to last completion.  (Medians over
      block-to-block windows were tried and rejected: blocks complete in
      bursts, so the median window rate sat far above the phase's rate.)
    - paced: the schedule is cut into equal stretches of ~``PACED_WINDOW_OPS`` ops;
      a latency quantile ``q`` of one stretch becomes
      ``q*timer + (latency - q*timer) / latency_slowdown(stretch)`` with that
      stretch's own host factors (``Window.slowdown`` for txs, whose latency
      is CPU work plus a timer; ``Window.hop_slowdown`` for queries).  ``timer_s`` (the block interval, 0 for queries) is the
      part of a latency that a slower host does not stretch; an op due at a
      random instant waits for ``q`` of it at quantile ``q``.  Reported is
      the *lower quartile over stretches*: other tenants only ever add
      latency (wake-ups delayed by steal are not undone by any factor), so
      the quieter quarter of the phase is where the system itself shows.  On
      8 sizing runs it cut the run-to-run spread of p50/p90 from 0.21/0.22
      (median over stretches) to 0.08/0.14 on ``large_state`` and from
      0.11/0.56 to 0.08/0.12 on ``federated_query``.
    """
    attempted = len(paced) + len(sat)
    sat_done = [record.done for record in sat if record.ok]
    paced_ok = [record for record in paced if record.ok]
    completed = len(sat_done) + len(paced_ok)
    raw_rate = raw_sat_rate(sat)
    whole = sampler.window(sat[0].sent, max(sat_done)) if sat_done else None

    raw_cpu_ms = whole.server_cpu_s / len(sat_done) * 1e3 if whole else 0.0

    p50s, p90s, paced_windows = [], [], []
    if paced_ok:
        begin, finish = paced[0].due, paced[-1].due + 1e-9
        stretch_s = max(PACED_WINDOW_MIN_S, PACED_WINDOW_OPS * (finish - begin) / len(paced))
        stretches = max(1, int((finish - begin) / stretch_s))
        for index in range(stretches):
            t0 = begin + (finish - begin) * index / stretches
            t1 = begin + (finish - begin) * (index + 1) / stretches
            stretch = [r for r in paced_ok if t0 <= r.due < t1]
            if not stretch:
                continue
            latencies = [r.done - r.due for r in stretch]
            # Host factors over the lifetime of this stretch's ops, not only its schedule.
            window = sampler.window(t0, max(r.done for r in stretch))
            paced_windows.append(window)
            for q, out in ((0.5, p50s), (0.9, p90s)):
                fixed = q * timer_s
                out.append(
                    (fixed + (percentile(latencies, q * 100) - fixed) / latency_slowdown(window))
                    * 1e3
                )
    raw_latencies = [(r.done - r.due) * 1e3 for r in paced_ok]

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "attempted": attempted,
        "failed": attempted - completed,
        "end_to_end": {
            "sat_ops_per_s": raw_rate * whole.slowdown if whole else 0.0,
            "sat_cpu_ms_per_op": raw_cpu_ms / whole.cpu_inflation if whole else 0.0,
            "paced_p50_ms": percentile(p50s, 25),
            "paced_p90_ms": percentile(p90s, 25),
        },
        "cluster": {
            "failed_share": (attempted - completed) / max(1, attempted),
            "paced.samples": len(raw_latencies),
            "paced.rate_per_s": PACED_LOAD * raw_rate,
            "paced.lateness_p95_ms": percentile([(r.sent - r.due) * 1e3 for r in paced], 95),
            "raw.sat_ops_per_s": raw_rate,
            "raw.sat_cpu_ms_per_op": raw_cpu_ms,
            "raw.paced_p50_ms": percentile(raw_latencies, 50),
            "raw.paced_p90_ms": percentile(raw_latencies, 90),
            "host.sat_cpu_inflation": whole.cpu_inflation if whole else 0.0,
            "host.sat_steal_share": whole.steal_share if whole else 0.0,
            "host.paced_cpu_inflation": mean([w.cpu_inflation for w in paced_windows]),
            "host.paced_steal_share": mean([w.steal_share for w in paced_windows]),
        },
        "info": {"paced_ops": len(paced), "sat_ops": len(sat)},
    }
