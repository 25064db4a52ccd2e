"""Server-process supervision: spawn, readiness, CPU/RSS probes, guaranteed stop.

Children get a stdin pipe (EOF = graceful stop, also what they see if this
process is killed outright), stdout piped for their one readiness line, and
stderr appended to a per-run log.  ``Fleet.stop`` closes stdin, waits, then
terminates and finally kills; an ``atexit`` hook and the signal handlers
installed by ``run.py`` make sure it runs on every exit path, so an aborted
run leaves no ``node_proc`` / ``site_server`` behind.
"""

from __future__ import annotations

import atexit
import os
import select
import socket
import subprocess
import time
from typing import IO, Any, Awaitable, Callable, List, Optional, Tuple

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def free_ports(count: int) -> List[int]:
    """Ports the OS reports free right now (held open until all are picked)."""
    socks = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            socks.append(sock)
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def _proc_file(pid: int, name: str) -> str:
    # A child killed mid-run has no /proc entry; it then counts as zero.
    try:
        with open(f"/proc/{pid}/{name}") as handle:
            return handle.read()
    except OSError:
        return ""


class Fleet:
    """The server processes of one workload run."""

    def __init__(self, log_path: str):
        os.makedirs(os.path.dirname(log_path), exist_ok=True)
        self._log: Optional[IO[bytes]] = open(log_path, "ab")
        self.procs: List[subprocess.Popen] = []
        atexit.register(self.stop)

    def spawn(self, argv: List[str], env: Optional[dict] = None) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            bufsize=0,
        )
        self.procs.append(proc)
        return proc

    @staticmethod
    def read_line(proc: subprocess.Popen, timeout_s: float) -> str:
        """One stdout line from a child, or an error if it dies or stays silent."""
        deadline = time.monotonic() + timeout_s
        data = b""
        while not data.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"child {proc.pid} printed nothing within {timeout_s}s")
            ready, _, _ = select.select([proc.stdout], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(
                    f"child {proc.pid} exited with {proc.wait()} before it was ready"
                )
            data += chunk
        return data.decode().strip()

    def cpu_seconds(self) -> float:
        """User+system CPU consumed so far by all server processes."""
        total = 0.0
        for proc in self.procs:
            fields = _proc_file(proc.pid, "stat").rpartition(")")[2].split()
            if fields:
                total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
        return total

    def peak_rss_mb(self) -> float:
        """Largest resident-set high-water mark over the server processes."""
        peak_kb = 0
        for proc in self.procs:
            for line in _proc_file(proc.pid, "status").splitlines():
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
        return peak_kb / 1024.0

    def stop(self) -> None:
        """Graceful stop (stdin EOF), then terminate, then kill; idempotent."""
        procs, self.procs = self.procs, []
        for proc in procs:
            proc.stdin.close()
        for escalate, grace_s in ((None, 8.0), ("terminate", 3.0), ("kill", 3.0)):
            alive = [proc for proc in procs if proc.poll() is None]
            deadline = time.monotonic() + grace_s
            for proc in alive:
                if escalate:
                    getattr(proc, escalate)()
            for proc in alive:
                try:
                    proc.wait(max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    pass
        for proc in procs:
            proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None
        atexit.unregister(self.stop)


async def boot_repeatedly(
    boots: int,
    log_path: str,
    boot: Callable[[Fleet], Awaitable[Any]],
    discard: Callable[[Any], Awaitable[None]],
    tick: Callable[[], None],
) -> Tuple[Fleet, Any, List[float]]:
    """Boot the servers ``boots`` times and keep the last set.

    Returns the live fleet, whatever ``boot`` returned for it, and every boot's
    duration (``setup_s`` uses their median).  ``discard`` releases what ``boot``
    returned for a set that is stopped again; ``tick`` runs before each boot
    (host sampling during set-up).
    """
    times: List[float] = []
    for attempt in range(boots):
        tick()
        fleet = Fleet(log_path)
        started = time.monotonic()
        try:
            booted = await boot(fleet)
        except BaseException:
            fleet.stop()
            raise
        times.append(time.monotonic() - started)
        if attempt < boots - 1:
            await discard(booted)
            fleet.stop()
    return fleet, booted, times
