"""One PoA validator as an OS process, with read-only ``bench.*`` probes.

    python benchmarks/e22_pipeline/node_proc.py --index 0 \
        --ports 40001,40002,40003 --holders 0

Builds the shared genesis (``fixture.build_fixture``), wraps it in a
``P2PHost`` with ``NodeConfig()`` / ``P2PConfig()`` defaults (only the seed
addresses are set, so a later PR that flips a default is measured), registers
``bench.stats`` and ``bench.commits`` on the host's registry and prints
``READY`` once serving.  Exits when stdin reaches EOF or on SIGTERM/SIGINT.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from typing import Any, Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

from repro.consensus.node import NodeConfig  # noqa: E402
from repro.p2p.config import P2PConfig  # noqa: E402
from repro.p2p.host import P2PHost  # noqa: E402

from fixture import build_engine, build_fixture, validator_names  # noqa: E402

HEAD_POLL_S = 0.004


class CommitWatcher:
    """Stamps each committed tx with ``time.monotonic()`` as the head moves.

    A thread polls ``node.head`` (an attribute read) every ``HEAD_POLL_S``;
    only when the head id changes does it hop onto the kernel thread to walk
    the new canonical blocks, so observing commits adds no RPC load and no
    kernel events while nothing commits.
    """

    def __init__(self, host: P2PHost):
        self._host = host
        self._seen_blocks = {host.node.head.block_id}
        self.commits: List[List[Any]] = []  # [tx_id, monotonic stamp, success]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="e22-commit-watcher", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(2.0)

    def _run(self) -> None:
        node = self._host.node
        last = node.head.block_id
        while not self._stop.wait(HEAD_POLL_S):
            if node.head.block_id != last:
                try:
                    last = self._host.pump.call(self._record_new_blocks, timeout_s=30.0)
                except TimeoutError:
                    continue  # kernel busy with a long block; poll again

    def _record_new_blocks(self) -> str:
        node = self._host.node
        stamp = time.monotonic()
        fresh = []
        for block in node.store.ancestors(node.head):
            if block.block_id in self._seen_blocks:
                break
            fresh.append(block)
        for block in reversed(fresh):
            self._seen_blocks.add(block.block_id)
            for tx in block.transactions:
                receipt = node.receipt(tx.tx_id)
                self.commits.append([tx.tx_id, stamp, bool(receipt and receipt.success)])
        return node.head.block_id


def register_bench_methods(host: P2PHost, watcher: CommitWatcher) -> None:
    def stats(**_params: Any) -> Dict[str, Any]:
        def read() -> Dict[str, Any]:
            node = host.node
            head = node.head
            return {
                "height": head.height,
                "head_id": head.block_id,
                "state_root": node.state.state_root().hex(),
                "pool_depth": len(node.mempool),
                "pool_peak_depth": node.mempool.max_depth_seen,
                "stored_blocks": len(node.store),
                "peers": len(host.service.peers.connected()),
            }

        return host.pump.call(read)

    def commits(since: int = 0, **_params: Any) -> Dict[str, Any]:
        # list.append on the kernel thread and slicing here are both atomic
        # under the interpreter lock; the log is append-only.
        entries = watcher.commits[int(since):]
        return {"commits": entries, "next": int(since) + len(entries)}

    host.registry.register("bench.stats", stats, idempotent=True)
    host.registry.register("bench.commits", commits, idempotent=True)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--index", type=int, required=True, help="validator index")
    parser.add_argument("--ports", required=True, help="comma-separated port of every validator")
    parser.add_argument("--holders", type=int, default=0, help="extra genesis accounts")
    args = parser.parse_args(argv)

    ports = [int(port) for port in args.ports.split(",")]
    addrs = [f"127.0.0.1:{port}" for port in ports]
    name = validator_names()[args.index]
    fixture = build_fixture(args.holders)
    host = P2PHost(
        name=name,
        listen_addr=addrs[args.index],
        genesis=fixture.genesis,
        genesis_state=fixture.state,
        consensus=build_engine(),
        node_config=NodeConfig(),
        p2p_config=P2PConfig(seeds=[a for a in addrs if a != addrs[args.index]]),
    )
    watcher = CommitWatcher(host)
    register_bench_methods(host, watcher)

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    host.start()
    watcher.start()
    print("READY", flush=True)

    def watch_stdin() -> None:
        # Raw reads: a daemon thread parked inside sys.stdin's buffered
        # reader holds its lock and can abort interpreter shutdown.
        try:
            while os.read(0, 4096):
                pass
        finally:
            stop.set()

    threading.Thread(target=watch_stdin, name="e22-stdin", daemon=True).start()
    stop.wait()
    watcher.stop()
    host.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
