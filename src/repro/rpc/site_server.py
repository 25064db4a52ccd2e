"""Run one hospital site as a standalone RPC server process.

    PYTHONPATH=src python -m repro.rpc.site_server --site hospital-0 \
        --sites 3 --records 120 --seed 2026 --port 0

The process builds the named site with
:func:`repro.offchain.site.assemble_site`, the function the in-process
platform builds its sites with, over a ``HospitalDataStore`` holding
``emr-<site>`` (the site's records of :func:`repro.rpc.demo.demo_cohorts`,
so the in-process demo network holds the same data, drawn only as far as
this site).  It passes no chain node, so the site is data only: a
``TaskRunner`` over the standard tools and a ``ChunkStore``, no oracle, and
without ``--validators`` no chain code loaded.  It serves the site's method
surface on the given address and prints one machine-readable line to stdout
once bound::

    LISTENING 127.0.0.1 43571

Given ``--validators``, the same process and port is also a live chain
node — the paper's Fig. 2, where the sites that host data are the nodes.
It runs a :class:`~repro.p2p.host.P2PHost` named ``--site`` and serves the
site's methods on the host's registry next to the node's (``p2p.*``,
``chain.get_headers`` / ``chain.get_blocks``, ``ctl.*``,
``mempool.status``).  Every process derives the same genesis and PoA
engine from ``--validators`` and ``--fund``; the genesis also funds the
platform deployer, so every process knows the five platform contract ids
from the start (:func:`repro.contracts.deploy.platform_contract_ids`).  The
first validator submits their deploy txs through its node, each built only
after its source passed the static verifier, PHI taint pass included.  The
site itself stays data only: its control code is not bound to those
contracts.  ``--base-port`` maps validator i to
port base+i, which gives every seed address and, without ``--port``, the
process's own; ``--seeds`` names the seeds instead.  A ``--site`` outside
``--validators`` cold-syncs and follows the chain::

    PYTHONPATH=src python -m repro.rpc.site_server --site hospital-0 \
        --validators hospital-0,hospital-1,hospital-2 --base-port 9400 \
        --fund alice:1000000000

It exits cleanly — draining in-flight requests — on SIGTERM/SIGINT or,
when stdin is a pipe, once it reaches EOF (the supervisor closed the
pipe).  The E15 and E22 benchmarks and the CI smoke job supervise
fleets of these processes.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import stat
import sys
import threading
from typing import Callable, Dict, List

from repro.datamgmt.store import HospitalDataStore
from repro.offchain.site import Site, assemble_site
from repro.rpc.demo import DEFAULT_SEED, demo_site_records
from repro.rpc.methods import build_site_registry
from repro.rpc.server import RpcServer


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--site", required=True, help="site name, e.g. hospital-0")
    parser.add_argument("--sites", type=int, default=3, help="sites in the demo network")
    parser.add_argument("--records", type=int, default=120, help="records per site")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--validators", default="", help="comma-separated validator names, in order"
    )
    parser.add_argument(
        "--base-port",
        type=int,
        default=0,
        help="validator i listens on base+i; used to derive seed addresses",
    )
    parser.add_argument("--seeds", default="", help="comma-separated host:port seed addresses")
    parser.add_argument(
        "--fund",
        action="append",
        default=[],
        help="label:amount funded at genesis (repeatable; must match peers)",
    )
    return parser.parse_args(argv)


def build_site(name: str, site_count: int, records_per_site: int, seed: int) -> Site:
    """One demo site, data only, holding what the platform's copy holds."""
    try:
        records = demo_site_records(name, site_count, records_per_site, seed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    store = HospitalDataStore(name)
    site = assemble_site(name, store)
    store.add_canonical(f"emr-{name}", records, owner=site.keypair.address)
    return site


def parse_fund(specs: List[str]) -> Dict[str, int]:
    fund: Dict[str, int] = {}
    for spec in specs:
        label, _, amount = spec.partition(":")
        if not label or not amount:
            raise SystemExit(f"--fund expects label:amount, got {spec!r}")
        fund[label] = int(amount)
    return fund


def _on_stop(stop: Callable[[], None]) -> None:
    """Call ``stop`` on SIGTERM/SIGINT, or once stdin, if a pipe, hits EOF."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop())
    if not stat.S_ISFIFO(os.fstat(0).st_mode):
        return  # a terminal, or /dev/null under a shell's ``&``

    def watch() -> None:
        # Raw reads: a daemon thread parked inside sys.stdin's buffered
        # reader holds its lock and can abort interpreter shutdown.
        try:
            while os.read(0, 4096):
                pass
        except OSError:
            pass
        stop()

    threading.Thread(target=watch, name="stdin-eof", daemon=True).start()


async def serve(args: argparse.Namespace) -> int:
    site = build_site(args.site, args.sites, args.records, args.seed)
    server = RpcServer(build_site_registry(site), name=args.site)
    host, port = await server.start(args.host, args.port)
    print(f"LISTENING {host} {port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    _on_stop(lambda: loop.call_soon_threadsafe(stop.set))
    await stop.wait()
    await server.close()
    return 0


def build_node(
    name: str, validators: List[str], fund: Dict[str, int], listen: str, seeds: List[str]
):
    """The chain node of ``--validators`` process ``name``, not started.

    Every process funds the platform deployer next to ``fund``, so all of
    them derive one genesis and PoA engine, and one set of contract ids.
    """
    from repro.consensus.node import NodeConfig
    from repro.contracts.deploy import DEPLOYER, FUNDING
    from repro.p2p.config import P2PConfig
    from repro.p2p.host import P2PHost, build_world

    genesis, state, engine = build_world(validators, {DEPLOYER: FUNDING, **fund})
    return P2PHost(
        name=name,
        listen_addr=listen,
        genesis=genesis,
        genesis_state=state,
        consensus=engine,
        node_config=NodeConfig(mine_empty=False),
        p2p_config=P2PConfig(seeds=[s for s in seeds if s != listen]),
    )


def deploy_platform_contracts(host) -> None:
    """Submit the platform contracts' verified deploy txs through ``host``'s node.

    Stamped 0 and signed deterministically, they are the same bytes in every
    process, so a second submit of them changes nothing.
    """
    from repro.common.signatures import KeyPair
    from repro.contracts.deploy import DEPLOYER, platform_deploy_tx
    from repro.contracts.library import PLATFORM_CONTRACTS

    deployer = KeyPair.generate(DEPLOYER)
    txs = [platform_deploy_tx(deployer, name) for name in PLATFORM_CONTRACTS]
    host.pump.call(lambda: [host.node.submit_tx(tx) for tx in txs])


def serve_node(args: argparse.Namespace) -> int:
    """The site's methods on a live chain node's server (``--validators``)."""
    validators = [v for v in args.validators.split(",") if v]
    site = build_site(args.site, args.sites, args.records, args.seed)
    if args.seeds:
        seeds = [s for s in args.seeds.split(",") if s]
    elif args.base_port:
        seeds = [f"{args.host}:{args.base_port + i}" for i in range(len(validators))]
    else:
        raise SystemExit("--validators needs --seeds or --base-port")
    port = args.port
    if not port and args.base_port and args.site in validators:
        port = args.base_port + validators.index(args.site)
    host = build_node(
        args.site, validators, parse_fund(args.fund), f"{args.host}:{port}", seeds
    )
    build_site_registry(site, registry=host.registry)
    stop = threading.Event()
    _on_stop(stop.set)
    bound_host, _, bound_port = host.start().rpartition(":")
    if validators[:1] == [args.site]:
        deploy_platform_contracts(host)
    print(f"LISTENING {bound_host} {bound_port}", flush=True)
    stop.wait()
    host.stop()
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.validators:
        return serve_node(args)
    return asyncio.run(serve(args))


if __name__ == "__main__":
    sys.exit(main())
