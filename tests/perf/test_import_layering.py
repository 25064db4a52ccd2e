"""What a validator process loads: the chain side, not the data plane; and
what a data-only site server loads: the data plane, not the chain side.

``repro.p2p.host`` is everything E22's validator processes import.  The data plane (analytics, data
management, query, off-chain control, numpy) costs ~0.2 s of start-up and
~14 MB of resident memory per process, and a consensus layer that sits
under the data layer does not need it.  Nor does it need the static
analyser (``repro.analysis``, ~55 ms of start-up): the VM prices its native
regions itself, so running a contract must not import it, and a site
server, which builds one site's data and never deploys a contract, does not
load it either.

The other way round, a site server without ``--validators`` serves data and
runs no chain: it loads no consensus, chain, contract, p2p or simulation
code (~0.15 s of start-up), nor does a request it refuses.  Of ``repro.sim`` it holds only the metrics
registry every layer records into.  Nor does it load the parts of
``repro.da`` and ``repro.datamgmt`` that one site's data does not use:
dispersal, erasure coding and sampling, record linkage and wearables.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

CHAIN_SIDE = {"consensus", "chain", "contracts", "p2p", "sim"}
DATA_PLANE = {"analytics", "datamgmt", "offchain", "query", "core", "learning", "analysis"}
# Modules of the two data packages that one site's data plane does not use.
SITE_UNUSED = {
    "repro.da.clients",
    "repro.da.dispersal",
    "repro.da.erasure",
    "repro.da.gf256",
    "repro.da.manifest",
    "repro.da.sampling",
    "repro.datamgmt.linkage",
    "repro.datamgmt.wearables",
}


def _modules_after(code):
    """Every module a fresh interpreter holds after running ``code``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print('\\n'.join(sys.modules))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.split()


def test_a_validator_process_does_not_import_the_data_plane():
    listing = _modules_after("import repro.p2p.host")
    assert "repro.p2p.host" in listing
    assert "numpy" not in listing
    packages = {name.split(".")[1] for name in listing if name.startswith("repro.")}
    assert not packages & DATA_PLANE, sorted(packages & DATA_PLANE)


def test_running_a_contract_does_not_import_the_analyser():
    listing = _modules_after(
        "from repro.contracts import library\n"
        "from repro.contracts.vm import GasMeter, Interpreter, compile_contract\n"
        "contract = compile_contract(library.COMPUTE_CONTRACT_SOURCE)\n"
        "args = {'a': [[1, 2], [3, 4]], 'b': [[5, 6], [7, 8]], 'n': 2}\n"
        "result = Interpreter(contract, {}, GasMeter(10**6)).call('matmul', args)\n"
        "assert result == [[19, 22], [43, 50]]"
    )
    assert "repro.contracts.vm" in listing
    assert not [name for name in listing if name.startswith("repro.analysis")]


def test_a_site_server_boot_does_not_import_the_analyser():
    listing = _modules_after(
        "from repro.rpc.site_server import build_site\n"
        "site = build_site('hospital-0', 3, 20, 2026)\n"
        "assert site.store.record_count('emr-hospital-0') == 20"
    )
    assert "repro.rpc.site_server" in listing
    assert not [name for name in listing if name.startswith("repro.analysis")]


def test_a_data_only_site_boot_does_not_import_the_chain_side():
    listing = _modules_after(
        "from repro.rpc.site_server import build_site\n"
        "site = build_site('hospital-1', 3, 20, 2026)\n"
        "assert site.store.record_count('emr-hospital-1') == 20"
    )
    assert "repro.rpc.site_server" in listing
    loaded = {
        name for name in listing
        if name.startswith("repro.") and name.split(".")[1] in CHAIN_SIDE
    }
    assert loaded <= {"repro.sim", "repro.sim.metrics"}, sorted(loaded)


def test_a_refused_request_at_a_data_only_site_does_not_import_the_chain_side():
    listing = _modules_after(
        "import asyncio\n"
        "from repro.rpc import codec\n"
        "from repro.rpc.methods import build_site_registry\n"
        "from repro.rpc.server import RpcServer\n"
        "from repro.rpc.site_server import build_site\n"
        "server = RpcServer(build_site_registry(build_site('hospital-0', 3, 20, 2026)))\n"
        "params = {'task_id': 't', 'tool': 'count'}\n"
        "raw = asyncio.run(server.dispatch_raw(codec.request_payload('site.run_task', params, 1)))\n"
        "error = codec.decode_payload(raw)['error']\n"
        "assert error['code'] == -32602 and error['message'].startswith('site.run_task: '), error"
    )
    loaded = sorted(
        name for name in listing
        if name.startswith("repro.") and name.split(".")[1] in CHAIN_SIDE - {"sim"}
    )
    assert not loaded, loaded


def test_a_site_boot_loads_only_the_data_modules_it_uses():
    listing = _modules_after(
        "from repro.rpc.site_server import build_site\n"
        "site = build_site('hospital-2', 3, 20, 2026)\n"
        "assert site.store.record_count('emr-hospital-2') == 20"
    )
    assert "repro.da.store" in listing and "repro.datamgmt.store" in listing
    assert not SITE_UNUSED & set(listing), sorted(SITE_UNUSED & set(listing))


def test_the_rpc_gateways_do_not_import_the_chain_transport():
    """``ChainGateway`` lives in ``repro.core``: the RPC transports load no
    chain code and no platform."""
    listing = _modules_after("import repro.rpc.demo, repro.rpc.gateway")
    assert "repro.rpc.gateway" in listing
    loaded = sorted(
        name for name in listing
        if name.startswith("repro.") and name.split(".")[1] in (CHAIN_SIDE - {"sim"}) | {"core"}
    )
    assert not loaded, loaded
