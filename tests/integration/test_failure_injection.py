"""Failure injection: partitions, crashes, stragglers, lossy links.

The paper's setting is a WAN of independently-administered hospitals, so
the platform must degrade gracefully when parts of it misbehave.
"""


from repro.common.signatures import KeyPair
from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig
from repro.core.queryservice import GlobalQueryService
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.query.vector import QueryVector
from repro.rpc.errors import TIMEOUT
from repro.sim.network import LinkSpec


def build_world(site_count=3, seed=13, loss_rate=0.0):
    platform = MedicalBlockchainNetwork(
        PlatformConfig(
            site_count=site_count,
            consensus="poa",
            include_fda=False,
            seed=seed,
            link=LinkSpec(loss_rate=loss_rate),
        )
    )
    generator = CohortGenerator(seed=seed)
    profiles = default_site_profiles(site_count)
    for index, site in enumerate(platform.site_names):
        platform.register_dataset(
            site, f"emr-{site}", generator.generate_cohort(profiles[index], 80)
        )
    researcher = KeyPair.generate(f"fi-researcher-{seed}")
    for site in platform.site_names:
        platform.grant_access(site, f"emr-{site}", researcher.address, "research")
    return platform, researcher


class TestPartitions:
    def test_partitioned_site_times_out_others_answer(self):
        platform, researcher = build_world()
        service = GlobalQueryService(platform, researcher)
        isolated = "hospital-2"
        others = [name for name in platform.nodes if name != isolated]
        platform.network.partition(set(others), {isolated})
        vector = QueryVector(intent="count", purpose="research")
        answer = service.execute(vector, timeout_s=60)
        assert isolated in answer.failed_sites
        assert set(answer.site_partials) == set(platform.site_names) - {isolated}
        # Composition still worked over the reachable majority.
        assert answer.result["count"] == 2 * 80

    def test_healed_partition_catches_up(self):
        platform, researcher = build_world(seed=14)
        isolated = "hospital-2"
        others = [name for name in platform.nodes if name != isolated]
        head_before = platform.nodes[isolated].head.height
        platform.network.partition(set(others), {isolated})
        service = GlobalQueryService(platform, researcher)
        vector = QueryVector(intent="count", purpose="research")
        service.execute(vector, timeout_s=60)
        platform.network.heal()
        # New work after healing flows to everyone again.
        answer = service.execute(QueryVector(intent="count", purpose="research"),
                                 timeout_s=120)
        assert "hospital-0" in answer.site_partials
        assert "hospital-1" in answer.site_partials
        # The healed node's chain advanced past its partition-era head.
        assert platform.nodes[isolated].head.height >= head_before


class TestCrashes:
    def test_stopped_node_does_not_stall_poa_chain(self):
        """PoA rotates past a dead proposer only if others keep producing;
        our simple round-robin *does* stall on the dead proposer's turns, so
        queries must still settle via timeout reporting, not hang."""
        platform, researcher = build_world(seed=15)
        platform.nodes["hospital-1"].stop()
        service = GlobalQueryService(platform, researcher)
        vector = QueryVector(intent="count", purpose="research")
        # The dead node left the network; others depend on rotation.
        # Whatever happens, execute() must return within the timeout.
        try:
            answer = service.execute(vector, timeout_s=30)
            assert answer.result["count"] >= 80
        except Exception as exc:
            assert "no results" in str(exc)

    def test_crashed_site_reported_as_timeout(self):
        platform, researcher = build_world(seed=16)
        # Unregister the control node's event feed by stopping its node's
        # participation (it still verifies blocks, but we simulate a dead
        # task runner by making the host lose its dataset).
        victim = platform.sites["hospital-2"]
        victim.store._datasets.clear()
        service = GlobalQueryService(platform, researcher)
        vector = QueryVector(intent="count", purpose="research")
        answer = service.execute(vector, timeout_s=45)
        assert answer.failed_sites["hospital-2"].startswith(f"[{TIMEOUT}]")
        assert len(answer.site_partials) == 2


class TestStragglers:
    def test_slow_site_delays_but_completes(self):
        platform, researcher = build_world(seed=17)
        platform.sites["hospital-2"].control.compute_rate_flops = 50.0  # glacial
        service = GlobalQueryService(platform, researcher)
        vector = QueryVector(intent="count", purpose="research")
        answer = service.execute(vector, timeout_s=600)
        assert len(answer.site_partials) == 3
        assert answer.result["count"] == 3 * 80
        # The straggler dominated the makespan.
        assert answer.latency_s > 5.0


class TestLossyNetwork:
    def test_query_completes_despite_packet_loss(self):
        platform, researcher = build_world(seed=18, loss_rate=0.10)
        service = GlobalQueryService(platform, researcher)
        vector = QueryVector(intent="count", purpose="research")
        answer = service.execute(vector, timeout_s=300)
        # A lost announce is covered by the other announcers (every relay
        # re-announces), a lost fetch retries from the next announcer, and
        # the ping head exchange re-syncs whoever still fell behind.
        assert answer.result["count"] == 3 * 80

    def test_chain_consistency_despite_loss(self):
        platform, __ = build_world(seed=19, loss_rate=0.10)
        platform.run(60)
        roots = {node.state.state_root() for node in platform.nodes.values()}
        assert len(roots) == 1
