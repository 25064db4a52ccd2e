"""Deterministic demo network builders for RPC serving.

The TCP story needs *separate processes* to agree on the data: the
gateway process boots the platform and each site server process builds
its own site, both from one seeded stream of records (:func:`demo_cohorts`,
and :func:`demo_site_records` for one site of it), so a site server holds
exactly the records the in-process platform does — with no shared memory
and nothing copied between processes.  The same builders
back the in-process transport, which is what makes the E15 tcp-vs-inproc
hash equivalence check meaningful.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Tuple

from repro.common.signatures import KeyPair
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.rpc.gateway import InprocGateway
from repro.rpc.methods import build_site_registry
from repro.rpc.server import RpcServer

if TYPE_CHECKING:
    from repro.core.platform import MedicalBlockchainNetwork

DEFAULT_SEED = 2026


def _demo_stream(
    site_count: int, records_per_site: int, seed: int
) -> Iterator[Tuple[str, List[Dict[str, Any]]]]:
    """``(site, records)`` in site order, drawn lazily from one generator:
    a site's records depend on every draw before them."""
    generator = CohortGenerator(seed=seed)
    for profile in default_site_profiles(site_count):
        yield profile.name, generator.generate_cohort(profile, records_per_site)


def demo_cohorts(
    site_count: int, records_per_site: int, seed: int
) -> Dict[str, List[Dict[str, Any]]]:
    """Each demo site's records, ``emr-<site>``'s content: a pure function."""
    return dict(_demo_stream(site_count, records_per_site, seed))


def demo_site_records(
    site: str, site_count: int, records_per_site: int, seed: int
) -> List[Dict[str, Any]]:
    """``demo_cohorts(site_count, records_per_site, seed)[site]``, drawing
    the stream only up to ``site`` and keeping no other site's records.

    An unknown ``site`` raises ``ValueError`` before anything is drawn.
    """
    names = [profile.name for profile in default_site_profiles(site_count)]
    if site not in names:
        raise ValueError(f"unknown site {site!r}; have {sorted(names)}")
    stream = _demo_stream(site_count, records_per_site, seed)
    return next(records for name, records in stream if name == site)


def build_demo_network(
    site_count: int = 3,
    records_per_site: int = 120,
    seed: int = DEFAULT_SEED,
) -> Tuple[MedicalBlockchainNetwork, KeyPair]:
    """Boot a platform with registered datasets and a granted researcher.

    Every byte of state is a pure function of the arguments, so any two
    processes calling this with the same arguments hold identical sites.
    """
    # Imported here: a site server process builds its site from
    # ``demo_cohorts`` alone and never loads the platform.
    from repro.core.platform import MedicalBlockchainNetwork, PlatformConfig

    cohorts = demo_cohorts(site_count, records_per_site, seed)
    platform = MedicalBlockchainNetwork(
        PlatformConfig(
            site_count=site_count, consensus="poa", include_fda=False, seed=seed
        )
    )
    for site, records in sorted(cohorts.items()):
        platform.register_dataset(site, f"emr-{site}", records)
    researcher = KeyPair.generate(f"rpc-demo-researcher-{seed}")
    for site in platform.site_names:
        platform.grant_access(site, f"emr-{site}", researcher.address, "research")
    return platform, researcher


def build_site_server(platform: MedicalBlockchainNetwork, site_name: str) -> RpcServer:
    """An :class:`RpcServer` exposing one platform site's method surface."""
    return RpcServer(
        build_site_registry(platform.sites[site_name]), name=site_name, metrics=platform.metrics
    )


def build_inproc_gateway(platform: MedicalBlockchainNetwork) -> InprocGateway:
    """An in-process gateway over every site of a booted platform."""
    servers: Dict[str, RpcServer] = {
        site: build_site_server(platform, site) for site in platform.site_names
    }
    return InprocGateway(servers)
