"""Core: the transformed blockchain platform, query service, strategies."""

from repro.core.chain_gateway import ChainGateway
from repro.core.platform import (
    FDA_NODE_NAME,
    MedicalBlockchainNetwork,
    ParamsDepot,
    PlatformConfig,
)
from repro.core.queryservice import GlobalQueryService
from repro.core.strategies import (
    ExecutionReport,
    compute_to_data,
    data_to_compute,
)
from repro.offchain.site import Site

__all__ = [
    "ChainGateway",
    "ExecutionReport",
    "FDA_NODE_NAME",
    "GlobalQueryService",
    "MedicalBlockchainNetwork",
    "ParamsDepot",
    "PlatformConfig",
    "Site",
    "compute_to_data",
    "data_to_compute",
]
