"""Smart-contract layer: MedScript VM, runtime executor, built-in contracts."""

from repro.contracts.library import (
    ANALYTICS_SOURCE,
    BLOB_REGISTRY_SOURCE,
    CLINICAL_TRIAL_SOURCE,
    COMPUTE_CONTRACT_SOURCE,
    COUNTER_SOURCE,
    DATA_REGISTRY_SOURCE,
    PATIENT_CONSENT_SOURCE,
)
from repro.contracts.runtime import (
    HOST_FUNCTION_NAMES,
    ContractExecutor,
    ContractInfo,
    HostBridge,
)
from repro.contracts.vm import (
    ContractSource,
    GasMeter,
    Interpreter,
    compile_contract,
)

__all__ = [
    "ANALYTICS_SOURCE",
    "BLOB_REGISTRY_SOURCE",
    "CLINICAL_TRIAL_SOURCE",
    "COMPUTE_CONTRACT_SOURCE",
    "COUNTER_SOURCE",
    "ContractExecutor",
    "ContractInfo",
    "ContractSource",
    "DATA_REGISTRY_SOURCE",
    "HOST_FUNCTION_NAMES",
    "PATIENT_CONSENT_SOURCE",
    "GasMeter",
    "HostBridge",
    "Interpreter",
    "compile_contract",
]
