"""Exception hierarchy shared across the medchain reproduction.

Every subsystem raises a subclass of :class:`MedchainError` so callers can
catch library failures without accidentally swallowing programming errors.
"""

from __future__ import annotations


class MedchainError(Exception):
    """Base class for every error raised by this library."""


class SerializationError(MedchainError):
    """A value could not be canonically serialized or deserialized."""


class CryptoError(MedchainError):
    """Signature creation or verification failed."""


class ValidationError(MedchainError):
    """A block, transaction, or message failed structural validation."""


class ConsensusError(MedchainError):
    """Consensus protocol violation (bad proof, unknown validator, ...)."""


class ChainError(MedchainError):
    """Chain-store level failure (unknown block, bad parent linkage, ...)."""


class ContractError(MedchainError):
    """Smart-contract deployment or execution failed."""


class OutOfGasError(ContractError):
    """Contract execution exceeded its gas limit."""


class ContractVerificationError(ContractError):
    """Static verification rejected a contract before deployment.

    Carries the list of :class:`repro.analysis.findings.Finding` objects
    that caused the rejection, so deploy tooling can render them.
    """

    def __init__(self, message: str, findings=None):
        super().__init__(message)
        self.findings = list(findings or [])


class AccessDeniedError(MedchainError):
    """An on-chain access policy rejected a data or analytics request."""


class OracleError(MedchainError):
    """The data oracle / monitor node could not satisfy a bridge request."""


class OracleEndpointError(OracleError):
    """A typed oracle bridge failure: which endpoint, and how it failed.

    ``kind`` is one of ``unknown_endpoint`` (no such endpoint registered),
    ``handler_error`` (the endpoint's handler raised), or ``bad_response``
    (the handler returned something that is not a canonical dict).  The RPC
    layer forwards both fields in the error object's ``data`` so remote
    callers can distinguish caller bugs from endpoint bugs.
    """

    def __init__(self, endpoint: str, kind: str, detail: str = ""):
        self.endpoint = endpoint
        self.kind = kind
        self.detail = detail
        message = f"oracle endpoint {endpoint!r}: {kind}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class DataFormatError(MedchainError):
    """A legacy EMR record could not be mapped to the canonical schema."""


class IntegrityError(MedchainError):
    """Hash-anchored data failed its integrity check (tampering detected)."""


class DataAvailabilityError(MedchainError):
    """Erasure coding, dispersal, or availability audit failure (repro.da)."""


class QueryError(MedchainError):
    """A research query could not be parsed, decomposed, or composed."""


class LearningError(MedchainError):
    """Federated / transfer learning configuration or aggregation failure."""


class TrialError(MedchainError):
    """Clinical-trial registry or monitoring failure."""


class SimulationError(MedchainError):
    """Discrete-event simulation kernel misuse."""
