"""Distributed learning: federated training, transfer learning, baselines."""

from repro.learning.baseline import (
    CentralizedResult,
    estimate_record_bytes,
    local_only_baselines,
    train_centralized,
)
from repro.learning.federated import (
    FederatedConfig,
    FederatedResult,
    FederatedTrainer,
    RoundRecord,
    non_iid_severity,
    single_shot_average,
)
from repro.learning.serialization import (
    model_from_dict,
    model_hash,
    model_to_dict,
    verify_model,
)
from repro.learning.transfer import (
    MultiTaskSiteData,
    TransferResult,
    pretrain_core_model,
    pretrain_core_multitask,
    train_from_scratch,
    transfer_fine_tune,
    transfer_learning_curve,
)

__all__ = [
    "CentralizedResult",
    "FederatedConfig",
    "FederatedResult",
    "FederatedTrainer",
    "RoundRecord",
    "TransferResult",
    "estimate_record_bytes",
    "local_only_baselines",
    "non_iid_severity",
    "MultiTaskSiteData",
    "pretrain_core_model",
    "pretrain_core_multitask",
    "single_shot_average",
    "train_centralized",
    "train_from_scratch",
    "transfer_fine_tune",
    "transfer_learning_curve",
    "model_from_dict",
    "model_hash",
    "model_to_dict",
    "verify_model",
]
