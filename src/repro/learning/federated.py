"""Federated learning over distributed hospital sites.

Implements FedAvg (McMahan et al. 2017, the paper's reference [23]) adapted
to the paper's setting: a *small number of powerful hospital servers* rather
than millions of phones (section III.C).  Raw training data never leaves a
site; only model parameters travel, and the trainer accounts every byte so
E8 can compare wire cost against the copy-all-data centralized baseline.

Variants:
- FedAvg: E local epochs per round, weighted parameter averaging;
- FedSGD: one full-batch gradient step per round (epochs=1, batch=all);
- single-shot: one round of deep local training then a single average.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analytics.models import (
    Params,
    SupervisedModel,
    average_params,
    params_size_bytes,
)
from repro.common.errors import LearningError
from repro.obs.tracer import trace_span
from repro.sim.metrics import current_metrics

SiteData = Dict[str, Tuple[np.ndarray, np.ndarray]]
ModelFactory = Callable[[], SupervisedModel]


@dataclass
class FederatedConfig:
    """Hyper-parameters of a federated run."""

    rounds: int = 10
    local_epochs: int = 2
    lr: float = 0.1
    batch_size: int = 32
    participation: float = 1.0  # fraction of sites sampled per round
    seed: int = 0
    fedsgd: bool = False  # one full-batch step per round instead


@dataclass
class RoundRecord:
    """Telemetry for one federated round."""

    round_index: int
    participants: List[str]
    mean_local_loss: float
    bytes_on_wire: int
    eval_metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class FederatedResult:
    """Outcome of a federated training run."""

    model: SupervisedModel
    history: List[RoundRecord]
    total_bytes_on_wire: int
    total_local_flops: float

    def final_metric(self, name: str) -> float:
        if not self.history or name not in self.history[-1].eval_metrics:
            return float("nan")
        return self.history[-1].eval_metrics[name]


def _train_site_worker(
    model_factory: ModelFactory,
    global_params: Params,
    X: np.ndarray,
    y: np.ndarray,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
) -> Tuple[Params, float, float, int]:
    """One site's local training step.

    Returns ``(params, loss, flops, n_samples)`` so the coordinator can do
    the weighted FedAvg reduction in deterministic (sorted-site) order.
    """
    with trace_span("fl.local_train", samples=len(X), epochs=epochs) as span:
        local_model = model_factory()
        local_model.set_params(global_params)
        loss = local_model.train_epochs(
            X, y, epochs=epochs, lr=lr, batch_size=batch_size, seed=seed
        )
        span.set_attr("flops", local_model.flops)
        span.set_attr("loss", loss)
    current_metrics().add("fl_local_flops", local_model.flops)
    return local_model.get_params(), loss, local_model.flops, len(X)


class FederatedTrainer:
    """Coordinates FedAvg/FedSGD rounds over per-site (X, y) shards.

    Each round trains its participants one after another in sorted-site
    order; local seeding is deterministic per round and the FedAvg
    reduction is ordered, so a run is reproducible bit for bit.
    """

    def __init__(
        self,
        model_factory: ModelFactory,
        config: Optional[FederatedConfig] = None,
    ):
        self.model_factory = model_factory
        self.config = config or FederatedConfig()

    def train(
        self,
        site_data: SiteData,
        eval_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        on_round: Optional[Callable[[RoundRecord], None]] = None,
    ) -> FederatedResult:
        """Run the configured number of rounds; returns the global model."""
        if not site_data:
            raise LearningError("no sites to train on")
        config = self.config
        rng = random.Random(config.seed)
        global_model = self.model_factory()
        global_params = global_model.get_params()
        history: List[RoundRecord] = []
        total_bytes = 0
        total_flops = 0.0
        site_names = sorted(site_data)
        with trace_span(
            "fl.train", rounds=config.rounds, sites=len(site_names)
        ) as train_span:
            for round_index in range(config.rounds):
                with trace_span("fl.round", round=round_index) as round_span:
                    participants = self._sample_participants(site_names, rng)
                    active = [
                        site
                        for site in participants
                        if len(site_data[site][0]) > 0
                    ]
                    epochs = 1 if config.fedsgd else config.local_epochs
                    collected: List[Params] = []
                    weights: List[float] = []
                    losses: List[float] = []
                    round_bytes = 0
                    for site in active:
                        X, y = site_data[site]
                        batch = len(X) if config.fedsgd else config.batch_size
                        try:
                            params, loss, flops, sample_count = _train_site_worker(
                                self.model_factory,
                                global_params,
                                X,
                                y,
                                epochs,
                                config.lr,
                                batch,
                                config.seed * 1000 + round_index,
                            )
                        except Exception as exc:
                            raise LearningError(
                                f"local training failed at site {site!r}: {exc}"
                            ) from exc
                        collected.append(params)
                        weights.append(float(sample_count))
                        losses.append(loss)
                        total_flops += flops
                        # down-link (global params) + up-link (local update)
                        round_bytes += 2 * params_size_bytes(params)
                    if collected:
                        global_params = average_params(collected, weights)
                        global_model.set_params(global_params)
                    total_bytes += round_bytes
                    record = RoundRecord(
                        round_index=round_index,
                        participants=participants,
                        mean_local_loss=(
                            float(np.mean(losses)) if losses else float("nan")
                        ),
                        bytes_on_wire=round_bytes,
                    )
                    round_span.set_attr("participants", len(active))
                    round_span.set_attr("bytes", round_bytes)
                    round_span.set_attr("loss", record.mean_local_loss)
                    if eval_data is not None:
                        record.eval_metrics = global_model.evaluate(*eval_data)
                    history.append(record)
                    if on_round is not None:
                        on_round(record)
            train_span.set_attr("bytes", total_bytes)
            train_span.set_attr("flops", total_flops)
        return FederatedResult(
            model=global_model,
            history=history,
            total_bytes_on_wire=total_bytes,
            total_local_flops=total_flops,
        )

    def _sample_participants(
        self, site_names: List[str], rng: random.Random
    ) -> List[str]:
        fraction = self.config.participation
        if fraction >= 1.0:
            return list(site_names)
        count = max(1, int(round(fraction * len(site_names))))
        return sorted(rng.sample(site_names, count))


def single_shot_average(
    model_factory: ModelFactory,
    site_data: SiteData,
    epochs: int = 20,
    lr: float = 0.1,
    batch_size: int = 32,
    seed: int = 0,
) -> SupervisedModel:
    """Ablation: train each site to convergence once, average once."""
    collected: List[Params] = []
    weights: List[float] = []
    for site in sorted(site_data):
        X, y = site_data[site]
        if len(X) == 0:
            continue
        model = model_factory()
        model.train_epochs(X, y, epochs=epochs, lr=lr, batch_size=batch_size, seed=seed)
        collected.append(model.get_params())
        weights.append(float(len(X)))
    if not collected:
        raise LearningError("no data at any site")
    merged = model_factory()
    merged.set_params(average_params(collected, weights))
    return merged


def non_iid_severity(site_data: SiteData) -> float:
    """Heterogeneity index: mean absolute deviation of per-site label rates.

    0 = identical label distribution at every site; grows as sites diverge.
    """
    rates = [float(np.mean(y)) for __, y in site_data.values() if len(y)]
    if not rates:
        return 0.0
    overall = float(np.mean(rates))
    return float(np.mean([abs(rate - overall) for rate in rates]))
