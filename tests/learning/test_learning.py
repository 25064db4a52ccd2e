"""Federated learning, transfer learning, baselines."""

import numpy as np
import pytest

from repro.analytics.features import FEATURE_DIM, dataset_for
from repro.analytics.models import LogisticModel, MLPModel
from repro.common.errors import LearningError
from repro.datamgmt.cohort import CohortGenerator, default_site_profiles
from repro.learning.baseline import local_only_baselines, train_centralized
from repro.learning.federated import (
    FederatedConfig,
    FederatedTrainer,
    non_iid_severity,
    single_shot_average,
)
from repro.learning.transfer import (
    pretrain_core_model,
    train_from_scratch,
    transfer_fine_tune,
    transfer_learning_curve,
)


@pytest.fixture(scope="module")
def site_data(multi_site_cohorts):
    return {
        site: dataset_for(records, "stroke")
        for site, records in multi_site_cohorts.items()
    }


@pytest.fixture(scope="module")
def eval_data():
    generator = CohortGenerator(seed=404)
    profiles = default_site_profiles(2)
    records = generator.generate_cohort(profiles[0], 400) + generator.generate_cohort(
        profiles[1], 400
    )
    return dataset_for(records, "stroke")


def logistic_factory():
    return LogisticModel(FEATURE_DIM, seed=7)


class TestFederatedTrainer:
    def test_runs_configured_rounds(self, site_data, eval_data):
        trainer = FederatedTrainer(
            logistic_factory, FederatedConfig(rounds=4, local_epochs=1, lr=0.2)
        )
        result = trainer.train(site_data, eval_data)
        assert len(result.history) == 4
        assert result.total_bytes_on_wire > 0

    def test_learning_improves_over_rounds(self, site_data, eval_data):
        trainer = FederatedTrainer(
            logistic_factory, FederatedConfig(rounds=12, local_epochs=2, lr=0.3)
        )
        result = trainer.train(site_data, eval_data)
        first = result.history[0].eval_metrics["loss"]
        last = result.history[-1].eval_metrics["loss"]
        assert last < first

    def test_approaches_centralized_auc(self, site_data, eval_data):
        """E8's core claim: FedAvg ~ centralized accuracy without moving data."""
        fed = FederatedTrainer(
            logistic_factory, FederatedConfig(rounds=15, local_epochs=2, lr=0.3)
        ).train(site_data, eval_data)
        central = train_centralized(
            logistic_factory, site_data, eval_data, epochs=30, lr=0.3
        )
        assert fed.final_metric("auc") > central.eval_metrics["auc"] - 0.03

    def test_beats_local_only(self, site_data, eval_data):
        fed = FederatedTrainer(
            logistic_factory, FederatedConfig(rounds=15, local_epochs=2, lr=0.3)
        ).train(site_data, eval_data)
        local = local_only_baselines(
            logistic_factory, site_data, eval_data, epochs=10, lr=0.3
        )
        mean_local_auc = np.mean([m["auc"] for m in local.values()])
        assert fed.final_metric("auc") >= mean_local_auc - 0.02

    def test_bytes_far_below_centralized(self, site_data, eval_data):
        fed = FederatedTrainer(
            logistic_factory, FederatedConfig(rounds=10, local_epochs=1, lr=0.2)
        ).train(site_data)
        central = train_centralized(logistic_factory, site_data, epochs=5)
        assert fed.total_bytes_on_wire < central.bytes_moved / 2

    def test_partial_participation(self, site_data):
        trainer = FederatedTrainer(
            logistic_factory,
            FederatedConfig(rounds=6, participation=0.5, seed=3),
        )
        result = trainer.train(site_data)
        participant_counts = {len(record.participants) for record in result.history}
        assert participant_counts == {max(1, round(0.5 * len(site_data)))}

    def test_fedsgd_variant_runs(self, site_data, eval_data):
        trainer = FederatedTrainer(
            logistic_factory, FederatedConfig(rounds=8, fedsgd=True, lr=0.5)
        )
        result = trainer.train(site_data, eval_data)
        assert result.final_metric("auc") > 0.5

    def test_deterministic_given_seed(self, site_data):
        results = []
        for __ in range(2):
            trainer = FederatedTrainer(
                logistic_factory, FederatedConfig(rounds=3, seed=11)
            )
            result = trainer.train(site_data)
            results.append(result.model.get_params())
        assert np.allclose(results[0][0], results[1][0])

    def test_empty_sites_rejected(self):
        trainer = FederatedTrainer(logistic_factory)
        with pytest.raises(LearningError):
            trainer.train({})

    def test_local_training_failure_names_the_site(self, eval_data):
        class FailsOnSmallShards(LogisticModel):
            def train_epochs(self, X, *args, **kwargs):
                if len(X) < 20:
                    raise FloatingPointError("diverged")
                return super().train_epochs(X, *args, **kwargs)

        X, y = eval_data
        data = {"a": (X[:40], y[:40]), "b": (X[:10], y[:10]), "c": (X[:40], y[:40])}
        trainer = FederatedTrainer(
            lambda: FailsOnSmallShards(FEATURE_DIM, seed=7), FederatedConfig(rounds=2)
        )
        with pytest.raises(LearningError, match="local training failed at site 'b'") as info:
            trainer.train(data)
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_on_round_callback(self, site_data):
        seen = []
        trainer = FederatedTrainer(logistic_factory, FederatedConfig(rounds=3))
        trainer.train(site_data, on_round=lambda record: seen.append(record.round_index))
        assert seen == [0, 1, 2]

    def test_fedavg_identical_data_matches_single_site(self, eval_data):
        """Invariant: with identical shards and full participation, FedAvg's
        average equals any single site's update."""
        X, y = eval_data
        shard = (X[:200], y[:200])
        data = {"a": shard, "b": shard, "c": shard}
        fed = FederatedTrainer(
            logistic_factory, FederatedConfig(rounds=1, local_epochs=1, lr=0.2, seed=5)
        ).train(data)
        solo = logistic_factory()
        solo.train_epochs(*shard, epochs=1, lr=0.2, seed=5 * 1000)
        assert np.allclose(fed.model.get_params()[0], solo.get_params()[0])

    def test_non_iid_severity_zero_for_identical(self):
        y = np.array([1.0, 0.0])
        X = np.zeros((2, 3))
        assert non_iid_severity({"a": (X, y), "b": (X, y)}) == 0.0

    def test_single_shot_average(self, site_data, eval_data):
        model = single_shot_average(logistic_factory, site_data, epochs=10, lr=0.3)
        assert model.evaluate(*eval_data)["auc"] > 0.6


class TestTransfer:
    @pytest.fixture(scope="class")
    def core_model(self, site_data):
        return pretrain_core_model(site_data, hidden=12, rounds=10, lr=0.3, seed=1)

    def test_pretrained_model_is_mlp(self, core_model):
        assert isinstance(core_model, MLPModel)

    def test_fine_tune_beats_scratch_on_small_data(self, core_model, eval_data):
        generator = CohortGenerator(seed=909)
        profile = default_site_profiles(1)[0]
        pool = generator.generate_cohort(profile, 400)
        X_pool, y_pool = dataset_for(pool, "diabetes")
        X_test, y_test = dataset_for(
            generator.generate_cohort(profile, 600), "diabetes"
        )
        results = transfer_learning_curve(
            core_model, X_pool, y_pool, X_test, y_test, sizes=[40], epochs=40, seed=2
        )
        # With 40 samples, pretrained features should not be much worse and
        # usually better; allow slack for stochasticity.
        assert results[0].transfer_metrics["auc"] > results[0].scratch_metrics["auc"] - 0.05

    def test_fine_tune_preserves_hidden_layer(self, core_model, eval_data):
        X, y = eval_data
        tuned = transfer_fine_tune(core_model, X[:100], y[:100], epochs=5)
        assert np.allclose(tuned.w1, core_model.w1)

    def test_full_fine_tune_changes_hidden_layer(self, core_model, eval_data):
        X, y = eval_data
        tuned = transfer_fine_tune(
            core_model, X[:100], y[:100], epochs=5, head_only=False
        )
        assert not np.allclose(tuned.w1, core_model.w1)

    def test_curve_size_validation(self, core_model, eval_data):
        X, y = eval_data
        with pytest.raises(LearningError):
            transfer_learning_curve(core_model, X[:10], y[:10], X, y, sizes=[100])

    def test_scratch_baseline_runs(self, eval_data):
        X, y = eval_data
        model = train_from_scratch(X[:100], y[:100], epochs=5)
        assert 0.0 <= model.evaluate(X, y)["auc"] <= 1.0

    def test_centralized_pretraining_variant(self, site_data):
        model = pretrain_core_model(site_data, federated=False, rounds=3)
        assert isinstance(model, MLPModel)


class TestCentralizedBaseline:
    def test_bytes_moved_counts_every_record(self, site_data):
        result = train_centralized(logistic_factory, site_data, epochs=1)
        total_records = sum(len(y) for __, y in site_data.values())
        assert result.bytes_moved == total_records * 900

    def test_empty_rejected(self):
        with pytest.raises(LearningError):
            train_centralized(logistic_factory, {})

    def test_local_only_reports_per_site(self, site_data, eval_data):
        out = local_only_baselines(logistic_factory, site_data, eval_data, epochs=2)
        assert set(out) == set(site_data)
