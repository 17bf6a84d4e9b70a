"""Linear probe, accuracy metrics, and divergence-series summaries."""

import numpy as np
import pytest

from fedsim.engine import RoundRecord
from fedsim.evaluation import (
    EvalSpec,
    accuracy,
    classifier_accuracy,
    divergence_series,
    linear_probe,
    stratified_subset,
)
from fedsim.learners import ModelSpec, init_params
from fedsim.params import ParamSet
from fedsim.partition import Dataset, make_blobs

# scaled-down schedule that still converges on the tiny fixtures below
FAST_PROBE = EvalSpec(epochs=60, milestones=(40, 50), lr=0.1, eval_seed=3)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_all_wrong(self):
        assert accuracy([0, 0, 0], [1, 2, 3]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestStratifiedSubset:
    def test_covers_every_class_at_small_fractions(self):
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(5), [100, 50, 25, 10, 5])
        idx = stratified_subset(labels, 0.05, rng)
        assert set(labels[idx]) == set(range(5))

    def test_full_fraction_takes_everything(self):
        rng = np.random.default_rng(1)
        labels = np.repeat(np.arange(3), 10)
        idx = stratified_subset(labels, 1.0, rng)
        assert idx.size == 30

    def test_quota_proportional(self):
        rng = np.random.default_rng(2)
        labels = np.repeat([0, 1], [80, 20])
        idx = stratified_subset(labels, 0.5, rng)
        taken = labels[idx]
        assert (taken == 0).sum() == 40
        assert (taken == 1).sum() == 10


class TestLinearProbe:
    def encoder(self, dim=4, rep=3, seed=0):
        spec = ModelSpec((dim, 8, rep))
        return init_params(spec, np.random.default_rng(seed)), spec

    def test_separable_blobs_reach_full_accuracy(self):
        # spread 0: all samples of a class collapse onto the class mean, so
        # any non-degenerate frozen encoder keeps them linearly separable
        train = make_blobs(3, 30, 4, spread=0.0, seed=1)
        test = make_blobs(3, 10, 4, spread=0.0, seed=2)
        params, spec = self.encoder()
        acc = linear_probe(params, spec, train, test, FAST_PROBE, 1.0)
        assert acc == 1.0

    def test_random_labels_score_at_chance(self):
        rng = np.random.default_rng(3)
        c = 4
        features = rng.normal(size=(400, 4))
        train = Dataset("noise", features, rng.integers(0, c, 400), c)
        test = Dataset("noise", rng.normal(size=(300, 4)), rng.integers(0, c, 300), c)
        params, spec = self.encoder()
        acc = linear_probe(params, spec, train, test, FAST_PROBE, 1.0)
        sigma = np.sqrt((1 / c) * (1 - 1 / c) / 300)
        assert abs(acc - 1 / c) < 3 * sigma

    def test_zero_encoder_scores_majority_class_rate(self):
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 1], [70, 30])
        train = Dataset("skew", rng.normal(size=(100, 4)), labels, 2)
        test_labels = np.repeat([0, 1], [60, 40])
        test = Dataset("skew", rng.normal(size=(100, 4)), test_labels, 2)
        spec = ModelSpec((4, 3))
        zero = ParamSet.from_arrays(
            {"encoder.0.weight": np.zeros((4, 3)), "encoder.0.bias": np.zeros(3)}
        )
        acc = linear_probe(zero, spec, train, test, FAST_PROBE, 1.0)
        assert acc == 0.6  # constant features predict the probe-set majority class

    def test_deterministic(self):
        train = make_blobs(3, 20, 4, spread=0.8, seed=5)
        test = make_blobs(3, 10, 4, spread=0.8, seed=6)
        params, spec = self.encoder(seed=7)
        a = linear_probe(params, spec, train, test, FAST_PROBE, 0.5)
        b = linear_probe(params, spec, train, test, FAST_PROBE, 0.5)
        assert a == b

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "scale, cause", [(1e308, "non-finite frozen features"), (1e160, "head diverged to non-finite weights")]
    )
    def test_diverged_encoder_rejected(self, scale, cause):
        # 1e308 weights overflow the features themselves; 1e160 ones give
        # finite features on which the head's SGD overflows.
        train = make_blobs(3, 20, 4, spread=0.8, seed=5)
        test = make_blobs(3, 10, 4, spread=0.8, seed=6)
        spec = ModelSpec((4, 3))
        huge = ParamSet.from_arrays(
            {"encoder.0.weight": np.full((4, 3), scale), "encoder.0.bias": np.zeros(3)}
        )
        with pytest.raises(ValueError, match=cause):
            linear_probe(huge, spec, train, test, FAST_PROBE, 1.0)

    def test_fraction_too_small_rejected(self):
        train = make_blobs(5, 10, 4, spread=0.5, seed=8)
        test = make_blobs(5, 5, 4, spread=0.5, seed=9)
        params, spec = self.encoder()
        with pytest.raises(ValueError, match="yields"):
            linear_probe(params, spec, train, test, FAST_PROBE, 0.02)

    def test_more_labels_do_not_hurt_on_separable_data(self):
        accs_full, accs_tiny = [], []
        for seed in range(5):
            train = make_blobs(4, 50, 6, spread=0.4, seed=seed)
            test = make_blobs(4, 20, 6, spread=0.4, seed=100 + seed)
            params, spec = self.encoder(dim=6, seed=seed)
            accs_full.append(linear_probe(params, spec, train, test, FAST_PROBE, 1.0))
            accs_tiny.append(linear_probe(params, spec, train, test, FAST_PROBE, 0.05))
        assert np.mean(accs_full) >= np.mean(accs_tiny)

    def test_encoder_unchanged_by_probe(self):
        train = make_blobs(3, 20, 4, spread=0.5, seed=10)
        test = make_blobs(3, 10, 4, spread=0.5, seed=11)
        params, spec = self.encoder(seed=12)
        before = params.vector.tobytes()
        linear_probe(params, spec, train, test, FAST_PROBE, 1.0)
        after = params.vector.tobytes()
        assert before == after


class TestClassifierAccuracy:
    def test_requires_head(self):
        spec = ModelSpec((4, 3))
        params = init_params(spec, np.random.default_rng(0))
        ds = make_blobs(3, 5, 4, 0.5, seed=1)
        with pytest.raises(ValueError, match="head"):
            classifier_accuracy(params, spec, ds)

    def test_perfect_on_trained_fixture(self):
        from fedsim.learners import TrainerSpec, train_clients

        ds = make_blobs(2, 40, 4, spread=0.2, seed=2)
        spec = ModelSpec((4, 8), head_classes=2)
        params = init_params(spec, np.random.default_rng(3))
        trainer = TrainerSpec(method="supervised", batch_size=16, local_epochs=30, lr=0.1)
        (up,) = train_clients([(0, ds, params, np.random.default_rng(4))], trainer, spec)
        assert classifier_accuracy(up.params, spec, ds) > 0.95


def record(round_index, deltas, layer_deltas=None):
    return RoundRecord(
        round_index=round_index,
        strategy_effective="ldawa",
        mu_delta_model=float(np.mean(list(deltas.values()))),
        mu_delta_layer=0.0,
        mean_local_loss=0.0,
        agg_time_ms=0.0,
        probe_acc=None,
        client_deltas=deltas,
        client_layer_deltas=layer_deltas or deltas,
    )


class TestDivergenceSeries:
    def test_constant_unit_divergence(self):
        history = [record(r, {0: 1.0, 1: 1.0}) for r in range(4)]
        per_round, per_client = divergence_series(history)
        assert per_round == [1.0] * 4
        assert per_client == {0: 1.0, 1: 1.0}

    def test_per_client_mean_over_rounds(self):
        history = [record(0, {5: 0.6}), record(1, {5: 0.8})]
        _, per_client = divergence_series(history)
        assert per_client[5] == pytest.approx(0.7)

    def test_series_length_matches_rounds(self):
        history = [record(r, {0: 0.5}) for r in range(7)]
        per_round, _ = divergence_series(history)
        assert len(per_round) == 7

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            divergence_series([])

    def test_layer_mode_uses_layer_deltas(self):
        history = [record(0, {0: 1.0}, layer_deltas={0: 0.25})]
        per_round, _ = divergence_series(history, mode="layer")
        assert per_round == [0.25]
