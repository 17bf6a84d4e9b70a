"""Linear probe and accuracy metrics."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedsim.evaluation import (
    EvalSpec,
    _train_head,
    accuracy,
    linear_probe,
    stratified_subset,
)
from fedsim.learners import ModelSpec, init_params
from fedsim.params import ParamSet
from fedsim.partition import Dataset, make_blobs
from helpers import classifier_accuracy, parent_loss_xent

ROOT = Path(__file__).resolve().parent.parent

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

    # linear_probe encodes the training set in place at fraction 1.0, so the subset must be every row in order
    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(labels=st.lists(st.integers(0, 20), min_size=1, max_size=200), seed=st.integers(0, 2**16))
    def test_full_fraction_is_every_row_in_order(self, labels, seed):
        idx = stratified_subset(np.array(labels), 1.0, np.random.default_rng(seed))
        assert idx.tobytes() == np.arange(len(labels)).tobytes()

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
        (acc,) = linear_probe(params, spec, train, test, FAST_PROBE, [1.0])
        assert acc == 1.0

    def test_random_labels_score_at_chance(self):
        rng = np.random.default_rng(3)
        c = 4
        features = rng.normal(size=(400, 4))
        train = Dataset(features, rng.integers(0, c, 400), c)
        test = Dataset(rng.normal(size=(300, 4)), rng.integers(0, c, 300), c)
        params, spec = self.encoder()
        (acc,) = linear_probe(params, spec, train, test, FAST_PROBE, [1.0])
        sigma = np.sqrt((1 / c) * (1 - 1 / c) / 300)
        assert abs(acc - 1 / c) < 3 * sigma

    def test_zero_encoder_scores_majority_class_rate(self):
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 1], [70, 30])
        train = Dataset(rng.normal(size=(100, 4)), labels, 2)
        test_labels = np.repeat([0, 1], [60, 40])
        test = Dataset(rng.normal(size=(100, 4)), test_labels, 2)
        spec = ModelSpec((4, 3))
        zero = ParamSet.from_arrays(
            {"encoder.0.weight": np.zeros((4, 3)), "encoder.0.bias": np.zeros(3)}
        )
        (acc,) = linear_probe(zero, spec, train, test, FAST_PROBE, [1.0])
        assert acc == 0.6  # constant features predict the probe-set majority class

    def test_deterministic(self):
        train = make_blobs(3, 20, 4, spread=0.8, seed=5)
        test = make_blobs(3, 10, 4, spread=0.8, seed=6)
        params, spec = self.encoder(seed=7)
        a = linear_probe(params, spec, train, test, FAST_PROBE, [0.5])
        b = linear_probe(params, spec, train, test, FAST_PROBE, [0.5])
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
            linear_probe(huge, spec, train, test, FAST_PROBE, [1.0])

    def test_fraction_too_small_rejected(self):
        train = make_blobs(5, 10, 4, spread=0.5, seed=8)
        test = make_blobs(5, 5, 4, spread=0.5, seed=9)
        params, spec = self.encoder()
        with pytest.raises(ValueError, match="yields"):
            linear_probe(params, spec, train, test, FAST_PROBE, [0.02])

    def test_more_labels_do_not_hurt_on_separable_data(self):
        accs_full, accs_tiny = [], []
        for seed in range(5):
            train = make_blobs(4, 50, 6, spread=0.4, seed=seed)
            test = make_blobs(4, 20, 6, spread=0.4, seed=100 + seed)
            params, spec = self.encoder(dim=6, seed=seed)
            accs_full += linear_probe(params, spec, train, test, FAST_PROBE, [1.0])
            accs_tiny += linear_probe(params, spec, train, test, FAST_PROBE, [0.05])
        assert np.mean(accs_full) >= np.mean(accs_tiny)

    def test_encoder_unchanged_by_probe(self):
        train = make_blobs(3, 20, 4, spread=0.5, seed=10)
        test = make_blobs(3, 10, 4, spread=0.5, seed=11)
        params, spec = self.encoder(seed=12)
        before = params.vector.tobytes()
        linear_probe(params, spec, train, test, FAST_PROBE, [1.0])
        after = params.vector.tobytes()
        assert before == after


def hand_written_head(feats, labels, c, spec, rng):
    """The probe head as evaluation once trained it, by hand: its weight then its bias, flat.

    The gradient is ``parent_loss_xent``'s, so no learners code is shared with the probe it checks.
    """
    d = feats.shape[1]
    bound = 1.0 / math.sqrt(d)
    weight = rng.uniform(-bound, bound, size=(d, c))
    bias = rng.uniform(-bound, bound, size=c)
    vel_w = np.zeros_like(weight)
    vel_b = np.zeros_like(bias)
    n = feats.shape[0]
    for epoch in range(spec.epochs):
        lr = spec.lr * spec.decay_factor ** int(np.searchsorted(np.asarray(spec.milestones), epoch, side="right"))
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = order[start : start + spec.batch_size]
            logits = feats[idx] @ weight + bias
            _, grad = parent_loss_xent(logits, labels[idx])
            vel_w = spec.momentum * vel_w + feats[idx].T @ grad
            vel_b = spec.momentum * vel_b + grad.sum(axis=0)
            weight = weight - lr * vel_w
            bias = bias - lr * vel_b
    return np.concatenate([weight.ravel(), bias])


@st.composite
def probe_cases(draw):
    """(spec, classes, width, samples, fraction, seed) with a subset of at least one sample per class."""
    epochs = draw(st.integers(1, 5))
    milestones = draw(st.lists(st.integers(0, epochs - 1), unique=True))
    spec = EvalSpec(
        epochs=epochs, milestones=tuple(sorted(milestones)), lr=draw(st.sampled_from([0.01, 0.1, 0.5])),
        momentum=draw(st.sampled_from([0.0, 0.9])), batch_size=draw(st.integers(1, 64)),
    )
    c, d, n = draw(st.integers(2, 16)), draw(st.integers(1, 12)), draw(st.integers(16, 160))
    fraction = draw(st.floats(0.1, 1.0))
    assume(round(fraction * n) >= c)
    return spec, c, d, n, fraction, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(probe_cases())
@example((EvalSpec(epochs=3, milestones=(1,), batch_size=8), 3, 1, 40, 0.9, 0))  # width 1, 36 samples in steps of 8
@example((EvalSpec(epochs=2, milestones=(), batch_size=64), 3, 4, 40, 1.0, 1))  # one partial batch of 40
@example((EvalSpec(epochs=2, milestones=(1,), batch_size=8), 4, 3, 33, 1.0, 2))  # a final batch of one row
@example((EvalSpec(epochs=2, milestones=(), batch_size=16), 12, 1, 60, 1.0, 3))  # width 1, 12 classes: pairwise row sums
def test_head_trains_to_the_hand_written_loops_bytes(case):
    spec, c, d, n, fraction, seed = case
    data = np.random.default_rng(seed)
    features, all_labels = data.normal(size=(n, d)), data.permutation(np.arange(n) % c)
    ours, theirs = (np.random.default_rng([seed, 0x5EED]) for _ in range(2))
    subset = stratified_subset(all_labels, fraction, ours)
    assert stratified_subset(all_labels, fraction, theirs).tobytes() == subset.tobytes()
    feats, labels, head = features[subset], all_labels[subset], ModelSpec((d, c))
    trained = _train_head(head, init_params(head, ours), feats, labels, spec, ours)
    assert trained.tobytes() == hand_written_head(feats, labels, c, spec, theirs).tobytes()


def test_a_cross_device_sized_probe_stays_under_its_traced_peak():
    # xdevice_supervised's shape: encoder (32, 64, 32), 12,800 training rows and 3,200 test rows of 16 classes.
    # A pass that kept an activated copy of the hidden layer traced about 20.9 MB; the in-place one about 14.4 MB,
    # about 9.9 MB once a probe of every row encodes the training features without gathering a copy, and about 4.7 MB
    # once encode runs in row blocks: the 4.1 MB of features the probe keeps, one block's hidden layer and the head.
    rng = np.random.default_rng(0)
    encoder = ModelSpec((32, 64, 32))
    params = init_params(encoder, rng)
    train = Dataset(rng.normal(size=(12_800, 32)), np.arange(12_800) % 16, 16)
    test = Dataset(rng.normal(size=(3_200, 32)), np.arange(3_200) % 16, 16)
    probe = EvalSpec(epochs=1, milestones=())
    tracemalloc.start()
    try:
        linear_probe(params, encoder, train, test, probe, [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5e6


def test_a_probe_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call in a process, about 1.1 MB traced.
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from fedsim.evaluation import EvalSpec, linear_probe
        from fedsim.learners import ModelSpec, init_params
        from fedsim.partition import make_blobs

        encoder = ModelSpec((2, 4))
        ds = make_blobs(3, 10, 2, 0.5, seed=1)
        linear_probe(init_params(encoder, np.random.default_rng(0)), encoder, ds, ds,
                     EvalSpec(epochs=1, milestones=()), [1.0, 0.5])
        print("numpy.ma" in sys.modules)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


class TestClassifierAccuracy:
    def test_requires_head(self):
        spec = ModelSpec((4, 3))
        params = init_params(spec, np.random.default_rng(0))
        ds = make_blobs(3, 5, 4, 0.5, seed=1)
        with pytest.raises(ValueError, match="head"):
            classifier_accuracy(params, spec, ds)

    def test_perfect_on_trained_fixture(self):
        from fedsim.learners import TrainerSpec, Workspace, train_clients

        ds = make_blobs(2, 40, 4, spread=0.2, seed=2)
        spec = ModelSpec((4, 8), head_classes=2)
        params = init_params(spec, np.random.default_rng(3))
        trainer = TrainerSpec(method="supervised", batch_size=16, local_epochs=30, lr=0.1)
        up = train_clients([(0, ds, params, np.random.default_rng(4))], trainer, spec, Workspace())
        assert classifier_accuracy(ParamSet(up.weights[0], up.layout), spec, ds) > 0.95

