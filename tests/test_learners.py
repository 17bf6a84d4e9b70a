"""Forward/backward passes, loss gradients vs finite differences, local training."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.learners import (
    ClientTrainingError,
    ModelSpec,
    TrainerSpec,
    backward,
    forward,
    init_params,
    layer_names,
    loss_barlow,
    loss_ntxent,
    loss_xent,
    make_views,
    projector_start,
    redundancy_loss_from_corr,
    require_layers,
    sgd_step,
    train_clients,
    validate_model_for_trainer,
)
from fedsim.params import IncompatibleModelError, ParamSet, segments
from fedsim.partition import Dataset, make_blobs

FD_STEP = 1e-5
FD_RTOL = 1e-4

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=30)


def fd_grad(f, x, h=FD_STEP):
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def assert_grad_close(analytic, numeric):
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.abs(analytic - numeric).max() / scale < FD_RTOL


class TestForward:
    def test_identity_single_layer(self):
        spec = ModelSpec((3, 3))
        params = ParamSet.from_arrays(
            {"encoder.0.weight": np.eye(3), "encoder.0.bias": np.zeros(3)}
        )
        x = np.random.default_rng(0).normal(size=(4, 3))
        fp = forward(params, spec, x)
        np.testing.assert_array_equal(fp.h, x)

    def test_zero_weights_zero_output(self):
        spec = ModelSpec((3, 2))
        params = ParamSet.from_arrays(
            {"encoder.0.weight": np.zeros((3, 2)), "encoder.0.bias": np.zeros(2)}
        )
        fp = forward(params, spec, np.ones((5, 3)))
        np.testing.assert_array_equal(fp.h, np.zeros((5, 2)))

    def test_matches_hand_rolled_two_layer_oracle(self):
        rng = np.random.default_rng(1)
        spec = ModelSpec((4, 3, 2), activation="tanh")
        params = init_params(spec, rng)
        x = rng.normal(size=(6, 4))
        fp = forward(params, spec, x)

        expected = np.empty((6, 2))
        for row in range(6):  # explicit per-sample loops, independent of the library path
            hidden = [0.0] * 3
            for j in range(3):
                s = params["encoder.0.bias"][j]
                for i in range(4):
                    s += x[row, i] * params["encoder.0.weight"][i, j]
                hidden[j] = math.tanh(s)
            for j in range(2):
                s = params["encoder.1.bias"][j]
                for i in range(3):
                    s += hidden[i] * params["encoder.1.weight"][i, j]
                expected[row, j] = s
        np.testing.assert_allclose(fp.h, expected, atol=1e-12)

    def test_width_mismatch_rejected(self):
        spec = ModelSpec((3, 2))
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError, match="width"):
            forward(params, spec, np.ones((2, 5)))

    def test_layer_names_order(self):
        spec = ModelSpec((3, 4, 2), projector_dims=(2, 2))
        assert layer_names(spec) == [
            "encoder.0.weight",
            "encoder.0.bias",
            "encoder.1.weight",
            "encoder.1.bias",
            "projector.0.weight",
            "projector.0.bias",
        ]
        sup = ModelSpec((3, 2), head_classes=4)
        assert layer_names(sup)[-2:] == ["head.weight", "head.bias"]


def expected_layout(encoder, projector, classes):
    """(name, shape) of every parameter, written out independently of the library."""
    widths = list(encoder) + list(projector[1:])
    n_enc = len(encoder) - 1
    layout = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        prefix = f"encoder.{i}" if i < n_enc else f"projector.{i - n_enc}"
        layout += [(f"{prefix}.weight", (fan_in, fan_out)), (f"{prefix}.bias", (fan_out,))]
    if classes is not None:
        layout += [("head.weight", (encoder[-1], classes)), ("head.bias", (classes,))]
    return layout


class TestLayerList:
    """Names, init and the backward pass follow the one layer list, for any valid model."""

    @PROPERTY
    @given(
        supervised=st.booleans(),
        activation=st.sampled_from(["relu", "tanh"]),
        encoder=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        projector=st.lists(st.integers(1, 5), min_size=1, max_size=2),
        classes=st.integers(2, 4),
        seed=st.integers(0, 2**16),
    )
    def test_layout_and_gradients_follow_the_layer_list(
        self, supervised, activation, encoder, projector, classes, seed
    ):
        projector = () if supervised else (encoder[-1], *projector)
        classes = classes if supervised else None
        spec = ModelSpec(encoder, projector_dims=projector, activation=activation, head_classes=classes)
        rng = np.random.default_rng(seed)
        params = init_params(spec, rng)
        layout = expected_layout(encoder, projector, classes)
        assert params.layout == tuple(layout)
        assert layer_names(spec) == [name for name, _ in layout]

        x = rng.normal(size=(3, encoder[0]))
        fp = forward(params, spec, x)
        grads = backward(params, spec, fp, rng.normal(size=fp.pre[-1].shape))
        assert {name: g.shape for name, g in grads.items()} == dict(layout)

        # with a leading client axis: two clients' (2, *shape) layers and (2, B, D) batches
        block = np.stack([params.vector, init_params(spec, rng).vector])
        stacked = segments(block, params.layout)
        fp = forward(stacked, spec, np.stack([x, x]))
        grads = backward(stacked, spec, fp, rng.normal(size=fp.pre[-1].shape))
        assert {name: g.shape for name, g in grads.items()} == {name: (2, *shape) for name, shape in layout}


class TestProjectorStart:
    """The backbone/projector split: the encoder's parameters, or all of them without a projector."""

    def test_ssl_split_is_the_encoders_parameter_count(self):
        spec = ModelSpec((4, 6, 3), projector_dims=(3, 5, 2))
        layout = init_params(spec, np.random.default_rng(0)).layout
        assert projector_start(layout) == (4 * 6 + 6) + (6 * 3 + 3)
        assert layout[2 * 2][0] == "projector.0.weight"  # the split falls where the projector begins

    def test_supervised_layout_is_all_backbone(self):
        params = init_params(ModelSpec((4, 6, 3), head_classes=5), np.random.default_rng(0))
        assert projector_start(params.layout) == params.num_params


class TestRequireLayers:
    def test_extra_layers_are_ignored(self):
        spec = ModelSpec((3, 4, 2), projector_dims=(2, 2))
        params = init_params(spec, np.random.default_rng(0))
        require_layers(params, ModelSpec((3, 4, 2)))  # the encoder alone
        require_layers(params, spec)

    def test_first_missing_layer_named(self):
        params = ParamSet.from_arrays({"encoder.0.weight": np.zeros((3, 4)), "w": np.zeros(2)})
        with pytest.raises(IncompatibleModelError, match="^missing layer 'encoder.0.bias'$"):
            require_layers(params, ModelSpec((3, 4)))

    def test_first_misshaped_layer_named(self):
        params = init_params(ModelSpec((3, 5, 2)), np.random.default_rng(1))
        message = r"^layer 'encoder.0.weight': shape \(3, 5\), expected \(3, 4\)$"
        with pytest.raises(IncompatibleModelError, match=message):
            require_layers(params, ModelSpec((3, 4, 2)))


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 10):
            loss, _ = loss_xent(np.zeros((3, c)), np.array([0, 1, c - 1]))
            assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_confident_correct_drives_loss_to_zero(self):
        labels = np.array([0, 1])
        last = None
        for margin in (1.0, 10.0, 100.0):
            logits = np.array([[margin, 0.0], [0.0, margin]])
            loss, _ = loss_xent(logits, labels)
            if last is not None:
                assert loss < last
            last = loss
        assert last < 1e-10

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="label"):
            loss_xent(np.zeros((2, 3)), np.array([0, 3]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, c = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            logits = rng.normal(size=(n, c))
            labels = rng.integers(0, c, n)
            _, grad = loss_xent(logits, labels)
            fd = fd_grad(lambda v: loss_xent(v.reshape(n, c), labels)[0], logits.reshape(-1))
            assert_grad_close(grad.reshape(-1), fd)


def brute_force_ntxent(z_a, z_b, tau):
    """Direct per-anchor evaluation of the normalized temperature-scaled loss.

    For each anchor u the candidates are its positive and every other row of
    both views; the anchor term is -(u.v+ / tau) + log sum exp(u.v / tau).
    """
    rows = [v / np.linalg.norm(v) for v in list(z_a) + list(z_b)]
    b = len(z_a)
    total = 0.0
    for i, u in enumerate(rows):
        pos = rows[(i + b) % (2 * b)]
        candidates = [v for j, v in enumerate(rows) if j != i]
        log_z = math.log(sum(math.exp(float(np.dot(u, v)) / tau) for v in candidates))
        total += -(float(np.dot(u, pos)) / tau) + log_z
    return total / (2 * b)


class TestNtxent:
    def test_matches_direct_formula_on_orthonormal_fixture(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _, _ = loss_ntxent(z, z, 1.0)
        assert loss == pytest.approx(brute_force_ntxent(z, z, 1.0), abs=1e-12)

    def test_matches_direct_formula_on_random_fixtures(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            b, d = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            z_a, z_b = rng.normal(size=(b, d)), rng.normal(size=(b, d))
            tau = float(rng.uniform(0.2, 2.0))
            loss, _, _ = loss_ntxent(z_a, z_b, tau)
            assert loss == pytest.approx(brute_force_ntxent(z_a, z_b, tau), abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        z_a, z_b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        base, _, _ = loss_ntxent(z_a, z_b, 0.5)
        scaled, _, _ = loss_ntxent(10.0 * z_a, 10.0 * z_b, 0.5)
        assert abs(base - scaled) < 1e-10
        rows, _, _ = loss_ntxent(z_a * rng.uniform(0.5, 3.0, size=(4, 1)), z_b, 0.5)
        assert abs(base - rows) < 1e-10

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            loss_ntxent(np.ones((1, 3)), np.ones((1, 3)), 0.5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "row, cause",
        [([0.0, 0.0], "zero embedding row"), ([np.nan, 1.0], "non-finite embedding"),
         ([np.inf, 1.0], "non-finite embedding"), ([-np.inf, -np.inf], "non-finite embedding")],
    )
    def test_degenerate_row_named(self, row, cause):
        z = np.ones((3, 2))
        z[1] = row
        for z_a, z_b in ((z, np.ones((3, 2))), (np.ones((3, 2)), z)):
            with pytest.raises(ValueError, match=cause):
                loss_ntxent(z_a, z_b, 0.5)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            b, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            z_a, z_b = rng.normal(size=(b, d)), rng.normal(size=(b, d))
            tau = float(rng.uniform(0.3, 1.5))
            _, ga, gb = loss_ntxent(z_a, z_b, tau)
            fda = fd_grad(lambda v: loss_ntxent(v.reshape(b, d), z_b, tau)[0], z_a.reshape(-1))
            fdb = fd_grad(lambda v: loss_ntxent(z_a, v.reshape(b, d), tau)[0], z_b.reshape(-1))
            assert_grad_close(ga.reshape(-1), fda)
            assert_grad_close(gb.reshape(-1), fdb)


def brute_force_barlow(z_a, z_b, lam):
    """Direct evaluation: standardize, correlate, then the two penalty sums."""
    n, d = z_a.shape
    def standardize(z):
        out = np.empty_like(z)
        for j in range(d):
            col = z[:, j]
            mu = col.mean()
            sd = math.sqrt(((col - mu) ** 2).mean())
            out[:, j] = (col - mu) / (sd + 1e-8)
        return out
    a, b = standardize(z_a), standardize(z_b)
    corr = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            corr[i, j] = float(np.dot(a[:, i], b[:, j])) / n
    total = 0.0
    for i in range(d):
        total += (1.0 - corr[i, i]) ** 2
        for j in range(d):
            if j != i:
                total += lam * corr[i, j] ** 2
    return total


class TestBarlow:
    def test_loss_is_exactly_zero_at_identity_correlation(self):
        assert redundancy_loss_from_corr(np.eye(5), 0.01) == 0.0

    def test_decorrelated_unit_variance_views(self):
        # orthogonal columns with exact zero mean and unit variance
        z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        hat = (z - z.mean(axis=0)) / z.std(axis=0)  # the batch cross-correlation loss_barlow penalises
        corr = hat.T @ hat / len(z)
        np.testing.assert_allclose(corr, np.eye(2), atol=1e-7)
        loss, _, _ = loss_barlow(z, z, 0.5)
        assert loss < 1e-10

    def test_lambda_zero_ignores_off_diagonals(self):
        rng = np.random.default_rng(7)
        corr = np.eye(3)
        perturbed = corr + (1 - np.eye(3)) * rng.normal(size=(3, 3))
        assert redundancy_loss_from_corr(perturbed, 0.0) == redundancy_loss_from_corr(corr, 0.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, d = int(rng.integers(3, 7)), int(rng.integers(2, 5))
            z_a, z_b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            lam = float(rng.uniform(0.0, 0.1))
            loss, _, _ = loss_barlow(z_a, z_b, lam)
            assert loss == pytest.approx(brute_force_barlow(z_a, z_b, lam), abs=1e-10)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        z_a, z_b = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        base, _, _ = loss_barlow(z_a, z_b, 0.01)
        scale = rng.uniform(0.5, 4.0, size=4)
        shift = rng.normal(size=4)
        rescaled, _, _ = loss_barlow(z_a * scale + shift, z_b, 0.01)
        assert abs(base - rescaled) < 1e-8

    def test_constant_dimension_is_finite(self):
        z = np.ones((4, 3))
        z[:, 1] = np.arange(4)
        loss, ga, gb = loss_barlow(z, z, 0.1)
        assert math.isfinite(loss)
        assert np.isfinite(ga).all() and np.isfinite(gb).all()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n, d = int(rng.integers(3, 7)), int(rng.integers(2, 5))
            z_a, z_b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            lam = float(rng.uniform(0.0, 0.1))
            _, ga, gb = loss_barlow(z_a, z_b, lam)
            fda = fd_grad(lambda v: loss_barlow(v.reshape(n, d), z_b, lam)[0], z_a.reshape(-1))
            fdb = fd_grad(lambda v: loss_barlow(z_a, v.reshape(n, d), lam)[0], z_b.reshape(-1))
            assert_grad_close(ga.reshape(-1), fda)
            assert_grad_close(gb.reshape(-1), fdb)


class TestFullBackprop:
    def test_ssl_chain_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        spec = ModelSpec((3, 4, 3), projector_dims=(3, 2), activation="tanh")
        for _ in range(5):
            params = init_params(spec, rng)
            x_a = rng.normal(size=(4, 3))
            x_b = rng.normal(size=(4, 3))

            def full_loss(p):
                fa, fb = forward(p, spec, x_a), forward(p, spec, x_b)
                return loss_ntxent(fa.z, fb.z, 0.5)[0]

            fa, fb = forward(params, spec, x_a), forward(params, spec, x_b)
            _, ga, gb = loss_ntxent(fa.z, fb.z, 0.5)
            grads_a = backward(params, spec, fa, ga)
            grads_b = backward(params, spec, fb, gb)
            for name, shape in params.layout:
                def f(v, name=name, shape=shape):
                    arrays = {n: params[n] for n in params.names}
                    arrays[name] = v.reshape(shape)
                    return full_loss(arrays)
                fd = fd_grad(f, params[name].reshape(-1).copy())
                analytic = (grads_a[name] + grads_b[name]).reshape(-1)
                assert_grad_close(analytic, fd)

    def test_supervised_chain_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        spec = ModelSpec((4, 5, 3), activation="relu", head_classes=3)
        for _ in range(5):
            params = init_params(spec, rng)
            x = rng.normal(size=(6, 4))
            y = rng.integers(0, 3, 6)

            def full_loss(p):
                return loss_xent(forward(p, spec, x).logits, y)[0]

            fp = forward(params, spec, x)
            _, glog = loss_xent(fp.logits, y)
            grads = backward(params, spec, fp, glog)
            for name, shape in params.layout:
                def f(v, name=name, shape=shape):
                    arrays = {n: params[n] for n in params.names}
                    arrays[name] = v.reshape(shape)
                    return full_loss(arrays)
                fd = fd_grad(f, params[name].reshape(-1).copy())
                assert_grad_close(grads[name].reshape(-1), fd)


class TestMakeViews:
    """``make_views`` takes a (K, B, D) stack and K generators; these cases use one client."""

    def test_no_perturbation_is_identity(self):
        rng = np.random.default_rng(13)
        batch = rng.normal(size=(1, 5, 3))
        a, b = make_views(batch, 0.0, 0.0, [np.random.default_rng(0)])
        np.testing.assert_array_equal(a, batch)
        np.testing.assert_array_equal(b, batch)

    def test_full_masking_zeroes_everything(self):
        batch = np.ones((1, 4, 3))
        a, b = make_views(batch, 0.5, 1.0, [np.random.default_rng(1)])
        assert (a == 0).all() and (b == 0).all()

    def test_deterministic_given_seed(self):
        batch = np.ones((1, 4, 3))
        a1, b1 = make_views(batch, 0.3, 0.2, [np.random.default_rng(42)])
        a2, b2 = make_views(batch, 0.3, 0.2, [np.random.default_rng(42)])
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_views_differ_from_each_other(self):
        batch = np.ones((1, 4, 3))
        a, b = make_views(batch, 0.5, 0.0, [np.random.default_rng(2)])
        assert a.shape == b.shape == batch.shape
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("noise_std", [0.0, 0.3])
    def test_stacked_clients_match_per_client_draws(self, noise_std):
        # Reference: each client alone draws normal, uniform, normal, uniform.
        batch = np.random.default_rng(5).normal(size=(3, 4, 2))
        batch[0] = -0.0  # -0.0 plus a zero noise must give +0.0, as Generator.normal's 0.0 + scale * z does
        a, b = make_views(batch, noise_std, 0.25, [np.random.default_rng(k) for k in range(3)])
        for k in range(3):
            rng = np.random.default_rng(k)
            for view in (a, b):
                ref = batch[k] + rng.normal(0.0, noise_std, size=batch[k].shape)
                ref = ref * (rng.random(batch[k].shape) >= 0.25)
                assert view[k].tobytes() == ref.tobytes()


class TestSgdStep:
    """``sgd_step`` updates the flat weights ``w`` and velocity ``v`` in place; ``v`` starts at zero."""

    def test_vanilla_sgd(self):
        w, v = np.array([1.0, 2.0]), np.zeros(2)
        sgd_step(w, np.array([0.5, -0.5]), v, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(w, [0.95, 2.05])

    def test_zero_gradient_fixed_point(self):
        w, v = np.array([1.0, 2.0]), np.zeros(2)
        sgd_step(w, np.zeros(2), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(w, np.zeros(2), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(w, [1.0, 2.0])
        np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_two_momentum_steps_match_hand_recursion(self):
        w, v = np.array([0.0]), np.zeros(1)
        g = np.array([1.0])
        sgd_step(w, g, v, lr=0.1, momentum=0.9, weight_decay=0.0)
        # v1 = 0.9 * 0 + g = g
        assert v[0] == 1.0 and w[0] == pytest.approx(-0.1, abs=1e-15)
        sgd_step(w, g, v, lr=0.1, momentum=0.9, weight_decay=0.0)
        # v2 = 0.9 g + g = 1.9 g, total displacement lr*(1 + 1.9)*g
        assert v[0] == pytest.approx(1.9, abs=1e-15)
        assert w[0] == pytest.approx(-0.1 * 2.9, abs=1e-15)

    def test_weight_decay_pulls_toward_zero(self):
        w, v = np.array([10.0]), np.zeros(1)
        sgd_step(w, np.zeros(1), v, lr=0.1, momentum=0.0, weight_decay=0.5)
        assert w[0] == pytest.approx(10.0 - 0.1 * 5.0)
        assert v[0] == 5.0

    def test_missing_gradient_rejected(self):
        w, v = np.array([1.0, 2.0]), np.zeros(2)
        with pytest.raises(ValueError, match=r"gradient of shape \(1,\) for weights of shape \(2,\)"):
            sgd_step(w, np.zeros(1), v, 0.1, 0.9, 0.0)
        np.testing.assert_array_equal(w, [1.0, 2.0])
        np.testing.assert_array_equal(v, [0.0, 0.0])


def client_dataset(rng, n=40, num_classes=2, dim=4, spread=0.3):
    ds = make_blobs(num_classes, n // num_classes, dim, spread, seed=int(rng.integers(10_000)))
    return ds


class Trained(NamedTuple):
    """One client's row of a round's ClientUpdates block."""

    client_id: int
    params: ParamSet
    num_samples: int
    train_loss: float


def rows(updates):
    """Each client of a round's block as its own record, in row order."""
    fields = zip(updates.client_ids, updates.weights, updates.num_samples, updates.train_loss)
    return [Trained(cid, ParamSet(w, updates.layout), int(n), float(loss)) for cid, w, n, loss in fields]


def train_one(data, init, trainer, model, rng):
    """One client trained alone: a round of K=1."""
    (up,) = rows(train_clients([(0, data, init, rng)], trainer, model))
    return up


class TestTrainLocal:
    def ssl_trainer(self, **kw):
        defaults = dict(method="simclr", batch_size=8, local_epochs=1, augment_noise_std=0.1)
        defaults.update(kw)
        return TrainerSpec(**defaults)

    def ssl_model(self, dim=4):
        return ModelSpec((dim, 8, 4), projector_dims=(4, 4))

    def test_zero_epochs_keeps_params_and_reports_loss(self):
        rng = np.random.default_rng(14)
        ds = client_dataset(rng)
        model = self.ssl_model()
        init = init_params(model, rng)
        up = train_one(ds, init, self.ssl_trainer(local_epochs=0), model, np.random.default_rng(1))
        assert up.params == init
        assert math.isfinite(up.train_loss)
        assert up.num_samples == len(ds)

    def test_supervised_loss_decreases_on_separable_blobs(self):
        rng = np.random.default_rng(15)
        ds = make_blobs(2, 30, 4, spread=0.2, seed=3)
        model = ModelSpec((4, 8, 4), head_classes=2)
        trainer = TrainerSpec(method="supervised", batch_size=16, local_epochs=20, lr=0.05)
        init = init_params(model, rng)
        before = train_one(ds, init, TrainerSpec(method="supervised", batch_size=16, local_epochs=0), model, np.random.default_rng(2))
        after = train_one(ds, init, trainer, model, np.random.default_rng(2))
        assert after.train_loss < before.train_loss

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(16)
        ds = client_dataset(rng)
        model = self.ssl_model()
        init = init_params(model, rng)
        trainer = self.ssl_trainer(local_epochs=2)
        a = train_one(ds, init, trainer, model, np.random.default_rng(5))
        b = train_one(ds, init, trainer, model, np.random.default_rng(5))
        assert a.params == b.params
        assert a.train_loss == b.train_loss

    def test_zero_lr_returns_init(self):
        rng = np.random.default_rng(17)
        ds = client_dataset(rng)
        model = self.ssl_model()
        init = init_params(model, rng)
        up = train_one(ds, init, self.ssl_trainer(lr=0.0, local_epochs=3), model, np.random.default_rng(6))
        assert up.params == init

    def test_ssl_single_sample_rejected(self):
        rng = np.random.default_rng(18)
        ds = client_dataset(rng).subset([0])
        model = self.ssl_model()
        init = init_params(model, rng)
        with pytest.raises(ValueError, match="batch of 2"):
            train_one(ds, init, self.ssl_trainer(), model, np.random.default_rng(7))

    def test_empty_client_rejected(self):
        rng = np.random.default_rng(19)
        ds = client_dataset(rng).subset([])
        model = self.ssl_model()
        init = init_params(model, rng)
        with pytest.raises(ValueError, match="empty"):
            train_one(ds, init, self.ssl_trainer(), model, np.random.default_rng(8))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_names_the_layer(self):
        rng = np.random.default_rng(21)
        ds = client_dataset(rng)
        model = self.ssl_model()
        init = init_params(model, rng)
        # v = g + wd*w is finite, lr*v overflows: the first step sends weights to +-inf.
        trainer = self.ssl_trainer(lr=10.0, weight_decay=1e308)
        with pytest.raises(ValueError, match="^layer 'encoder.0.weight' contains non-finite values$"):
            train_one(ds, init, trainer, model, np.random.default_rng(10))

    def test_loss_error_names_the_earliest_failing_client(self):
        rng = np.random.default_rng(22)
        ds = client_dataset(rng)
        model = self.ssl_model()
        good = init_params(model, rng)
        # a zero projector maps every input to the zero embedding, which cannot be normalized
        dead = ParamSet.from_arrays(
            {name: good[name] * (not name.startswith("projector.")) for name in good.names}
        )
        clients = [(7, ds, good), (8, ds, dead), (9, ds, dead), (10, ds, good)]
        with pytest.raises(ClientTrainingError, match="^cannot normalize a zero embedding row$") as info:
            train_clients(
                [(cid, d, init, np.random.default_rng(k)) for k, (cid, d, init) in enumerate(clients)],
                self.ssl_trainer(), model,
            )
        assert info.value.client_id == 8

    def test_barlow_method_runs(self):
        rng = np.random.default_rng(20)
        ds = client_dataset(rng)
        model = self.ssl_model()
        init = init_params(model, rng)
        trainer = self.ssl_trainer(method="barlow_twins")
        up = train_one(ds, init, trainer, model, np.random.default_rng(9))
        assert math.isfinite(up.train_loss)
        assert not (up.params == init)


class TestReplayAttribution:
    """A failed round trains its clients again one at a time; the first to fail alone is named."""

    MODEL = ModelSpec((4, 6, 5), projector_dims=(5, 3))
    TRAINER = TrainerSpec(method="simclr", batch_size=2, local_epochs=1)

    def poisoned(self, n, seed, step):
        """n samples; the one at step ``step`` of the first shuffle drawn from ``default_rng(seed)`` is infinite."""
        data = make_blobs(2, n, 4, 0.5, seed=seed).subset(range(n))
        features = data.features.copy()
        features[np.random.default_rng(seed).permutation(n)[2 * step]] = np.inf
        return Dataset(data.name, features, data.labels, data.num_classes)

    def train(self, clients):
        """Train [(data, generator seed or generator)] as one round; clients are numbered by position."""
        init = init_params(self.MODEL, np.random.default_rng(0))
        return train_clients(
            [(k, data, init, np.random.default_rng(seed)) for k, (data, seed) in enumerate(clients)],
            self.TRAINER, self.MODEL,
        )

    def named(self, clients):
        with pytest.raises(ClientTrainingError) as info:
            self.train(clients)
        return info.value.client_id, str(info.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejection_and_divergence_are_named_in_round_order(self):
        empty = make_blobs(2, 5, 4, 0.5, seed=1).subset([])
        diverging = self.poisoned(12, seed=2, step=2)
        assert self.named([(diverging, 2)]) == (0, "non-finite embedding: the model diverged")
        # the empty client is rejected before any training, the other diverges at its third step
        assert self.named([(empty, 1), (diverging, 2)]) == (0, "client 0: empty dataset")
        assert self.named([(diverging, 2), (empty, 1)]) == (0, "non-finite embedding: the model diverged")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_replay_starts_every_generator_where_the_round_did(self):
        # five samples in steps of two: SSL skips the lone fifth, the infinite one, so client 1
        # trains alone, but not after a shuffle has been drawn from its generator
        lucky = self.poisoned(5, seed=3, step=2)
        self.train([(lucky, 3)])
        drawn = np.random.default_rng(3)
        drawn.permutation(5)
        with pytest.raises(ClientTrainingError):
            self.train([(lucky, drawn)])
        # the block trains the rows in (steps desc) order, so client 2 fails at step 0 after all
        # three generators have drawn their shuffle and first views
        clean, failing = make_blobs(2, 6, 4, 0.5, seed=5).subset(range(6)), self.poisoned(6, seed=4, step=0)
        assert self.named([(clean, 5), (lucky, 3), (failing, 4)]) == (2, "non-finite embedding: the model diverged")


class TestBatchedGradients:
    """The passes over a leading client axis: one (K, B, D) batch against finite differences."""

    K, B, D = 3, 4, 3

    def test_loss_gradients_per_client(self):
        rng = np.random.default_rng(31)
        z_a, z_b = rng.normal(size=(2, self.K, self.B, self.D))
        for loss_fn, arg in ((loss_ntxent, 0.5), (loss_barlow, 0.05)):
            losses, ga, gb = loss_fn(z_a, z_b, arg)
            assert losses.shape == (self.K,)
            # the clients do not interact, so the gradient of the summed loss is each client's own
            fda = fd_grad(lambda v: loss_fn(v.reshape(z_a.shape), z_b, arg)[0].sum(), z_a.reshape(-1))
            fdb = fd_grad(lambda v: loss_fn(z_a, v.reshape(z_b.shape), arg)[0].sum(), z_b.reshape(-1))
            assert_grad_close(ga.reshape(-1), fda)
            assert_grad_close(gb.reshape(-1), fdb)
        logits = rng.normal(size=(self.K, self.B, 4))
        labels = rng.integers(0, 4, size=(self.K, self.B))
        losses, grad = loss_xent(logits, labels)
        assert losses.shape == (self.K,)
        fd = fd_grad(lambda v: loss_xent(v.reshape(logits.shape), labels)[0].sum(), logits.reshape(-1))
        assert_grad_close(grad.reshape(-1), fd)

    @pytest.mark.parametrize("method", ["barlow_twins", "simclr", "supervised"])
    def test_chain_gradients_per_client(self, method):
        rng = np.random.default_rng(32)
        if method == "supervised":
            spec = ModelSpec((self.D, 4, 3), activation="tanh", head_classes=3)
        else:
            spec = ModelSpec((self.D, 4, 3), projector_dims=(3, 2), activation="tanh")
        layout = init_params(spec, rng).layout
        block = np.stack([init_params(spec, rng).vector for _ in range(self.K)])
        x_a, x_b = rng.normal(size=(2, self.K, self.B, self.D))
        y = rng.integers(0, 3, size=(self.K, self.B))

        def passes(w):
            params = segments(w, layout)
            if method == "supervised":
                fp = forward(params, spec, x_a)
                loss, glog = loss_xent(fp.logits, y)
                return loss.sum(), backward(params, spec, fp, glog)
            fa, fb = forward(params, spec, x_a), forward(params, spec, x_b)
            loss_fn, arg = (loss_ntxent, 0.5) if method == "simclr" else (loss_barlow, 0.05)
            loss, ga, gb = loss_fn(fa.z, fb.z, arg)
            grads_a, grads_b = backward(params, spec, fa, ga), backward(params, spec, fb, gb)
            return loss.sum(), {name: grads_a[name] + grads_b[name] for name in grads_a}

        _, grads = passes(block)
        analytic = np.concatenate([grads[name].reshape(self.K, -1) for name, _ in layout], axis=1)
        fd = fd_grad(lambda v: passes(v.reshape(block.shape))[0], block.reshape(-1))
        assert_grad_close(analytic.reshape(-1), fd)


    @pytest.mark.parametrize("method", ["barlow_twins", "simclr"])
    def test_stacked_views_match_one_pass_per_view(self, method):
        # local training runs both SSL views as one (2, K, B, D) stack; each half is the view's own pass
        rng = np.random.default_rng(33)
        spec = ModelSpec((self.D, 4, 3), projector_dims=(3, 2), activation="tanh")
        layout = init_params(spec, rng).layout
        params = segments(np.stack([init_params(spec, rng).vector for _ in range(self.K)]), layout)
        views = rng.normal(size=(2, self.K, self.B, self.D))
        loss_fn, arg = (loss_ntxent, 0.5) if method == "simclr" else (loss_barlow, 0.05)
        both = forward(params, spec, views)
        fa, fb = forward(params, spec, views[0]), forward(params, spec, views[1])
        assert both.z.tobytes() == np.stack([fa.z, fb.z]).tobytes()
        _, ga, gb = loss_fn(fa.z, fb.z, arg)
        grads_a, grads_b = backward(params, spec, fa, ga), backward(params, spec, fb, gb)
        for name, g in backward(params, spec, both, np.stack([ga, gb])).items():
            assert (g[0] + g[1]).tobytes() == (grads_a[name] + grads_b[name]).tobytes()


def own_projector(glob: ParamSet, own: ParamSet) -> ParamSet:
    """The global backbone with another model's projector (a FedU client's merged init)."""
    return ParamSet.from_arrays(
        {name: (own if name.startswith("projector.") else glob)[name] for name in glob.names}
    )


class TestTrainClientsProperties:
    """Training a round's clients together gives each one exactly what training it alone gives."""

    @pytest.mark.parametrize("method", ["barlow_twins", "simclr", "supervised"])
    @PROPERTY
    @given(
        sizes=st.lists(st.integers(1, 13), min_size=1, max_size=5),
        batch_size=st.integers(2, 5),
        local_epochs=st.sampled_from([0, 1, 2]),
        proj_out=st.sampled_from([3, 32]),
        inits=st.lists(st.sampled_from(["global", "own", "merged"]), min_size=5, max_size=5),
        seed=st.integers(0, 2**16),
    )
    # three clients end an epoch on a lone sample (skipped under SSL), one on a full batch of 2
    @example(sizes=[9, 5, 2, 13], batch_size=4, local_epochs=2, proj_out=32,
             inits=["global", "merged", "own", "merged", "global"], seed=3)
    def test_batched_equals_alone(self, method, sizes, batch_size, local_epochs, proj_out, inits, seed):
        rng = np.random.default_rng(seed)
        if method == "supervised":
            model = ModelSpec((4, 6, proj_out), head_classes=3)
        else:
            model = ModelSpec((4, 6, 5), projector_dims=(5, proj_out), activation="tanh")
            sizes = [max(n, 2) for n in sizes]  # an SSL client needs a pair
        trainer = TrainerSpec(
            method=method, batch_size=batch_size, local_epochs=local_epochs, lr=0.05,
            weight_decay=1e-3, augment_mask_prob=0.2,
        )
        glob = init_params(model, rng)
        data = make_blobs(3, 10, 4, 0.5, seed=seed)
        clients = []
        for k, n in enumerate(sizes):
            own = init_params(model, rng)
            init = {"global": glob, "own": own, "merged": own_projector(glob, own)}[inits[k]]
            clients.append((10 + k, data.subset(rng.choice(len(data), n, replace=False)), init))

        def session(k):
            return np.random.default_rng([seed, k])

        together = train_clients(
            [(cid, d, init, session(k)) for k, (cid, d, init) in enumerate(clients)], trainer, model
        )
        assert together.weights.shape == (len(clients), glob.num_params) and not together.weights.flags.writeable
        for k, ((cid, d, init), up) in enumerate(zip(clients, rows(together))):
            (alone,) = rows(train_clients([(cid, d, init, session(k))], trainer, model))
            assert up.client_id == alone.client_id == cid
            assert up.num_samples == alone.num_samples == len(d)
            assert up.params.vector.tobytes() == alone.params.vector.tobytes()
            assert up.train_loss == alone.train_loss


class TestSpecValidation:
    def test_projector_requires_matching_width(self):
        with pytest.raises(ValueError, match="width"):
            ModelSpec((3, 4), projector_dims=(5, 2))

    def test_projector_and_head_rejected(self):
        with pytest.raises(ValueError, match="projector or a classifier head, not both"):
            ModelSpec((3, 4), projector_dims=(4, 2), head_classes=3)

    def test_ssl_needs_projector(self):
        with pytest.raises(ValueError, match="projector"):
            validate_model_for_trainer(ModelSpec((3, 4)), TrainerSpec(method="simclr"))

    def test_supervised_needs_head(self):
        with pytest.raises(ValueError, match="head"):
            validate_model_for_trainer(ModelSpec((3, 4)), TrainerSpec(method="supervised"))

    def test_ssl_batch_floor(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainerSpec(method="simclr", batch_size=1)

    def test_temperature_positive(self):
        with pytest.raises(ValueError, match="temperature"):
            TrainerSpec(method="simclr", temperature=0.0)
