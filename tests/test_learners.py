"""Forward/backward passes, loss gradients vs finite differences, local training."""

import math
import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedsim import learners
from fedsim.learners import (
    ClientTrainingError,
    ForwardPass,
    ModelSpec,
    TrainerSpec,
    Workspace,
    backward,
    encode,
    forward,
    init_params,
    layer_names,
    loss_barlow,
    loss_ntxent,
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
from helpers import brute_force_barlow, brute_force_ntxent, fd_grad, parent_loss_xent, training_xent

FD_RTOL = 1e-4

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=30)
BLOCK = learners.ENCODE_ROWS


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
        np.testing.assert_array_equal(fp.pre[-1], x)

    def test_zero_weights_zero_output(self):
        spec = ModelSpec((3, 2))
        params = ParamSet.from_arrays(
            {"encoder.0.weight": np.zeros((3, 2)), "encoder.0.bias": np.zeros(2)}
        )
        fp = forward(params, spec, np.ones((5, 3)))
        np.testing.assert_array_equal(fp.pre[-1], np.zeros((5, 2)))

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
        np.testing.assert_allclose(fp.pre[-1], expected, atol=1e-12)

    def test_width_mismatch_rejected(self):
        spec = ModelSpec((3, 2))
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError, match="width"):
            forward(params, spec, np.ones((2, 5)))

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(dims=st.lists(st.integers(1, 6), min_size=2, max_size=5), activation=st.sampled_from(["relu", "tanh"]),
           rows=st.integers(1, 9), seed=st.integers(0, 2**16))
    def test_encode_gives_the_bytes_of_a_plain_pass(self, dims, activation, rows, seed):
        rng = np.random.default_rng(seed)
        spec = ModelSpec(tuple(dims), activation=activation)
        params, x = init_params(spec, rng), rng.normal(size=(rows, dims[0]))
        assert encode(params, spec, x).tobytes() == forward(params, spec, x).pre[-1].tobytes()

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @PROPERTY
    @given(dims=st.lists(st.integers(1, 12), min_size=2, max_size=4), activation=st.sampled_from(["relu", "tanh"]),
           seed=st.integers(0, 2**16))
    @example(dims=[1, 1], activation="relu", seed=0)
    @example(dims=[12, 1, 12, 1], activation="tanh", seed=1)
    def test_encode_keeps_the_bytes_of_a_plain_pass_across_its_row_blocks(self, rows, dims, activation, seed):
        rng = np.random.default_rng(seed)
        spec = ModelSpec(tuple(dims), activation=activation)
        params, x = init_params(spec, rng), rng.normal(size=(rows, dims[0]))
        assert encode(params, spec, x).tobytes() == forward(params, spec, x).pre[-1].tobytes()

    def test_encode_of_a_fortran_ordered_x_gives_the_bytes_of_a_plain_pass_on_that_x(self):
        # Such an x reaches the BLAS transposed, and its width-1 layer through gemv's other form, so a plain pass on
        # it need not round as one on its C-ordered copy does. Its row blocks are Fortran-ordered too, and encode
        # keeps the bytes of the plain pass on the same x.
        rng = np.random.default_rng(2)
        spec = ModelSpec((9, 1, 8), activation="tanh")
        params, x = init_params(spec, rng), np.asfortranarray(rng.normal(size=(2 * BLOCK + 3, 9)))
        assert encode(params, spec, x).tobytes() == forward(params, spec, x).pre[-1].tobytes()

    def test_encode_holds_its_output_plus_one_block(self):
        # tracemalloc sees numpy's buffers; one pass over all 20,000 rows would hold a 20.5 MB (20,000, 128) hidden layer.
        spec = ModelSpec((16, 128, 8))
        rng = np.random.default_rng(3)
        params, x = init_params(spec, rng), rng.normal(size=(20_000, 16))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = encode(params, spec, x)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # The last block takes up to BLOCK + 1 rows; the slack, about 70 KB here, is numpy's buffers and small objects.
        assert peak <= out.nbytes + (BLOCK + 1) * 128 * 8 + 256 * 1024

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
            loss, _ = training_xent(np.zeros((3, c)), np.array([0, 1, c - 1]))
            assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_confident_correct_drives_loss_to_zero(self):
        labels = np.array([0, 1])
        last = None
        for margin in (1.0, 10.0, 100.0):
            logits = np.array([[margin, 0.0], [0.0, margin]])
            loss, _ = training_xent(logits, labels)
            if last is not None:
                assert loss < last
            last = loss
        assert last < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, c = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            logits = rng.normal(size=(n, c))
            labels = rng.integers(0, c, n)
            _, grad = training_xent(logits, labels)
            fd = fd_grad(lambda v: training_xent(v.reshape(n, c), labels)[0], logits.reshape(-1))
            assert_grad_close(grad.reshape(-1), fd)


@st.composite
def xent_cases(draw):
    """(logits, labels): (n, c) or (K, n, c) logits with planted ties, signed zeros, infinities or huge values.

    The logits are C-ordered, as training passes them.
    """
    k, n, c = draw(st.sampled_from([None, *range(1, 21)])), draw(st.integers(1, 40)), draw(st.integers(2, 16))
    shape = (n, c) if k is None else (k, n, c)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(size=shape) * draw(st.sampled_from([1.0, 1e3, 1e300]))
    rows = logits.reshape(-1, c)
    first, second = rng.integers(0, c, len(rows)), rng.integers(0, c - 1, len(rows))
    second += second >= first  # another column of the same row
    picked = np.arange(len(rows))[rng.random(len(rows)) < draw(st.sampled_from([0.0, 0.3, 1.0]))]
    kind = draw(st.sampled_from(["repeated_max", "signed_zero_max", "inf", "none"]))
    if kind == "repeated_max":
        rows[picked, second[picked]] = rows[picked].max(axis=-1)
    elif kind == "signed_zero_max":
        rows[picked] = -np.abs(rows[picked]) - 1.0
        rows[picked, first[picked]], rows[picked, second[picked]] = 0.0, -0.0
    elif kind == "inf":
        rows[picked, first[picked]] = rng.choice([np.inf, -np.inf], len(picked))
    labels = rng.integers(0, c, shape[:-1])
    return logits, labels


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(xent_cases())
def test_xent_keeps_the_parent_formulas_bytes(case):
    logits, labels = case
    with np.errstate(all="ignore"):  # infinities make NaNs in both
        loss, grad = training_xent(logits, labels)
        want_loss, want_grad = parent_loss_xent(logits, labels)
    assert type(loss) is type(want_loss)
    assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
    assert grad.shape == want_grad.shape and grad.tobytes() == want_grad.tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(xent_cases(), st.integers(0, 5))
def test_in_place_xent_grad_keeps_the_parent_formulas_bytes(case, spare):
    # As the probe's step runs them: an n-row batch's logits, log-softmax and gradient share the first n rows
    # of one C-ordered block, and the temporaries the first n rows of their own blocks.
    logits, labels = case
    c = logits.shape[-1]
    logits, labels = logits.reshape(-1, c), labels.reshape(-1)  # the block's layout
    n = len(labels)
    block, temp, sums = np.full((n + spare, c), np.nan), np.full((n + spare, c), np.nan), np.full((n + spare, 1), np.nan)
    block[:n] = logits
    with np.errstate(all="ignore"):  # infinities make NaNs in both
        logp = learners._log_softmax(block[:n], block[:n], (temp[:n], sums[:n]))
        grad = learners._xent_grad(logp, np.arange(n) * c + labels, logp)
        want = parent_loss_xent(logits, labels)[1]
    assert np.shares_memory(grad, block) and grad.tobytes() == want.tobytes()
    assert np.isnan(block[n:]).all() and np.isnan(temp[n:]).all() and np.isnan(sums[n:]).all()


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
        elements=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0]),
    ),
    st.booleans(),
)
def test_row_max_is_the_last_axis_max(a, transposed):
    if transposed:
        a = a.T
    np.testing.assert_array_equal(learners._row_max(a), a.max(axis=-1, keepdims=True))


class TestNtxent:
    def test_tied_maxima_keep_the_parent_bytes(self, monkeypatch):
        # At tau 0.5, a0's candidates read (0, 2, 2) and a1's (0, 0, 0): every row's maximum is tied.
        z = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]])
        got = loss_ntxent(z, 0.5)
        monkeypatch.setattr(learners, "_row_max", lambda a: a.max(axis=-1, keepdims=True))
        want = loss_ntxent(z, 0.5)
        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]

    def test_matches_direct_formula_on_orthonormal_fixture(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = loss_ntxent(np.stack([z, z]), 1.0)
        assert loss == pytest.approx(brute_force_ntxent(z, z, 1.0), abs=1e-12)

    def test_matches_direct_formula_on_random_fixtures(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            b, d = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            z = rng.normal(size=(2, b, d))
            tau = float(rng.uniform(0.2, 2.0))
            loss, _ = loss_ntxent(z, tau)
            assert loss == pytest.approx(brute_force_ntxent(*z, tau), abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(2, 4, 3))
        base, _ = loss_ntxent(z, 0.5)
        scaled, _ = loss_ntxent(10.0 * z, 0.5)
        assert abs(base - scaled) < 1e-10
        rows, _ = loss_ntxent(np.stack([z[0] * rng.uniform(0.5, 3.0, size=(4, 1)), z[1]]), 0.5)
        assert abs(base - rows) < 1e-10

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            loss_ntxent(np.ones((2, 1, 3)), 0.5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "row, cause",
        [([0.0, 0.0], "zero embedding row"), ([np.nan, 1.0], "non-finite embedding"),
         ([np.inf, 1.0], "non-finite embedding"), ([-np.inf, -np.inf], "non-finite embedding")],
    )
    def test_degenerate_row_named(self, row, cause):
        z = np.ones((3, 2))
        z[1] = row
        for views in (np.stack([z, np.ones((3, 2))]), np.stack([np.ones((3, 2)), z])):
            with pytest.raises(ValueError, match=cause):
                loss_ntxent(views, 0.5)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            b, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            z = rng.normal(size=(2, b, d))
            tau = float(rng.uniform(0.3, 1.5))
            _, grad = loss_ntxent(z, tau)
            fd = fd_grad(lambda v: loss_ntxent(v.reshape(z.shape), tau)[0], z.reshape(-1))
            assert_grad_close(grad.reshape(-1), fd)


class TestViewStack:
    """Both SSL losses take the two views as one (2, ..., B, D) stack and return one gradient of its shape."""

    LOSSES = [(loss_ntxent, 0.5), (loss_barlow, 0.05)]

    @pytest.mark.parametrize("loss_fn, arg", LOSSES)
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 4, 2)])
    def test_a_shape_that_is_not_a_stack_of_two_views_is_named(self, loss_fn, arg, shape):
        with pytest.raises(ValueError, match=rf"not shape {re.escape(str(shape))}$"):
            loss_fn(np.ones(shape), arg)

    @pytest.mark.parametrize("loss_fn, arg", LOSSES)
    @pytest.mark.parametrize("shape", [(2, 4, 3), (2, 3, 4, 3), (2, 2, 3, 4, 3)])
    def test_the_gradient_has_the_stack_shape(self, loss_fn, arg, shape):
        views = np.random.default_rng(14).normal(size=shape)
        loss, grad = loss_fn(views, arg)
        assert np.shape(loss) == shape[1:-2] and grad.shape == shape

    @pytest.mark.parametrize("loss_fn, arg", LOSSES)
    def test_each_client_has_the_bytes_of_its_own_call(self, loss_fn, arg):
        views = np.random.default_rng(15).normal(size=(2, 3, 5, 4))
        losses, grad = loss_fn(views, arg)
        for k in range(3):
            loss_k, grad_k = loss_fn(views[:, k], arg)
            assert losses[k].tobytes() == np.asarray(loss_k).tobytes()
            assert grad[:, k].tobytes() == grad_k.tobytes()


class TestBarlow:
    def test_loss_is_exactly_zero_at_identity_correlation(self):
        assert redundancy_loss_from_corr(np.eye(5), 0.01) == 0.0

    def test_decorrelated_unit_variance_views(self):
        # orthogonal columns with exact zero mean and unit variance
        z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        hat = (z - z.mean(axis=0)) / z.std(axis=0)  # the batch cross-correlation loss_barlow penalises
        corr = hat.T @ hat / len(z)
        np.testing.assert_allclose(corr, np.eye(2), atol=1e-7)
        loss, _ = loss_barlow(np.stack([z, z]), 0.5)
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
            z = rng.normal(size=(2, n, d))
            lam = float(rng.uniform(0.0, 0.1))
            loss, _ = loss_barlow(z, lam)
            assert loss == pytest.approx(brute_force_barlow(*z, lam), abs=1e-10)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(2, 6, 4))
        base, _ = loss_barlow(z, 0.01)
        scale = rng.uniform(0.5, 4.0, size=4)
        shift = rng.normal(size=4)
        rescaled, _ = loss_barlow(np.stack([z[0] * scale + shift, z[1]]), 0.01)
        assert abs(base - rescaled) < 1e-8

    def test_constant_dimension_is_finite(self):
        z = np.ones((4, 3))
        z[:, 1] = np.arange(4)
        loss, grad = loss_barlow(np.stack([z, z]), 0.1)
        assert math.isfinite(loss)
        assert np.isfinite(grad).all()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n, d = int(rng.integers(3, 7)), int(rng.integers(2, 5))
            z = rng.normal(size=(2, n, d))
            lam = float(rng.uniform(0.0, 0.1))
            _, grad = loss_barlow(z, lam)
            fd = fd_grad(lambda v: loss_barlow(v.reshape(z.shape), lam)[0], z.reshape(-1))
            assert_grad_close(grad.reshape(-1), fd)


class TestFullBackprop:
    def test_ssl_chain_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        spec = ModelSpec((3, 4, 3), projector_dims=(3, 2), activation="tanh")
        for _ in range(5):
            params = init_params(spec, rng)
            x = rng.normal(size=(2, 4, 3))  # both views' inputs, one pass

            def full_loss(p):
                return loss_ntxent(forward(p, spec, x).pre[-1], 0.5)[0]

            fp = forward(params, spec, x)
            _, grad = loss_ntxent(fp.pre[-1], 0.5)
            grads = backward(params, spec, fp, grad)  # one gradient per view, along the leading axis
            for name, shape in params.layout:
                def f(v, name=name, shape=shape):
                    arrays = {n: params[n] for n in params.names}
                    arrays[name] = v.reshape(shape)
                    return full_loss(arrays)
                fd = fd_grad(f, params[name].reshape(-1).copy())
                assert_grad_close(grads[name].sum(axis=0).reshape(-1), fd)

    def test_supervised_chain_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        spec = ModelSpec((4, 5, 3), activation="relu", head_classes=3)
        for _ in range(5):
            params = init_params(spec, rng)
            x = rng.normal(size=(6, 4))
            y = rng.integers(0, 3, 6)

            def full_loss(p):
                return parent_loss_xent(forward(p, spec, x).pre[-1], y)[0]

            fp = forward(params, spec, x)
            _, glog = parent_loss_xent(fp.pre[-1], y)
            grads = backward(params, spec, fp, glog)
            for name, shape in params.layout:
                def f(v, name=name, shape=shape):
                    arrays = {n: params[n] for n in params.names}
                    arrays[name] = v.reshape(shape)
                    return full_loss(arrays)
                fd = fd_grad(f, params[name].reshape(-1).copy())
                assert_grad_close(grads[name].reshape(-1), fd)


def views(batch, noise_std, mask_prob, rngs):
    """``make_views`` of a (K, B, D) stack into a fresh (2, 2, K, B, D) array."""
    return make_views(batch, noise_std, mask_prob, rngs, np.empty((2, 2, *batch.shape)))


class TestMakeViews:
    """``make_views`` takes a (K, B, D) stack and K generators; these cases use one client."""

    def test_no_perturbation_is_identity(self):
        rng = np.random.default_rng(13)
        batch = rng.normal(size=(1, 5, 3))
        a, b = views(batch, 0.0, 0.0, [np.random.default_rng(0)])
        np.testing.assert_array_equal(a, batch)
        np.testing.assert_array_equal(b, batch)

    def test_full_masking_zeroes_everything(self):
        batch = np.ones((1, 4, 3))
        a, b = views(batch, 0.5, 1.0, [np.random.default_rng(1)])
        assert (a == 0).all() and (b == 0).all()

    def test_deterministic_given_seed(self):
        batch = np.ones((1, 4, 3))
        a1, b1 = views(batch, 0.3, 0.2, [np.random.default_rng(42)])
        a2, b2 = views(batch, 0.3, 0.2, [np.random.default_rng(42)])
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_views_differ_from_each_other(self):
        batch = np.ones((1, 4, 3))
        a, b = views(batch, 0.5, 0.0, [np.random.default_rng(2)])
        assert a.shape == b.shape == batch.shape
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("noise_std", [0.0, 0.3])
    def test_stacked_clients_match_per_client_draws(self, noise_std):
        # Reference: each client alone draws normal, uniform, normal, uniform.
        batch = np.random.default_rng(5).normal(size=(3, 4, 2))
        batch[0] = -0.0  # -0.0 plus a zero noise must give +0.0, as Generator.normal's 0.0 + scale * z does
        a, b = views(batch, noise_std, 0.25, [np.random.default_rng(k) for k in range(3)])
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


def nan_views(shape, b):
    """A NaN-filled array of ``shape`` with one more row than ``b``, cut back to ``b`` rows (axis -2)."""
    return np.full((*shape[:-2], b + 1, shape[-1]), np.nan)[..., :b, :]


class TestOutputBuffers:
    """Given output buffers, the passes and the SGD step write the bytes their allocating calls return."""

    B = 4

    def model(self, head, activation):
        if head:
            return ModelSpec((3, 5, 4), head_classes=3, activation=activation)
        return ModelSpec((3, 5, 4), projector_dims=(4, 6, 2), activation=activation)

    def forward_out(self, params, lead):
        """NaN buffers for every array :func:`forward` writes: a raw output per layer, an activation per hidden input."""
        weights = [(name[: -len(".weight")], shape) for name, shape in params.layout if name.endswith(".weight")]
        pre = [nan_views((*lead, self.B, fan_out), self.B) for _, (_, fan_out) in weights]
        act = [None if i == 0 or prefix == "head" else nan_views((*lead, self.B, fan_in), self.B)
               for i, (prefix, (fan_in, _)) in enumerate(weights)]
        return ForwardPass(act, pre)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("head", [False, True])
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)], ids=["alone", "K=1", "stacked", "two-view"])
    def test_passes_write_the_allocating_bytes(self, activation, head, lead):
        rng = np.random.default_rng(41)
        spec = self.model(head, activation)
        k = lead[-1] if lead else None  # (2, K) is the two SSL views of K clients
        inits = [init_params(spec, rng) for _ in range(k or 1)]
        layout = inits[0].layout
        params = segments(np.stack([p.vector for p in inits]) if k else inits[0].vector, layout)
        batch = rng.normal(size=(*lead, self.B, 3))
        out = self.forward_out(inits[0], lead)
        fp, ref = forward(params, spec, batch, out), forward(params, spec, batch)
        for got, want in zip(fp.pre + fp.chain_inputs, ref.pre + ref.chain_inputs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert all(a is b for a, b in zip(fp.pre, out.pre))
        grad = rng.normal(size=ref.pre[-1].shape)
        want = backward(params, spec, ref, grad)
        grads = {name: np.full((*lead, *shape), np.nan) for name, shape in layout}
        assert backward(params, spec, fp, grad, grads) is grads
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert g.tobytes() == want[name].tobytes()

    def test_views_write_the_allocating_bytes(self):
        batch = np.random.default_rng(42).normal(size=(3, self.B, 2))
        out = nan_views((2, 2, 3, self.B, 2), self.B)
        got = make_views(batch, 0.3, 0.25, [np.random.default_rng(k) for k in range(3)], out=out)
        ref = views(batch, 0.3, 0.25, [np.random.default_rng(k) for k in range(3)])
        # the views are out[0] itself, the (2, K, B, D) stack the forward pass takes
        assert isinstance(got, np.ndarray) and np.shares_memory(got, out[0])
        assert (got.shape, got.strides, got.ctypes.data) == (out[0].shape, out[0].strides, out[0].ctypes.data)
        assert got.tobytes() == ref.tobytes() == out[0].tobytes()

    @pytest.mark.parametrize("shape", [(7,), (3, 7)])
    def test_sgd_step_writes_the_allocating_bytes(self, shape):
        rng = np.random.default_rng(43)
        w, g, v = rng.normal(size=(3, *shape))
        w2, v2, scratch = w.copy(), v.copy(), np.full(shape, np.nan)
        for _ in range(3):
            sgd_step(w, g, v, 0.1, 0.9, 1e-3)
            sgd_step(w2, g, v2, 0.1, 0.9, 1e-3, out=scratch)
        assert w2.tobytes() == w.tobytes() and v2.tobytes() == v.tobytes()

    def test_sgd_step_rejects_a_bad_gradient_before_writing(self):
        w, v, scratch = np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.zeros(2)
        with pytest.raises(ValueError, match=r"gradient of shape \(1,\) for weights of shape \(2,\)"):
            sgd_step(w, np.zeros(1), v, 0.1, 0.9, 0.1, out=scratch)
        np.testing.assert_array_equal(w, [1.0, 2.0])
        np.testing.assert_array_equal(v, [0.5, 0.5])
        np.testing.assert_array_equal(scratch, [0.0, 0.0])


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
    (up,) = rows(train_clients([(0, data, init, rng)], trainer, model, Workspace()))
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
                self.ssl_trainer(), model, Workspace(),
            )
        assert info.value.client_id == 8

    def test_out_of_range_label_names_its_client(self):
        # the Dataset holds labels in [0, 5), the head has 3 classes: the round checks them once, not each step
        rng = np.random.default_rng(24)
        model = ModelSpec((4, 6, 5), head_classes=3)
        init = init_params(model, rng)
        good = Dataset(rng.normal(size=(10, 4)), rng.integers(0, 3, 10), 5)
        bad = Dataset(rng.normal(size=(10, 4)), [0, 1, 2, 0, 1, 2, 0, 1, 3, 2], 5)
        trainer = TrainerSpec(method="supervised", batch_size=4)
        with pytest.raises(ClientTrainingError, match=r"^label outside \[0, 3\)$") as info:
            train_clients([(cid, d, init, np.random.default_rng(cid)) for cid, d in ((3, good), (4, bad), (5, good))],
                          trainer, model, Workspace())
        assert info.value.client_id == 4

    def test_layers_outside_the_model_rejected(self):
        # training writes gradients for the model's layers only: another layer would be
        # stepped with whatever a kept workspace last held in its rows
        rng = np.random.default_rng(23)
        ds, model = client_dataset(rng), self.ssl_model()
        init = init_params(model, rng)
        extra = ParamSet.from_arrays({**{n: init[n] for n in init.names}, "extra.weight": np.ones((2, 2))})
        missing = ParamSet.from_arrays({n: init[n] for n in init.names if n != "projector.0.bias"})
        for params, message in ((extra, r"layers \['extra.weight'\] are not in the model"),
                                (missing, r"missing layer 'projector.0.bias'")):
            with pytest.raises(ClientTrainingError, match=f"^{message}$"):
                train_one(ds, params, self.ssl_trainer(), model, np.random.default_rng(11))

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
        return Dataset(features, data.labels, data.num_classes)

    def train(self, clients):
        """Train [(data, generator seed or generator)] as one round; clients are numbered by position."""
        init = init_params(self.MODEL, np.random.default_rng(0))
        return train_clients(
            [(k, data, init, np.random.default_rng(seed)) for k, (data, seed) in enumerate(clients)],
            self.TRAINER, self.MODEL, Workspace(),
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
        assert self.named([(empty, 1), (diverging, 2)]) == (0, "empty dataset")
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
        z = rng.normal(size=(2, self.K, self.B, self.D))
        for loss_fn, arg in ((loss_ntxent, 0.5), (loss_barlow, 0.05)):
            losses, grad = loss_fn(z, arg)
            assert losses.shape == (self.K,)
            # the clients do not interact, so the gradient of the summed loss is each client's own
            fd = fd_grad(lambda v: loss_fn(v.reshape(z.shape), arg)[0].sum(), z.reshape(-1))
            assert_grad_close(grad.reshape(-1), fd)
        logits = rng.normal(size=(self.K, self.B, 4))
        labels = rng.integers(0, 4, size=(self.K, self.B))
        losses, grad = training_xent(logits, labels)
        assert losses.shape == (self.K,)
        fd = fd_grad(lambda v: training_xent(v.reshape(logits.shape), labels)[0].sum(), logits.reshape(-1))
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
        x = rng.normal(size=(2, self.K, self.B, self.D))  # both SSL views; supervised takes the first
        y = rng.integers(0, 3, size=(self.K, self.B))

        def passes(w):
            params = segments(w, layout)
            if method == "supervised":
                fp = forward(params, spec, x[0])
                loss, glog = parent_loss_xent(fp.pre[-1], y)
                return loss.sum(), backward(params, spec, fp, glog)
            fp = forward(params, spec, x)
            loss_fn, arg = (loss_ntxent, 0.5) if method == "simclr" else (loss_barlow, 0.05)
            loss, grad = loss_fn(fp.pre[-1], arg)
            return loss.sum(), {name: g.sum(axis=0) for name, g in backward(params, spec, fp, grad).items()}

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
        assert both.pre[-1].tobytes() == np.stack([fa.pre[-1], fb.pre[-1]]).tobytes()
        _, grad = loss_fn(both.pre[-1], arg)
        grads_a, grads_b = backward(params, spec, fa, grad[0]), backward(params, spec, fb, grad[1])
        # the loss's gradient is a strided view; backward reads it as it would a C-ordered copy
        contiguous = backward(params, spec, both, np.ascontiguousarray(grad))
        for name, g in backward(params, spec, both, grad).items():
            assert (g[0] + g[1]).tobytes() == (grads_a[name] + grads_b[name]).tobytes()
            assert g.tobytes() == contiguous[name].tobytes()


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
            [(cid, d, init, session(k)) for k, (cid, d, init) in enumerate(clients)], trainer, model, Workspace()
        )
        assert together.weights.shape == (len(clients), glob.num_params) and not together.weights.flags.writeable
        for k, ((cid, d, init), up) in enumerate(zip(clients, rows(together))):
            (alone,) = rows(train_clients([(cid, d, init, session(k))], trainer, model, Workspace()))
            assert up.client_id == alone.client_id == cid
            assert up.num_samples == alone.num_samples == len(d)
            assert up.params.vector.tobytes() == alone.params.vector.tobytes()
            assert up.train_loss == alone.train_loss


def hand_written_round(clients, trainer, model):
    """Each client of a supervised round trained alone by a plain loop: (weights, mean final-epoch losses).

    Every batch is ``x[perm[start:start + b]]``, and its gradient is ``parent_loss_xent``'s, so the
    loop shares neither the round's gather nor its cross-entropy.
    """
    weights, losses = [], []
    for _, data, init, rng in clients:
        w, v, n = init.vector.copy(), np.zeros(init.num_params), len(data)
        params = segments(w, init.layout)
        for _ in range(max(trainer.local_epochs, 1)):
            perm, total = rng.permutation(n), 0.0
            for start in range(0, n, trainer.batch_size):
                idx = perm[start : start + trainer.batch_size]
                fp = forward(params, model, data.features[idx])
                loss, grad = parent_loss_xent(fp.pre[-1], data.labels[idx])
                grads = backward(params, model, fp, grad)
                if trainer.local_epochs:
                    g = np.concatenate([grads[name].reshape(-1) for name, _ in init.layout])
                    v *= trainer.momentum
                    v += g + trainer.weight_decay * w
                    w -= trainer.lr * v
                total += loss * len(idx)
        weights.append(w)
        losses.append(total / n)
    return np.stack(weights), np.array(losses)


class TestSupervisedRoundBytes:
    """A supervised round's gathered batches and in-place cross-entropy give a plain per-client loop's bytes."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(
        sizes=st.lists(st.integers(1, 20), min_size=1, max_size=8),
        batch_size=st.integers(1, 9),
        local_epochs=st.integers(0, 2),
        classes=st.integers(2, 6),
        activation=st.sampled_from(["relu", "tanh"]),
        seed=st.integers(0, 2**16),
    )
    # every n divisible by the batch; final batches of one row; 16 classes, whose row sums numpy adds pairwise
    @example(sizes=[8, 4, 12, 4], batch_size=4, local_epochs=2, classes=3, activation="relu", seed=1)
    @example(sizes=[9, 5, 1, 13], batch_size=4, local_epochs=1, classes=4, activation="tanh", seed=2)
    @example(sizes=[40, 33, 7], batch_size=9, local_epochs=1, classes=16, activation="relu", seed=3)
    def test_round_gives_the_hand_written_loops_bytes(self, sizes, batch_size, local_epochs, classes, activation,
                                                       seed):
        rng = np.random.default_rng(seed)
        model = ModelSpec((3, 5, 4), head_classes=classes, activation=activation)
        trainer = TrainerSpec(method="supervised", batch_size=batch_size, local_epochs=local_epochs, lr=0.05,
                              weight_decay=1e-3)
        inits = [init_params(model, rng) for _ in sizes]
        data = [Dataset(rng.normal(size=(n, 3)), rng.integers(0, classes, n), classes) for n in sizes]

        def clients():
            return [(10 + k, d, init, np.random.default_rng([seed, k])) for k, (d, init) in
                    enumerate(zip(data, inits))]

        got = train_clients(clients(), trainer, model, Workspace())
        want_weights, want_losses = hand_written_round(clients(), trainer, model)
        assert got.weights.tobytes() == want_weights.tobytes()
        assert got.train_loss.tobytes() == want_losses.tobytes()


ROUND = st.fixed_dictionaries({
    "method": st.sampled_from(["simclr", "barlow_twins", "supervised"]),
    "activation": st.sampled_from(["relu", "tanh"]),
    "hidden": st.sampled_from([5, 7]),
    "sizes": st.lists(st.integers(2, 13), min_size=1, max_size=5),
    "batch_size": st.integers(2, 5),
    "local_epochs": st.integers(0, 2),
})


class TestWorkspace:
    """Rounds trained through one kept Workspace give the bytes of rounds trained through fresh ones."""

    DATA = make_blobs(3, 10, 4, 0.5, seed=8)

    def round(self, seed, r, spec):
        """The round's clients as (cid, data, init), its trainer and its model."""
        rng = np.random.default_rng([seed, r])
        if spec["method"] == "supervised":
            model = ModelSpec((4, spec["hidden"], 5), head_classes=3, activation=spec["activation"])
        else:
            model = ModelSpec((4, spec["hidden"], 5), projector_dims=(5, 3), activation=spec["activation"])
        trainer = TrainerSpec(
            method=spec["method"], batch_size=spec["batch_size"], local_epochs=spec["local_epochs"],
            lr=0.05, weight_decay=1e-3, augment_mask_prob=0.2,
        )
        init = init_params(model, rng)
        clients = [(10 + k, self.DATA.subset(rng.choice(len(self.DATA), n, replace=False)), init)
                   for k, n in enumerate(spec["sizes"])]
        return clients, trainer, model

    def train(self, seed, r, clients, trainer, model, workspace):
        sessions = [(cid, d, init, np.random.default_rng([seed, r, k])) for k, (cid, d, init) in enumerate(clients)]
        return train_clients(sessions, trainer, model, workspace)

    def fail(self, seed, workspace):
        """A round whose second client has a zero projector: it fails at its first step, then the replay runs."""
        model = ModelSpec((4, 6, 5), projector_dims=(5, 3))
        good = init_params(model, np.random.default_rng(seed))
        dead = ParamSet.from_arrays({n: good[n] * (not n.startswith("projector.")) for n in good.names})
        clients = [(k, self.DATA.subset(range(9 * k, 9 * k + 9)), init) for k, init in enumerate([good, dead, good])]
        with pytest.raises(ClientTrainingError) as info:
            self.train(seed, 3, clients, TrainerSpec(method="simclr", batch_size=4), model, workspace)
        assert info.value.client_id == 1

    @PROPERTY
    @given(rounds=st.lists(ROUND, min_size=3, max_size=3), failed_before=st.sampled_from([None, 0, 1, 2]),
           seed=st.integers(0, 2**16))
    def test_a_kept_workspace_gives_the_bytes_of_fresh_ones(self, rounds, failed_before, seed):
        workspace, results = Workspace(), []
        for r, spec in enumerate(rounds):
            if r == failed_before:
                self.fail(seed, workspace)
            clients, trainer, model = self.round(seed, r, spec)
            kept = self.train(seed, r, clients, trainer, model, workspace)
            fresh = self.train(seed, r, clients, trainer, model, Workspace())
            assert kept.weights.tobytes() == fresh.weights.tobytes()
            assert kept.train_loss.tobytes() == fresh.train_loss.tobytes()
            results.append((kept, fresh.weights))
        # every round's result is its own: later rounds through the workspace leave it as it was
        for kept, fresh in results:
            assert kept.weights.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("method", ["supervised", "simclr", "barlow_twins"])
    def test_a_round_holds_one_four_row_block_and_only_an_ssl_round_makes_views(self, method):
        spec = {"method": method, "activation": "relu", "hidden": 5, "sizes": [6, 9], "batch_size": 4,
                "local_epochs": 1}
        clients, trainer, model = self.round(0, 0, spec)
        workspace = Workspace()
        self.train(0, 0, clients, trainer, model, workspace)
        ssl = method != "supervised"
        assert workspace.rows.shape == (4, 2, clients[0][2].num_params)  # weights, velocities, gradients, spare
        assert not hasattr(workspace, "dw") and not hasattr(workspace, "dz")
        assert (workspace.views is None) == (not ssl)
        # Besides the block it holds only per-batch arrays: the inputs, the views, each layer's output and
        # activation (the loss gradient overwrites the last output), and the log-softmax's exps and row sums.
        held = [a for v in vars(workspace).values() for a in (v if isinstance(v, (list, tuple)) else [v])
                if isinstance(a, np.ndarray)]
        layers = learners._layers(model)
        assert len(held) == 2 + ssl + len(layers) + sum(activated for *_, activated in layers) + 2 * (not ssl)
        assert all(a is workspace.rows or a.shape[-2] == 2 * trainer.batch_size for a in held)


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
