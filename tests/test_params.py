"""Tensor algebra, parameter-set invariants, and checkpoint round-trips."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.params import (
    CHECKPOINT_MAGIC,
    IncompatibleModelError,
    LayerTensor,
    ParamSet,
    dot,
    flatten,
    load_checkpoint,
    norm,
    paramset_from_json,
    paramset_to_json,
    save_checkpoint,
    save_checkpoint_json,
    weighted_sum,
)


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)

# Layouts of 0-5 uniquely named layers, zero-size and 0-d layers included.
LAYOUTS = st.lists(
    st.tuples(st.text(min_size=1, max_size=8), st.lists(st.integers(0, 4), max_size=3).map(tuple)),
    max_size=5,
    unique_by=lambda entry: entry[0],
)


@st.composite
def paramsets(draw):
    layout = draw(LAYOUTS)
    size = sum(int(np.prod(shape)) for _, shape in layout)
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size))
    return ParamSet.from_vector(np.array(values, dtype=np.float64).reshape(-1), layout)


def header_entries():
    number = st.integers(-2, 40) | st.sampled_from([2**63, -(2**63), 10**30])
    odd = st.text(max_size=2) | st.none() | st.just(float("inf")) | st.lists(st.integers(), max_size=1)
    shape = st.one_of(st.lists(st.integers(-1, 5), max_size=3), st.lists(number | odd, max_size=3), odd)
    entry = st.fixed_dictionaries(
        {"shape": shape}, optional={"name": st.text(max_size=3) | st.integers(), "offset": number | odd}
    )
    return st.lists(entry | st.integers(), max_size=4)


@st.composite
def checkpoint_blobs(draw):
    """Arbitrary bytes; bytes behind the magic; or a preamble and a JSON header of random layer entries."""
    kind = draw(st.sampled_from(["bytes", "magic", "header", "header", "header"]))
    tail = draw(st.binary(max_size=64))
    if kind == "bytes":
        return tail
    if kind == "magic":
        return CHECKPOINT_MAGIC + tail
    header = json.dumps({"layers": draw(header_entries())}).encode()
    length = draw(st.sampled_from([len(header)] * 4 + [len(header) + 1, 0, 2**64 - 1]))
    return CHECKPOINT_MAGIC + struct.pack("<IQ", draw(st.sampled_from([1] * 5 + [2])), length) + header + tail


def lt(values, name="t", shape=None):
    arr = np.asarray(values, dtype=np.float64)
    return LayerTensor(name, shape if shape is not None else arr.shape, arr.reshape(-1))


def ps(*layer_values):
    return ParamSet(tuple(lt(v, name=f"layer{i}") for i, v in enumerate(layer_values)))


def random_paramset(rng, n_layers=None):
    n_layers = n_layers if n_layers is not None else rng.integers(1, 5)
    layers = []
    for i in range(n_layers):
        if rng.random() < 0.5:
            shape = (int(rng.integers(1, 5)),)
        else:
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        layers.append(LayerTensor(f"layer{i}", shape, rng.normal(size=shape).reshape(-1)))
    return ParamSet(tuple(layers))


class TestLayerTensor:
    def test_shape_value_count_must_match(self):
        with pytest.raises(ValueError, match="implies"):
            LayerTensor("w", (2, 2), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            LayerTensor("w", (2,), np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            LayerTensor("w", (2,), np.array([1.0, np.inf]))

    def test_values_are_read_only(self):
        t = lt([1.0, 2.0])
        with pytest.raises(ValueError):
            t.values[0] = 5.0

    def test_row_major_flattening(self):
        t = LayerTensor("w", (2, 2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert t.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert t.shape == (2, 2)


class TestParamSet:
    def test_duplicate_names_rejected(self):
        a = lt([1.0], name="w")
        b = lt([2.0], name="w")
        with pytest.raises(ValueError, match="duplicate"):
            ParamSet((a, b))

    def test_compatibility(self):
        a = ps([1.0, 2.0], [3.0])
        b = ps([4.0, 5.0], [6.0])
        assert a.layout == b.layout
        a.require_compatible(b)
        c = ps([1.0, 2.0, 3.0], [3.0])
        assert a.layout != c.layout
        with pytest.raises(IncompatibleModelError, match="layer0"):
            a.require_compatible(c)

    def test_layers_and_flatten_view_one_vector(self):
        m = ps([[1.0, 2.0], [3.0, 4.0]], [5.0], [])
        assert m.vector.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert m.layout == (("layer0", (2, 2)), ("layer1", (1,)), ("layer2", (0,)))
        for t in m.layers:
            assert np.shares_memory(t.values, m.vector) or t.size == 0
        assert np.shares_memory(m["layer0"], m.vector) and m["layer0"].shape == (2, 2)
        assert np.shares_memory(flatten(m).values, m.vector)
        assert not m.vector.flags.writeable and not m["layer0"].flags.writeable
        with pytest.raises(AttributeError):
            m.vector = np.zeros(5)

    def test_array_round_trip(self):
        rng = np.random.default_rng(0)
        original = random_paramset(rng)
        rebuilt = ParamSet.from_arrays({name: original[name] for name in original.names})
        assert rebuilt == original
        assert original["layer0"].shape == original.layer("layer0").shape


class TestDot:
    def test_identical_unit_vectors(self):
        assert dot(lt([1, 0]), lt([1, 0])) == 1.0

    def test_orthogonal(self):
        assert dot(lt([1, 0]), lt([0, 1])) == 0.0

    def test_hand_evaluation(self):
        assert dot(lt([1, 2]), lt([2, 1])) == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(IncompatibleModelError):
            dot(lt([1, 2]), lt([1, 2, 3]))

    def test_symmetric_and_bilinear(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = lt(rng.normal(size=6))
            b = lt(rng.normal(size=6))
            c = lt(rng.normal(size=6))
            assert dot(a, b) == pytest.approx(dot(b, a), abs=1e-12)
            s, t = rng.normal(), rng.normal()
            combo = lt(s * b.values + t * c.values)
            assert dot(a, combo) == pytest.approx(s * dot(a, b) + t * dot(a, c), rel=1e-12, abs=1e-12)


class TestNorm:
    def test_zero_vector(self):
        assert norm(lt([0, 0, 0])) == 0.0

    def test_three_four_five(self):
        assert norm(lt([3, 4])) == 5.0

    def test_unit_scalar(self):
        assert norm(lt([1])) == 1.0

    def test_norm_squared_equals_self_dot(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = lt(rng.normal(size=8))
            assert norm(a) ** 2 == pytest.approx(dot(a, a), rel=1e-12)


class TestWeightedSum:
    def test_single_model_unit_coefficient(self):
        m = ps([2.0, 0.0])
        assert weighted_sum([m], [1.0]) == m

    def test_hand_mean(self):
        out = weighted_sum([ps([2.0, 0.0]), ps([0.0, 2.0])], [0.5, 0.5])
        np.testing.assert_array_equal(out.layers[0].values, [1.0, 1.0])

    def test_all_zero_coefficients(self):
        out = weighted_sum([ps([2.0, 3.0]), ps([4.0, 5.0])], [0.0, 0.0])
        np.testing.assert_array_equal(out.layers[0].values, [0.0, 0.0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            weighted_sum([], [])

    def test_incompatible_models_rejected(self):
        with pytest.raises(IncompatibleModelError):
            weighted_sum([ps([1.0]), ps([1.0, 2.0])], [0.5, 0.5])

    def test_uniform_coefficients_equal_elementwise_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            ref = random_paramset(rng)
            models = [ref] + [
                ParamSet(tuple(LayerTensor(t.name, t.shape, rng.normal(size=t.size)) for t in ref.layers))
                for _ in range(k - 1)
            ]
            out = weighted_sum(models, [1.0 / k] * k)
            for idx, t in enumerate(out.layers):
                mean = np.mean([m.layers[idx].values for m in models], axis=0)
                assert np.abs(t.values - mean).max() < 1e-12


class TestWeightedSumPerLayer:
    """``weighted_sum`` with a (K, L) matrix: one coefficient per (model, layer)."""

    def test_identity(self):
        m = ps([1.0, 2.0], [3.0])
        out = weighted_sum([m], [[1.0, 1.0]])
        assert out == m

    def test_hand_mean_single_layer(self):
        out = weighted_sum([ps([2.0]), ps([4.0])], [[0.5], [0.5]])
        np.testing.assert_array_equal(out.layers[0].values, [3.0])

    def test_two_layer_two_client_hand_expansion(self):
        a = ps([1.0, 0.0], [2.0])
        b = ps([0.0, 1.0], [4.0])
        coeffs = [[0.25, 0.5], [0.75, 0.5]]
        out = weighted_sum([a, b], coeffs)
        # scalar-loop expansion of the double sum
        np.testing.assert_allclose(out.layers[0].values, 0.25 * a.layers[0].values + 0.75 * b.layers[0].values)
        np.testing.assert_allclose(out.layers[1].values, 0.5 * a.layers[1].values + 0.5 * b.layers[1].values)

    def test_shape_mismatch_rejected(self):
        m = ps([1.0], [2.0])
        with pytest.raises(ValueError, match=r"shape \(1, 1\) for 1 models of 2 layers"):
            weighted_sum([m], [[1.0]])
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            weighted_sum([m], [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            weighted_sum([m], [1.0, 1.0])

    def test_constant_per_client_coefficient_matches_weighted_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            ref = random_paramset(rng)
            models = [
                ParamSet(tuple(LayerTensor(t.name, t.shape, rng.normal(size=t.size)) for t in ref.layers))
                for _ in range(k)
            ]
            coeffs = rng.normal(size=k)
            flat_out = weighted_sum(models, coeffs)
            table_out = weighted_sum(models, [[c] * len(ref) for c in coeffs])
            for a, b in zip(flat_out.layers, table_out.layers):
                assert np.abs(a.values - b.values).max() < 1e-12


class TestFlatten:
    def test_concatenation_order(self):
        m = ps([1.0, 2.0], [3.0])
        assert flatten(m).values.tolist() == [1.0, 2.0, 3.0]

    def test_empty_paramset(self):
        assert flatten(ParamSet(())).size == 0

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        m = random_paramset(rng)
        assert ParamSet.from_vector(flatten(m).values, m.layout) == m

    def test_preserves_total_l2_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_paramset(rng)
            total = sum(norm(t) ** 2 for t in m.layers)
            assert norm(flatten(m)) ** 2 == pytest.approx(total, rel=1e-12)


class TestCheckpointIO:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        m = ParamSet(
            (
                LayerTensor("encoder.0.weight", (3, 2), rng.normal(size=6)),
                LayerTensor("encoder.0.bias", (2,), rng.normal(size=2)),
                LayerTensor("head.weight", (2, 4), rng.normal(size=8)),
            )
        )
        path = tmp_path / "model.bin"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded == m
        for a, b in zip(loaded.layers, m.layers):
            assert a.values.tobytes() == b.values.tobytes()

    def test_json_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        m = ParamSet((LayerTensor("w", (4,), rng.normal(size=4) * 1e-7),))
        path = tmp_path / "model.json"
        save_checkpoint_json(m, path)
        loaded = load_checkpoint(path)
        assert loaded == m
        assert loaded.layers[0].values.tobytes() == m.layers[0].values.tobytes()

    def test_json_dict_round_trip(self):
        m = ps([1.5, -2.25], [0.0])
        assert paramset_from_json(json.loads(json.dumps(paramset_to_json(m)))) == m

    def test_load_sniffs_format(self, tmp_path):
        m = ps([1.0])
        bin_path = tmp_path / "a.ckpt"
        json_path = tmp_path / "b.ckpt"
        save_checkpoint(m, bin_path)
        save_checkpoint_json(m, json_path)
        assert load_checkpoint(bin_path) == load_checkpoint(json_path) == m

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x00\x01\x02 not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.bin"
        save_checkpoint(ps([1.0]), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


class TestCheckpointProperties:
    @PROPERTY
    @given(m=paramsets())
    def test_binary_and_json_round_trip_bit_exact(self, m):
        with tempfile.TemporaryDirectory() as tmp:
            for save, name in ((save_checkpoint, "m.bin"), (save_checkpoint_json, "m.json")):
                save(m, Path(tmp) / name)
                loaded = load_checkpoint(Path(tmp) / name)
                assert loaded.layout == m.layout
                assert loaded.vector.tobytes() == m.vector.tobytes()

    def test_empty_paramset_round_trips(self, tmp_path):
        for save in (save_checkpoint, save_checkpoint_json):
            save(ParamSet(()), tmp_path / "empty")
            assert load_checkpoint(tmp_path / "empty") == ParamSet(())

    @PROPERTY
    @given(blob=checkpoint_blobs())
    def test_arbitrary_bytes_raise_only_value_error(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "blob"
            path.write_bytes(blob)
            try:
                load_checkpoint(path)
            except ValueError as exc:
                assert str(path) in str(exc)


class TestFromVectorErrors:
    def test_size_mismatch_rejected(self):
        m = ps([1.0, 2.0], [3.0])
        with pytest.raises(IncompatibleModelError, match="2 values for a layout of 3 parameters"):
            ParamSet.from_vector(np.array([1.0, 2.0]), m.layout)
