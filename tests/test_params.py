"""Parameter-set invariants, weighted sums, and checkpoint round-trips."""

import json
import math
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
    ParamSet,
    load_checkpoint,
    save_checkpoint,
    weighted_sum,
)
from helpers import summed


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
    return ParamSet(np.array(values, dtype=np.float64).reshape(-1), layout)


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


def ps(*layer_values):
    return ParamSet.from_arrays({f"layer{i}": np.asarray(v, dtype=np.float64) for i, v in enumerate(layer_values)})


def random_paramset(rng, n_layers=None):
    n_layers = n_layers if n_layers is not None else rng.integers(1, 5)
    arrays = {}
    for i in range(n_layers):
        if rng.random() < 0.5:
            shape = (int(rng.integers(1, 5)),)
        else:
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        arrays[f"layer{i}"] = rng.normal(size=shape)
    return ParamSet.from_arrays(arrays)


def like(ref, rng):
    """A ParamSet of ``ref``'s layout with fresh normal values."""
    return ParamSet(rng.normal(size=ref.num_params), ref.layout)


class TestConstruction:
    def test_shape_value_count_must_match(self):
        with pytest.raises(ValueError, match="3 values for a layout of 4 parameters"):
            ParamSet(np.zeros(3), (("w", (2, 2)),))

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"layer 'w': negative dimension in shape \(-1, -1\)"):
            ParamSet(np.zeros(1), (("w", (-1, -1)),))

    def test_rejects_non_finite_naming_the_layer(self):
        layout = (("a", (1,)), ("w", (2,)))
        with pytest.raises(ValueError, match="layer 'w' contains non-finite values"):
            ParamSet(np.array([0.0, 1.0, np.nan]), layout)
        with pytest.raises(ValueError, match="layer 'w' contains non-finite values"):
            ParamSet(np.array([0.0, 1.0, np.inf]), layout)
        with pytest.raises(ValueError, match="layer 'a' contains non-finite values"):
            ParamSet.from_arrays({"a": [np.inf], "w": [np.nan, 0.0]})

    def test_values_are_read_only(self):
        m = ps([1.0, 2.0])
        with pytest.raises(ValueError):
            m["layer0"][0] = 5.0

    def test_row_major_flattening(self):
        m = ParamSet.from_arrays({"w": np.array([[1.0, 2.0], [3.0, 4.0]])})
        assert m.vector.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert m.layout == (("w", (2, 2)),) and m["w"].shape == (2, 2)

    def test_float64_vector_adopted_without_copy(self):
        v = np.arange(3.0)
        m = ParamSet(v, (("a", (1,)), ("b", (2,))))
        assert m.vector is v and not v.flags.writeable


class TestParamSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParamSet(np.zeros(2), (("w", (1,)), ("w", (1,))))

    def test_compatibility(self):
        a = ps([1.0, 2.0], [3.0])
        b = ps([4.0, 5.0], [6.0])
        assert a.layout == b.layout
        a.require_compatible(b)
        c = ps([1.0, 2.0, 3.0], [3.0])
        assert a.layout != c.layout
        with pytest.raises(IncompatibleModelError, match="layer0"):
            a.require_compatible(c)

    def test_layers_view_one_vector(self):
        m = ps([[1.0, 2.0], [3.0, 4.0]], [5.0], [])
        assert m.vector.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert m.layout == (("layer0", (2, 2)), ("layer1", (1,)), ("layer2", (0,)))
        assert np.shares_memory(m["layer0"], m.vector) and m["layer0"].shape == (2, 2)
        assert not m.vector.flags.writeable and not m["layer0"].flags.writeable
        with pytest.raises(AttributeError):
            m.vector = np.zeros(5)

    def test_layer_records_for_outside_readers(self):
        m = ps([[1.0, 2.0], [3.0, 4.0]], [5.0], [])
        assert [(t.name, t.shape, t.size) for t in m.layers] == [
            ("layer0", (2, 2), 4), ("layer1", (1,), 1), ("layer2", (0,), 0)
        ]
        assert m.layers[0].values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert all(np.shares_memory(t.values, m.vector) for t in m.layers if t.size)

    def test_array_round_trip(self):
        rng = np.random.default_rng(0)
        original = random_paramset(rng)
        rebuilt = ParamSet.from_arrays({name: original[name] for name in original.names})
        assert rebuilt == original
        assert original["layer0"].shape == dict(original.layout)["layer0"]

    def test_unknown_layer_is_a_key_error(self):
        with pytest.raises(KeyError):
            ps([1.0])["nope"]


def wsum(models, coeffs):
    """``weighted_sum`` over the stacked vectors of ``models``, which share one layout."""
    return summed(np.stack([m.vector for m in models]), models[0].layout, coeffs)


def repeat_reference(block, layout, table):
    """The weighted sum as one P-long ``np.repeat`` coefficient mask per row, accumulated in row order."""
    sizes = [math.prod(shape) for _, shape in layout]
    acc = np.zeros(block.shape[1])
    for row, w in zip(table, block):
        acc += np.repeat(row, sizes) * w
    return acc


# Coefficients as divergence-scaled rules make them: signed zeros, negatives, exact fractions.
COEFFS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.25]) | st.floats(-1e3, 1e3)
WEIGHTS = st.floats(-1e6, 1e6)
# Layers of one value, where a pairwise reduction over K >= 8 rows would sum in another order.
SIZE_ONE_LAYOUTS = st.lists(
    st.tuples(st.text(min_size=1, max_size=8), st.sampled_from([(), (1,), (1, 1)]) | st.just((3,))),
    min_size=1,
    max_size=5,
    unique_by=lambda entry: entry[0],
)


class TestWeightedSum:
    def test_single_model_unit_coefficient(self):
        m = ps([2.0, 0.0])
        assert wsum([m], [[1.0]]) == m

    def test_hand_mean(self):
        out = wsum([ps([2.0, 0.0]), ps([0.0, 2.0])], [[0.5], [0.5]])
        np.testing.assert_array_equal(out["layer0"], [1.0, 1.0])

    def test_all_zero_coefficients(self):
        out = wsum([ps([2.0, 3.0]), ps([4.0, 5.0])], [[0.0], [0.0]])
        np.testing.assert_array_equal(out["layer0"], [0.0, 0.0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            weighted_sum(np.zeros((0, 1)), (("w", (1,)),), np.zeros((0, 1)), np.zeros(1))

    def test_block_wider_or_narrower_than_layout_rejected(self):
        for width in (1, 3):
            with pytest.raises(ValueError, match=rf"expected a \(K >= 1, 2\) block, got shape \(2, {width}\)"):
                weighted_sum(np.ones((2, width)), (("w", (2,)),), [[0.5], [0.5]], np.zeros(2))

    def test_out_of_another_width_or_dtype_rejected(self):
        for out in (np.zeros(3), np.zeros(1), np.zeros((1, 2)), np.zeros(2, dtype=np.float32)):
            with pytest.raises(ValueError, match=rf"^weighted_sum: expected a float64 \(2,\) out, got {out.dtype} "):
                weighted_sum(np.ones((1, 2)), (("w", (2,)),), [[1.0]], out)
            assert not out.any()

    def test_uniform_coefficients_equal_elementwise_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            ref = random_paramset(rng)
            models = [ref] + [like(ref, rng) for _ in range(k - 1)]
            out = wsum(models, [[1.0 / k] * len(ref.layout)] * k)
            for name in out.names:
                mean = np.mean([m[name] for m in models], axis=0)
                assert np.abs(out[name] - mean).max() < 1e-12

    @PROPERTY
    @given(layout=LAYOUTS | SIZE_ONE_LAYOUTS, k=st.integers(1, 20), data=st.data())
    def test_per_layer_accumulation_has_the_repeat_references_bytes(self, layout, k, data):
        size = sum(math.prod(shape) for _, shape in layout)
        block = np.array(data.draw(st.lists(WEIGHTS, min_size=k * size, max_size=k * size))).reshape(k, size)
        n = k * len(layout)
        table = np.array(data.draw(st.lists(COEFFS, min_size=n, max_size=n))).reshape(k, len(layout))
        out = summed(block, layout, table)
        assert out.layout == tuple(layout)
        assert out.vector.tobytes() == repeat_reference(block, layout, table).tobytes()


class TestWeightedSumPerLayer:
    """``weighted_sum`` with a (K, L) matrix: one coefficient per (model, layer)."""

    def test_identity(self):
        m = ps([1.0, 2.0], [3.0])
        out = wsum([m], [[1.0, 1.0]])
        assert out == m

    def test_hand_mean_single_layer(self):
        out = wsum([ps([2.0]), ps([4.0])], [[0.5], [0.5]])
        np.testing.assert_array_equal(out["layer0"], [3.0])

    def test_two_layer_two_client_hand_expansion(self):
        a = ps([1.0, 0.0], [2.0])
        b = ps([0.0, 1.0], [4.0])
        coeffs = [[0.25, 0.5], [0.75, 0.5]]
        out = wsum([a, b], coeffs)
        # scalar-loop expansion of the double sum
        np.testing.assert_allclose(out["layer0"], 0.25 * a["layer0"] + 0.75 * b["layer0"])
        np.testing.assert_allclose(out["layer1"], 0.5 * a["layer1"] + 0.5 * b["layer1"])

    def test_shape_mismatch_rejected(self):
        m = ps([1.0], [2.0])
        with pytest.raises(ValueError, match=r"shape \(1, 1\) for 1 models of 2 layers"):
            wsum([m], [[1.0]])
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            wsum([m], [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            wsum([m], [1.0, 1.0])

    def test_constant_per_client_coefficient_matches_scaled_vectors(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            ref = random_paramset(rng)
            models = [like(ref, rng) for _ in range(k)]
            coeffs = rng.normal(size=k)
            flat_out = sum(c * m.vector for c, m in zip(coeffs, models))
            table_out = wsum(models, [[c] * len(ref.layout) for c in coeffs])
            assert np.abs(flat_out - table_out.vector).max() < 1e-12


class TestVector:
    def test_concatenation_order(self):
        m = ps([1.0, 2.0], [3.0])
        assert m.vector.tolist() == [1.0, 2.0, 3.0]

    def test_empty_paramset(self):
        assert ParamSet(np.zeros(0), ()).num_params == 0

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        m = random_paramset(rng)
        assert ParamSet(m.vector, m.layout) == m

    def test_preserves_total_l2_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_paramset(rng)
            total = sum(float(np.linalg.norm(m[name])) ** 2 for name in m.names)
            assert float(np.linalg.norm(m.vector)) ** 2 == pytest.approx(total, rel=1e-12)


class TestCheckpointIO:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        m = ParamSet.from_arrays(
            {
                "encoder.0.weight": rng.normal(size=(3, 2)),
                "encoder.0.bias": rng.normal(size=2),
                "head.weight": rng.normal(size=(2, 4)),
            }
        )
        path = tmp_path / "model.bin"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded == m
        assert loaded.vector.tobytes() == m.vector.tobytes()

    def test_read_into_a_block_row(self, tmp_path):
        rng = np.random.default_rng(8)
        m = ParamSet.from_arrays({"w": rng.normal(size=(2, 3)), "b": rng.normal(size=3)})
        path = tmp_path / "model.bin"
        save_checkpoint(m, path)
        block = np.zeros((2, m.num_params))
        assert load_checkpoint(path, like=m, out=block[1]) is None
        assert block[1].tobytes() == m.vector.tobytes() and not block[0].any()

    def test_read_into_checks_the_layout_before_the_values(self, tmp_path):
        path = tmp_path / "nan.bin"
        save_checkpoint(ps([1.0, 2.0]), path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"nan\.bin: layer 'layer0' contains non-finite values"):
            load_checkpoint(path, like=ps([0.0, 0.0]), out=np.zeros(2))
        with pytest.raises(IncompatibleModelError, match=r"nan\.bin: layer 'layer0': shape mismatch \(3,\) vs \(2,\)"):
            load_checkpoint(path, like=ps([0.0, 0.0, 0.0]), out=np.zeros(3))

    def test_bytes_after_the_payload_are_rejected_before_it_is_read(self, tmp_path):
        path = tmp_path / "long.bin"
        save_checkpoint(ps([1.0, 2.0]), path)
        path.write_bytes(path.read_bytes() + b"\x07" * 12)
        sevens = np.full(2, 7.0)
        for kwargs in ({}, {"like": ps([0.0, 0.0]), "out": sevens}):
            with pytest.raises(ValueError, match=r"long\.bin: the header's layers hold 16 bytes, the payload 28"):
                load_checkpoint(path, **kwargs)
        assert sevens.tolist() == [7.0, 7.0]

    def test_read_into_checks_out_before_the_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(ps([1.0, 2.0]), path)
        readonly = np.zeros(2)
        readonly.setflags(write=False)
        sevens = np.full(4, 7.0)
        cases = [(None, sevens), (ps([0.0, 0.0]), sevens), (ps([0.0, 0.0]), np.zeros(1)),
                 (ps([0.0, 0.0]), np.zeros(2, dtype=np.float32)), (ps([0.0, 0.0]), np.zeros(4)[::2]),
                 (ps([0.0, 0.0]), readonly), (ps([0.0, 0.0]), [0.0, 0.0])]
        for like, out in cases:
            for target in (path, tmp_path / "absent.bin"):  # the file is neither read nor opened
                with pytest.raises(ValueError, match="out=") as info:
                    load_checkpoint(target, like=like, out=out)
                assert str(target) not in str(info.value)
        assert sevens.tolist() == [7.0] * 4

    def test_file_without_magic_names_the_path(self, tmp_path):
        path = tmp_path / "model.json"
        doc = {"format": "fedsim-paramset", "version": 1, "layers": [{"name": "w", "shape": [1], "values": [1.0]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="FSIMPSET") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

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
    def test_binary_round_trip_bit_exact(self, m):
        with tempfile.TemporaryDirectory() as tmp:
            save_checkpoint(m, Path(tmp) / "m.bin")
            loaded = load_checkpoint(Path(tmp) / "m.bin")
            assert loaded.layout == m.layout
            assert loaded.vector.tobytes() == m.vector.tobytes()

    def test_empty_paramset_round_trips(self, tmp_path):
        empty = ParamSet(np.zeros(0), ())
        save_checkpoint(empty, tmp_path / "empty")
        assert load_checkpoint(tmp_path / "empty") == empty

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


class TestConstructorErrors:
    def test_size_mismatch_rejected(self):
        m = ps([1.0, 2.0], [3.0])
        with pytest.raises(IncompatibleModelError, match="2 values for a layout of 3 parameters"):
            ParamSet(np.array([1.0, 2.0]), m.layout)
