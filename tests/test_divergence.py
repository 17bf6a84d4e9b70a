"""Cosine divergence, the (K, L) divergence table, the report's distances, and mean-divergence telemetry."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.aggregation import AggregationSpec, ClientUpdates, aggregate
from fedsim.divergence import SNAP_TOL, ZERO_NORM_TOL, Divergence, DivergenceTerms, distances
from fedsim.params import IncompatibleModelError, ParamSet, segments
from helpers import ps

ROOT = Path(__file__).resolve().parent.parent


def one_chunk(g, updates):
    """The divergence of ``updates.weights`` against ``g`` as one chunk, as ``aggregate`` takes an engine round."""
    terms = DivergenceTerms(g, updates)
    terms.add(updates.weights)
    return terms.finish()


def pack(models, client_ids):
    """Client models of one layout as the rows of a round's block."""
    n = len(models)
    return ClientUpdates(client_ids, np.stack([m.vector for m in models]), models[0].layout, [1] * n, [0.0] * n)


def scalar_cosine(g, c, norm_g):
    """One cosine as one ``np.dot`` and one ``np.linalg.norm`` of the client, snapped and zero-norm-ruled."""
    norm_c = float(np.linalg.norm(c))
    if norm_g <= ZERO_NORM_TOL or norm_c <= ZERO_NORM_TOL:
        return 1.0 if norm_g <= ZERO_NORM_TOL and norm_c <= ZERO_NORM_TOL else 0.0
    v = float(np.dot(g, c)) / (norm_g * norm_c)
    if v >= 1.0 - SNAP_TOL:
        return 1.0
    if v <= -1.0 + SNAP_TOL:
        return -1.0
    return v


def scalar_divergence(g, block):
    """The reference ``(layer, euclid, model)`` tables: one scalar computation per (client, layer) pair."""
    flat = tuple((name, (math.prod(shape),)) for name, shape in g.layout)
    g_layers = list(segments(g.vector, flat).values())
    g_norms = [float(np.linalg.norm(x)) for x in g_layers]
    c_layers = list(segments(block, flat).values())
    layer, euclid = np.zeros((2, len(block), len(flat)))
    for k in range(len(block)):
        for l, (gl, cl) in enumerate(zip(g_layers, c_layers)):
            layer[k, l] = scalar_cosine(gl, cl[k], g_norms[l])
            euclid[k, l] = np.linalg.norm(gl - cl[k])
    g_norm = float(np.linalg.norm(g.vector))
    model = np.array([scalar_cosine(g.vector, w, g_norm) for w in block])
    return layer, euclid, model


def report_euclid(g, updates):
    """The (K, L) distances of ``aggregate --report``, read back from its JSON (each float round-trips exactly)."""
    doc = json.loads(one_chunk(g, updates).to_json(distances(g, updates.weights)))
    return np.array([list(entry["per_layer_euclid"].values()) for entry in doc])


def cosine(a, b):
    """The divergence table's only entry for a one-layer client ``b`` against a one-layer global ``a``."""
    return one_chunk(ps({"t": a}), pack([ps({"t": b})], [0])).layer[0, 0]


class TestCosine:
    def test_aligned(self):
        assert cosine([1, 0], [1, 0]) == 1.0

    def test_opposed(self):
        assert cosine([1, 0], [-1, 0]) == -1.0

    def test_hand_evaluation(self):
        assert cosine([1, 2], [2, 1]) == pytest.approx(0.8, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(IncompatibleModelError):
            cosine([1, 0], [1, 0, 0])

    def test_both_degenerate_count_as_identical(self):
        assert cosine([0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_one_degenerate_counts_as_orthogonal(self):
        assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0
        assert cosine([1.0, 0.0], [0.0, 0.0]) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.normal(size=5)
            c = float(rng.uniform(0.1, 10))
            assert cosine(a, c * a) == 1.0
            assert cosine(a, -c * a) == -1.0

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            assert -1.0 <= cosine(rng.normal(size=4), rng.normal(size=4)) <= 1.0


def one(g, c, client_id=0):
    """Divergence of a single client."""
    return one_chunk(g, pack([c], [client_id]))


class TestDivergence:
    def test_identical_models(self):
        m = ps({"a": [1.0, 2.0], "b": [3.0]})
        div = one(m, m, client_id=1)
        assert div.client_ids == (1,) and div.names == ("a", "b")
        assert div.layer.tolist() == [[1.0, 1.0]]
        assert div.model.tolist() == [1.0]
        assert report_euclid(m, pack([m], [1])).tolist() == [[0.0, 0.0]]

    def test_negated_model(self):
        g = ps({"a": [1.0, 2.0], "b": [3.0]})
        c = ps({"a": [-1.0, -2.0], "b": [-3.0]})
        div = one(g, c)
        assert div.layer.tolist() == [[-1.0, -1.0]]
        assert div.model.tolist() == [-1.0]

    def test_two_layer_hand_case(self):
        g = ps({"a": [1.0, 0.0], "b": [1.0, 0.0]})
        c = ps({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        div = one(g, c)
        assert div.layer.tolist() == [[1.0, 0.0]]
        # flattened: [1,0,1,0].[1,0,0,1] = 1 over sqrt(2)*sqrt(2)
        assert div.model[0] == pytest.approx(0.5, abs=1e-15)

    def test_incompatible_models(self):
        g = ps({"a": [1.0]})
        c = ps({"b": [1.0]})
        with pytest.raises(Exception, match="name mismatch"):
            one(g, c)

    def test_single_layer_model_delta_matches_layer_delta(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = ps({"only": rng.normal(size=6)})
            c = ps({"only": rng.normal(size=6)})
            div = one(g, c)
            assert div.model[0] == div.layer[0, 0]

    def test_argument_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        g = ps({"a": rng.normal(size=4), "b": rng.normal(size=3)})
        c = ps({"a": rng.normal(size=4), "b": rng.normal(size=3)})
        fwd = one(g, c)
        rev = one(c, g)
        assert fwd.layer.tolist() == rev.layer.tolist()
        assert fwd.model.tolist() == rev.model.tolist()

    def test_euclid_distances(self):
        g = ps({"a": [0.0, 0.0]})
        c = ps({"a": [3.0, 4.0]})
        assert report_euclid(g, pack([c], [0]))[0, 0] == 5.0

    @pytest.mark.parametrize(
        "global_, client, where",
        [({"w": [1.0]}, {"w": [1e300]}, "layer 'w'"),  # the client's squared norm
         ({"a": [1.0], "b": [1.0]}, {"a": [1.2e154], "b": [1.2e154]}, "whole model")],  # each layer's is finite
        ids=["squared_norm", "whole_model"],
    )
    def test_overflow_names_the_layer_or_the_whole_model(self, global_, client, where):
        # Every input is finite; a float64 overflow in the divergence is a ValueError, not a NaN or a warning.
        with pytest.raises(ValueError, match=rf"^{where}: a dot product, squared norm or squared distance"):
            one_chunk(ps(global_), pack([ps(client)], [0]))

    def test_a_distance_overflow_fails_only_the_report(self):
        # Only the squared distance, (2e154)**2, overflows: the round's cosine is exact and only the report fails.
        g, updates = ps({"w": [1e154]}), pack([ps({"w": [-1e154]})], [0])
        div = one_chunk(g, updates)
        assert div.layer.tolist() == [[-1.0]] and div.model.tolist() == [-1.0]
        with pytest.raises(ValueError, match=r"^layer 'w': a dot product, squared norm or squared distance"):
            div.to_json(distances(g, updates.weights))

    def test_chunks_give_the_block_bytes(self):
        rng = np.random.default_rng(5)
        g = ps({"a": rng.normal(size=9000), "b": rng.normal(size=3)})  # a layer past 8,192 parameters
        updates = pack([ps({"a": rng.normal(size=9000), "b": rng.normal(size=3)}) for _ in range(7)], range(7))
        whole = one_chunk(g, updates)
        for size in (1, 3, 7):
            terms = DivergenceTerms(g, updates)
            for start in range(0, 7, size):
                assert terms.add(updates.weights[start : start + size]) == slice(start, min(start + size, 7))
            div = terms.finish()
            assert div.layer.tobytes() == whole.layer.tobytes() and div.model.tobytes() == whole.model.tobytes()

    def test_chunks_name_the_round_s_first_layer_that_overflows(self):
        # Row 0 overflows in layer 'b', row 1 in layer 'a': one block names 'a', and so do two chunks of a row each.
        g = ps({"a": [1.0], "b": [1.0]})
        updates = pack([ps({"a": [1.0], "b": [1e300]}), ps({"a": [1e300], "b": [1.0]})], [0, 1])
        terms = DivergenceTerms(g, updates)
        terms.add(updates.weights[:1])
        terms.add(updates.weights[1:])
        for finish in (terms.finish, lambda: aggregate(AggregationSpec("ldawa"), 0, g, updates)):
            with pytest.raises(ValueError, match=r"^layer 'a': a dot product, squared norm or squared distance"):
                finish()

    def test_rows_follow_the_given_models(self):
        g = ps({"a": [1.0, 0.0], "b": [2.0]})
        c1, c2 = ps({"a": [0.0, 1.0], "b": [1.0]}), ps({"a": [1.0, 0.0], "b": [-3.0]})
        div = one_chunk(g, pack([c2, c1], [3, 7]))
        assert div.client_ids == (3, 7)
        assert div.layer.tolist() == [[1.0, -1.0], [0.0, 1.0]]
        assert div.layer.tolist()[0] == one(g, c2).layer.tolist()[0]

    def test_client_id_count_must_match(self):
        m = ps({"a": [1.0]})
        with pytest.raises(ValueError, match=r"2 client ids and a layout of 1 parameters for weights of shape \(1, 1\)"):
            one_chunk(m, pack([m], [0, 1]))

    def test_json_serialization(self):
        g, updates = ps({"a": [1.0]}), pack([ps({"a": [2.0]})], [7])
        (doc,) = json.loads(one_chunk(g, updates).to_json(distances(g, updates.weights)))
        assert doc["client_id"] == 7
        assert set(doc) == {"client_id", "model_delta", "per_layer_delta", "per_layer_euclid"}
        assert doc["per_layer_delta"] == {"a": 1.0} and doc["per_layer_euclid"] == {"a": 1.0}


def table(model_delta, per_layer=None):
    """A divergence table with the given whole-model and per-layer cosines."""
    model = np.asarray(model_delta, dtype=np.float64)
    layer = np.asarray(per_layer if per_layer is not None else model[:, None], dtype=np.float64)
    names = tuple(f"l{i}" for i in range(layer.shape[1]))
    return Divergence(tuple(range(len(model))), names, layer, model)


class TestMeanDelta:
    def test_all_aligned(self):
        assert table([1.0, 1.0]).mean() == 1.0

    def test_arithmetic_mean(self):
        assert table([1.0, 0.0]).mean() == 0.5

    def test_three_clients_hand_mean(self):
        assert table([0.9, 0.8, 0.7]).mean() == pytest.approx(0.8, abs=1e-15)

    def test_layer_mode_averages_layers_first(self):
        div = table([0.0, 0.0], per_layer=[[1.0, 0.0], [0.5, 0.5]])
        assert div.mean("layer") == pytest.approx(0.5)
        assert div.mean("model") == 0.0

    def test_layer_mode_is_the_mean_of_per_client_means(self):
        rows = [[0.1, 0.1, 0.1], [0.1, 0.1, 0.4]]
        div = table([0.0, 0.0], per_layer=rows)
        per_client = (sum(rows[0]) / 3 + sum(rows[1]) / 3) / 2
        assert float(np.mean(rows)) != per_client  # one flat mean rounds differently on this table
        assert div.mean("layer") == per_client

    def test_empty_rejected(self):
        m = ps({"a": [1.0]})
        with pytest.raises(ValueError):
            one_chunk(m, ClientUpdates((), np.zeros((0, 1)), m.layout, [], []))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            table([1.0]).mean("median")


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)

# Values on a 1/64 grid: a nonzero layer's norm stays far above the zero-norm
# tolerance at every scale drawn, and no product under- or overflows.
GRID = st.integers(-640, 640).map(lambda i: i / 64)


@st.composite
def rounds(draw):
    """A global model and 1-4 clients of a random layout of 1-4 layers."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    layout = tuple((f"layer{i}", (n,)) for i, n in enumerate(sizes))
    total = sum(sizes)

    def model():
        return ParamSet(np.array(draw(st.lists(GRID, min_size=total, max_size=total))), layout)

    return model(), [model() for _ in range(draw(st.integers(1, 4)))]


class TestDivergenceProperties:
    @PROPERTY
    @given(case=rounds(), data=st.data())
    def test_scaling_a_client_by_a_power_of_two_changes_no_cosine(self, case, data):
        g, clients = case
        k = data.draw(st.integers(0, len(clients) - 1))
        scale = 2.0 ** data.draw(st.integers(-20, 20))
        scaled = list(clients)
        scaled[k] = ParamSet(scale * clients[k].vector, g.layout)
        ids = list(range(len(clients)))
        before, after = one_chunk(g, pack(clients, ids)), one_chunk(g, pack(scaled, ids))
        assert after.layer.tobytes() == before.layer.tobytes()
        assert after.model.tobytes() == before.model.tobytes()
        others = [i for i in ids if i != k]
        euclid_before, euclid_after = report_euclid(g, pack(clients, ids)), report_euclid(g, pack(scaled, ids))
        assert euclid_after[others].tobytes() == euclid_before[others].tobytes()


# Layer sizes: empty, single values and odd lengths (odd rows start misaligned in a packed block).
SIZES = st.sampled_from([0, 1]) | st.integers(1, 40).map(lambda i: 2 * i + 1)


@st.composite
def grid_rounds(draw):
    """A global and a round of K in 1-20 clients, over 1-5 layers, with zero layers and exact +-2^j copies.

    Each client is either the global times +-2^j, or built layer by layer
    from random grid values, an all-zero layer, or the global's layer times
    +-2^j. Global layers may be all zero too.
    """
    sizes = draw(st.lists(SIZES, min_size=1, max_size=5))
    layout = tuple((f"layer{i}", (n,)) for i, n in enumerate(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def grid(n):
        return rng.integers(-640, 641, size=n) / 64

    g_layers = [np.zeros(n) if draw(st.integers(0, 4)) == 0 else grid(n) for n in sizes]
    scale = st.builds(lambda sign, j: sign * 2.0**j, st.sampled_from([1.0, -1.0]), st.integers(-20, 20))
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        if draw(st.integers(0, 5)) == 0:
            rows.append(draw(scale) * np.concatenate(g_layers))
            continue
        layer_kind = st.sampled_from(["grid", "grid", "zero", "copy"])
        kinds = draw(st.lists(layer_kind, min_size=len(sizes), max_size=len(sizes)))
        parts = [
            grid(n) if kind == "grid" else np.zeros(n) if kind == "zero" else draw(scale) * g_l
            for kind, n, g_l in zip(kinds, sizes, g_layers)
        ]
        rows.append(np.concatenate(parts))
    return ParamSet(np.concatenate(g_layers), layout), ClientUpdates(
        tuple(range(len(rows))), np.stack(rows), layout, [1] * len(rows), [0.0] * len(rows)
    )


class TestMatchesScalarReference:
    @PROPERTY
    @given(case=grid_rounds())
    def test_same_bytes_as_one_dot_per_client_and_layer(self, case):
        g, updates = case
        div = one_chunk(g, updates)
        layer, euclid, model = scalar_divergence(g, updates.weights)
        assert div.layer.tobytes() == layer.tobytes()
        assert report_euclid(g, updates).tobytes() == euclid.tobytes()
        assert div.model.tobytes() == model.tobytes()

    def test_same_bytes_under_the_prescott_kernel(self):
        """Under OpenBLAS's SSE2 kernel ``ddot`` sums in another order for unaligned or swapped operands."""
        script = textwrap.dedent(
            """
            import numpy as np
            from artifact_hashes import blas_core
            from fedsim.aggregation import ClientUpdates
            from fedsim.params import ParamSet
            from test_divergence import one_chunk, report_euclid, scalar_divergence

            rng = np.random.default_rng(12)
            mismatches = 0
            for _ in range(300):
                sizes = 2 * rng.integers(8, 150, size=rng.integers(2, 5)) + 1
                layout = tuple((f"layer{i}", (int(n),)) for i, n in enumerate(sizes))
                g = ParamSet(rng.normal(size=sizes.sum()), layout)
                k = int(rng.integers(2, 9))
                block = rng.normal(size=(k, g.num_params))
                updates = ClientUpdates(tuple(range(k)), block, layout, [1] * k, [0.0] * k)
                div = one_chunk(g, updates)
                tables = (div.layer, report_euclid(g, updates), div.model)
                mismatches += any(a.tobytes() != b.tobytes() for a, b in zip(tables, scalar_divergence(g, block)))
            print(blas_core(), mismatches)
            """
        )
        path = os.pathsep.join(str(ROOT / d) for d in ("src", "tools", "tests"))
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        core, mismatches = out.stdout.split()
        if core == "unknown":
            pytest.skip("the runtime OpenBLAS core cannot be read through ctypes")
        assert mismatches == "0", f"{mismatches} of 300 cases differ from the scalar reference on core {core}"
