"""Cosine divergence, the (K, L) divergence table, and mean-divergence telemetry."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.aggregation import ClientUpdates
from fedsim.divergence import Divergence, divergence
from fedsim.params import IncompatibleModelError, ParamSet


def ps(named):
    return ParamSet.from_arrays({n: np.asarray(v, dtype=np.float64) for n, v in named.items()})


def pack(models, client_ids):
    """Client models of one layout as the rows of a round's block."""
    n = len(models)
    return ClientUpdates(client_ids, np.stack([m.vector for m in models]), models[0].layout, [1] * n, [0.0] * n)


def cosine(a, b):
    """The divergence table's only entry for a one-layer client ``b`` against a one-layer global ``a``."""
    return divergence(ps({"t": a}), pack([ps({"t": b})], [0])).layer[0, 0]


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
    return divergence(g, pack([c], [client_id]))


class TestDivergence:
    def test_identical_models(self):
        m = ps({"a": [1.0, 2.0], "b": [3.0]})
        div = one(m, m, client_id=1)
        assert div.client_ids == (1,) and div.names == ("a", "b")
        assert div.layer.tolist() == [[1.0, 1.0]]
        assert div.model.tolist() == [1.0]
        assert div.euclid.tolist() == [[0.0, 0.0]]

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
        assert one(g, c).euclid[0, 0] == 5.0

    def test_rows_follow_the_given_models(self):
        g = ps({"a": [1.0, 0.0], "b": [2.0]})
        c1, c2 = ps({"a": [0.0, 1.0], "b": [1.0]}), ps({"a": [1.0, 0.0], "b": [-3.0]})
        div = divergence(g, pack([c2, c1], [3, 7]))
        assert div.client_ids == (3, 7)
        assert div.layer.tolist() == [[1.0, -1.0], [0.0, 1.0]]
        assert div.layer.tolist()[0] == one(g, c2).layer.tolist()[0]

    def test_client_id_count_must_match(self):
        m = ps({"a": [1.0]})
        with pytest.raises(ValueError, match=r"2 client ids and a layout of 1 parameters for weights of shape \(1, 1\)"):
            divergence(m, pack([m], [0, 1]))

    def test_json_serialization(self):
        div = one(ps({"a": [1.0]}), ps({"a": [2.0]}), client_id=7)
        (doc,) = json.loads(div.to_json())
        assert doc["client_id"] == 7
        assert set(doc) == {"client_id", "model_delta", "per_layer_delta", "per_layer_euclid"}
        assert doc["per_layer_delta"] == {"a": 1.0} and doc["per_layer_euclid"] == {"a": 1.0}


def table(model_delta, per_layer=None):
    """A divergence table with the given whole-model and per-layer cosines."""
    model = np.asarray(model_delta, dtype=np.float64)
    layer = np.asarray(per_layer if per_layer is not None else model[:, None], dtype=np.float64)
    names = tuple(f"l{i}" for i in range(layer.shape[1]))
    return Divergence(tuple(range(len(model))), names, layer, np.zeros_like(layer), model)


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

    def test_empty_rejected(self):
        m = ps({"a": [1.0]})
        with pytest.raises(ValueError):
            divergence(m, ClientUpdates((), np.zeros((0, 1)), m.layout, [], []))

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
        before, after = divergence(g, pack(clients, ids)), divergence(g, pack(scaled, ids))
        assert after.layer.tobytes() == before.layer.tobytes()
        assert after.model.tobytes() == before.model.tobytes()
        others = [i for i in ids if i != k]
        assert after.euclid[others].tobytes() == before.euclid[others].tobytes()
