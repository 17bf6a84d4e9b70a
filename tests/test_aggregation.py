"""Aggregation strategies: coefficients, divergence scaling, dispatch, warm-up."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.aggregation import (
    STRATEGIES,
    AggregationSpec,
    ClientUpdates,
    RULES,
    aggregate,
    coefficient_matrix,
    coeffs_fedavg,
    coeffs_loss,
    effective_strategy,
)
from fedsim.divergence import Divergence, distances, divergence
from fedsim.params import IncompatibleModelError, ParamSet, weighted_sum
from helpers import Client, brute_force_layerwise, pack, ps, rule

# Deterministic property runs: the same examples on every tier-1 run.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)


def per_layer(coeffs, n_layers):
    """A length-K coefficient list as the (K, L) matrix that applies it to every layer."""
    return np.repeat(np.asarray(coeffs, dtype=np.float64)[:, None], n_layers, axis=1)


def divergence_of(global_params, clients):
    return divergence(global_params, pack(clients))


def update(client_id, named, n=1, loss=0.0):
    return Client(client_id, ps(named), n, loss)


def random_fixture(rng, n_clients=None, n_layers=None, max_params=8):
    """Random global model plus compatible clients, in ascending id order."""
    n_clients = n_clients or int(rng.integers(2, 9))
    n_layers = n_layers or int(rng.integers(1, 6))
    sizes = [int(rng.integers(1, max_params + 1)) for _ in range(n_layers)]
    def draw():
        return ps({f"layer{i}": rng.normal(size=s) for i, s in enumerate(sizes)})
    global_params = draw()
    updates = [
        Client(k, draw(), int(rng.integers(1, 50)), float(rng.normal()))
        for k in range(n_clients)
    ]
    return global_params, updates


# The strategy table of the aggregation module docstring, restated.
ORACLE_RULES = {
    "fedavg": ("samples", None),
    "fairavg": ("uniform", None),
    "loss": ("loss", None),
    "mdawa": ("uniform", "model"),
    "ldawa": ("uniform", "layer"),
    "ldawa_fedavg": ("samples", "layer"),
    "ldawa_loss": ("loss", "layer"),
    "ldawa_fedu": ("samples", "layer"),
}


def brute_force_base(updates, base):
    """Scalar base weights beta_k: uniform, sample-count or loss softmax."""
    if base == "uniform":
        return [1.0 / len(updates)] * len(updates)
    if base == "samples":
        total = sum(u.num_samples for u in updates)
        return [u.num_samples / total for u in updates]
    top = max(-u.train_loss for u in updates)
    ex = [math.exp(-u.train_loss - top) for u in updates]
    return [e / sum(ex) for e in ex]


class TestCoeffsFedavg:
    def test_hand_normalization(self):
        ups = [update(0, {"w": [1.0]}, n=3), update(1, {"w": [1.0]}, n=1)]
        assert coeffs_fedavg(pack(ups)) == [0.75, 0.25]

    def test_equal_counts_uniform(self):
        ups = [update(i, {"w": [1.0]}, n=7) for i in range(4)]
        assert coeffs_fedavg(pack(ups)) == [0.25] * 4

    def test_single_client(self):
        assert coeffs_fedavg(pack([update(0, {"w": [1.0]}, n=5)])) == [1.0]


class TestCoeffsLoss:
    def test_analytic_softmax(self):
        ups = [update(0, {"w": [1.0]}, loss=0.0), update(1, {"w": [1.0]}, loss=math.log(2))]
        got = coeffs_loss(pack(ups))
        assert got[0] == pytest.approx(2 / 3, abs=1e-12)
        assert got[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_equal_losses_uniform(self):
        ups = [update(i, {"w": [1.0]}, loss=1.7) for i in range(5)]
        for c in coeffs_loss(pack(ups)):
            assert c == pytest.approx(0.2, abs=1e-15)

    def test_no_overflow_at_huge_losses(self):
        ups = [update(0, {"w": [1.0]}, loss=0.0), update(1, {"w": [1.0]}, loss=1000.0)]
        got = coeffs_loss(pack(ups))
        assert got[0] == pytest.approx(1.0, abs=1e-12)
        assert got[1] == pytest.approx(0.0, abs=1e-12)
        assert all(math.isfinite(c) for c in got)

    def test_shifted_bytes_where_the_unshifted_exp_overflows(self):
        # exp(1000) overflows, so only the max-subtracted softmax gives these bytes.
        ups = [update(0, {"w": [1.0]}, loss=-1000.0), update(1, {"w": [1.0]}, loss=-999.0)]
        ex = np.exp(np.array([0.0, -1.0]))
        assert np.array(coeffs_loss(pack(ups))).tobytes() == (ex / ex.sum()).tobytes()

    def test_sums_to_one_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ups = [
                update(i, {"w": [1.0]}, n=int(rng.integers(1, 1000)), loss=float(rng.normal(0, 100)))
                for i in range(int(rng.integers(1, 8)))
            ]
            assert sum(coeffs_loss(pack(ups))) == pytest.approx(1.0, abs=1e-12)
            assert sum(coeffs_fedavg(pack(ups))) == pytest.approx(1.0, abs=1e-12)


class TestMdawa:
    def test_single_identical_client_is_fixed_point(self):
        g = ps({"w": [1.0, 2.0]})
        out = rule("mdawa", g, [Client(0, g, 1, 0.0)])
        assert out == g

    def test_orthogonal_client_contributes_nothing(self):
        g = ps({"w": [1.0, 0.0]})
        ups = [update(0, {"w": [2.0, 0.0]}), update(1, {"w": [0.0, 2.0]})]
        out = rule("mdawa", g, ups)
        np.testing.assert_allclose(out["w"], [1.0, 0.0], atol=1e-15)

    def test_negated_client_flips_back(self):
        g = ps({"w": [1.0, 2.0]})
        c = ps({"w": [-1.0, -2.0]})
        out = rule("mdawa", g, [Client(0, c, 1, 0.0)])
        np.testing.assert_allclose(out["w"], g["w"], atol=1e-15)


class TestLdawa:
    def test_identical_clients_are_fixed_point(self):
        g = ps({"a": [1.0, 2.0], "b": [3.0]})
        ups = [Client(i, g, 1, 0.0) for i in range(3)]
        out = rule("ldawa", g, ups)
        for name in out.names:
            np.testing.assert_allclose(out[name], g[name], atol=1e-15)

    def test_single_layer_equals_mdawa(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g, ups = random_fixture(rng, n_layers=1)
            a = rule("ldawa", g, ups)
            b = rule("mdawa", g, ups)
            assert np.abs(a["layer0"] - b["layer0"]).max() < 1e-12

    def test_matches_brute_force_expansion(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g, ups = random_fixture(rng)
            k = len(ups)
            out = rule("ldawa", g, ups)
            expected = brute_force_layerwise(g, ups, [1.0 / k] * k)
            for name in out.names:
                assert np.abs(out[name].reshape(-1) - expected[name]).max() < 1e-12


class TestWeightedLdawa:
    def test_uniform_base_reduces_to_ldawa(self):
        rng = np.random.default_rng(3)
        g, ups = random_fixture(rng)
        k = len(ups)
        div = divergence_of(g, ups)
        table = [[c * d for d in row] for c, row in zip([1.0 / k] * k, div.layer.tolist())]
        a = weighted_sum(pack(ups).weights, g.layout, table)
        b = rule("ldawa", g, ups)
        assert np.abs(a.vector - b.vector).max() < 1e-12

    def test_unit_deltas_reduce_to_plain_fedavg(self):
        rng = np.random.default_rng(4)
        g, ups = random_fixture(rng)
        k, n_layers = len(ups), len(g.layout)
        ones = Divergence(tuple(u.client_id for u in ups), g.names, np.ones((k, n_layers)), np.ones(k))
        block = pack(ups)
        betas = coeffs_fedavg(block)
        out = weighted_sum(block.weights, g.layout, coefficient_matrix("ldawa_fedavg", block, ones))
        plain = weighted_sum(block.weights, g.layout, per_layer(betas, n_layers))
        assert np.abs(out.vector - plain.vector).max() < 1e-12

    def test_loss_weighted_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g, ups = random_fixture(rng, n_clients=2, n_layers=2)
            betas = coeffs_loss(pack(ups))
            out, _ = aggregate(AggregationSpec("ldawa_loss"), 0, g, pack(ups))
            expected = brute_force_layerwise(g, ups, betas)
            for name in out.names:
                assert np.abs(out[name].reshape(-1) - expected[name]).max() < 1e-12

    def test_length_mismatch_rejected(self):
        g, ups = random_fixture(np.random.default_rng(6))
        with pytest.raises(ValueError, match="coefficients"):
            weighted_sum(pack(ups).weights, g.layout, [1.0])


class TestSinglePath:
    @pytest.mark.parametrize("renormalize", [False, True])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_scalar_expansion_of_table(self, strategy, renormalize):
        base, scale = ORACLE_RULES[strategy]
        rng = np.random.default_rng(20)
        for _ in range(10):
            g, ups = random_fixture(rng)
            out, _ = aggregate(AggregationSpec(strategy, renormalize=renormalize), 0, g, pack(ups))
            expected = brute_force_layerwise(g, ups, brute_force_base(ups, base), scale, renormalize)
            for name in out.names:
                assert np.abs(out[name].reshape(-1) - expected[name]).max() < 1e-12

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(5)))
    def test_only_ascending_client_order_is_accepted(self, seed, order):
        g, ups = random_fixture(np.random.default_rng(seed), n_clients=5)
        for shuffled in ([ups[i] for i in order], ups[::-1]):
            if [c.client_id for c in shuffled] == list(range(5)):
                assert pack(shuffled).client_ids == tuple(range(5))
                continue
            with pytest.raises(ValueError, match="not strictly ascending"):
                pack(shuffled)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6))
    def test_identical_clients_are_a_fixed_point(self, seed, k):
        rng = np.random.default_rng(seed)
        g, _ = random_fixture(rng, n_clients=1)
        ups = pack([Client(i, g, int(rng.integers(1, 50)), float(rng.normal())) for i in range(k)])
        for strategy in STRATEGIES:
            for renormalize in (False, True):
                out, _ = aggregate(AggregationSpec(strategy, renormalize=renormalize), 0, g, ups)
                assert np.abs(out.vector - g.vector).max() < 1e-12


    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def test_chunks_keep_the_block_bytes(self, seed, sizes):
        # The rows as chunks of any sizes, with no block in ``updates``: the global and divergence of one block.
        g, ups = random_fixture(np.random.default_rng(seed), n_clients=sum(sizes))
        block = pack(ups)
        meta = ClientUpdates(block.client_ids, None, block.layout, block.num_samples, block.train_loss)
        bounds = np.cumsum([0, *sizes]).tolist()
        for strategy in STRATEGIES:
            want, want_div = aggregate(AggregationSpec(strategy), 0, g, block)
            got, div = aggregate(AggregationSpec(strategy), 0, g, meta, (block.weights[a:b] for a, b in
                                                                       zip(bounds, bounds[1:])))
            assert got.vector.tobytes() == want.vector.tobytes()
            assert div.layer.tobytes() == want_div.layer.tobytes() and div.model.tobytes() == want_div.model.tobytes()

    def test_renormalize_takes_the_one_block(self):
        g, ups = random_fixture(np.random.default_rng(3), n_clients=2)
        block = pack(ups)
        with pytest.raises(ValueError, match="^renormalize needs every row's divergence first"):
            aggregate(AggregationSpec("ldawa", renormalize=True), 0, g, block, [block.weights])

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1))
    def test_renormalized_columns_sum_to_one(self, seed):
        g, ups = random_fixture(np.random.default_rng(seed))
        ups = pack(ups)
        div = divergence(g, ups)
        for strategy, (_, scale) in RULES.items():
            if scale is None:
                continue
            raw = coefficient_matrix(strategy, ups, div)
            table = coefficient_matrix(strategy, ups, div, renormalize=True)
            for column, raw_column in zip(table.T, raw.T):
                total = raw_column.sum()
                if abs(total) > 1e-12:
                    # Opposed clients can cancel in the sum; the bound grows
                    # with that cancellation, sum |C| / |sum C| (1 without it).
                    assert abs(column.sum() - 1.0) <= 1e-12 * max(1.0, np.abs(raw_column).sum() / abs(total))


class TestDispatch:
    def test_warmup_forces_fedavg(self):
        rng = np.random.default_rng(7)
        g, ups = random_fixture(rng)
        ups = pack(ups)
        spec = AggregationSpec("ldawa", warmup_rounds=2)
        warm, _ = aggregate(spec, 0, g, ups)
        fed, _ = aggregate(AggregationSpec("fedavg"), 0, g, ups)
        assert warm == fed
        after, _ = aggregate(spec, 2, g, ups)
        direct, _ = aggregate(AggregationSpec("ldawa"), 0, g, ups)
        assert after == direct
        assert effective_strategy(spec, 1) == "fedavg"
        assert effective_strategy(spec, 2) == "ldawa"

    def test_fairavg_uniform_mean(self):
        g = ps({"w": [1.0, 1.0]})
        ups = [update(0, {"w": [2.0, 0.0]}), update(1, {"w": [0.0, 2.0]})]
        out, _ = aggregate(AggregationSpec("fairavg"), 0, g, pack(ups))
        np.testing.assert_array_equal(out["w"], [1.0, 1.0])

    def test_each_layer_sums_its_rows_in_row_order(self):
        # The two 1e16 / 3 terms cancel exactly only when they meet first, so the float64 sum shows the row order.
        values = [1.0, 1e16, -1e16]
        total = 0.0
        for v in values:
            total += (1 / 3) * v
        assert total != 1 / 3  # the reversed order's sum: the fixture tells the two orders apart
        out, _ = aggregate(AggregationSpec("fairavg"), 0, ps({"w": [1.0]}),
                           pack([update(k, {"w": [v]}) for k, v in enumerate(values)]))
        assert out["w"].tolist() == [total]

    def test_fedavg_equal_counts_equals_fairavg(self):
        rng = np.random.default_rng(8)
        g, ups = random_fixture(rng)
        ups = pack([u._replace(num_samples=13) for u in ups])
        a, _ = aggregate(AggregationSpec("fedavg"), 0, g, ups)
        b, _ = aggregate(AggregationSpec("fairavg"), 0, g, ups)
        assert np.abs(a.vector - b.vector).max() < 1e-12

    def test_a_distance_overflow_does_not_fail_the_round(self):
        # (2e154)**2 overflows, but no strategy reads a distance: ldawa scales the opposed client by -1.
        g, ups = ps({"w": [1e154]}), pack([update(0, {"w": [-1e154]})])
        new_global, div = aggregate(AggregationSpec("ldawa"), 0, g, ups)
        assert new_global["w"].tolist() == [1e154] and div.layer.tolist() == [[-1.0]]

    def test_reports_returned_for_every_strategy(self):
        rng = np.random.default_rng(9)
        g, ups = random_fixture(rng, n_clients=3)
        ups = pack(ups)
        for strategy in ("fedavg", "fairavg", "loss", "mdawa", "ldawa", "ldawa_fedavg", "ldawa_loss", "ldawa_fedu"):
            _, div = aggregate(AggregationSpec(strategy), 5, g, ups)
            assert div.client_ids == (0, 1, 2)
            assert div.layer.shape == (3, len(g.layout)) and div.model.shape == (3,)
            report = json.loads(div.to_json(distances(g, ups.weights)))
            assert [list(entry["per_layer_euclid"]) for entry in report] == [list(g.names)] * 3

    def test_ldawa_fedu_server_side_equals_ldawa_fedavg(self):
        rng = np.random.default_rng(10)
        g, ups = random_fixture(rng)
        ups = pack(ups)
        a, _ = aggregate(AggregationSpec("ldawa_fedu", fedu_threshold=0.5), 3, g, ups)
        b, _ = aggregate(AggregationSpec("ldawa_fedavg"), 3, g, ups)
        assert a == b

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            AggregationSpec("median")

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
    def test_nonpositive_fedu_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="fedu_threshold must be positive"):
            AggregationSpec("ldawa_fedu", fedu_threshold=threshold)

    def test_fedu_threshold_needs_ldawa_fedu(self):
        with pytest.raises(ValueError, match="fedu_threshold applies only to strategy 'ldawa_fedu', not 'ldawa'"):
            AggregationSpec("ldawa", fedu_threshold=0.3)
        assert AggregationSpec("ldawa", fedu_threshold=None).fedu_threshold is None

    def test_mismatched_layout_rejected(self):
        g = ps({"w": [1.0, 2.0]})
        with pytest.raises(IncompatibleModelError, match=r"layer 'w': shape mismatch \(2,\) vs \(3,\)"):
            aggregate(AggregationSpec("fedavg"), 0, g, pack([update(0, {"w": [1.0, 2.0, 3.0]})]))

    def test_unsorted_client_ids_rejected(self):
        rng = np.random.default_rng(11)
        g, ups = random_fixture(rng, n_clients=5)
        permuted = [ups[i] for i in (3, 0, 4, 1, 2)]
        with pytest.raises(ValueError, match=r"client ids \(3, 0, 4, 1, 2\) are not strictly ascending"):
            pack(permuted)

    def test_renormalize_restores_scale_for_identical_direction(self):
        # Clients at half the global's scale: ldawa contracts, the
        # renormalized variant divides the shrink back out.
        g = ps({"w": [2.0, 0.0]})
        ups = [update(0, {"w": [1.0, 0.0]}), update(1, {"w": [1.0, 0.0]})]
        plain, _ = aggregate(AggregationSpec("ldawa"), 0, g, pack(ups))
        renorm, _ = aggregate(AggregationSpec("ldawa", renormalize=True), 0, g, pack(ups))
        np.testing.assert_allclose(plain["w"], [1.0, 0.0])
        np.testing.assert_allclose(renorm["w"], [1.0, 0.0])
        # opposed client shrinks the unnormalized aggregate
        ups2 = [update(0, {"w": [1.0, 0.0]}), update(1, {"w": [-1.0, 0.0]})]
        plain2, _ = aggregate(AggregationSpec("ldawa"), 0, g, pack(ups2))
        np.testing.assert_allclose(plain2["w"], [1.0, 0.0])

    def test_renormalize_divides_out_partial_alignment(self):
        # one aligned client, one orthogonal: coefficients (1, 0)/2 sum to
        # 1/2, so the normalized aggregate is exactly the aligned client
        g = ps({"w": [1.0, 0.0]})
        ups = [update(0, {"w": [2.0, 0.0]}), update(1, {"w": [0.0, 2.0]})]
        plain, _ = aggregate(AggregationSpec("ldawa", renormalize=True), 0, g, pack(ups))
        np.testing.assert_allclose(plain["w"], [2.0, 0.0], atol=1e-15)
        whole, _ = aggregate(AggregationSpec("mdawa", renormalize=True), 0, g, pack(ups))
        np.testing.assert_allclose(whole["w"], [2.0, 0.0], atol=1e-15)

    def test_renormalize_divides_a_small_column_and_keeps_a_degenerate_one(self):
        # Column sums 1e-9 (above the 1e-12 threshold: divided) and 5e-14 (below it: kept).
        layer = np.array([[2e-9, 1e-13], [0.0, 0.0]])
        div = Divergence((0, 1), ("a", "b"), layer, np.ones(2))
        ups = pack([update(0, {"a": [1.0], "b": [1.0]}), update(1, {"a": [1.0], "b": [1.0]})])
        table = coefficient_matrix("ldawa", ups, div, renormalize=True)
        assert table.tolist() == [[1.0, 5e-14], [0.0, 0.0]]

    def test_renormalized_column_is_summed_in_client_order(self):
        # One layer of 8 clients: ``sum(axis=0)`` would add this contiguous column pairwise, where
        # 0.125 + 1.25e-17 rounds back to 0.125 at every step of the ordered sum.
        layer = np.array([[1.0]] + [[1e-16]] * 7)
        div = Divergence(tuple(range(8)), ("w",), layer, np.ones(8))
        raw = layer / 8  # ldawa's uniform base 1/8 scales exactly
        total = 0.0
        for c in raw[:, 0]:
            total += c
        assert total != raw.sum(axis=0)[0]  # the fixture tells the two orders apart
        table = coefficient_matrix("ldawa", pack([update(k, {"w": [1.0]}) for k in range(8)]), div, renormalize=True)
        assert table.tobytes() == (raw / total).tobytes()

    def test_loss_strategy_dispatch_matches_direct_weighting(self):
        rng = np.random.default_rng(14)
        g, ups = random_fixture(rng)
        block = pack(ups)
        got, _ = aggregate(AggregationSpec("loss"), 0, g, block)
        direct = weighted_sum(block.weights, g.layout, per_layer(coeffs_loss(block), len(g.layout)))
        assert got == direct


class TestRangeCorrection:
    def test_scaled_contribution_never_opposes_global(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            g, ups = random_fixture(rng, n_clients=2, n_layers=2)
            div = divergence_of(g, ups)
            for u, row in zip(ups, div.layer):
                # Each client layer scaled by its own divergence delta(l).
                sizes = [math.prod(shape) for _, shape in g.layout]
                scaled = ParamSet(np.repeat(row, sizes) * u.params.vector, g.layout)
                scaled_div = divergence_of(g, [Client(u.client_id, scaled, 1, 0.0)])
                for base, after in zip(row, scaled_div.layer[0]):
                    if base == 0.0:
                        continue
                    assert after >= 0.0


class TestDominanceBias:
    def test_fedavg_tracks_the_big_client(self):
        rng = np.random.default_rng(13)
        g = ps({"w": rng.normal(size=4)})
        big = update(0, {"w": rng.normal(size=4) + 3.0}, n=9)
        small = [update(i, {"w": rng.normal(size=4)}, n=1) for i in range(1, 5)]
        ups = [big] + small
        fed, _ = aggregate(AggregationSpec("fedavg"), 0, g, pack(ups))
        fair, _ = aggregate(AggregationSpec("fairavg"), 0, g, pack(ups))
        d = lambda a, b: float(np.linalg.norm(a["w"] - b["w"]))
        assert d(fed, big.params) < d(fair, big.params)


class TestClientUpdatesValidation:
    """Every rule of a round's block is checked once, when it is built."""

    LAYOUT = (("w", (2,)),)

    def make(self, ids=(0, 1), weights=((1.0, 2.0), (3.0, 4.0)), n=(1, 1), loss=(0.0, 0.0)):
        return ClientUpdates(ids, np.array(weights, dtype=np.float64).reshape(len(weights), -1), self.LAYOUT, n, loss)

    def test_valid_block_is_read_only(self):
        ups = self.make(ids=[3, 8], n=[2, 5], loss=[0.5, 1.5])
        assert ups.client_ids == (3, 8) and ups.weights.shape == (2, 2) and ups.layout == self.LAYOUT
        assert ups.num_samples.tolist() == [2, 5] and ups.train_loss.tolist() == [0.5, 1.5]
        for array in (ups.weights, ups.num_samples, ups.train_loss):
            assert not array.flags.writeable

    def test_no_block_when_the_rows_come_in_chunks(self):
        ups = ClientUpdates((0, 1), None, self.LAYOUT, (1, 2), (0.0, 0.5))
        assert ups.weights is None and not ups.num_samples.flags.writeable and not ups.train_loss.flags.writeable
        with pytest.raises(ValueError, match="^client 1: num_samples must be >= 1$"):
            ClientUpdates((0, 1), None, self.LAYOUT, (1, 0), (0.0, 0.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no client updates"):
            ClientUpdates((), np.zeros((0, 2)), self.LAYOUT, [], [])

    @pytest.mark.parametrize(
        "kwargs",
        [dict(ids=(0, 1, 2)), dict(n=(1,)), dict(loss=(0.0, 0.0, 0.0)), dict(weights=(1.0, 2.0, 3.0, 4.0))],
        ids=["ids", "num_samples", "train_loss", "weights"],
    )
    def test_length_mismatch_rejected(self, kwargs):
        with pytest.raises(ValueError, match="client ids and a layout of 2 parameters for weights of shape"):
            self.make(**kwargs)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"layout of 2 parameters for weights of shape \(2, 3\)"):
            self.make(weights=((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))

    @pytest.mark.parametrize("ids", [(1, 0), (0, 0)], ids=["unsorted", "duplicate"])
    def test_unsorted_or_duplicate_ids_rejected(self, ids):
        with pytest.raises(ValueError, match="not strictly ascending"):
            self.make(ids=ids)

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ValueError, match="^client 1: num_samples must be >= 1$"):
            self.make(n=(1, 0))

    def test_sample_total_beyond_float64_rejected(self):
        # an int64 sum of these wraps: fedavg's coefficients came out as [-0.5, -0.5]
        with pytest.raises(ValueError, match=r"^num_samples total 9223372036854775808 exceeds 2\*\*53"):
            self.make(n=(2**62, 2**62))
        assert coeffs_fedavg(self.make(n=(2**52, 2**52))) == [0.5, 0.5]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_loss_rejected(self, bad):
        with pytest.raises(ValueError, match="^client 1: train_loss is not finite$"):
            self.make(loss=(0.0, bad))
