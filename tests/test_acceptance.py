"""Acceptance suite: one test per shipping criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete. Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from fedsim.aggregation import (
    AggregationSpec,
    ClientUpdates,
    aggregate,
    coefficient_matrix,
    coeffs_fedavg,
    coeffs_loss,
)
from fedsim.config import parse_config
from fedsim.divergence import Divergence
from fedsim.engine import build_datasets, fedu_start, run_experiment, sample_clients
from fedsim.learners import (
    ModelSpec,
    backward,
    forward,
    init_params,
    loss_barlow,
    loss_ntxent,
    redundancy_loss_from_corr,
)
from fedsim.params import ParamSet
from fedsim.partition import PartitionSpec, make_blobs, partition
from helpers import (
    Client,
    brute_force_barlow,
    brute_force_layerwise,
    brute_force_ntxent,
    classifier_accuracy,
    fd_grad,
    label_entropy,
    pack,
    parent_loss_xent,
    rule,
    summed,
    training_xent,
)
from workloads import desk_scale_raw  # fedbench's; pyproject puts fedbench/ on the test path


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# fixture and error measure (the scalar oracles are in helpers.py)
# ---------------------------------------------------------------------------


def random_agg_fixture(rng):
    n_clients = int(rng.integers(2, 9))
    n_layers = int(rng.integers(1, 6))
    sizes = [int(rng.integers(1, 65)) for _ in range(n_layers)]

    def draw():
        return ParamSet.from_arrays({f"layer{i}": rng.normal(size=s) for i, s in enumerate(sizes)})

    updates = [
        Client(k, draw(), int(rng.integers(1, 100)), float(rng.normal()))
        for k in range(n_clients)
    ]
    return draw(), updates


def max_rel_err(analytic, numeric):
    scale = max(np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


# ---------------------------------------------------------------------------
# criterion 1: aggregation-rule oracle equivalence
# ---------------------------------------------------------------------------


def test_01_aggregation_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_a = worst_b = worst_c = 0.0
    for _ in range(50):
        global_params, updates = random_agg_fixture(rng)
        k = len(updates)

        got = rule("ldawa", global_params, updates)
        expected = brute_force_layerwise(global_params, updates, [1.0 / k] * k)
        for name in got.names:
            worst_a = max(worst_a, float(np.abs(got[name] - expected[name]).max()))

        def first_layer(params):
            return ParamSet.from_arrays({"layer0": params["layer0"]})

        single = first_layer(global_params)
        single_ups = [
            Client(u.client_id, first_layer(u.params), u.num_samples, u.train_loss) for u in updates
        ]
        ld = rule("ldawa", single, single_ups)
        md = rule("mdawa", single, single_ups)
        worst_b = max(worst_b, float(np.abs(ld["layer0"] - md["layer0"]).max()))

        n_layers = len(global_params.layout)
        unit = Divergence(
            tuple(u.client_id for u in updates), global_params.names,
            np.ones((k, n_layers)), np.ones(k),
        )
        block = pack(updates)
        forced = summed(block.weights, block.layout, coefficient_matrix("ldawa", block, unit))
        fair, _ = aggregate(AggregationSpec("fairavg"), 0, global_params, block)
        equal_n = pack([u._replace(num_samples=7) for u in updates])
        fed, _ = aggregate(AggregationSpec("fedavg"), 0, global_params, equal_n)
        worst_c = max(worst_c, float(np.abs(forced.vector - fair.vector).max()))
        worst_c = max(worst_c, float(np.abs(fair.vector - fed.vector).max()))

    elapsed = time.perf_counter() - start
    ok = worst_a < 1e-12 and worst_b < 1e-12 and worst_c < 1e-12 and elapsed < 5.0
    report(
        "1 aggregation oracle equivalence",
        ok,
        f"brute-force {worst_a:.2e}, single-layer {worst_b:.2e}, reduction {worst_c:.2e}, {elapsed:.2f}s",
    )
    assert worst_a < 1e-12
    assert worst_b < 1e-12
    assert worst_c < 1e-12
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 2: coefficient correctness
# ---------------------------------------------------------------------------


def test_02_coefficient_correctness():
    start = time.perf_counter()

    def ups(*pairs):
        """One-parameter clients 0..K-1 with the given (num_samples, train_loss) pairs."""
        n, loss = zip(*pairs)
        return ClientUpdates(tuple(range(len(pairs))), np.ones((len(pairs), 1)), (("w", (1,)),), n, loss)

    fed = coeffs_fedavg(ups((3, 0.0), (1, 0.0)))
    assert fed == [0.75, 0.25]

    soft = coeffs_loss(ups((1, 0.0), (1, math.log(2))))
    assert abs(soft[0] - 2 / 3) < 1e-12
    assert abs(soft[1] - 1 / 3) < 1e-12

    rng = np.random.default_rng(102)
    for _ in range(1000):
        block = ups(*[
            (int(rng.integers(1, 10_000)), float(rng.normal(0, 50)))
            for _ in range(int(rng.integers(1, 9)))
        ])
        assert abs(sum(coeffs_fedavg(block)) - 1.0) < 1e-12
        assert abs(sum(coeffs_loss(block)) - 1.0) < 1e-12

    huge = coeffs_loss(ups((1, 0.0), (1, 1e4)))
    assert all(math.isfinite(c) for c in huge)
    assert abs(huge[0] - 1.0) < 1e-12

    elapsed = time.perf_counter() - start
    report("2 coefficient correctness", elapsed < 1.0, f"{elapsed:.2f}s")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 3: gradient verification
# ---------------------------------------------------------------------------


def test_03_gradient_verification():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = {"xent": 0.0, "contrastive": 0.0, "redundancy": 0.0, "chain": 0.0, "head chain": 0.0}

    for _ in range(10):
        n, c = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        logits = rng.normal(size=(n, c))
        labels = rng.integers(0, c, n)
        _, grad = training_xent(logits, labels)
        fd = fd_grad(lambda v: training_xent(v.reshape(n, c), labels)[0], logits.reshape(-1))
        worst["xent"] = max(worst["xent"], max_rel_err(grad.reshape(-1), fd))

    for _ in range(10):
        b, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        z = rng.normal(size=(2, b, d))  # both views, one stack
        tau = float(rng.uniform(0.2, 1.5))
        _, grad = loss_ntxent(z, tau)
        fd = fd_grad(lambda v: loss_ntxent(v.reshape(z.shape), tau)[0], z.reshape(-1))
        worst["contrastive"] = max(worst["contrastive"], max_rel_err(grad.reshape(-1), fd))

    for _ in range(10):
        b, d = int(rng.integers(3, 7)), int(rng.integers(2, 5))
        z = rng.normal(size=(2, b, d))
        lam = float(rng.uniform(0.0, 0.1))
        _, grad = loss_barlow(z, lam)
        fd = fd_grad(lambda v: loss_barlow(v.reshape(z.shape), lam)[0], z.reshape(-1))
        worst["redundancy"] = max(worst["redundancy"], max_rel_err(grad.reshape(-1), fd))

    spec = ModelSpec((3, 4, 3), projector_dims=(3, 2), activation="tanh")
    for _ in range(10):
        params = init_params(spec, rng)
        x = rng.normal(size=(2, 4, 3))  # both views' inputs, one pass

        def chain_loss(p):
            return loss_ntxent(forward(p, spec, x).pre[-1], 0.5)[0]

        fp = forward(params, spec, x)
        grads = backward(params, spec, fp, loss_ntxent(fp.pre[-1], 0.5)[1])  # one gradient per view
        for name, shape in params.layout:
            def f(v, name=name, shape=shape):
                arrays = {n: params[n] for n in params.names}
                arrays[name] = v.reshape(shape)
                return chain_loss(arrays)

            fd = fd_grad(f, params[name].reshape(-1).copy())
            worst["chain"] = max(worst["chain"], max_rel_err(grads[name].sum(axis=0).reshape(-1), fd))

    # a supervised model: backward takes d(loss)/d(logits) and goes through the head into the encoder
    spec = ModelSpec((3, 4, 3), activation="tanh", head_classes=3)
    for _ in range(10):
        params = init_params(spec, rng)
        x, y = rng.normal(size=(5, 3)), rng.integers(0, 3, 5)
        _, glog = parent_loss_xent(forward(params, spec, x).pre[-1], y)
        grads = backward(params, spec, forward(params, spec, x), glog)
        for name, shape in params.layout:
            def f(v, name=name, shape=shape):
                arrays = {n: params[n] for n in params.names}
                arrays[name] = v.reshape(shape)
                return parent_loss_xent(forward(arrays, spec, x).pre[-1], y)[0]

            fd = fd_grad(f, params[name].reshape(-1).copy())
            worst["head chain"] = max(worst["head chain"], max_rel_err(grads[name].reshape(-1), fd))

    elapsed = time.perf_counter() - start
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 30.0
    report(
        "3 gradient verification",
        ok,
        ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + f", {elapsed:.1f}s",
    )
    for name, value in worst.items():
        assert value < 1e-4, f"{name} gradient mismatch: {value}"
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 4: loss-formula fidelity
# ---------------------------------------------------------------------------


def test_04_loss_formula_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(104)

    worst_nt = 0.0
    fixtures = [  # (2, B, D) stacks of both views
        (np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]), 1.0),
        (rng.normal(size=(2, 3, 4)), 0.5),
        (rng.normal(size=(2, 4, 2)), 0.25),
    ]
    for z, tau in fixtures:
        got, _ = loss_ntxent(z, tau)
        worst_nt = max(worst_nt, abs(got - brute_force_ntxent(*z, tau)))

    worst_bt = 0.0
    for _ in range(5):
        z = rng.normal(size=(2, 5, 3))
        lam = float(rng.uniform(0.0, 0.2))
        got, _ = loss_barlow(z, lam)
        worst_bt = max(worst_bt, abs(got - brute_force_barlow(*z, lam)))

    identity_loss = redundancy_loss_from_corr(np.eye(6), 0.005)

    elapsed = time.perf_counter() - start
    ok = worst_nt < 1e-10 and worst_bt < 1e-10 and identity_loss == 0.0 and elapsed < 5.0
    report(
        "4 loss-formula fidelity",
        ok,
        f"contrastive {worst_nt:.2e}, redundancy {worst_bt:.2e}, identity loss {identity_loss}, {elapsed:.2f}s",
    )
    assert worst_nt < 1e-10
    assert worst_bt < 1e-10
    assert identity_loss == 0.0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 5: partition invariants
# ---------------------------------------------------------------------------


def test_05_partition_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    alphas = (0.1, 0.2, 0.4, 0.6)

    checked = 0
    for _ in range(200):
        c = int(rng.integers(2, 8))
        per_class = int(rng.integers(8, 30))
        ds = make_blobs(c, per_class, 2, 1.0, seed=int(rng.integers(100000)))
        scheme = ("iid", "dirichlet", "single_class")[int(rng.integers(3))]
        if scheme == "dirichlet":
            spec = PartitionSpec(
                "dirichlet",
                int(rng.integers(2, 7)),
                alpha=float(alphas[int(rng.integers(len(alphas)))]),
                seed=int(rng.integers(100000)),
                min_samples=0,
            )
        elif scheme == "iid":
            spec = PartitionSpec("iid", int(rng.integers(2, 7)), seed=int(rng.integers(100000)))
        else:
            # balanced classes with one client per class: the equal-count
            # constraint is satisfiable with nothing left over
            spec = PartitionSpec("single_class", c, seed=int(rng.integers(100000)))
        parts = partition(ds, spec)
        seen = set()
        for part in parts:
            s = set(part)
            assert len(s) == len(part), "duplicate index within a client"
            assert not (seen & s), "clients overlap"
            seen |= s
        assert seen == set(range(len(ds))), f"{scheme} output is not a cover"
        checked += 1

    ds = make_blobs(10, 500, 4, 1.0, seed=0)
    means = []
    for alpha in alphas + (10.0,):
        values = []
        for seed in range(20):
            parts = partition(ds, PartitionSpec("dirichlet", 10, alpha=alpha, seed=seed))
            values.extend(label_entropy(ds.labels[np.asarray(p)]) for p in parts)
        means.append(float(np.mean(values)))
    monotone = all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    elapsed = time.perf_counter() - start
    ok = checked == 200 and monotone and elapsed < 20.0
    report(
        "5 partition invariants",
        ok,
        f"{checked} disjoint covers, entropies {['%.3f' % m for m in means]}, {elapsed:.1f}s",
    )
    assert checked == 200
    assert monotone, f"entropy not monotone in alpha: {means}"
    assert elapsed < 20.0


# ---------------------------------------------------------------------------
# criteria 6 and 7: determinism and the desk-scale end-to-end run
# ---------------------------------------------------------------------------


def test_06_determinism_across_runs(tmp_path):
    raw = dict(desk_scale_raw("ldawa", 1, rounds=6), output_dir=str(tmp_path / "a"))
    cfg_a = parse_config(raw)
    raw_b = dict(raw, output_dir=str(tmp_path / "b"))
    cfg_b = parse_config(raw_b)
    res_a = run_experiment(cfg_a)
    res_b = run_experiment(cfg_b)
    same_csv = res_a.rounds_csv.read_bytes() == res_b.rounds_csv.read_bytes()
    same_ckpt = res_a.final_checkpoint.read_bytes() == res_b.final_checkpoint.read_bytes()
    report("6 determinism (two separate runs)", same_csv and same_ckpt)
    assert same_csv
    assert same_ckpt


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    # The desk-scale fixture's trainer hyperparameters are chosen so clients
    # drift measurably per round: the statistic 7b compares is meaningless in
    # the no-drift regime where every divergence sits at 1.0.
    base = tmp_path_factory.mktemp("desk_scale")
    t0 = time.perf_counter()
    runs = {}
    for strategy in ("fedavg", "ldawa"):
        for seed in (1, 2, 3):
            cfg = parse_config(dict(desk_scale_raw(strategy, seed), output_dir=str(base / f"{strategy}_{seed}")))
            runs[(strategy, seed)] = run_experiment(cfg)
    return runs, time.perf_counter() - t0


def test_07a_desk_scale_runtime(desk_runs):
    _, elapsed = desk_runs
    report("7a desk-scale runtime", elapsed < 300.0, f"{elapsed:.1f}s for 6 runs")
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def desk_renormalized_runs(tmp_path_factory):
    """Control runs for 7b: the ldawa desk-scale runs with ``renormalize: true``."""
    base = tmp_path_factory.mktemp("desk_scale_renormalized")
    runs = {}
    for seed in (1, 2, 3):
        raw = dict(desk_scale_raw("ldawa", seed), output_dir=str(base / f"ldawa_{seed}"))
        raw["aggregation"] = dict(raw["aggregation"], renormalize=True)
        runs[seed] = run_experiment(parse_config(raw))
    return runs


def test_07b_divergence_statistic_direction(desk_runs, desk_renormalized_runs):
    """Layer-wise divergence scaling lowers the post-warm-up mean client cosine.

    ldawa scales each layer by delta_k(l) <= 1 without renormalizing, so the
    global norm contracts round after round, clients train from a smaller
    global, and their whole-model cosine to it falls below fedavg's. A seed
    counts only if that cause shows too: ldawa's final global norm is below
    fedavg's, and renormalizing ldawa closes the gap to a tenth or less.
    """
    runs, _ = desk_runs

    def post_warmup_mean(result):
        return float(np.mean([r.div.mean("model") for r in result.state.history if r.round_index >= 2]))

    def global_norm(result):
        return float(np.linalg.norm(result.state.global_params.vector))

    wins = 0
    details = []
    for seed in (1, 2, 3):
        fedavg, ldawa = runs[("fedavg", seed)], runs[("ldawa", seed)]
        renormalized = desk_renormalized_runs[seed]
        mu_fedavg = post_warmup_mean(fedavg)
        mu_ldawa = post_warmup_mean(ldawa)
        gap = mu_ldawa - mu_fedavg
        renorm_gap = post_warmup_mean(renormalized) - mu_fedavg
        norm_fedavg, norm_ldawa = global_norm(fedavg), global_norm(ldawa)
        norm_renorm = global_norm(renormalized)
        wins += gap < 0 and norm_ldawa < norm_fedavg and abs(renorm_gap) <= 0.1 * abs(gap)
        details.append(
            f"seed {seed}: ldawa {mu_ldawa:.4f} vs fedavg {mu_fedavg:.4f}, gap {gap:+.2e}, "
            f"renormalized gap {renorm_gap:+.2e}, final norms fedavg {norm_fedavg:.2f} / "
            f"ldawa {norm_ldawa:.2f} / renormalized ldawa {norm_renorm:.2f}"
        )
    report(
        "7b mean divergence statistic lower for ldawa, from norm contraction (>=2 of 3 seeds)",
        wins >= 2,
        "; ".join(details),
    )
    assert wins >= 2, (
        f"ldawa mean post-warm-up divergence fell below fedavg's with a contracted global norm "
        f"and a renormalized gap of at most a tenth in {wins}/3 seeds; " + "; ".join(details)
    )


def test_07c_probe_accuracy_beats_chance(desk_runs):
    runs, _ = desk_runs
    n_test = 8 * 40
    chance = 1.0 / 8.0
    floor = chance + 3.0 * math.sqrt(chance * (1 - chance) / n_test)
    worst = 1.0
    details = []
    for (strategy, seed), result in runs.items():
        acc = result.state.history[-1].probe_acc
        worst = min(worst, acc)
        details.append(f"{strategy}/s{seed} {acc:.3f}")
    ok = worst > floor
    report("7c probe accuracy above chance +3 sigma", ok, f"floor {floor:.3f}; " + ", ".join(details))
    assert worst > floor


# ---------------------------------------------------------------------------
# criterion 8: supervised federated smoke
# ---------------------------------------------------------------------------


def test_08_supervised_federated_smoke(tmp_path):
    start = time.perf_counter()

    def run(strategy):
        cfg = parse_config(
            {
                "dataset": {
                    "type": "blobs",
                    "num_classes": 4,
                    "samples_per_class": 150,
                    "dim": 8,
                    "spread": 0.5,
                    "seed": 1,
                    "test_samples_per_class": 50,
                },
                "partition": {"scheme": "dirichlet", "alpha": 0.1, "num_clients": 10, "seed": 1},
                "clients_per_round": 10,
                "rounds": 50,
                "trainer": {
                    "method": "supervised",
                    "lr": 0.05,
                    "batch_size": 32,
                    "local_epochs": 1,
                    "augment_noise_std": 0.0,
                },
                "model": {"encoder_dims": [8, 32, 16], "projector_dims": []},
                "aggregation": {"strategy": strategy},
                "evaluation": {"epochs": 5, "milestones": [3], "probe_every": 0},
                "run_seed": 1,
                "output_dir": str(tmp_path / strategy),
            }
        )
        result = run_experiment(cfg)
        _, test_ds = build_datasets(cfg)
        return classifier_accuracy(result.state.global_params, cfg.model, test_ds)

    acc_fedavg = run("fedavg")
    acc_ldawa = run("ldawa")
    elapsed = time.perf_counter() - start
    ok = acc_fedavg >= 0.95 and acc_ldawa >= 0.95 and acc_ldawa >= acc_fedavg - 0.02 and elapsed < 120.0
    report(
        "8 supervised federated smoke",
        ok,
        f"fedavg {acc_fedavg:.4f}, ldawa {acc_ldawa:.4f}, {elapsed:.1f}s",
    )
    assert acc_fedavg >= 0.95
    assert acc_ldawa >= 0.95
    assert acc_ldawa >= acc_fedavg - 0.02
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 9: cross-device sampling
# ---------------------------------------------------------------------------


def test_09_cross_device_sampling():
    counts = np.zeros(100)
    for round_index in range(100):
        ids = sample_clients(100, 10, round_index, run_seed=2024)
        assert len(ids) == len(set(ids)) == 10
        assert ids == sample_clients(100, 10, round_index, run_seed=2024)
        for cid in ids:
            counts[cid] += 1
    result = stats.chisquare(counts)
    ok = result.pvalue > 0.01 and (counts > 0).all()
    report(
        "9 cross-device sampling uniformity",
        ok,
        f"chi-square p={result.pvalue:.3f}, min count {int(counts.min())}",
    )
    assert result.pvalue > 0.01
    assert (counts > 0).all()


# ---------------------------------------------------------------------------
# criterion 10: FedU policy boundary
# ---------------------------------------------------------------------------


def test_10_fedu_policy_boundary(tmp_path):
    def models(shift):
        g = ParamSet.from_arrays({"encoder.0.weight": [1.0, 0.0], "projector.0.weight": [1.0]})
        c = ParamSet.from_arrays({"encoder.0.weight": [1.0 + shift, 0.0], "projector.0.weight": [9.0]})
        return g, c

    spec = AggregationSpec("ldawa_fedu", fedu_threshold=0.5)
    adopts = [fedu_start(spec, g, c)[0] is g for g, c in map(models, (0.4, 0.5, 0.6))]
    boundary_ok = adopts == [True, True, False]

    raw_inf = dict(desk_scale_raw("ldawa", 1, rounds=4), output_dir=str(tmp_path / "inf"))
    raw_inf["aggregation"] = {"strategy": "ldawa_fedu", "warmup_rounds": 2, "fedu_threshold": "inf"}
    raw_off = dict(raw_inf, output_dir=str(tmp_path / "off"))
    raw_off["aggregation"] = {"strategy": "ldawa_fedu", "warmup_rounds": 2, "fedu_threshold": None}
    res_inf = run_experiment(parse_config(raw_inf))
    res_off = run_experiment(parse_config(raw_off))
    telemetry_ok = res_inf.rounds_csv.read_bytes() == res_off.rounds_csv.read_bytes()

    ok = boundary_ok and telemetry_ok
    report(
        "10 fedu policy boundary",
        ok,
        f"below/at/above = adopt/adopt/keep: {boundary_ok}, inf == disabled telemetry: {telemetry_ok}",
    )
    assert boundary_ok
    assert telemetry_ok
