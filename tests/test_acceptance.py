"""Acceptance suite: one test per shipping criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete. Tolerances are fixed here, not calibrated elsewhere.
"""

import csv
import math
import time

import numpy as np
import pytest
from scipy import stats

from fedsim.aggregation import (
    AggregationSpec,
    ClientUpdate,
    aggregate,
    coefficient_matrix,
    coeffs_fedavg,
    coeffs_loss,
)
from fedsim.config import parse_config
from fedsim.divergence import Divergence
from fedsim.engine import build_datasets, fedu_policy, run_experiment, sample_clients
from fedsim.evaluation import classifier_accuracy
from fedsim.learners import (
    ModelSpec,
    backward,
    forward,
    init_params,
    loss_barlow,
    loss_ntxent,
    loss_xent,
    redundancy_loss_from_corr,
)
from fedsim.params import ParamSet, load_checkpoint, weighted_sum
from fedsim.partition import PartitionSpec, make_blobs, partition


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# shared oracles
# ---------------------------------------------------------------------------


def scalar_cosine(g, c):
    num = sum(float(x) * float(y) for x, y in zip(g, c))
    ng = math.sqrt(sum(float(x) ** 2 for x in g))
    nc = math.sqrt(sum(float(x) ** 2 for x in c))
    if ng <= 1e-12 and nc <= 1e-12:
        return 1.0
    if ng <= 1e-12 or nc <= 1e-12:
        return 0.0
    return max(-1.0, min(1.0, num / (ng * nc)))


def scalar_layerwise_sum(global_params, updates, base_coeffs):
    out = {}
    for name in global_params.names:
        layer = global_params[name].reshape(-1)
        acc = [0.0] * layer.size
        for u, beta in zip(updates, base_coeffs):
            client = u.params[name].reshape(-1)
            delta = scalar_cosine(layer, client)
            for i in range(layer.size):
                acc[i] += beta * delta * float(client[i])
        out[name] = np.asarray(acc)
    return out


def rule(strategy, global_params, updates):
    """The new global under ``strategy``, past any warm-up."""
    return aggregate(AggregationSpec(strategy), 0, global_params, updates)[0]


def random_agg_fixture(rng):
    n_clients = int(rng.integers(2, 9))
    n_layers = int(rng.integers(1, 6))
    sizes = [int(rng.integers(1, 65)) for _ in range(n_layers)]

    def draw():
        return ParamSet.from_arrays({f"layer{i}": rng.normal(size=s) for i, s in enumerate(sizes)})

    updates = [
        ClientUpdate(k, draw(), int(rng.integers(1, 100)), float(rng.normal()))
        for k in range(n_clients)
    ]
    return draw(), updates


def fd_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def max_rel_err(analytic, numeric):
    scale = max(np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def label_entropy(labels):
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


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
        expected = scalar_layerwise_sum(global_params, updates, [1.0 / k] * k)
        for name in got.names:
            worst_a = max(worst_a, float(np.abs(got[name] - expected[name]).max()))

        def first_layer(params):
            return ParamSet.from_arrays({"layer0": params["layer0"]})

        single = first_layer(global_params)
        single_ups = [
            ClientUpdate(u.client_id, first_layer(u.params), u.num_samples, u.train_loss) for u in updates
        ]
        ld = rule("ldawa", single, single_ups)
        md = rule("mdawa", single, single_ups)
        worst_b = max(worst_b, float(np.abs(ld["layer0"] - md["layer0"]).max()))

        n_layers = len(global_params.layout)
        unit = Divergence(
            tuple(u.client_id for u in updates), global_params.names,
            np.ones((k, n_layers)), np.zeros((k, n_layers)), np.ones(k),
        )
        forced = weighted_sum([u.params for u in updates], coefficient_matrix("ldawa", updates, unit))
        fair, _ = aggregate(AggregationSpec("fairavg"), 0, global_params, updates)
        equal_n = [ClientUpdate(u.client_id, u.params, 7, u.train_loss) for u in updates]
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

    def up(n, loss):
        return ClientUpdate(0, ParamSet.from_arrays({"w": [1.0]}), n, loss)

    fed = coeffs_fedavg([up(3, 0.0), up(1, 0.0)])
    assert fed == [0.75, 0.25]

    soft = coeffs_loss([up(1, 0.0), up(1, math.log(2))])
    assert abs(soft[0] - 2 / 3) < 1e-12
    assert abs(soft[1] - 1 / 3) < 1e-12

    rng = np.random.default_rng(102)
    for _ in range(1000):
        ups = [
            up(int(rng.integers(1, 10_000)), float(rng.normal(0, 50)))
            for _ in range(int(rng.integers(1, 9)))
        ]
        assert abs(sum(coeffs_fedavg(ups)) - 1.0) < 1e-12
        assert abs(sum(coeffs_loss(ups)) - 1.0) < 1e-12

    huge = coeffs_loss([up(1, 0.0), up(1, 1e4)])
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
        _, grad = loss_xent(logits, labels)
        fd = fd_grad(lambda v: loss_xent(v.reshape(n, c), labels)[0], logits.reshape(-1))
        worst["xent"] = max(worst["xent"], max_rel_err(grad.reshape(-1), fd))

    for _ in range(10):
        b, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        z_a, z_b = rng.normal(size=(b, d)), rng.normal(size=(b, d))
        tau = float(rng.uniform(0.2, 1.5))
        _, ga, gb = loss_ntxent(z_a, z_b, tau)
        fda = fd_grad(lambda v: loss_ntxent(v.reshape(b, d), z_b, tau)[0], z_a.reshape(-1))
        fdb = fd_grad(lambda v: loss_ntxent(z_a, v.reshape(b, d), tau)[0], z_b.reshape(-1))
        worst["contrastive"] = max(
            worst["contrastive"],
            max_rel_err(ga.reshape(-1), fda),
            max_rel_err(gb.reshape(-1), fdb),
        )

    for _ in range(10):
        b, d = int(rng.integers(3, 7)), int(rng.integers(2, 5))
        z_a, z_b = rng.normal(size=(b, d)), rng.normal(size=(b, d))
        lam = float(rng.uniform(0.0, 0.1))
        _, ga, gb = loss_barlow(z_a, z_b, lam)
        fda = fd_grad(lambda v: loss_barlow(v.reshape(b, d), z_b, lam)[0], z_a.reshape(-1))
        fdb = fd_grad(lambda v: loss_barlow(z_a, v.reshape(b, d), lam)[0], z_b.reshape(-1))
        worst["redundancy"] = max(
            worst["redundancy"],
            max_rel_err(ga.reshape(-1), fda),
            max_rel_err(gb.reshape(-1), fdb),
        )

    spec = ModelSpec((3, 4, 3), projector_dims=(3, 2), activation="tanh")
    for _ in range(10):
        params = init_params(spec, rng)
        x_a, x_b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

        def chain_loss(p):
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
                return chain_loss(arrays)

            fd = fd_grad(f, params[name].reshape(-1).copy())
            analytic = (grads_a[name] + grads_b[name]).reshape(-1)
            worst["chain"] = max(worst["chain"], max_rel_err(analytic, fd))

    # a supervised model: backward takes d(loss)/d(logits) and goes through the head into the encoder
    spec = ModelSpec((3, 4, 3), activation="tanh", head_classes=3)
    for _ in range(10):
        params = init_params(spec, rng)
        x, y = rng.normal(size=(5, 3)), rng.integers(0, 3, 5)
        _, glog = loss_xent(forward(params, spec, x).logits, y)
        grads = backward(params, spec, forward(params, spec, x), glog)
        for name, shape in params.layout:
            def f(v, name=name, shape=shape):
                arrays = {n: params[n] for n in params.names}
                arrays[name] = v.reshape(shape)
                return loss_xent(forward(arrays, spec, x).logits, y)[0]

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

    # contrastive: per-anchor term with the positive and all other rows as candidates
    def direct_contrastive(z_a, z_b, tau):
        rows = [v / np.linalg.norm(v) for v in list(z_a) + list(z_b)]
        b = len(z_a)
        total = 0.0
        for i, u in enumerate(rows):
            pos = rows[(i + b) % (2 * b)]
            candidates = [v for j, v in enumerate(rows) if j != i]
            log_z = math.log(sum(math.exp(float(np.dot(u, v)) / tau) for v in candidates))
            total += -(float(np.dot(u, pos)) / tau) + log_z
        return total / (2 * b)

    worst_nt = 0.0
    fixtures = [
        (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0),
        (rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), 0.5),
        (rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), 0.25),
    ]
    for z_a, z_b, tau in fixtures:
        got, _, _ = loss_ntxent(z_a, z_b, tau)
        worst_nt = max(worst_nt, abs(got - direct_contrastive(z_a, z_b, tau)))

    # redundancy: diagonal and off-diagonal sums over the standardized correlation
    def direct_redundancy(z_a, z_b, lam):
        n, d = z_a.shape
        def std(z):
            out = np.empty_like(z)
            for j in range(d):
                col = z[:, j]
                mu = col.mean()
                sd = math.sqrt(((col - mu) ** 2).mean())
                out[:, j] = (col - mu) / (sd + 1e-8)
            return out
        a, b = std(z_a), std(z_b)
        total = 0.0
        for i in range(d):
            cii = float(np.dot(a[:, i], b[:, i])) / n
            total += (1.0 - cii) ** 2
            for j in range(d):
                if j != i:
                    total += lam * (float(np.dot(a[:, i], b[:, j])) / n) ** 2
        return total

    worst_bt = 0.0
    for _ in range(5):
        z_a, z_b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        lam = float(rng.uniform(0.0, 0.2))
        got, _, _ = loss_barlow(z_a, z_b, lam)
        worst_bt = max(worst_bt, abs(got - direct_redundancy(z_a, z_b, lam)))

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


def desk_scale_raw(strategy, seed, out_dir, rounds=30):
    """Cross-silo single-class setup: 8-class blobs, 10 clients, 1 local epoch.

    The trainer hyperparameters are chosen so clients drift measurably per
    round (the statistic being compared is meaningless in the no-drift
    regime where every divergence sits at 1.0).
    """
    return {
        "dataset": {
            "type": "blobs",
            "num_classes": 8,
            "samples_per_class": 200,
            "dim": 16,
            "spread": 1.0,
            "seed": seed,
            "test_samples_per_class": 40,
        },
        "partition": {
            "scheme": "single_class",
            "num_clients": 10,
            "seed": seed,
            "allow_class_reuse": True,
        },
        "clients_per_round": 10,
        "rounds": rounds,
        "trainer": {
            "method": "simclr",
            "temperature": 0.5,
            "lr": 0.1,
            "batch_size": 16,
            "local_epochs": 1,
            "augment_noise_std": 0.3,
            "augment_mask_prob": 0.0,
        },
        "model": {"encoder_dims": [16, 64, 32], "projector_dims": [32, 32]},
        "aggregation": {"strategy": strategy, "warmup_rounds": 2},
        "evaluation": {"epochs": 30, "milestones": [20, 26], "lr": 0.1, "probe_every": 0},
        "run_seed": seed,
        "output_dir": str(out_dir),
    }


def test_06_determinism_across_runs_and_workers(tmp_path):
    raw = desk_scale_raw("ldawa", 1, tmp_path / "a", rounds=6)
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
def desk_scale_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk_scale")
    t0 = time.perf_counter()
    runs = {}
    for strategy in ("fedavg", "ldawa"):
        for seed in (1, 2, 3):
            cfg = parse_config(desk_scale_raw(strategy, seed, base / f"{strategy}_{seed}"))
            runs[(strategy, seed)] = run_experiment(cfg)
    return runs, time.perf_counter() - t0


def test_07a_desk_scale_runtime(desk_scale_runs):
    _, elapsed = desk_scale_runs
    report("7a desk-scale runtime", elapsed < 300.0, f"{elapsed:.1f}s for 6 runs")
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def desk_scale_renormalized_runs(tmp_path_factory):
    """Control runs for 7b: the ldawa desk-scale runs with ``renormalize: true``."""
    base = tmp_path_factory.mktemp("desk_scale_renormalized")
    runs = {}
    for seed in (1, 2, 3):
        raw = desk_scale_raw("ldawa", seed, base / f"ldawa_{seed}")
        raw["aggregation"] = dict(raw["aggregation"], renormalize=True)
        runs[seed] = run_experiment(parse_config(raw))
    return runs


def test_07b_divergence_statistic_direction(desk_scale_runs, desk_scale_renormalized_runs):
    """Layer-wise divergence scaling lowers the post-warm-up mean client cosine.

    ldawa scales each layer by delta_k(l) <= 1 without renormalizing, so the
    global norm contracts round after round, clients train from a smaller
    global, and their whole-model cosine to it falls below fedavg's. A seed
    counts only if that cause shows too: ldawa's final global norm is below
    fedavg's, and renormalizing ldawa closes the gap to a tenth or less.
    """
    runs, _ = desk_scale_runs

    def post_warmup_mean(result):
        return float(np.mean([r.mu_delta_model for r in result.state.history if r.round_index >= 2]))

    def global_norm(result):
        return float(np.linalg.norm(result.state.global_params.vector))

    wins = 0
    details = []
    for seed in (1, 2, 3):
        fedavg, ldawa = runs[("fedavg", seed)], runs[("ldawa", seed)]
        renormalized = desk_scale_renormalized_runs[seed]
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


def test_07c_probe_accuracy_beats_chance(desk_scale_runs):
    runs, _ = desk_scale_runs
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

    below = fedu_policy(*models(0.4), threshold=0.5)
    at = fedu_policy(*models(0.5), threshold=0.5)
    above = fedu_policy(*models(0.6), threshold=0.5)
    boundary_ok = below.adopt_projector and at.adopt_projector and not above.adopt_projector

    raw_inf = desk_scale_raw("ldawa", 1, tmp_path / "inf", rounds=4)
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
