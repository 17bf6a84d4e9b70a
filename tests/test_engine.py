"""Round orchestration: sampling, FedU policy, warm-up telemetry, determinism."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from fedsim.aggregation import AggregationSpec, ClientUpdate
from fedsim.config import parse_config
from fedsim.engine import (
    _TAG_TRAIN,
    FederatedRunner,
    build_datasets,
    derived_rng,
    fedu_policy,
    run_experiment,
    sample_clients,
)
from fedsim.learners import ClientTrainingError, init_params
from fedsim.params import ParamSet, load_checkpoint
from fedsim.partition import make_blobs, partition


def base_config(tmp_path, **over):
    raw = {
        "dataset": {"type": "blobs", "num_classes": 3, "samples_per_class": 20, "dim": 4, "spread": 0.5, "seed": 1},
        "partition": {"scheme": "iid", "num_clients": 3, "seed": 2},
        "clients_per_round": 3,
        "rounds": 2,
        "trainer": {"method": "simclr", "batch_size": 8, "local_epochs": 1},
        "model": {"encoder_dims": [4, 8, 4], "projector_dims": [4, 4]},
        "aggregation": {"strategy": "ldawa"},
        "evaluation": {"epochs": 4, "milestones": [2], "probe_every": 0},
        "run_seed": 11,
        "output_dir": str(tmp_path / "run"),
    }
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    return parse_config(raw)


def ps(named):
    return ParamSet.from_arrays({n: np.asarray(v, dtype=np.float64) for n, v in named.items()})


class TestSampleClients:
    def test_cross_silo_returns_everyone(self):
        assert sample_clients(10, 10, 0, 123) == list(range(10))

    def test_cross_device_subset(self):
        ids = sample_clients(100, 10, 3, 7)
        assert len(ids) == len(set(ids)) == 10
        assert all(0 <= i < 100 for i in ids)

    def test_deterministic_per_round(self):
        assert sample_clients(50, 5, 9, 1) == sample_clients(50, 5, 9, 1)
        assert sample_clients(50, 5, 9, 1) != sample_clients(50, 5, 10, 1)

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            sample_clients(5, 6, 0, 0)


class TestFeduPolicy:
    def global_and_client(self, backbone_shift):
        g = ps({"encoder.0.weight": [1.0, 0.0], "projector.0.weight": [1.0]})
        c = ps({"encoder.0.weight": [1.0 + backbone_shift, 0.0], "projector.0.weight": [5.0]})
        return g, c

    def test_zero_distance_adopts(self):
        g, c = self.global_and_client(0.0)
        decision = fedu_policy(g, c, threshold=0.5)
        assert decision.adopt_projector
        assert decision.backbone_distance == 0.0

    def test_above_threshold_keeps(self):
        g, c = self.global_and_client(0.6)
        assert not fedu_policy(g, c, threshold=0.5).adopt_projector

    def test_tie_breaks_toward_adoption(self):
        g, c = self.global_and_client(0.5)
        decision = fedu_policy(g, c, threshold=0.5)
        assert decision.backbone_distance == 0.5
        assert decision.adopt_projector

    def test_infinite_threshold_never_fires(self):
        g, c = self.global_and_client(1e9)
        assert fedu_policy(g, c, threshold=float("inf")).adopt_projector

    def test_projector_layers_do_not_count(self):
        g, c = self.global_and_client(0.0)
        # projector differs wildly, backbone identical: distance stays 0
        assert fedu_policy(g, c, threshold=1e-6).backbone_distance == 0.0

    def test_nonpositive_threshold_rejected(self):
        g, c = self.global_and_client(0.0)
        with pytest.raises(ValueError):
            fedu_policy(g, c, threshold=0.0)


class TestRunRound:
    def test_runner_is_freed_without_a_gc_pass(self, tmp_path):
        # A runner must not reference itself: with its datasets and client
        # subsets it would otherwise live until the next full collection.
        cfg = base_config(tmp_path, rounds=1)
        train_ds, test_ds = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        gc.disable()
        try:
            runner = FederatedRunner(cfg, train_ds, parts, test_ds)
            runner.run_round(runner.initial_state())
            ref = weakref.ref(runner)
            del runner
            assert ref() is None
        finally:
            gc.enable()

    def test_noop_training_under_fairavg_is_identity(self, tmp_path):
        cfg = base_config(
            tmp_path,
            partition={"scheme": "iid", "num_clients": 1},
            clients_per_round=1,
            rounds=1,
            trainer={"method": "simclr", "batch_size": 8, "local_epochs": 0},
            aggregation={"strategy": "fairavg"},
        )
        train_ds, test_ds = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        runner = FederatedRunner(cfg, train_ds, parts, test_ds)
        state = runner.initial_state()
        new_state = runner.run_round(state)
        assert new_state.global_params == state.global_params

    def test_identical_clients_fixed_point_for_ldawa(self, tmp_path):
        cfg = base_config(tmp_path, trainer={"method": "simclr", "batch_size": 8, "local_epochs": 0},
                          aggregation={"strategy": "ldawa", "warmup_rounds": 0})
        train_ds, _ = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        runner = FederatedRunner(cfg, train_ds, parts)
        state = runner.initial_state()
        new_state = runner.run_round(state)
        assert np.abs(new_state.global_params.vector - state.global_params.vector).max() < 1e-12
        assert new_state.history[-1].mu_delta_model == 1.0

    def test_scripted_updates_match_brute_force_expansion(self, tmp_path):
        cfg = base_config(
            tmp_path,
            partition={"scheme": "iid", "num_clients": 2},
            clients_per_round=2,
            rounds=1,
            aggregation={"strategy": "ldawa", "warmup_rounds": 0},
        )
        train_ds, _ = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        rng = np.random.default_rng(3)
        layer_shapes = {"a": 3, "b": 2}
        scripted = {
            cid: ps({n: rng.normal(size=s) for n, s in layer_shapes.items()}) for cid in (0, 1)
        }
        global_params = ps({n: rng.normal(size=s) for n, s in layer_shapes.items()})

        def train_fn(r, clients):
            return [ClientUpdate(cid, scripted[cid], 10, 0.5) for cid, _, _ in clients]

        runner = FederatedRunner(cfg, train_ds, parts, train_fn=train_fn)
        from fedsim.engine import RunState

        state = RunState(global_params=global_params)
        new_state = runner.run_round(state)

        # brute-force scalar expansion of the layer-wise double sum
        for name, size in layer_shapes.items():
            g = global_params[name]
            acc = np.zeros(size)
            for cid in (0, 1):
                c = scripted[cid][name]
                delta = float(np.dot(g, c) / (np.linalg.norm(g) * np.linalg.norm(c)))
                acc += delta * c / 2.0
            np.testing.assert_allclose(new_state.global_params[name], acc, atol=1e-12)

    def test_failing_client_is_named(self, tmp_path):
        cfg = base_config(tmp_path)
        train_ds, _ = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)

        def train_fn(r, clients):
            for cid, _, _ in clients:
                if cid == 1:
                    raise ClientTrainingError(cid, "boom")
            return [ClientUpdate(cid, init, 1, 0.0) for cid, _, init in clients]

        runner = FederatedRunner(cfg, train_ds, parts, train_fn=train_fn)
        with pytest.raises(RuntimeError, match="client 1"):
            runner.run_round(runner.initial_state())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_training_step_names_round_client_and_layer(self, tmp_path):
        # lr * (g + wd*w) overflows on the first step of every client.
        cfg = base_config(tmp_path, trainer={"method": "simclr", "batch_size": 8, "lr": 10.0, "weight_decay": 1e308})
        train_ds, _ = build_datasets(cfg)
        runner = FederatedRunner(cfg, train_ds, partition(train_ds, cfg.partition))
        with pytest.raises(RuntimeError) as info:
            runner.run_round(runner.initial_state())
        assert str(info.value) == (
            "round 0: training failed for client 0: layer 'encoder.0.weight' contains non-finite values"
        )
        assert isinstance(info.value.__cause__, ValueError)


class TestFailureAttribution:
    """A round trains its clients together but names the client a one-by-one loop would."""

    def runner(self, tmp_path, fail_at):
        """Four clients of 15 samples; client c's batch number fail_at[c] holds an infinite feature."""
        cfg = base_config(
            tmp_path,
            partition={"scheme": "iid", "num_clients": 4},
            clients_per_round=4,
            trainer={"method": "supervised", "batch_size": 4, "local_epochs": 1},
            model={"encoder_dims": [4, 8, 4], "projector_dims": [], "head_classes": 3},
            aggregation={"strategy": "fedavg"},
        )
        train_ds, _ = build_datasets(cfg)
        runner = FederatedRunner(cfg, train_ds, partition(train_ds, cfg.partition))
        for cid, step in fail_at.items():
            data = runner.client_data[cid]
            # the client's round-0 shuffle, drawn first from its own training stream
            order = derived_rng(cfg.run_seed, _TAG_TRAIN, 0, cid).permutation(len(data))
            features = data.features.copy()
            features[order[4 * step]] = np.inf
            runner.client_data[cid] = dataclasses.replace(data, features=features)
        return runner

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_only_overflowing_client_is_named(self, tmp_path):
        runner = self.runner(tmp_path, {2: 0})
        with pytest.raises(RuntimeError) as info:
            runner.run_round(runner.initial_state())
        assert str(info.value) == (
            "round 0: training failed for client 2: layer 'encoder.0.weight' contains non-finite values"
        )
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_earlier_client_in_round_order_wins_over_earlier_step(self, tmp_path):
        # client 3 fails on its first step, client 1 only on its third; a client-by-client
        # loop trains client 1 first, so it is the one named
        runner = self.runner(tmp_path, {1: 2, 3: 0})
        with pytest.raises(RuntimeError, match=r"^round 0: training failed for client 1: layer '"):
            runner.run_round(runner.initial_state())


class TestRunExperiment:
    def test_zero_epoch_single_client_round_trip(self, tmp_path):
        cfg = base_config(
            tmp_path,
            partition={"scheme": "iid", "num_clients": 1},
            clients_per_round=1,
            rounds=1,
            trainer={"method": "simclr", "batch_size": 8, "local_epochs": 0},
            aggregation={"strategy": "fairavg"},
        )
        result = run_experiment(cfg)
        init = load_checkpoint(result.initial_checkpoint)
        final = load_checkpoint(result.final_checkpoint)
        assert init == final

    def test_artifacts_written(self, tmp_path):
        cfg = base_config(tmp_path)
        result = run_experiment(cfg)
        out = result.output_dir
        for name in ("run.json", "partition.json", "rounds.csv", "checkpoint_init.bin", "checkpoint_final.bin"):
            assert (out / name).exists()
        lines = (out / "rounds.csv").read_text().strip().splitlines()
        assert len(lines) == cfg.rounds + 1

    def test_telemetry_marks_warmup_switch(self, tmp_path):
        cfg = base_config(tmp_path, rounds=4, aggregation={"strategy": "ldawa", "warmup_rounds": 2})
        result = run_experiment(cfg)
        strategies = [rec.strategy_effective for rec in result.state.history]
        assert strategies == ["fedavg", "fedavg", "ldawa", "ldawa"]

    def test_deterministic_across_runs(self, tmp_path):
        cfg_a = base_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = base_config(tmp_path, output_dir=str(tmp_path / "b"))
        res_a = run_experiment(cfg_a)
        res_b = run_experiment(cfg_b)
        assert res_a.rounds_csv.read_bytes() == res_b.rounds_csv.read_bytes()
        assert res_a.final_checkpoint.read_bytes() == res_b.final_checkpoint.read_bytes()

    def test_round_purity_reproduces_recorded_global(self, tmp_path):
        from fedsim.aggregation import aggregate

        cfg = base_config(tmp_path, rounds=1, aggregation={"strategy": "ldawa", "warmup_rounds": 0})
        train_ds, _ = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        captured = {}

        runner = FederatedRunner(cfg, train_ds, parts)
        original_fn = runner._default_train

        def capturing(r, clients):
            ups = original_fn(r, clients)
            captured.update((up.client_id, up) for up in ups)
            return ups

        runner.train_fn = capturing
        state = runner.initial_state()
        new_state = runner.run_round(state)
        redone, _ = aggregate(cfg.aggregation, 0, state.global_params, list(captured.values()))
        assert redone == new_state.global_params

    def test_fedu_retains_client_projectors(self, tmp_path):
        cfg = base_config(
            tmp_path,
            rounds=3,
            aggregation={"strategy": "ldawa_fedu", "warmup_rounds": 0, "fedu_threshold": 1e-9},
        )
        train_ds, _ = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        runner = FederatedRunner(cfg, train_ds, parts)
        state = runner.initial_state()
        state = runner.run_round(state)
        assert set(state.client_models) == {0, 1, 2}
        state = runner.run_round(state)
        # tiny threshold: every client must have kept its own projector
        assert state.history[-1].fedu_adopted == {0: False, 1: False, 2: False}

    def test_fedu_threshold_none_matches_infinite_threshold_telemetry(self, tmp_path):
        cfg_inf = base_config(
            tmp_path,
            output_dir=str(tmp_path / "inf"),
            aggregation={"strategy": "ldawa_fedu", "fedu_threshold": float("inf")},
        )
        cfg_off = base_config(
            tmp_path,
            output_dir=str(tmp_path / "off"),
            aggregation={"strategy": "ldawa_fedu", "fedu_threshold": None},
        )
        res_inf = run_experiment(cfg_inf)
        res_off = run_experiment(cfg_off)
        assert res_inf.rounds_csv.read_bytes() == res_off.rounds_csv.read_bytes()
        assert res_inf.final_checkpoint.read_bytes() == res_off.final_checkpoint.read_bytes()

    def test_cross_device_probes_final_round(self, tmp_path):
        cfg = base_config(
            tmp_path,
            partition={"scheme": "iid", "num_clients": 6},
            clients_per_round=2,
            rounds=3,
            evaluation={"epochs": 4, "milestones": [2], "probe_every": 2},
        )
        result = run_experiment(cfg)
        probes = [rec.probe_acc for rec in result.state.history]
        assert probes[0] is None
        assert probes[1] is not None  # round index 1 -> 2nd round
        assert probes[2] is not None  # final round always probed

    def test_csv_dataset_end_to_end(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = ["x0,x1,x2,label"]
        for _ in range(60):
            label = int(rng.integers(0, 2))
            base = [3.0 * label, -3.0 * label, 0.0]
            rows.append(",".join(str(v + rng.normal(0, 0.2)) for v in base) + f",{label}")
        csv_path = tmp_path / "train.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        cfg = parse_config(
            {
                "dataset": {"type": "csv", "path": str(csv_path), "num_classes": 2, "test_fraction": 0.25},
                "partition": {"scheme": "iid", "num_clients": 3, "seed": 2},
                "clients_per_round": 3,
                "rounds": 2,
                "trainer": {"method": "supervised", "batch_size": 8, "local_epochs": 1},
                "model": {"encoder_dims": [3, 8, 4], "projector_dims": []},
                "aggregation": {"strategy": "fedavg"},
                "evaluation": {"epochs": 4, "milestones": [2]},
                "run_seed": 11,
                "output_dir": str(tmp_path / "csvrun"),
            }
        )
        train_ds, test_ds = build_datasets(cfg)
        assert len(train_ds) + len(test_ds) == 60
        assert len(test_ds) == 15
        result = run_experiment(cfg)
        assert len(result.state.history) == 2
        assert result.state.history[-1].probe_acc is not None
