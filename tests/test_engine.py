"""Round orchestration: sampling, FedU policy, warm-up telemetry, determinism."""

import dataclasses
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from fedsim import engine
from fedsim.aggregation import AggregationSpec, ClientUpdates
from fedsim.config import parse_config
from fedsim.engine import (
    _TAG_TRAIN,
    FederatedRunner,
    build_datasets,
    derived_rng,
    fedu_start,
    run_experiment,
    sample_clients,
)
from fedsim.evaluation import linear_probe
from fedsim.learners import ClientTrainingError, projector_start
from fedsim.params import ParamSet, load_checkpoint
from fedsim.partition import load_csv, partition
from helpers import overridden, ps
from workloads import desk_scale_raw


def scripted(client_ids, models, num_samples, train_loss):
    """A ``train_fn`` result: the given client models (one layout) as one round block."""
    k = len(client_ids)
    block = np.stack([m.vector for m in models])
    return ClientUpdates(client_ids, block, models[0].layout, [num_samples] * k, [train_loss] * k)


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
    return parse_config(overridden(raw, over))


def write_csv(path, n, seed) -> str:
    """``n`` rows of three features and a 0/1 label, the classes well apart."""
    rng = np.random.default_rng(seed)
    rows = ["x0,x1,x2,label"]
    for _ in range(n):
        label = int(rng.integers(0, 2))
        base = [3.0 * label, -3.0 * label, 0.0]
        rows.append(",".join(str(v + rng.normal(0, 0.2)) for v in base) + f",{label}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def csv_config(tmp_path, dataset):
    """A two-round supervised fedavg run on a CSV ``dataset`` section (its path and test keys)."""
    return parse_config(
        {
            "dataset": {"type": "csv", "num_classes": 2, **dataset},
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


class TestFeduStart:
    SPEC = AggregationSpec("ldawa_fedu", fedu_threshold=0.5)

    def global_and_client(self, backbone_shift):
        g = ps({"encoder.0.weight": [1.0, 0.0], "projector.0.weight": [1.0]})
        c = ps({"encoder.0.weight": [1.0 + backbone_shift, 0.0], "projector.0.weight": [5.0]})
        return g, c

    def test_first_time_client_or_fedu_off_adopts(self):
        g, c = self.global_and_client(1e9)
        assert fedu_start(self.SPEC, g, None) == (g, None)
        assert fedu_start(AggregationSpec("ldawa_fedu"), g, c) == (g, None)

    def test_zero_distance_adopts(self):
        g, c = self.global_and_client(0.0)
        start, distance = fedu_start(self.SPEC, g, c)
        assert start is g
        assert distance == 0.0

    def test_above_threshold_keeps(self):
        g, c = self.global_and_client(0.6)
        start, distance = fedu_start(self.SPEC, g, c)
        assert distance > 0.5
        # the global backbone with the client's own projector
        assert start.layout == g.layout
        assert start.vector.tolist() == [1.0, 0.0, 5.0]

    def test_tie_breaks_toward_adoption(self):
        g, c = self.global_and_client(0.5)
        start, distance = fedu_start(self.SPEC, g, c)
        assert distance == 0.5
        assert start is g

    def test_infinite_threshold_never_fires(self):
        g, c = self.global_and_client(1e9)
        assert fedu_start(AggregationSpec("ldawa_fedu", fedu_threshold=float("inf")), g, c)[0] is g

    def test_projector_layers_do_not_count(self):
        g, c = self.global_and_client(0.0)
        # projector differs wildly, backbone identical: distance stays 0
        start, distance = fedu_start(AggregationSpec("ldawa_fedu", fedu_threshold=1e-6), g, c)
        assert distance == 0.0 and start is g


class TestRunRound:
    def test_runner_is_freed_without_a_gc_pass(self, tmp_path):
        # A runner must not reference itself: with its datasets, client
        # subsets and training workspace it would otherwise live until the
        # next full collection. Two rounds: the second reuses the workspace.
        cfg = base_config(tmp_path, rounds=2)
        train_ds, test_ds = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        gc.disable()
        try:
            runner = FederatedRunner(cfg, train_ds, parts, test_ds)
            runner.run_round(runner.run_round(runner.initial_state()))
            ref = weakref.ref(runner)
            del runner
            assert ref() is None
        finally:
            gc.enable()

    def test_steady_desk_scale_round_allocates_under_a_mebibyte(self, tmp_path):
        # Local training writes into the runner's workspace, sized by the first
        # round; a later round allocates only its results and small temporaries
        # (about 0.5 MiB; 2.6 MiB when every step allocated its own arrays).
        cfg = parse_config(dict(desk_scale_raw("fedavg", 1, rounds=4), output_dir=str(tmp_path / "run")))
        train_ds, test_ds = build_datasets(cfg)
        runner = FederatedRunner(cfg, train_ds, partition(train_ds, cfg.partition), test_ds)
        state = runner.run_round(runner.run_round(runner.initial_state()))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            runner.run_round(state)  # not the last round, so no probe
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_only_the_last_rounds_probe_runs_without_the_training_arrays(self, monkeypatch, tmp_path):
        # the run's peak memory is its last probe's: the workspace it will not use again is freed first
        cfg = base_config(tmp_path, rounds=3, evaluation={"epochs": 4, "milestones": [2], "probe_every": 1})
        train_ds, test_ds = build_datasets(cfg)
        runner = FederatedRunner(cfg, train_ds, partition(train_ds, cfg.partition), test_ds)
        held = []

        def probe(*args):
            held.append(hasattr(runner.workspace, "rows"))
            return linear_probe(*args)

        monkeypatch.setattr(engine, "linear_probe", probe)
        runner.run(runner.initial_state())
        assert held == [True, True, False]

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
        assert new_state.history[-1].div.mean("model") == 1.0

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
        models = {
            cid: ps({n: rng.normal(size=s) for n, s in layer_shapes.items()}) for cid in (0, 1)
        }
        global_params = ps({n: rng.normal(size=s) for n, s in layer_shapes.items()})

        def train_fn(r, clients):
            ids = [cid for cid, _, _ in clients]
            return scripted(ids, [models[cid] for cid in ids], 10, 0.5)

        runner = FederatedRunner(cfg, train_ds, parts, train_fn=train_fn)
        from fedsim.engine import RunState

        state = RunState(global_params=global_params)
        new_state = runner.run_round(state)

        # brute-force scalar expansion of the layer-wise double sum
        for name, size in layer_shapes.items():
            g = global_params[name]
            acc = np.zeros(size)
            for cid in (0, 1):
                c = models[cid][name]
                delta = float(np.dot(g, c) / (np.linalg.norm(g) * np.linalg.norm(c)))
                acc += delta * c / 2.0
            np.testing.assert_allclose(new_state.global_params[name], acc, atol=1e-12)

    def test_rounds_csv_cells_are_the_records_divergence(self, tmp_path):
        cfg = base_config(tmp_path, partition={"scheme": "iid", "num_clients": 5}, clients_per_round=2, rounds=3)
        result = run_experiment(cfg)
        rows = result.rounds_csv.read_text().splitlines()[1:]
        assert len(rows) == len(result.state.history) == 3
        for line, rec in zip(rows, result.state.history):
            cells = line.split(",")
            assert cells[2:4] == [repr(rec.div.mean("model")), repr(rec.div.mean("layer"))]
            present = dict(zip(rec.div.client_ids, rec.div.model))
            assert 0 < len(present) < 5  # some clients sit the round out
            assert cells[7:] == [repr(float(present[k])) if k in present else "" for k in range(5)]

    def test_fedu_client_keeping_its_projector_starts_from_global_backbone(self, tmp_path):
        cfg = base_config(tmp_path, rounds=2, aggregation={"strategy": "ldawa_fedu", "fedu_threshold": 1e-9})
        train_ds, _ = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        inits = {}

        def train_fn(r, clients):
            inits.update({(r, cid): init for cid, _, init in clients})
            return runner._default_train(r, clients)

        runner = FederatedRunner(cfg, train_ds, parts, train_fn=train_fn)
        after_round_0 = runner.run_round(runner.initial_state())
        after_round_1 = runner.run_round(after_round_0)
        assert after_round_1.history[-1].fedu_adopted == dict.fromkeys(range(3), False)
        n = projector_start(after_round_0.global_params.layout)
        assert 0 < n < after_round_0.global_params.num_params
        for cid in range(3):
            own = after_round_0.client_models[cid].vector
            expected = np.concatenate([after_round_0.global_params.vector[:n], own[n:]])
            assert inits[(1, cid)].vector.tobytes() == expected.tobytes()
            assert inits[(1, cid)].vector[n:].tobytes() != after_round_0.global_params.vector[n:].tobytes()

    def test_failing_client_is_named(self, tmp_path):
        cfg = base_config(tmp_path)
        train_ds, _ = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)

        def train_fn(r, clients):
            for cid, _, _ in clients:
                if cid == 1:
                    raise ClientTrainingError(cid, "boom")
            return scripted([cid for cid, _, _ in clients], [init for _, _, init in clients], 1, 0.0)

        runner = FederatedRunner(cfg, train_ds, parts, train_fn=train_fn)
        with pytest.raises(RuntimeError, match="client 1"):
            runner.run_round(runner.initial_state())

    def test_aggregation_failure_names_the_round(self, tmp_path):
        # finite client models whose squared norms overflow float64 in the divergence
        cfg = base_config(tmp_path)
        train_ds, _ = build_datasets(cfg)

        def train_fn(r, clients):
            huge = [ParamSet(np.full(init.num_params, 1e300), init.layout) for _, _, init in clients]
            return scripted([cid for cid, _, _ in clients], huge, 1, 0.0)

        runner = FederatedRunner(cfg, train_ds, partition(train_ds, cfg.partition), train_fn=train_fn)
        with pytest.raises(RuntimeError, match=r"^round 0: aggregation: layer 'encoder.0.weight': a dot product"):
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
        init = load_checkpoint(result.output_dir / "checkpoint_init.bin")
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

    def test_agg_time_cells_are_written_only_when_timings_are_recorded(self, tmp_path):
        timed = run_experiment(base_config(tmp_path, rounds=3, record_timings=True, output_dir=str(tmp_path / "t")))
        plain = run_experiment(base_config(tmp_path, rounds=3))

        def agg_time_cells(result):
            return [line.split(",")[5] for line in result.rounds_csv.read_text().splitlines()[1:]]

        times = [float(cell) for cell in agg_time_cells(timed)]
        assert len(times) == 3 and all(math.isfinite(t) and t > 0 for t in times)
        assert agg_time_cells(plain) == ["0.0"] * 3

    def test_round_purity_reproduces_recorded_global(self, tmp_path):
        from fedsim.aggregation import aggregate

        cfg = base_config(tmp_path, rounds=1, aggregation={"strategy": "ldawa", "warmup_rounds": 0})
        train_ds, _ = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        captured = {}

        runner = FederatedRunner(cfg, train_ds, parts)
        original_fn = runner._default_train

        def capturing(r, clients):
            captured["updates"] = original_fn(r, clients)
            return captured["updates"]

        runner.train_fn = capturing
        state = runner.initial_state()
        new_state = runner.run_round(state)
        redone, _ = aggregate(cfg.aggregation, 0, state.global_params, captured["updates"])
        assert redone == new_state.global_params

    def test_fedu_keeps_a_copy_of_each_trained_row(self, tmp_path):
        captured = {}

        def run_one_round(cfg):
            train_ds, _ = build_datasets(cfg)
            runner = FederatedRunner(cfg, train_ds, partition(train_ds, cfg.partition))

            def capturing(r, clients):
                captured["updates"] = runner._default_train(r, clients)
                return captured["updates"]

            runner.train_fn = capturing
            return runner.run_round(runner.initial_state())

        state = run_one_round(base_config(tmp_path, rounds=1, aggregation={"strategy": "ldawa_fedu"}))
        ups = captured["updates"]
        assert list(state.client_models) == list(ups.client_ids) == [0, 1, 2]
        for cid, row in zip(ups.client_ids, ups.weights):
            kept = state.client_models[cid]
            assert kept.layout == ups.layout and kept.vector.tobytes() == row.tobytes()
            assert not np.shares_memory(kept.vector, ups.weights)
        # without FedU no client model outlives its round
        assert run_one_round(base_config(tmp_path, rounds=1)).client_models == {}

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

    def test_fedu_under_partial_participation(self, tmp_path):
        cfg = base_config(
            tmp_path,
            partition={"scheme": "iid", "num_clients": 6},
            clients_per_round=2,
            rounds=6,
            aggregation={"strategy": "ldawa_fedu", "fedu_threshold": 1e-9},
        )
        train_ds, _ = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        inits, trained = {}, {}

        def train_fn(r, clients):
            inits[r] = {cid: init for cid, _, init in clients}
            updates = runner._default_train(r, clients)
            trained[r] = {cid: row.copy() for cid, row in zip(updates.client_ids, updates.weights)}
            return updates

        runner = FederatedRunner(cfg, train_ds, parts, train_fn=train_fn)
        state = runner.initial_state()
        n = projector_start(state.global_params.layout)
        last = {}  # client id -> its trained model at its last participation
        late_first, returns = 0, {}
        for r in range(cfg.rounds):
            g = state.global_params.vector
            state = runner.run_round(state)
            adopted = state.history[-1].fedu_adopted
            assert sorted(adopted) == sorted(inits[r])
            for cid, init in inits[r].items():
                if cid in last:  # tiny threshold: a returning client always keeps its projector
                    expected = np.concatenate([g[:n], last[cid][n:]])
                    assert not adopted[cid]
                    returns[cid] = returns.get(cid, 0) + 1
                else:
                    expected = g
                    assert adopted[cid]
                    late_first += r > 0
                assert init.vector.tobytes() == expected.tobytes()
            last.update(trained[r])
            assert sorted(state.client_models) == sorted(last)
            for cid, kept in state.client_models.items():
                assert kept.vector.tobytes() == last[cid].tobytes()
        assert late_first > 0
        assert max(returns.values()) >= 2  # some client's last participation is not its first

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
        cfg = csv_config(tmp_path, {"path": write_csv(tmp_path / "train.csv", 60, 8), "test_fraction": 0.25})
        train_ds, test_ds = build_datasets(cfg)
        assert len(train_ds) + len(test_ds) == 60
        assert len(test_ds) == 15
        result = run_experiment(cfg)
        assert len(result.state.history) == 2
        assert result.state.history[-1].probe_acc is not None

    def test_csv_test_file_is_the_probe_test_set(self, tmp_path, monkeypatch):
        train_csv, test_csv = write_csv(tmp_path / "train.csv", 40, 8), write_csv(tmp_path / "test.csv", 13, 9)
        cfg = csv_config(tmp_path, {"path": train_csv, "test_path": test_csv})
        probed = []

        def probe(params, model, train_ds, test_ds, spec, fractions):
            probed.append((train_ds, test_ds))
            return linear_probe(params, model, train_ds, test_ds, spec, fractions)

        monkeypatch.setattr(engine, "linear_probe", probe)
        result = run_experiment(cfg)
        ((train_ds, test_ds),) = probed  # the final round's probe alone
        assert len(test_ds) == 13
        np.testing.assert_array_equal(test_ds.features, load_csv(test_csv, 2).features)
        np.testing.assert_array_equal(train_ds.features, load_csv(train_csv, 2).features)  # not split
        manifest = json.loads((result.output_dir / "partition.json").read_text())
        assert sorted(i for part in manifest.values() for i in part) == list(range(40))
