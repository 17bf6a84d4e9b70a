"""Config validation, CLI subcommands, and artifact round-trips."""

import copy
import csv
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim import engine, evaluation
from fedsim.aggregation import STRATEGIES, AggregationSpec, ClientUpdates, aggregate
from fedsim.cli import CHUNK_ROWS, main
from fedsim.divergence import distances
from fedsim.config import ConfigError, apply_overrides, parse_config, resolved_dict
from fedsim.engine import build_datasets
from fedsim.learners import ModelSpec, init_params
from fedsim.params import ParamSet, load_checkpoint, save_checkpoint
from helpers import overridden, summed


def mix(models, coeffs):
    """``weighted_sum`` of one-layer models with one coefficient per model."""
    return summed(np.stack([m.vector for m in models]), models[0].layout, [[c] for c in coeffs])


def minimal_raw(tmp_path, **over):
    raw = {
        "dataset": {"type": "blobs", "num_classes": 3, "samples_per_class": 12, "dim": 4, "spread": 0.5, "seed": 1},
        "partition": {"scheme": "iid", "num_clients": 3, "seed": 2},
        "clients_per_round": 3,
        "rounds": 2,
        "trainer": {"method": "simclr", "batch_size": 8, "local_epochs": 1},
        "model": {"encoder_dims": [4, 6, 3], "projector_dims": [3, 3]},
        "aggregation": {"strategy": "fedavg"},
        "evaluation": {"epochs": 4, "milestones": [2]},
        "run_seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    return overridden(raw, over)


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=20)

# Every kind of JSON value: null, bools, ints (huge ones too), NaN and
# +-Infinity, strings, and lists and objects of those.
SPECIAL_NUMBERS = [float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), 2**64, 0, -1, 0.5, 3.0]
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(SPECIAL_NUMBERS) | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=8,
)

# Valid configs whose keys, between them, are every key of the schema.
SCHEMA_BASES = {
    "blobs": minimal_raw(Path("out"), aggregation={"strategy": "ldawa_fedu"}),
    "csv": {
        **minimal_raw(Path("out"), trainer={"method": "supervised"}, model={"projector_dims": []}),
        "dataset": {"type": "csv", "path": "train.csv", "num_classes": 3, "test_path": None},
    },
}


def schema_paths():
    """(base, key path) for every key of the schema and every section."""
    paths = []
    for base, raw in SCHEMA_BASES.items():
        for key, value in resolved_dict(parse_config(raw)).items():
            if base == "blobs" or key == "dataset":
                paths.append((base, (key,)))
                if isinstance(value, dict):
                    paths += [(base, (key, sub)) for sub in value]
    return paths


def set_path(raw, path, value):
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def readme_config():
    """The README's jsonc config example with its // comments stripped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    return json.loads(re.sub(r"//[^\n]*", "", block))


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        raw = minimal_raw(tmp_path)
        raw["gpu"] = True
        with pytest.raises(ConfigError, match="gpu"):
            parse_config(raw)

    def test_unknown_section_key_rejected(self, tmp_path):
        raw = minimal_raw(tmp_path, trainer={"method": "simclr", "batch_size": 8, "momentumm": 0.9})
        with pytest.raises(ConfigError, match="momentumm"):
            parse_config(raw)

    def test_k_greater_than_m_names_both_fields(self, tmp_path):
        raw = minimal_raw(tmp_path, clients_per_round=5)
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "clients_per_round" in str(err.value)
        assert "num_clients" in str(err.value)

    def test_warmup_defaults_by_strategy(self, tmp_path):
        ldawa = parse_config(minimal_raw(tmp_path, aggregation={"strategy": "ldawa"}))
        fedavg = parse_config(minimal_raw(tmp_path, aggregation={"strategy": "fedavg"}))
        assert ldawa.aggregation.warmup_rounds == 2
        assert fedavg.aggregation.warmup_rounds == 0

    def test_fedu_threshold_defaults(self, tmp_path):
        fedu = parse_config(minimal_raw(tmp_path, aggregation={"strategy": "ldawa_fedu"}))
        assert fedu.aggregation.fedu_threshold == 0.5
        off = parse_config(minimal_raw(tmp_path, aggregation={"strategy": "ldawa_fedu", "fedu_threshold": None}))
        assert off.aggregation.fedu_threshold is None
        inf = parse_config(minimal_raw(tmp_path, aggregation={"strategy": "ldawa_fedu", "fedu_threshold": "inf"}))
        assert inf.aggregation.fedu_threshold == float("inf")

    def test_ssl_projector_enforced(self, tmp_path):
        raw = minimal_raw(tmp_path, model={"encoder_dims": [4, 6, 3], "projector_dims": []})
        with pytest.raises(ConfigError, match="projector"):
            parse_config(raw)

    def test_supervised_defaults_head_from_dataset(self, tmp_path):
        raw = minimal_raw(tmp_path, trainer={"method": "supervised", "batch_size": 8},
                          model={"encoder_dims": [4, 6, 3], "projector_dims": []})
        cfg = parse_config(raw)
        assert cfg.model.head_classes == 3

    def test_overrides_parse_json_values(self, tmp_path):
        raw = minimal_raw(tmp_path)
        out = apply_overrides(raw, ["aggregation.strategy=ldawa", "rounds=7", "evaluation.label_fractions=[0.5,1.0]"])
        cfg = parse_config(out)
        assert cfg.aggregation.strategy == "ldawa"
        assert cfg.rounds == 7
        assert cfg.evaluation.label_fractions == (0.5, 1.0)

    def test_unknown_override_key_rejected(self, tmp_path):
        raw = apply_overrides(minimal_raw(tmp_path), ["aggergation.strategy=ldawa"])
        with pytest.raises(ConfigError, match="aggergation"):
            parse_config(raw)

    def test_malformed_override_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="dotted"):
            apply_overrides(minimal_raw(tmp_path), ["no_equals_sign"])

    def test_type_error_carries_one_path_prefix(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_raw(tmp_path, evaluation={"epochs": 3.0}))
        assert str(err.value) == "evaluation.epochs: expected an integer, got 3.0"

    def test_null_means_the_default(self, tmp_path):
        nulls = minimal_raw(tmp_path, dataset={"spread": None}, trainer={"lr": None}, evaluation=None)
        raw = minimal_raw(tmp_path)
        del raw["dataset"]["spread"], raw["evaluation"]
        assert parse_config(nulls) == parse_config(raw)

    def test_blobs_test_size_resolved_in_the_spec(self, tmp_path):
        cfg = parse_config(minimal_raw(tmp_path))
        assert cfg.dataset.test_samples_per_class == max(1, 12 // 5)
        with pytest.raises(ConfigError, match="dataset: test_samples_per_class must be >= 1"):
            parse_config(minimal_raw(tmp_path, dataset={"test_samples_per_class": 0}))

    def test_probe_rates_may_be_zero(self, tmp_path):
        cfg = parse_config(minimal_raw(tmp_path, evaluation={"lr": 0, "momentum": 0, "decay_factor": 0}))
        assert (cfg.evaluation.lr, cfg.evaluation.momentum, cfg.evaluation.decay_factor) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "over",
        [None, {}, {"trainer": {"method": "barlow_twins", "batch_size": 8}},
         {"aggregation": {"strategy": "ldawa_fedu", "fedu_threshold": None}},
         {"aggregation": {"strategy": "ldawa_fedu", "fedu_threshold": "inf"}},
         {"partition": {"scheme": "dirichlet", "alpha": 0.5}, "record_timings": True}]
        + [{"aggregation": {"strategy": s}} for s in STRATEGIES],
        ids=lambda over: "csv" if over is None else json.dumps(over),
    )
    def test_resolved_dict_round_trips(self, tmp_path, over):
        cfg = parse_config(SCHEMA_BASES["csv"] if over is None else minimal_raw(tmp_path, **over))
        assert parse_config(json.loads(json.dumps(resolved_dict(cfg)))) == cfg

    @pytest.mark.parametrize("base, path", schema_paths(), ids=lambda p: ".".join(p) if isinstance(p, tuple) else p)
    @PROPERTY
    @given(value=JSON_VALUES)
    def test_any_json_value_fails_only_with_config_error(self, base, path, value):
        try:
            parse_config(set_path(SCHEMA_BASES[base], path, value))
        except ConfigError:
            pass

    @PROPERTY
    @given(value=JSON_VALUES)
    def test_any_top_level_value_fails_only_with_config_error(self, value):
        try:
            parse_config(value)
        except ConfigError:
            pass

    def test_readme_example_states_every_key(self):
        raw = readme_config()
        echo = resolved_dict(parse_config(raw))
        assert raw.keys() == echo.keys()
        for key, value in raw.items():
            if isinstance(value, dict):
                assert value.keys() == echo[key].keys(), key


class TestValidateCommand:
    def test_ok_config(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_raw(tmp_path))
        assert main(["validate", "--config", path]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_never_touches_output_dir(self, tmp_path):
        raw = minimal_raw(tmp_path, output_dir=str(tmp_path / "untouched"))
        path = write_config(tmp_path, raw)
        assert main(["validate", "--config", path]) == 0
        assert not (tmp_path / "untouched").exists()

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        raw = minimal_raw(tmp_path, clients_per_round=9)
        path = write_config(tmp_path, raw)
        assert main(["validate", "--config", path]) == 1
        assert "clients_per_round" in capsys.readouterr().err

    def test_projector_and_head_exit_one_with_one_line(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_raw(tmp_path, model={"head_classes": 3}))
        assert main(["validate", "--config", path]) == 1
        assert capsys.readouterr().err == "error: model: a model has a projector or a classifier head, not both\n"

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["aggregation.fedu_threshold=[1]"], "aggregation.fedu_threshold"),
            (['aggregation.fedu_threshold={"a": 1}'], "aggregation.fedu_threshold"),
            (["aggregation.fedu_threshold=true"], "aggregation.fedu_threshold"),
            # a number in a string is no number: only "inf" is spelled out
            *((["aggregation.strategy=ldawa_fedu", f"aggregation.fedu_threshold={text}"], "aggregation.fedu_threshold")
              for text in ('"0.5"', '" 2 "', '"1_0"', '"1e400"')),
            (["model.encoder_dims=[4, Infinity, 3]"], "model.encoder_dims[1]"),
            (["model.projector_dims=[3, Infinity]"], "model.projector_dims[1]"),
            (["evaluation.milestones=[Infinity]"], "evaluation.milestones[0]"),
            (["trainer.lr=NaN"], "trainer.lr"),
            (["dataset.spread=NaN"], "dataset.spread"),
            (["partition.scheme=dirichlet", "partition.alpha=NaN"], "partition.alpha"),
            (["model.encoder_dims=[4.7, 8]", "model.projector_dims=[8, 4]"], "model.encoder_dims[0]"),
            (['evaluation.label_fractions=["0.5"]'], "evaluation.label_fractions[0]"),
            (["evaluation.label_fractions=[true]"], "evaluation.label_fractions[0]"),
            (["output_dir="], "config.output_dir"),
            (['output_dir=""'], "config.output_dir"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_untrusted_value_exits_one_with_one_line(self, tmp_path, capsys, overrides, key):
        path = write_config(tmp_path, minimal_raw(tmp_path))
        argv = ["validate", "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {key}: expected")

    @pytest.mark.parametrize("source", ["file", "override"])
    def test_overlong_integer_names_its_source(self, tmp_path, capsys, source):
        digits = "1" * 5001  # past Python's 4,300-digit limit for int(str)
        path = tmp_path / "config.json"
        argv = ["validate", "--config", str(path)]
        if source == "file":
            path.write_text(json.dumps(minimal_raw(tmp_path)).replace('"rounds": 2', f'"rounds": {digits}'))
            expected = f"error: {path}: invalid JSON (Exceeds the limit (4300 digits)"
        else:
            path.write_text(json.dumps(minimal_raw(tmp_path)))
            argv += ["--set", f"rounds={digits}"]
            expected = "error: override 'rounds': Exceeds the limit (4300 digits)"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(expected)


class TestRunCommand:
    def test_minimal_run_writes_r_rows(self, tmp_path):
        path = write_config(tmp_path, minimal_raw(tmp_path))
        assert main(["run", "--config", path]) == 0
        with open(tmp_path / "out" / "rounds.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2  # header + R rounds

    def test_strategy_override_reflected_in_telemetry(self, tmp_path):
        raw = minimal_raw(tmp_path, rounds=4)
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", path, "--set", "aggregation.strategy=ldawa",
                     "--set", "aggregation.warmup_rounds=2"]) == 0
        with open(tmp_path / "out" / "rounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["strategy_effective"] for r in rows] == ["fedavg", "fedavg", "ldawa", "ldawa"]

    def test_identical_runs_byte_identical(self, tmp_path):
        raw = minimal_raw(tmp_path)
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", path, "--output", str(tmp_path / "r1")]) == 0
        assert main(["run", "--config", path, "--output", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1" / "rounds.csv").read_bytes() == (tmp_path / "r2" / "rounds.csv").read_bytes()

    def test_run_json_is_reusable_config(self, tmp_path):
        path = write_config(tmp_path, minimal_raw(tmp_path))
        assert main(["run", "--config", path]) == 0
        echoed = json.loads((tmp_path / "out" / "run.json").read_text())
        cfg = parse_config(echoed)  # round-trips through the same validator
        assert cfg.rounds == 2

    def test_validation_failure_exits_one(self, tmp_path):
        raw = minimal_raw(tmp_path, rounds=0)
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", path]) == 1

    def test_output_flag_is_the_last_output_dir_override(self, tmp_path):
        path = write_config(tmp_path, minimal_raw(tmp_path))
        a, b = tmp_path / "A", tmp_path / "B"
        assert main(["run", "--config", path, "--set", f"output_dir={a}", "--output", str(b)]) == 0
        assert (b / "rounds.csv").exists() and not a.exists()
        assert json.loads((b / "run.json").read_text())["output_dir"] == str(b)

    @pytest.mark.parametrize(
        "config_value, argv",
        [("", []), (None, ["--set", "output_dir="]), (None, ["--output", ""])],
        ids=["config", "set", "output"],
    )
    def test_empty_output_dir_exits_one_with_one_line(self, tmp_path, monkeypatch, capsys, config_value, argv):
        raw = minimal_raw(tmp_path) if config_value is None else minimal_raw(tmp_path, output_dir=config_value)
        path = write_config(tmp_path, raw)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["run", "--config", path, *argv]) == 1
        err = capsys.readouterr().err
        assert err == "error: config.output_dir: expected a non-empty string, got ''\n"
        assert not list(cwd.iterdir())

    def test_non_finite_csv_cell_exits_naming_the_line(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        rows = [f"{i / 10},{-i / 5},{i % 3}" for i in range(40)]
        rows[4] = "nan,1.0,1"
        data.write_text("x0,x1,label\n" + "\n".join(rows) + "\n")
        raw = {
            **minimal_raw(tmp_path, trainer={"method": "supervised"}, model={"encoder_dims": [2, 4], "projector_dims": []}),
            "dataset": {"type": "csv", "path": str(data), "num_classes": 3},
        }
        code = main(["run", "--config", write_config(tmp_path, raw)])
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert err == f"error: {data}:6: non-finite feature value\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "lr, cause",
        [("1e30", "round 0: linear probe: the linear head diverged to non-finite weights"),
         ("1e200", "round 0: training failed for client 0: non-finite embedding")],
    )
    def test_diverging_run_exits_two_naming_the_cause(self, tmp_path, capsys, lr, cause):
        raw = {
            "dataset": {"type": "blobs", "num_classes": 3, "samples_per_class": 20, "dim": 4},
            "partition": {"scheme": "iid", "num_clients": 2},
            "clients_per_round": 2,
            "rounds": 1,
            "trainer": {"method": "simclr", "batch_size": 8},
            "aggregation": {"strategy": "fedavg"},
            "run_seed": 0,
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", path, "--set", f"trainer.lr={lr}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {cause}")


def checkpoint(tmp_path, name, named):
    params = ParamSet.from_arrays({n: np.asarray(v, dtype=np.float64) for n, v in named.items()})
    path = tmp_path / name
    save_checkpoint(params, path)
    return str(path), params


class TestAggregateCommand:
    def test_fairavg_matches_precomputed_mean(self, tmp_path):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0, 1.0]})
        c1, p1 = checkpoint(tmp_path, "c1.bin", {"w": [2.0, 0.0]})
        c2, p2 = checkpoint(tmp_path, "c2.bin", {"w": [0.0, 2.0]})
        out = tmp_path / "agg.bin"
        assert main(["aggregate", "--global", g, "--client", c1, "--client", c2,
                     "--strategy", "fairavg", "--output", str(out)]) == 0
        expected = mix([p1, p2], [0.5, 0.5])
        assert load_checkpoint(out) == expected
        # divergence report written alongside by default
        entries = json.loads((tmp_path / "agg.bin.divergence.json").read_text())
        assert [e["client_id"] for e in entries] == [0, 1]

    def test_single_layer_ldawa_equals_mdawa(self, tmp_path):
        rng = np.random.default_rng(0)
        g, _ = checkpoint(tmp_path, "g.bin", {"w": rng.normal(size=5)})
        c1, _ = checkpoint(tmp_path, "c1.bin", {"w": rng.normal(size=5)})
        out_l = tmp_path / "l.bin"
        out_m = tmp_path / "m.bin"
        for strategy, out in (("ldawa", out_l), ("mdawa", out_m)):
            assert main(["aggregate", "--global", g, "--client", c1,
                         "--strategy", strategy, "--output", str(out)]) == 0
        a, b = load_checkpoint(out_l), load_checkpoint(out_m)
        assert np.abs(a["w"] - b["w"]).max() < 1e-12

    def test_metadata_required_for_weighted_strategies(self, tmp_path, capsys):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0]})
        c1, _ = checkpoint(tmp_path, "c1.bin", {"w": [1.0]})
        code = main(["aggregate", "--global", g, "--client", c1,
                     "--strategy", "fedavg", "--output", str(tmp_path / "x.bin")])
        assert code == 1
        assert "metadata" in capsys.readouterr().err
        # ldawa needs no metadata, but its warm-up rounds apply fedavg, which does
        warmup = ["aggregate", "--global", g, "--client", c1, "--strategy", "ldawa", "--warmup-rounds", "2",
                  "--output", str(tmp_path / "y.bin")]
        assert main([*warmup, "--round", "0"]) == 1
        assert "--metadata" in capsys.readouterr().err
        assert main([*warmup, "--round", "2"]) == 0
        capsys.readouterr()
        assert main([*warmup, "--round", "-1"]) == 1
        assert capsys.readouterr().err == "error: --round must be >= 0, got -1\n"

    def test_metadata_driven_fedavg_and_report(self, tmp_path):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0, 1.0]})
        c1, p1 = checkpoint(tmp_path, "c1.bin", {"w": [4.0, 0.0]})
        c2, p2 = checkpoint(tmp_path, "c2.bin", {"w": [0.0, 4.0]})
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps([{"num_samples": 3, "train_loss": 0.1},
                                    {"num_samples": 1, "train_loss": 0.2}]))
        out = tmp_path / "agg.bin"
        report = tmp_path / "report.json"
        assert main(["aggregate", "--global", g, "--client", c1, "--client", c2,
                     "--strategy", "fedavg", "--metadata", str(meta),
                     "--output", str(out), "--report", str(report)]) == 0
        expected = mix([p1, p2], [0.75, 0.25])
        assert load_checkpoint(out) == expected
        entries = json.loads(report.read_text())
        assert len(entries) == 2 and {e["client_id"] for e in entries} == {0, 1}


# Layers on both sides of 8,192 parameters, and a small one; each model takes a few, in order.
STREAM_LAYERS = [(3,), (8191,), (8192,), (8193,), (2, 4097), (5, 7)]


class TestStreamedAggregate:
    """``fedsim aggregate`` reads its clients a chunk at a time; the bytes are those of one in-memory block."""

    @PROPERTY
    @given(
        strategy=st.sampled_from(STRATEGIES),
        k=st.integers(1, 20),
        shapes=st.lists(st.sampled_from(STREAM_LAYERS), min_size=1, max_size=3),
        round_index=st.integers(0, 3),
        warmup=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(strategy="ldawa", k=1, shapes=[(8193,)], round_index=0, warmup=0, seed=0)  # one chunk of one row
    @example(strategy="ldawa_loss", k=CHUNK_ROWS, shapes=[(8192,), (3,)], round_index=1, warmup=0, seed=1)
    @example(strategy="mdawa", k=2 * CHUNK_ROWS + 1, shapes=[(8191,), (2, 4097)], round_index=0, warmup=2, seed=2)
    def test_checkpoints_on_disk_give_the_block_bytes(self, strategy, k, shapes, round_index, warmup, seed):
        rng = np.random.default_rng(seed)
        layout = tuple((f"l{i}", shape) for i, shape in enumerate(shapes))
        g = ParamSet(rng.normal(size=sum(math.prod(shape) for shape in shapes)), layout)
        block = g.vector * rng.uniform(-1.0, 2.0, size=(k, 1)) + rng.normal(scale=0.3, size=(k, g.num_params))
        num_samples, train_loss = rng.integers(1, 100, size=k).tolist(), rng.uniform(0.0, 3.0, size=k).tolist()
        spec = AggregationSpec(strategy, warmup_rounds=warmup)
        new_global, div = aggregate(spec, round_index, g, ClientUpdates(tuple(range(k)), block, layout, num_samples,
                                                                       train_loss))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_checkpoint(g, tmp / "g.bin")
            save_checkpoint(new_global, tmp / "expected.bin")
            argv = ["aggregate", "--global", str(tmp / "g.bin"), "--strategy", strategy, "--round", str(round_index),
                    "--warmup-rounds", str(warmup), "--metadata", str(tmp / "meta.json"),
                    "--output", str(tmp / "out.bin"), "--report", str(tmp / "report.json")]
            (tmp / "meta.json").write_text(json.dumps([{"num_samples": n, "train_loss": loss}
                                                       for n, loss in zip(num_samples, train_loss)]))
            for i, row in enumerate(block):
                save_checkpoint(ParamSet(row, layout), tmp / f"c{i}.bin")
                argv += ["--client", str(tmp / f"c{i}.bin")]
            assert main(argv) == 0
            assert (tmp / "out.bin").read_bytes() == (tmp / "expected.bin").read_bytes()
            assert (tmp / "report.json").read_text() == div.to_json(distances(g, block))

    def test_memory_does_not_grow_with_the_client_count(self, tmp_path, capsys):
        # tracemalloc sees numpy's buffers: one (K, P) block of the clients would be the whole bound four times over.
        k, layout = 48, (("a", (100, 200)), ("b", (20_000,)))
        rng = np.random.default_rng(4)
        g = ParamSet(rng.normal(size=40_000), layout)
        save_checkpoint(g, tmp_path / "g.bin")
        argv = ["aggregate", "--global", str(tmp_path / "g.bin"), "--strategy", "ldawa",
                "--output", str(tmp_path / "out.bin")]
        for i in range(k):
            save_checkpoint(ParamSet(g.vector + rng.normal(size=g.num_params), layout), tmp_path / f"c{i}.bin")
            argv += ["--client", str(tmp_path / f"c{i}.bin")]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == f"aggregated {k} clients with ldawa -> {tmp_path / 'out.bin'}\n"
        assert peak < k * g.num_params * 8 / 4


def binary_blob(header, payload=b"", header_len=None):
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    size = len(raw) if header_len is None else header_len
    return b"FSIMPSET" + struct.pack("<IQ", 1, size) + raw + payload


def one_layer(**entry):
    return {"layers": [{"name": "w", "shape": [2], "offset": 0, **entry}]}


MALFORMED_CHECKPOINTS = {
    "truncated_version": b"FSIMPSET\x01\x00",
    "truncated_header_length": b"FSIMPSET" + struct.pack("<I", 1) + b"\x05\x00",
    "header_length_past_eof": binary_blob(b"{}", header_len=1000),
    "header_not_utf8": binary_blob(b"\xff\xfe\xfd"),
    "layer_offset_past_payload": binary_blob(one_layer(offset=8), b"\x00" * 16),
    "layer_negative_offset": binary_blob(one_layer(offset=-8), b"\x00" * 16),
    "layer_size_past_payload": binary_blob(one_layer(shape=[100]), b"\x00" * 16),
    "header_missing_layers": binary_blob({}),
    "header_missing_name": binary_blob({"layers": [{"shape": [2], "offset": 0}]}, b"\x00" * 16),
    "header_missing_shape": binary_blob({"layers": [{"name": "w", "offset": 0}]}, b"\x00" * 16),
    "header_layers_not_a_list": binary_blob({"layers": 5}),
    "json_missing_layers": json.dumps({"format": "fedsim-paramset"}).encode(),
    "json_missing_values": json.dumps(
        {"format": "fedsim-paramset", "layers": [{"name": "w", "shape": [1]}]}
    ).encode(),
    "json_not_an_object": b"[1, 2]",
    "json_checkpoint_no_magic": json.dumps(
        {"format": "fedsim-paramset", "version": 1, "layers": [{"name": "w", "shape": [2], "values": [1.0, 2.0]}]}
    ).encode(),
    "empty_file": b"",
    # header fields are read as save_checkpoint writes them, never coerced
    "layer_shape_a_string": binary_blob(one_layer(shape="2"), b"\x00" * 16),
    "layer_shape_a_float": binary_blob(one_layer(shape=[2.9]), b"\x00" * 16),
    "layer_shape_a_bool": binary_blob(one_layer(shape=[True, 2]), b"\x00" * 16),
    "layer_name_not_a_string": binary_blob(one_layer(name=5), b"\x00" * 16),
    "layer_offset_a_string": binary_blob(one_layer(offset="0"), b"\x00" * 16),
    # layers are stored in order, each starting where the one before it ends
    "layers_out_of_order": binary_blob(
        {"layers": [{"name": "a", "shape": [1], "offset": 8}, {"name": "b", "shape": [1], "offset": 0}]},
        b"\x00" * 16,
    ),
    "layers_overlapping": binary_blob(
        {"layers": [{"name": "a", "shape": [2], "offset": 0}, {"name": "b", "shape": [1], "offset": 8}]},
        b"\x00" * 24,
    ),
    "header_nested_too_deep": binary_blob(b"[" * 100_000),
    # the payload ends the file
    "trailing_bytes": binary_blob(one_layer(), struct.pack("<2d", 1.0, 2.0) + b"\x00" * 12),
}

WRONG_COUNT = "expected a list of 2 client entries"


class TestMalformedInputs:
    @pytest.mark.parametrize("name", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_exits_one_naming_file(self, tmp_path, capsys, name):
        bad = tmp_path / f"{name}.bin"
        bad.write_bytes(MALFORMED_CHECKPOINTS[name])
        c1, _ = checkpoint(tmp_path, "c1.bin", {"w": [1.0, 2.0]})
        code = main(["aggregate", "--global", str(bad), "--client", c1,
                     "--strategy", "fairavg", "--output", str(tmp_path / "x.bin")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and str(bad) in err

    @pytest.mark.parametrize(
        "entries, index",
        [([1, 2], 0), ([{"num_samples": 3}, {"num_samples": None}], 1),
         ([{"train_loss": "high"}, {}], 0), ("[{", None),
         # mistyped values are rejected, not coerced: a float, a bool or a string is no
         # count, and a string is no loss; the message names the entry and the key
         ([{"num_samples": 3.7}, {}], "0: num_samples"), ([{}, {"num_samples": True}], "1: num_samples"),
         ([{"num_samples": "7"}, {}], "0: num_samples"), ([{}, {"train_loss": "0.5"}], "1: train_loss"),
         ([{"train_loss": False}, {}], "0: train_loss"),
         # a count must be positive
         ([{"num_samples": 0}, {}], "0: num_samples"), ([{}, {"num_samples": -3}], "1: num_samples"),
         # a misspelt key is named, not read as absent
         ([{"num_sample": 500}, {"num_samples": 1}], "0: unknown key 'num_sample'"),
         # the file is one list with an entry per client
         ({"clients": [{}, {}]}, WRONG_COUNT), ([{}, {}, {}], WRONG_COUNT)],
    )
    def test_malformed_metadata_exits_one(self, tmp_path, capsys, entries, index):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0]})
        c1, _ = checkpoint(tmp_path, "c1.bin", {"w": [1.0]})
        meta = tmp_path / "meta.json"
        meta.write_text(entries if isinstance(entries, str) else json.dumps(entries))
        code = main(["aggregate", "--global", g, "--client", c1, "--client", c1,
                     "--strategy", "fedavg", "--metadata", str(meta),
                     "--output", str(tmp_path / "x.bin")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and str(meta) in err
        messages = {None: "invalid JSON", WRONG_COUNT: WRONG_COUNT}  # every other row names its entry
        assert messages.get(index, f"client entry {index}") in err

    def test_overlong_integer_in_metadata_names_the_file(self, tmp_path, capsys):
        self.test_malformed_metadata_exits_one(tmp_path, capsys, '[{"num_samples": ' + "1" * 5001 + "}, {}]", None)

    def test_sample_total_beyond_float64_names_the_file(self, tmp_path, capsys):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0]})
        c1, _ = checkpoint(tmp_path, "c1.bin", {"w": [1.0]})
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps([{"num_samples": 2**63 - 1}] * 2))
        out = tmp_path / "x.bin"
        code = main(["aggregate", "--global", g, "--client", c1, "--client", c1,
                     "--strategy", "fedavg", "--metadata", str(meta), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err == f"error: {meta}: num_samples total {2 * (2**63 - 1)} exceeds 2**53, beyond which float64 is inexact\n"

    def test_absent_metadata_keys_take_their_defaults(self, tmp_path):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0]})
        c1, p1 = checkpoint(tmp_path, "c1.bin", {"w": [4.0]})
        c2, p2 = checkpoint(tmp_path, "c2.bin", {"w": [8.0]})
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps([{"num_samples": 3}, {"train_loss": 0.5}]))
        out = tmp_path / "x.bin"
        assert main(["aggregate", "--global", g, "--client", c1, "--client", c2,
                     "--strategy", "fedavg", "--metadata", str(meta), "--output", str(out)]) == 0
        assert load_checkpoint(out) == mix([p1, p2], [0.75, 0.25])

    def test_report_on_the_output_writes_nothing(self, tmp_path, capsys):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0]})
        (tmp_path / "sub").mkdir()
        argv = ["aggregate", "--global", g, "--client", g, "--strategy", "fairavg", "--output", str(tmp_path / "x.bin")]
        assert main([*argv, "--report", str(tmp_path / "sub" / ".." / "x.bin")]) == 1
        assert capsys.readouterr().err == f"error: --report and --output name the same file: {tmp_path / 'x.bin'}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.bin", "sub"]

    @pytest.mark.parametrize("flag", ["--global", "--client", "--metadata"])
    def test_report_on_an_input_writes_nothing(self, tmp_path, capsys, flag):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0]})
        c0, _ = checkpoint(tmp_path, "c0.bin", {"w": [2.0]})
        c1, _ = checkpoint(tmp_path, "c1.bin", {"w": [3.0]})
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps([{"num_samples": 1}] * 2))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        named = {"--global": g, "--client": c0, "--metadata": str(meta)}[flag]
        argv = ["aggregate", "--global", g, "--client", c0, "--client", c1, "--strategy", "ldawa",
                "--metadata", str(meta), "--output", str(tmp_path / "out.bin")]
        assert main([*argv, "--report", named]) == 1
        assert capsys.readouterr().err == f"error: --report names an input file: {named}\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("flag", ["--client", "--metadata"])
    def test_output_on_a_client_or_the_metadata_writes_nothing(self, tmp_path, capsys, flag):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0]})
        c0, _ = checkpoint(tmp_path, "c0.bin", {"w": [2.0]})
        c1, _ = checkpoint(tmp_path, "c1.bin", {"w": [3.0]})
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps([{"num_samples": 1}] * 2))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        named = {"--client": c1, "--metadata": str(meta)}[flag]
        argv = ["aggregate", "--global", g, "--client", c0, "--client", c1, "--strategy", "fedavg",
                "--metadata", str(meta), "--report", str(tmp_path / "r.json")]
        assert main([*argv, "--output", named]) == 1
        assert capsys.readouterr().err == f"error: --output names a --client or --metadata file: {named}\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_output_on_the_global_updates_it_in_place(self, tmp_path):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0]})
        c0, p0 = checkpoint(tmp_path, "c0.bin", {"w": [2.0]})
        assert main(["aggregate", "--global", g, "--client", c0, "--strategy", "fairavg", "--output", g]) == 0
        assert load_checkpoint(g) == p0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_checkpoint_that_fails_removes_only_a_report_file(self, tmp_path, capsys):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0]})
        pipe = tmp_path / "report.pipe"
        os.mkfifo(pipe)
        reader = threading.Thread(target=pipe.read_bytes)  # opening a pipe to write waits for its reader
        reader.start()
        argv = ["aggregate", "--global", g, "--client", g, "--strategy", "fairavg",
                "--output", str(tmp_path / "nodir" / "x.bin"), "--report", str(pipe)]
        assert main(argv) == 2
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert "No such file or directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.bin", "report.pipe"]


class TestProbeCommand:
    def test_probe_final_checkpoint(self, tmp_path, capsys):
        raw = minimal_raw(tmp_path)
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", path]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "out" / "checkpoint_final.bin"
        assert main(["probe", "--config", path, "--checkpoint", str(ckpt), "--fraction", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fraction,accuracy")
        value = float(out.strip().splitlines()[-1].split(",")[1])
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize(
        "model",
        [ModelSpec((4, 6, 3), projector_dims=(3, 7)), ModelSpec((4, 6, 3), head_classes=5)],
        ids=["other_projector", "head"],
    )
    def test_matching_encoder_probes_whatever_follows_it(self, tmp_path, capsys, model):
        path = write_config(tmp_path, minimal_raw(tmp_path))  # encoder [4, 6, 3], projector [3, 3]
        ckpt = tmp_path / "other.bin"
        save_checkpoint(init_params(model, np.random.default_rng(0)), ckpt)
        assert main(["probe", "--config", path, "--checkpoint", str(ckpt), "--fraction", "1.0"]) == 0
        assert capsys.readouterr().out.startswith("fraction,accuracy\n1.0,")

    FRACTIONS = ("1.0", "0.5", "0.25")

    def probe_argv(self, tmp_path, *fractions):
        path = write_config(tmp_path, minimal_raw(tmp_path))
        ckpt = tmp_path / "init.bin"
        if not ckpt.exists():
            save_checkpoint(init_params(ModelSpec((4, 6, 3), projector_dims=(3, 3)), np.random.default_rng(1)), ckpt)
        return ["probe", "--config", path, "--checkpoint", str(ckpt)] + [a for f in fractions for a in ("--fraction", f)]

    def test_several_fractions_check_and_encode_the_test_set_once(self, tmp_path, capsys, monkeypatch):
        test_features = build_datasets(parse_config(minimal_raw(tmp_path)))[1].features
        calls = {"test_passes": 0, "layer_checks": 0}
        encode, require_layers = evaluation.encode, evaluation.require_layers

        def counting_encode(params, spec, x):
            calls["test_passes"] += np.array_equal(x, test_features)
            return encode(params, spec, x)

        def counting_require_layers(params, spec):
            calls["layer_checks"] += 1
            return require_layers(params, spec)

        monkeypatch.setattr(evaluation, "encode", counting_encode)
        monkeypatch.setattr(evaluation, "require_layers", counting_require_layers)
        assert main(self.probe_argv(tmp_path, *self.FRACTIONS)) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + len(self.FRACTIONS)
        assert calls == {"test_passes": 1, "layer_checks": 1}

    def test_several_fractions_print_what_separate_calls_print(self, tmp_path, capsys):
        lines = ["fraction,accuracy"]
        for fraction in self.FRACTIONS:
            assert main(self.probe_argv(tmp_path, fraction)) == 0
            header, line = capsys.readouterr().out.splitlines()
            lines.append(line)
        assert main(self.probe_argv(tmp_path, *self.FRACTIONS)) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "layers, message",
        [({"w": [1.0, 2.0]}, "missing layer 'encoder.0.weight'"),
         ({"encoder.0.weight": np.zeros((5, 6))}, "layer 'encoder.0.weight': shape (5, 6), expected (4, 6)")],
        ids=["no_encoder", "misshaped_encoder"],
    )
    def test_other_encoder_exits_two_naming_the_layer(self, tmp_path, capsys, layers, message):
        path = write_config(tmp_path, minimal_raw(tmp_path))
        ckpt, _ = checkpoint(tmp_path, "other.bin", layers)
        assert main(["probe", "--config", path, "--checkpoint", ckpt]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCompareCommand:
    def run_once(self, tmp_path, name, strategy):
        raw = minimal_raw(tmp_path, output_dir=str(tmp_path / name), aggregation={"strategy": strategy})
        path = write_config(tmp_path, raw, name=f"{name}.json")
        assert main(["run", "--config", path]) == 0

    def test_two_runs_merge_to_2r_rows(self, tmp_path):
        self.run_once(tmp_path, "runA", "fedavg")
        self.run_once(tmp_path, "runB", "fairavg")
        out = tmp_path / "merged.csv"
        assert main(["compare", str(tmp_path / "runA"), str(tmp_path / "runB"), "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 runs x 2 rounds
        assert {r["run_name"] for r in rows} == {"runA", "runB"}
        assert set(rows[0]) == {"run_name", "round", "accuracy", "mu_delta", "mean_local_loss", "agg_time_ms"}

    def test_single_run_passthrough(self, tmp_path):
        self.run_once(tmp_path, "solo", "fedavg")
        out = tmp_path / "merged.csv"
        assert main(["compare", str(tmp_path / "solo"), "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and rows[0]["run_name"] == "solo"

    def test_short_rows_write_empty_cells_and_blank_lines_are_skipped(self, tmp_path):
        run = tmp_path / "short"
        run.mkdir()
        header = "round,strategy_effective,mu_delta_model,mu_delta_layer,mean_local_loss,agg_time_ms,probe_acc"
        (run / "rounds.csv").write_text(header + "\n0,fedavg,0.5\n\n1,fedavg,0.25,0.1,2.0,3.0,0.75\n")
        out = tmp_path / "merged.csv"
        assert main(["compare", str(run), "--output", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["short,0,,0.5,,", "short,1,0.75,0.25,2.0,3.0"]

    def test_output_on_an_input_rounds_csv_writes_nothing(self, tmp_path, capsys):
        run = tmp_path / "run1"
        run.mkdir()
        header = "round,strategy_effective,mu_delta_model,mu_delta_layer,mean_local_loss,agg_time_ms,probe_acc"
        (run / "rounds.csv").write_text(header + "\n0,fedavg,0.5,0.5,1.0,0.0,\n")
        assert main(["compare", str(run), str(run), "--output", str(run / "rounds.csv")]) == 1
        assert capsys.readouterr().err == f"error: --output names an input's rounds.csv: {run / 'rounds.csv'}\n"
        assert main(["compare", str(run), "--output", str(tmp_path / "merged.csv")]) == 0
        assert (run / "rounds.csv").read_text() == header + "\n0,fedavg,0.5,0.5,1.0,0.0,\n"


def _contract_fixture(tmp_path):
    """A valid config, checkpoint and run directory for the error cases to break one piece of."""
    write_config(tmp_path, minimal_raw(tmp_path))
    checkpoint(tmp_path, "good.bin", {"w": [1.0, 2.0]})
    checkpoint(tmp_path, "other.bin", {"w": [3.0, 4.0]})
    save_checkpoint(init_params(ModelSpec((4, 6, 3), projector_dims=(3, 3)), np.random.default_rng(0)),
                    tmp_path / "model.bin")  # the config's model
    (tmp_path / "malformed.bin").write_bytes(MALFORMED_CHECKPOINTS["header_not_utf8"])
    checkpoint(tmp_path, "longer.bin", {"w": [1.0, 2.0, 3.0]})
    checkpoint(tmp_path, "huge.bin", {"w": [1e300, 1e300]})  # finite, but its squared norm overflows
    checkpoint(tmp_path, "far.bin", {"w": [1e154]})
    checkpoint(tmp_path, "opposed.bin", {"w": [-1e154]})  # its squared distance to far.bin, (2e154)**2, overflows
    (tmp_path / "nan.bin").write_bytes(binary_blob(one_layer(), struct.pack("<2d", 1.0, float("nan"))))
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "unknown_key.json").write_text(json.dumps({**minimal_raw(tmp_path), "bogus": 1}))
    (tmp_path / "meta.json").write_text(json.dumps([{"num_samples": "many"}]))
    rows = [f"{i / 10},{-i / 5},{i % 3}" for i in range(40)]
    rows[4] = "nan,1.0,1"
    (tmp_path / "train.csv").write_text("x0,x1,label\n" + "\n".join(rows) + "\n")
    (tmp_path / "nocol").mkdir()
    (tmp_path / "nocol" / "rounds.csv").write_text("round,foo\n0,1\n")
    (tmp_path / "norun").mkdir()
    (tmp_path / "run").mkdir()
    header = "round,strategy_effective,mu_delta_model,mu_delta_layer,mean_local_loss,agg_time_ms,probe_acc"
    (tmp_path / "run" / "rounds.csv").write_text(header + "\n0,fedavg,0.5,0.5,1.0,0.0,\n")
    (tmp_path / "latin1.csv").write_bytes(b"x0,x1,label\n0.5,-1.0,0\n0.5,\xff,1\n")
    (tmp_path / "latin1run").mkdir()
    (tmp_path / "latin1run" / "rounds.csv").write_bytes(b"round,strategy_effective\n0,fed\xffavg\n")
    (tmp_path / "longcell").mkdir()
    (tmp_path / "longcell" / "rounds.csv").write_text("round,strategy_effective\n0," + "x" * 200_000 + "\n")


CONFIG = "{tmp}/config.json"
CSV_DATASET = 'dataset={"type": "csv", "path": "{tmp}/train.csv", "num_classes": 3}'


def _probe(ckpt):
    return ["probe", "--config", CONFIG, "--checkpoint", ckpt]


def _validate(*overrides):
    return ["validate", "--config", CONFIG] + [arg for o in overrides for arg in ("--set", o)]


SUPERVISED = ('trainer.method="supervised"', "model.projector_dims=[]")


def _aggregate(global_ckpt, client, *extra):
    return ["aggregate", "--global", global_ckpt, "--client", client, "--strategy", "fairavg",
            "--output", "{tmp}/agg.bin", *extra]


# case -> (argv, with {tmp} for the test directory; exit code; a piece of the one error line that
# names the cause). The fixture above makes the files.
ERROR_PATHS = {
    "config_bad_json": (["validate", "--config", "{tmp}/bad.json"], 1, "invalid JSON"),
    "config_unknown_key": (["validate", "--config", "{tmp}/unknown_key.json"], 1, "unknown key 'bogus'"),
    "config_bad_set": (["validate", "--config", CONFIG, "--set", "rounds"], 1, "expected dotted.key=value"),
    "config_nested_too_deep": (["validate", "--config", "{tmp}/deep.json"], 1, "deep.json: invalid JSON"),
    "config_set_nested_too_deep": (
        ["validate", "--config", CONFIG, "--set", "rounds=" + "[" * 100_000], 1, "override 'rounds'",
    ),
    "config_fedu_threshold_without_fedu": (
        ["validate", "--config", CONFIG, "--set", "aggregation.fedu_threshold=0.3"], 1,
        "aggregation: fedu_threshold applies only to strategy 'ldawa_fedu', not 'fedavg'",
    ),
    "config_top_level_list": (
        ["validate", "--config", "{tmp}/meta.json"], 1, "meta.json: top level must be a JSON object",
    ),
    "config_unknown_activation": (_validate('model.activation="swish"'), 1, "model: unknown activation 'swish'"),
    "config_one_width_projector": (
        _validate("model.projector_dims=[3]"), 1, "model: projector_dims must list input and output widths",
    ),
    "config_zero_width": (_validate("model.encoder_dims=[4, 0, 3]"), 1, "model: all layer widths must be positive"),
    "config_one_head_class": (
        _validate(*SUPERVISED, "model.head_classes=1"), 1, "model: head_classes must be >= 2",
    ),
    "config_head_below_num_classes": (
        _validate(*SUPERVISED, "model.head_classes=2"), 1,
        "model.head_classes (2) is smaller than dataset.num_classes (3)",
    ),
    "config_csv_without_encoder_dims": (
        _validate('model={"projector_dims": [3, 3]}', CSV_DATASET), 1, "model.encoder_dims: required for csv datasets",
    ),
    "config_unknown_trainer_method": (_validate('trainer.method="byol"'), 1, "trainer: unknown trainer method 'byol'"),
    "config_negative_local_epochs": (
        _validate("trainer.local_epochs=-1"), 1, "trainer: local_epochs must be >= 0",
    ),
    "config_negative_warmup_rounds": (
        _validate("aggregation.warmup_rounds=-1"), 1, "aggregation: warmup_rounds must be >= 0",
    ),
    "config_unknown_partition_scheme": (
        _validate('partition.scheme="shards"'), 1, "partition: unknown scheme 'shards'",
    ),
    "config_no_clients": (_validate("partition.num_clients=0"), 1, "partition: num_clients must be >= 1"),
    "config_dirichlet_without_alpha": (
        _validate('partition.scheme="dirichlet"'), 1, "partition: dirichlet partitioning requires alpha > 0",
    ),
    "config_negative_min_samples": (
        _validate("partition.min_samples=-1"), 1, "partition: min_samples must be >= 0",
    ),
    "config_negative_partition_seed": (_validate("partition.seed=-1"), 1, "partition: seed must be non-negative"),
    "config_single_class_without_reuse": (
        _validate('partition.scheme="single_class"', "partition.num_clients=4", "clients_per_round=4"), 1,
        "partition.num_clients (4) exceeds dataset.num_classes (3); set partition.allow_class_reuse",
    ),
    "config_one_blobs_class": (_validate("dataset.num_classes=1"), 1, "dataset: num_classes must be >= 2"),
    "config_one_csv_class": (
        _validate(CSV_DATASET.replace('"num_classes": 3', '"num_classes": 1')), 1, "dataset: num_classes must be >= 2",
    ),
    "config_negative_spread": (_validate("dataset.spread=-1"), 1, "dataset: spread must be >= 0"),
    "config_negative_dataset_seed": (_validate("dataset.seed=-1"), 1, "dataset: seed must be non-negative"),
    "config_negative_run_seed": (_validate("run_seed=-1"), 1, "config: run_seed must be non-negative"),
    "config_zero_probe_batch": (_validate("evaluation.batch_size=0"), 1, "evaluation: batch_size must be >= 1"),
    "config_negative_milestone": (
        _validate("evaluation.milestones=[-1]"), 1,
        "evaluation: milestones must be strictly increasing and lie in [0, epochs)",
    ),
    "config_negative_eval_seed": (
        _validate("evaluation.eval_seed=-1"), 1, "evaluation: eval_seed must be non-negative",
    ),
    **{
        f"config_negative_probe_{field}": (
            _validate(f"evaluation.{field}=-0.5"), 1, "evaluation: lr, momentum and decay_factor must be >= 0",
        )
        for field in ("lr", "momentum", "decay_factor")
    },
    "config_missing_file": (["run", "--config", "{tmp}/absent.json"], 2, "absent.json"),
    "run_bad_csv": (
        ["run", "--config", CONFIG, "--set", "trainer.method=supervised", "--set", "model.encoder_dims=[2, 4]",
         "--set", "model.projector_dims=[]", "--set", CSV_DATASET],
        1, "train.csv:6: non-finite feature value",
    ),
    "csv_not_utf8": (
        ["run", "--config", CONFIG, "--set", "trainer.method=supervised", "--set", "model.encoder_dims=[2, 4]",
         "--set", "model.projector_dims=[]", "--set", CSV_DATASET.replace("train.csv", "latin1.csv")],
        1, "latin1.csv: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position",
    ),
    "run_empty_output_dir": (["run", "--config", CONFIG, "--set", "output_dir="], 1, "config.output_dir"),
    "run_diverging": (["run", "--config", CONFIG, "--set", "trainer.lr=1e200"], 2, "training failed for client 0"),
    "run_blobs_rows_wrap_int64": (
        ["run", "--config", CONFIG, "--set", "dataset.num_classes=8", "--set", f"dataset.samples_per_class={2**61}"],
        1, f"8 classes of {2**61} samples exceed the {2**63 - 1} rows of an array",
    ),
    "run_blobs_rows_past_int64": (
        ["run", "--config", CONFIG, "--set", f"dataset.samples_per_class={2**63}"], 1,
        f"3 classes of {2**63} samples exceed the {2**63 - 1} rows of an array",
    ),
    "run_blobs_test_rows_wrap_int64": (
        ["run", "--config", CONFIG, "--set", "dataset.num_classes=8", "--set",
         f"dataset.test_samples_per_class={2**61}"],
        1, f"8 classes of {2**61} samples exceed the {2**63 - 1} rows of an array",
    ),
    "validate_blobs_rows_wrap_int64": (
        ["validate", "--config", CONFIG, "--set", "dataset.num_classes=8", "--set", f"dataset.samples_per_class={2**61}"],
        1, f"8 classes of {2**61} samples exceed the {2**63 - 1} rows of an array",
    ),
    "validate_blobs_test_rows_wrap_int64": (
        ["validate", "--config", CONFIG, "--set", "dataset.num_classes=8", "--set",
         f"dataset.test_samples_per_class={2**61}"],
        1, f"8 classes of {2**61} samples exceed the {2**63 - 1} rows of an array",
    ),
    "run_client_too_small": (
        ["run", "--config", CONFIG, "--set", "dataset.samples_per_class=1"], 2,
        "error: round 0: training failed for client 0: cannot assemble a batch of 2 from 1 sample(s)\n",
    ),
    "probe_missing_checkpoint": (_probe("{tmp}/absent.bin"), 2, "absent.bin"),
    "probe_malformed_checkpoint": (_probe("{tmp}/malformed.bin"), 1, "malformed.bin"),
    "probe_mismatched_checkpoint": (_probe("{tmp}/good.bin"), 2, "missing layer 'encoder.0.weight'"),
    "probe_fraction_out_of_range_after_a_good_one": (
        _probe("{tmp}/model.bin") + ["--fraction", "0.5", "--fraction", "2"], 1, "fraction must lie in (0, 1]",
    ),
    "probe_fraction_too_small_after_a_good_one": (
        _probe("{tmp}/model.bin") + ["--fraction", "0.5", "--fraction", "1e-9"], 1,
        "fraction 1e-09 yields 0 samples for 3 classes",
    ),
    "aggregate_missing_checkpoint": (_aggregate("{tmp}/absent.bin", "{tmp}/good.bin"), 2, "absent.bin"),
    "aggregate_malformed_checkpoint": (_aggregate("{tmp}/good.bin", "{tmp}/malformed.bin"), 1, "malformed.bin"),
    "aggregate_mismatched_checkpoint": (
        _aggregate("{tmp}/good.bin", "{tmp}/longer.bin"), 2, "longer.bin: layer 'w': shape mismatch (2,) vs (3,)",
    ),
    "aggregate_non_finite_checkpoint": (
        _aggregate("{tmp}/good.bin", "{tmp}/nan.bin"), 1, "nan.bin: layer 'w' contains non-finite values",
    ),
    "aggregate_divergence_overflows_fairavg": (
        _aggregate("{tmp}/good.bin", "{tmp}/huge.bin"), 1,
        "error: layer 'w': a dot product, squared norm or squared distance of the divergence is not finite",
    ),
    "aggregate_divergence_overflows_ldawa": (
        _aggregate("{tmp}/good.bin", "{tmp}/huge.bin", "--strategy", "ldawa"), 1,  # the last --strategy wins
        "error: layer 'w': a dot product, squared norm or squared distance of the divergence is not finite",
    ),
    "aggregate_distance_overflows": (
        _aggregate("{tmp}/far.bin", "{tmp}/opposed.bin", "--strategy", "ldawa"), 1,
        "error: layer 'w': a dot product, squared norm or squared distance of the divergence is not finite",
    ),
    "aggregate_report_cannot_be_opened": (
        _aggregate("{tmp}/good.bin", "{tmp}/good.bin", "--report", "{tmp}/nodir/r.json"), 2,
        "No such file or directory",
    ),
    "aggregate_output_cannot_be_written": (
        _aggregate("{tmp}/good.bin", "{tmp}/good.bin", "--output", "{tmp}/nodir/agg.bin",
                   "--report", "{tmp}/agg.bin.divergence.json"), 2,
        "No such file or directory",
    ),
    "aggregate_bad_metadata": (
        _aggregate("{tmp}/good.bin", "{tmp}/good.bin", "--metadata", "{tmp}/meta.json"),
        1, "client entry 0: num_samples",
    ),
    "aggregate_metadata_nested_too_deep": (
        _aggregate("{tmp}/good.bin", "{tmp}/good.bin", "--metadata", "{tmp}/deep.json"), 1, "deep.json: invalid JSON",
    ),
    "aggregate_negative_warmup_rounds": (
        _aggregate("{tmp}/good.bin", "{tmp}/good.bin", "--warmup-rounds", "-1"), 1,
        "error: --warmup-rounds must be >= 0, got -1",
    ),
    "aggregate_negative_round": (
        _aggregate("{tmp}/good.bin", "{tmp}/good.bin", "--round", "-1"), 1, "--round must be >= 0",
    ),
    "aggregate_report_is_output": (
        _aggregate("{tmp}/good.bin", "{tmp}/good.bin", "--report", "{tmp}/nocol/../agg.bin"), 1,
        "error: --report and --output name the same file",
    ),
    "aggregate_report_is_input": (
        _aggregate("{tmp}/good.bin", "{tmp}/good.bin", "--report", "{tmp}/nocol/../good.bin"), 1,
        "error: --report names an input file: ",
    ),
    "aggregate_output_is_client": (
        _aggregate("{tmp}/good.bin", "{tmp}/other.bin", "--output", "{tmp}/nocol/../other.bin"), 1,
        "error: --output names a --client or --metadata file: ",
    ),
    "aggregate_output_is_metadata": (
        _aggregate("{tmp}/good.bin", "{tmp}/good.bin", "--metadata", "{tmp}/meta.json", "--output",
                   "{tmp}/nocol/../meta.json"), 1,
        "error: --output names a --client or --metadata file: ",
    ),
    "compare_output_is_input": (
        ["compare", "{tmp}/run", "--output", "{tmp}/nocol/../run/rounds.csv"], 1,
        "error: --output names an input's rounds.csv: ",
    ),
    "compare_missing_rounds_csv": (
        ["compare", "{tmp}/norun", "--output", "{tmp}/merged.csv"], 1, "norun/rounds.csv: no rounds.csv in",
    ),
    "compare_rounds_not_utf8": (
        ["compare", "{tmp}/latin1run", "--output", "{tmp}/merged.csv"], 1,
        "latin1run/rounds.csv: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position",
    ),
    "compare_rounds_cell_too_long": (
        ["compare", "{tmp}/longcell", "--output", "{tmp}/merged.csv"], 1,
        "longcell/rounds.csv:2: field larger than field limit (131072)",
    ),
    "usage_aggregate_round_not_int": (
        _aggregate("{tmp}/good.bin", "{tmp}/good.bin", "--round", "abc"), 1,
        "fedsim aggregate: argument --round: invalid int value: 'abc'",
    ),
    "usage_compare_bad_delta_mode": (
        ["compare", "{tmp}/norun", "--output", "{tmp}/merged.csv", "--delta-mode", "bad"], 1,
        "argument --delta-mode: invalid choice: 'bad'",
    ),
    "usage_unknown_command": (["bogus"], 1, "argument command: invalid choice: 'bogus'"),
    "usage_run_without_config": (["run"], 1, "fedsim run: the following arguments are required: --config"),
    "usage_probe_fraction_not_float": (
        _probe("{tmp}/good.bin") + ["--fraction", "half"], 1, "argument --fraction: invalid float value: 'half'",
    ),
    "compare_missing_column": (
        ["compare", "{tmp}/nocol", "--output", "{tmp}/merged.csv"], 1,
        "missing column 'strategy_effective'; expected schema starts with round,strategy_effective,mu_delta_model",
    ),
}


class TestErrorContract:
    """Every error path of every subcommand: exit 1 or 2, one ``error: `` line on stderr, no traceback."""

    @pytest.mark.parametrize("case", sorted(ERROR_PATHS))
    def test_one_error_line(self, tmp_path, capsys, case):
        _contract_fixture(tmp_path)
        argv, code, cause = ERROR_PATHS[case]
        assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert cause in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert captured.out == ""
        if argv[0] == "aggregate":  # a failed aggregation writes neither its checkpoint nor its report
            assert not (tmp_path / "agg.bin").exists() and not (tmp_path / "agg.bin.divergence.json").exists()

    @pytest.mark.parametrize(
        "raised, cause",
        [(MemoryError("Unable to allocate 7.28 TiB for an array with shape (300000000000, 4) and data type float64"),
          "error: Unable to allocate 7.28 TiB for an array"),
         (MemoryError(), "error: out of memory\n")],
        ids=["numpy", "bare"],
    )
    def test_memory_error_is_one_runtime_error_line(self, tmp_path, capsys, monkeypatch, raised, cause):
        # A stand-in for the allocation: a real one this large may succeed under overcommit and then be killed.
        real = engine.make_blobs

        def make_blobs(num_classes, samples_per_class, *rest):
            if samples_per_class > 10**9:
                raise raised
            return real(num_classes, samples_per_class, *rest)

        monkeypatch.setattr(engine, "make_blobs", make_blobs)
        _contract_fixture(tmp_path)
        argv = ["run", "--config", str(tmp_path / "config.json"), "--set", "dataset.test_samples_per_class=100000000000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(cause) and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["-h"], ["probe", "--help"]], ids=["fedsim", "probe"])
    def test_help_still_prints_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: fedsim") and captured.err == ""


def fedsim_python(*args):
    """A fresh interpreter running ``python *args`` on this checkout's sources; its completed process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, check=True)


class TestImports:
    """Each command imports only the modules it runs, and only ``-v`` configures logging."""

    def test_aggregate_loads_only_the_aggregation_path(self, tmp_path):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0, 2.0], "b": [0.5]})
        c, _ = checkpoint(tmp_path, "c.bin", {"w": [2.0, 1.0], "b": [0.25]})
        argv = ["aggregate", "--global", g, "--client", c, "--client", g, "--strategy", "ldawa",
                "--output", str(tmp_path / "agg.bin")]
        script = (
            "import json, sys\n"
            "from fedsim.cli import main\n"
            f"code = main({argv!r})\n"
            "fedsim = sorted(m for m in sys.modules if m.startswith('fedsim'))\n"
            "print(json.dumps([code, fedsim, 'logging' in sys.modules]))"
        )
        code, modules, logging_loaded = json.loads(fedsim_python("-c", script).stdout.splitlines()[-1])
        assert code == 0
        assert modules == ["fedsim", "fedsim.aggregation", "fedsim.cli", "fedsim.divergence", "fedsim.params",
                           "fedsim.scalars"]
        assert not logging_loaded

    def test_compare_loads_no_engine(self, tmp_path):
        (tmp_path / "run").mkdir()
        header = "round,strategy_effective,mu_delta_model,mu_delta_layer,mean_local_loss,agg_time_ms,probe_acc"
        (tmp_path / "run" / "rounds.csv").write_text(header + "\n0,fedavg,0.5,0.5,1.0,0.0,\n")
        argv = ["compare", str(tmp_path / "run"), "--output", str(tmp_path / "merged.csv")]
        script = (
            "import json, sys\n"
            "from fedsim.cli import main\n"
            f"code = main({argv!r})\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('fedsim'))]))"
        )
        code, modules = json.loads(fedsim_python("-c", script).stdout.splitlines()[-1])
        assert code == 0
        assert modules == ["fedsim", "fedsim.cli", "fedsim.params", "fedsim.partition", "fedsim.scalars"]

    @pytest.mark.parametrize("verbose", [True, False], ids=["verbose", "quiet"])
    def test_only_verbose_logs_each_round(self, tmp_path, verbose):
        config = write_config(tmp_path, minimal_raw(tmp_path, rounds=3))
        out = fedsim_python("-m", "fedsim.cli", *(["-v"] if verbose else []), "run", "--config", config)
        assert out.stdout == f"run complete: 3 rounds -> {tmp_path / 'out'}\n"
        rounds = [f"INFO fedsim.engine: round {r} [fedavg] mu_delta=" for r in range(3)] if verbose else []
        lines = out.stderr.splitlines()
        assert len(lines) == len(rounds) and all(line.startswith(want) for line, want in zip(lines, rounds))
