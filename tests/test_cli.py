"""Config validation, CLI subcommands, and artifact round-trips."""

import csv
import json
import struct

import numpy as np
import pytest

from fedsim.cli import main
from fedsim.config import ConfigError, apply_overrides, parse_config
from fedsim.params import LayerTensor, ParamSet, load_checkpoint, save_checkpoint, weighted_sum


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
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


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


def checkpoint(tmp_path, name, named):
    params = ParamSet(
        tuple(
            LayerTensor(n, np.asarray(v, dtype=np.float64).shape, np.asarray(v, dtype=np.float64))
            for n, v in named.items()
        )
    )
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
        expected = weighted_sum([p1, p2], [0.5, 0.5])
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
        assert np.abs(a.layers[0].values - b.layers[0].values).max() < 1e-12

    def test_incompatible_shapes_exit_two_naming_layer(self, tmp_path, capsys):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0, 2.0]})
        c1, _ = checkpoint(tmp_path, "c1.bin", {"w": [1.0, 2.0, 3.0]})
        code = main(["aggregate", "--global", g, "--client", c1,
                     "--strategy", "fairavg", "--output", str(tmp_path / "x.bin")])
        assert code == 2
        assert "'w'" in capsys.readouterr().err

    def test_metadata_required_for_weighted_strategies(self, tmp_path, capsys):
        g, _ = checkpoint(tmp_path, "g.bin", {"w": [1.0]})
        c1, _ = checkpoint(tmp_path, "c1.bin", {"w": [1.0]})
        code = main(["aggregate", "--global", g, "--client", c1,
                     "--strategy", "fedavg", "--output", str(tmp_path / "x.bin")])
        assert code == 1
        assert "metadata" in capsys.readouterr().err

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
        expected = weighted_sum([p1, p2], [0.75, 0.25])
        assert load_checkpoint(out) == expected
        entries = json.loads(report.read_text())
        assert len(entries) == 2 and {e["client_id"] for e in entries} == {0, 1}


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
}


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
         ([{"train_loss": "high"}, {}], 0), ("[{", None)],
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
        assert ("invalid JSON" if index is None else f"client entry {index}") in err


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

    def test_missing_column_names_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "rounds.csv").write_text("round,foo\n0,1\n")
        assert main(["compare", str(bad), "--output", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert "mu_delta_model" in err

    def test_missing_file_names_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["compare", str(empty), "--output", str(tmp_path / "m.csv")]) == 1
        assert "rounds.csv" in capsys.readouterr().err
