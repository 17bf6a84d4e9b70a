"""Experiment configuration: JSON schema, defaults, validation, overrides.

A config file is a JSON object with the sections shown in the README. Every
unknown key is rejected rather than ignored, and the fully resolved config
(defaults included) is echoed into ``run.json`` so a run can be reproduced
from its artifacts alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .aggregation import RULES, AggregationSpec, STRATEGIES
from .evaluation import EvalSpec
from .learners import ModelSpec, TrainerSpec, validate_model_for_trainer
from .partition import PartitionSpec, SCHEMES

# Strategies that get the two-round fedavg warm-up by default: the per-layer ones.
WARMUP_DEFAULT_STRATEGIES = tuple(s for s, (_, scale) in RULES.items() if scale == "layer")
DEFAULT_WARMUP_ROUNDS = 2
DEFAULT_FEDU_THRESHOLD = 0.5


class ConfigError(ValueError):
    """A configuration field is missing, unknown, or invalid."""


@dataclass(frozen=True)
class BlobsConfig:
    num_classes: int
    samples_per_class: int
    dim: int
    spread: float = 1.0
    separation: float = 4.0
    seed: int = 0
    test_samples_per_class: int | None = None  # default: samples_per_class // 5

    @property
    def test_count(self) -> int:
        if self.test_samples_per_class is not None:
            return self.test_samples_per_class
        return max(1, self.samples_per_class // 5)


@dataclass(frozen=True)
class CsvConfig:
    path: str
    num_classes: int
    test_path: str | None = None
    test_fraction: float = 0.2


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated, declarative description of one run."""

    dataset: BlobsConfig | CsvConfig
    partition: PartitionSpec
    clients_per_round: int
    rounds: int
    trainer: TrainerSpec
    model: ModelSpec
    aggregation: AggregationSpec
    evaluation: EvalSpec
    run_seed: int
    output_dir: str
    record_timings: bool = False

    @property
    def total_clients(self) -> int:
        return self.partition.num_clients


class _Section:
    """One config sub-object with strict key checking."""

    def __init__(self, path: str, data: Mapping[str, Any], known: tuple[str, ...]):
        if not isinstance(data, Mapping):
            raise ConfigError(f"{path}: expected an object")
        unknown = [k for k in data if k not in known]
        if unknown:
            raise ConfigError(f"{path}.{unknown[0]}: unknown key")
        self.path = path
        self.data = data

    def require(self, key: str, kind: type):
        if key not in self.data:
            raise ConfigError(f"{self.path}.{key}: required key is missing")
        return self._coerce(key, self.data[key], kind)

    def opt(self, key: str, kind: type, default):
        if key not in self.data or self.data[key] is None:
            return default
        return self._coerce(key, self.data[key], kind)

    def _coerce(self, key: str, value, kind: type):
        if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if kind is int and isinstance(value, int) and not isinstance(value, bool):
            return int(value)
        if kind is bool and isinstance(value, bool):
            return value
        if kind is str and isinstance(value, str):
            return value
        if kind is list and isinstance(value, list):
            return value
        raise ConfigError(f"{self.path}.{key}: expected {kind.__name__}, got {value!r}")


TOP_KEYS = (
    "dataset",
    "partition",
    "clients_per_round",
    "rounds",
    "trainer",
    "model",
    "aggregation",
    "evaluation",
    "run_seed",
    "output_dir",
    "record_timings",
)


def parse_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a raw config dict and fill in defaults."""
    top = _Section("config", raw, TOP_KEYS)

    dataset = _parse_dataset(raw.get("dataset"))
    part = _parse_partition(raw.get("partition"), dataset)
    trainer = _parse_trainer(raw.get("trainer"))
    model = _parse_model(raw.get("model"), dataset, trainer)
    agg = _parse_aggregation(raw.get("aggregation"))
    evaluation = _parse_evaluation(raw.get("evaluation"))

    clients_per_round = top.require("clients_per_round", int)
    rounds = top.require("rounds", int)
    run_seed = top.require("run_seed", int)
    output_dir = top.require("output_dir", str)
    record_timings = top.opt("record_timings", bool, False)

    if rounds < 1:
        raise ConfigError("rounds: must be >= 1")
    if run_seed < 0:
        raise ConfigError("run_seed: must be a non-negative 64-bit integer")
    if not 1 <= clients_per_round <= part.num_clients:
        raise ConfigError(
            f"clients_per_round ({clients_per_round}) must lie in "
            f"[1, partition.num_clients ({part.num_clients})]"
        )

    try:
        validate_model_for_trainer(model, trainer)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    return ExperimentConfig(
        dataset=dataset,
        partition=part,
        clients_per_round=clients_per_round,
        rounds=rounds,
        trainer=trainer,
        model=model,
        aggregation=agg,
        evaluation=evaluation,
        run_seed=run_seed,
        output_dir=output_dir,
        record_timings=record_timings,
    )


def _parse_dataset(raw) -> BlobsConfig | CsvConfig:
    if raw is None:
        raise ConfigError("dataset: required section is missing")
    if not isinstance(raw, Mapping):
        raise ConfigError("dataset: expected an object")
    kind = raw.get("type")
    if kind == "blobs":
        sec = _Section(
            "dataset",
            raw,
            ("type", "num_classes", "samples_per_class", "dim", "spread", "separation", "seed", "test_samples_per_class"),
        )
        cfg = BlobsConfig(
            num_classes=sec.require("num_classes", int),
            samples_per_class=sec.require("samples_per_class", int),
            dim=sec.require("dim", int),
            spread=sec.opt("spread", float, 1.0),
            separation=sec.opt("separation", float, 4.0),
            seed=sec.opt("seed", int, 0),
            test_samples_per_class=sec.opt("test_samples_per_class", int, None),
        )
        if cfg.num_classes < 2:
            raise ConfigError("dataset.num_classes: must be >= 2")
        if cfg.samples_per_class < 1 or cfg.dim < 1:
            raise ConfigError("dataset: samples_per_class and dim must be positive")
        if cfg.spread < 0:
            raise ConfigError("dataset.spread: must be >= 0")
        if cfg.seed < 0:
            raise ConfigError("dataset.seed: must be non-negative")
        return cfg
    if kind == "csv":
        sec = _Section("dataset", raw, ("type", "path", "num_classes", "test_path", "test_fraction"))
        cfg = CsvConfig(
            path=sec.require("path", str),
            num_classes=sec.require("num_classes", int),
            test_path=sec.opt("test_path", str, None),
            test_fraction=sec.opt("test_fraction", float, 0.2),
        )
        if cfg.num_classes < 2:
            raise ConfigError("dataset.num_classes: must be >= 2")
        if not 0 < cfg.test_fraction < 1:
            raise ConfigError("dataset.test_fraction: must lie in (0, 1)")
        return cfg
    raise ConfigError(f"dataset.type: expected 'blobs' or 'csv', got {kind!r}")


def _parse_partition(raw, dataset) -> PartitionSpec:
    if raw is None:
        raise ConfigError("partition: required section is missing")
    sec = _Section(
        "partition",
        raw,
        ("scheme", "num_clients", "alpha", "seed", "allow_class_reuse", "min_samples"),
    )
    scheme = sec.require("scheme", str)
    if scheme not in SCHEMES:
        raise ConfigError(f"partition.scheme: expected one of {SCHEMES}, got {scheme!r}")
    try:
        spec = PartitionSpec(
            scheme=scheme,
            num_clients=sec.require("num_clients", int),
            alpha=sec.opt("alpha", float, None),
            seed=sec.opt("seed", int, 0),
            allow_class_reuse=sec.opt("allow_class_reuse", bool, False),
            min_samples=sec.opt("min_samples", int, 1),
        )
    except ValueError as exc:
        raise ConfigError(f"partition: {exc}") from exc
    if spec.seed < 0:
        raise ConfigError("partition.seed: must be non-negative")
    if (
        scheme == "single_class"
        and not spec.allow_class_reuse
        and spec.num_clients > dataset.num_classes
    ):
        raise ConfigError(
            f"partition.num_clients ({spec.num_clients}) exceeds dataset.num_classes "
            f"({dataset.num_classes}); set partition.allow_class_reuse"
        )
    return spec


def _parse_trainer(raw) -> TrainerSpec:
    if raw is None:
        raise ConfigError("trainer: required section is missing")
    sec = _Section(
        "trainer",
        raw,
        (
            "method",
            "temperature",
            "lambda",
            "lr",
            "momentum",
            "weight_decay",
            "batch_size",
            "local_epochs",
            "augment_noise_std",
            "augment_mask_prob",
        ),
    )
    try:
        return TrainerSpec(
            method=sec.require("method", str),
            temperature=sec.opt("temperature", float, 0.5),
            lambda_offdiag=sec.opt("lambda", float, 5e-3),
            lr=sec.opt("lr", float, 0.03),
            momentum=sec.opt("momentum", float, 0.9),
            weight_decay=sec.opt("weight_decay", float, 1e-4),
            batch_size=sec.opt("batch_size", int, 64),
            local_epochs=sec.opt("local_epochs", int, 1),
            augment_noise_std=sec.opt("augment_noise_std", float, 0.1),
            augment_mask_prob=sec.opt("augment_mask_prob", float, 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"trainer: {exc}") from exc


def _parse_model(raw, dataset, trainer: TrainerSpec) -> ModelSpec:
    raw = raw or {}
    sec = _Section("model", raw, ("encoder_dims", "projector_dims", "activation", "head_classes"))
    if isinstance(dataset, BlobsConfig):
        default_encoder = [dataset.dim, 64, 32]
    else:
        default_encoder = None
    encoder_dims = sec.opt("encoder_dims", list, default_encoder)
    if encoder_dims is None:
        raise ConfigError("model.encoder_dims: required for csv datasets")
    try:
        rep = int(encoder_dims[-1])
    except (IndexError, ValueError, TypeError) as exc:
        raise ConfigError("model.encoder_dims: expected a list of at least two widths") from exc
    default_projector = [rep, 32] if trainer.is_ssl else []
    projector_dims = sec.opt("projector_dims", list, default_projector)
    default_head = None if trainer.is_ssl else dataset.num_classes
    head_classes = sec.opt("head_classes", int, default_head)
    try:
        model = ModelSpec(
            encoder_dims=tuple(int(d) for d in encoder_dims),
            projector_dims=tuple(int(d) for d in projector_dims),
            activation=sec.opt("activation", str, "relu"),
            head_classes=head_classes,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    if not trainer.is_ssl and model.head_classes is not None:
        if model.head_classes < dataset.num_classes:
            raise ConfigError(
                f"model.head_classes ({model.head_classes}) is smaller than "
                f"dataset.num_classes ({dataset.num_classes})"
            )
    return model


def _parse_aggregation(raw) -> AggregationSpec:
    if raw is None:
        raise ConfigError("aggregation: required section is missing")
    sec = _Section(
        "aggregation", raw, ("strategy", "warmup_rounds", "fedu_threshold", "renormalize")
    )
    strategy = sec.require("strategy", str)
    if strategy not in STRATEGIES:
        raise ConfigError(
            f"aggregation.strategy: expected one of {', '.join(STRATEGIES)}, got {strategy!r}"
        )
    default_warmup = DEFAULT_WARMUP_ROUNDS if strategy in WARMUP_DEFAULT_STRATEGIES else 0
    default_threshold = DEFAULT_FEDU_THRESHOLD if strategy == "ldawa_fedu" else None
    threshold = raw.get("fedu_threshold", default_threshold)
    if isinstance(threshold, str):
        # JSON has no infinity literal; accept "inf" spelled out.
        try:
            threshold = float(threshold)
        except ValueError:
            raise ConfigError(f"aggregation.fedu_threshold: not a number: {threshold!r}") from None
    try:
        return AggregationSpec(
            strategy=strategy,
            warmup_rounds=sec.opt("warmup_rounds", int, default_warmup),
            fedu_threshold=None if threshold is None else float(threshold),
            renormalize=sec.opt("renormalize", bool, False),
        )
    except ValueError as exc:
        raise ConfigError(f"aggregation: {exc}") from exc


def _parse_evaluation(raw) -> EvalSpec:
    raw = raw or {}
    sec = _Section(
        "evaluation",
        raw,
        (
            "label_fractions",
            "epochs",
            "lr",
            "momentum",
            "batch_size",
            "milestones",
            "decay_factor",
            "probe_every",
            "eval_seed",
        ),
    )
    try:
        spec = EvalSpec(
            label_fractions=tuple(sec.opt("label_fractions", list, [1.0])),
            epochs=sec.opt("epochs", int, 100),
            lr=sec.opt("lr", float, 0.01),
            momentum=sec.opt("momentum", float, 0.9),
            batch_size=sec.opt("batch_size", int, 128),
            milestones=tuple(sec.opt("milestones", list, [60, 80])),
            decay_factor=sec.opt("decay_factor", float, 0.1),
            probe_every=sec.opt("probe_every", int, 0),
            eval_seed=sec.opt("eval_seed", int, 0),
        )
    except ValueError as exc:
        raise ConfigError(f"evaluation: {exc}") from exc
    if spec.eval_seed < 0:
        raise ConfigError("evaluation.eval_seed: must be non-negative")
    return spec


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo of the config with all defaults applied."""
    if isinstance(cfg.dataset, BlobsConfig):
        dataset = {
            "type": "blobs",
            "num_classes": cfg.dataset.num_classes,
            "samples_per_class": cfg.dataset.samples_per_class,
            "dim": cfg.dataset.dim,
            "spread": cfg.dataset.spread,
            "separation": cfg.dataset.separation,
            "seed": cfg.dataset.seed,
            "test_samples_per_class": cfg.dataset.test_count,
        }
    else:
        dataset = {
            "type": "csv",
            "path": cfg.dataset.path,
            "num_classes": cfg.dataset.num_classes,
            "test_path": cfg.dataset.test_path,
            "test_fraction": cfg.dataset.test_fraction,
        }
    return {
        "dataset": dataset,
        "partition": {
            "scheme": cfg.partition.scheme,
            "num_clients": cfg.partition.num_clients,
            "alpha": cfg.partition.alpha,
            "seed": cfg.partition.seed,
            "allow_class_reuse": cfg.partition.allow_class_reuse,
            "min_samples": cfg.partition.min_samples,
        },
        "clients_per_round": cfg.clients_per_round,
        "rounds": cfg.rounds,
        "trainer": {
            "method": cfg.trainer.method,
            "temperature": cfg.trainer.temperature,
            "lambda": cfg.trainer.lambda_offdiag,
            "lr": cfg.trainer.lr,
            "momentum": cfg.trainer.momentum,
            "weight_decay": cfg.trainer.weight_decay,
            "batch_size": cfg.trainer.batch_size,
            "local_epochs": cfg.trainer.local_epochs,
            "augment_noise_std": cfg.trainer.augment_noise_std,
            "augment_mask_prob": cfg.trainer.augment_mask_prob,
        },
        "model": {
            "encoder_dims": list(cfg.model.encoder_dims),
            "projector_dims": list(cfg.model.projector_dims),
            "activation": cfg.model.activation,
            "head_classes": cfg.model.head_classes,
        },
        "aggregation": {
            "strategy": cfg.aggregation.strategy,
            "warmup_rounds": cfg.aggregation.warmup_rounds,
            "fedu_threshold": cfg.aggregation.fedu_threshold,
            "renormalize": cfg.aggregation.renormalize,
        },
        "evaluation": {
            "label_fractions": list(cfg.evaluation.label_fractions),
            "epochs": cfg.evaluation.epochs,
            "lr": cfg.evaluation.lr,
            "momentum": cfg.evaluation.momentum,
            "batch_size": cfg.evaluation.batch_size,
            "milestones": list(cfg.evaluation.milestones),
            "decay_factor": cfg.evaluation.decay_factor,
            "probe_every": cfg.evaluation.probe_every,
            "eval_seed": cfg.evaluation.eval_seed,
        },
        "run_seed": cfg.run_seed,
        "output_dir": cfg.output_dir,
        "record_timings": cfg.record_timings,
    }


def load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``dotted.key=value`` overrides; values parse as JSON when possible."""
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected dotted.key=value")
        dotted, text = item.split("=", 1)
        keys = dotted.split(".")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        for key in keys[:-1]:
            if key not in node or not isinstance(node[key], dict):
                node[key] = node.get(key) if isinstance(node.get(key), dict) else {}
            node = node[key]
        node[keys[-1]] = value
    return out
