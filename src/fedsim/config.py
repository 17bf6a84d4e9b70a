"""Experiment configuration: JSON schema, defaults, validation, overrides.

The spec dataclasses are the schema: a section's keys are its dataclass's
field names (``trainer.lambda`` is ``TrainerSpec.lambda_offdiag``), checked by
one coercer per field built at import from the annotation. Unknown keys are
rejected; a missing or null key takes its field default or a default derived
from other sections (``aggregation.fedu_threshold`` alone reads null as
"off"). The resolved config, a walk over the same dataclasses, is echoed into
``run.json`` so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import json
import sys
import types
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints

from .aggregation import RULES, AggregationSpec
from .evaluation import EvalSpec
from .learners import ModelSpec, TrainerSpec, validate_model_for_trainer
from .partition import PartitionSpec, _require_rows
from .scalars import SCALARS, ConfigError  # ConfigError is re-exported as fedsim.config.ConfigError

# Strategies that get the two-round fedavg warm-up by default: the per-layer ones.
WARMUP_DEFAULT_STRATEGIES = tuple(s for s, (_, scale) in RULES.items() if scale == "layer")
DEFAULT_WARMUP_ROUNDS = 2
DEFAULT_FEDU_THRESHOLD = 0.5


@dataclass(frozen=True)
class BlobsConfig:
    num_classes: int
    samples_per_class: int
    dim: int
    spread: float = 1.0
    separation: float = 4.0
    seed: int = 0
    test_samples_per_class: int | None = None  # None: samples_per_class // 5, at least 1

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.samples_per_class < 1 or self.dim < 1:
            raise ValueError("samples_per_class and dim must be positive")
        if self.spread < 0:
            raise ValueError("spread must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.test_samples_per_class is None:
            object.__setattr__(self, "test_samples_per_class", max(1, self.samples_per_class // 5))
        if self.test_samples_per_class < 1:
            raise ValueError("test_samples_per_class must be >= 1")
        for count in (self.samples_per_class, self.test_samples_per_class):
            _require_rows(self.num_classes, count)


@dataclass(frozen=True)
class CsvConfig:
    path: str
    num_classes: int
    test_path: str | None = None
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must lie in (0, 1)")


DATASETS = {"blobs": BlobsConfig, "csv": CsvConfig}  # dataset.type -> its section


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

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.run_seed < 0:
            raise ValueError("run_seed must be non-negative")

    @property
    def total_clients(self) -> int:
        return self.partition.num_clients


Coercer = Callable[[Any, str], Any]  # (JSON value, "section.key") -> field value
_ALIASES = {"lambda_offdiag": "lambda"}  # field name -> JSON key, where they differ


def _threshold(value, path: str) -> float:
    # A positive JSON number (Infinity included) or exactly "inf": JSON proper has no infinity literal.
    if value == "inf" or type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(f'{path}: expected a positive number or "inf", got {value!r}')


def _path(value, path: str) -> str:
    if type(value) is str and value:  # "" would put every artifact in the current directory
        return value
    raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")


# Fields whose coercer is not read off the annotation.
_SPECIAL = {(AggregationSpec, "fedu_threshold"): _threshold, (ExperimentConfig, "output_dir"): _path}


def _coercer(hint) -> Coercer:
    origin, args = get_origin(hint), [a for a in get_args(hint) if a is not type(None)]
    if origin in (Union, types.UnionType) and len(args) == 1:
        return _coercer(args[0])  # ``X | None``: null already means the field default
    if origin is tuple:
        item = _coercer(args[0])

        def coerce_list(value, path: str) -> tuple:
            if type(value) is not list:
                raise ConfigError(f"{path}: expected a list, got {value!r}")
            return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

        return coerce_list
    if hint in SCALARS:
        return SCALARS[hint]
    if is_dataclass(hint) or (args and all(is_dataclass(a) for a in args)):
        return lambda value, path: value  # a nested section, read by parse_config
    raise TypeError(f"no config coercion for the annotation {hint!r}")


def _schema(cls, section: str) -> tuple:
    """(section, JSON key -> (field, coercer, path), (field, path) of the keys without a default)."""
    hints = get_type_hints(cls)
    keys, required = {}, []
    for f in fields(cls):
        key = _ALIASES.get(f.name, f.name)
        path = f"{section}.{key}"
        keys[key] = (f.name, _SPECIAL.get((cls, f.name)) or _coercer(hints[f.name]), path)
        if f.default is MISSING and f.default_factory is MISSING:
            required.append((f.name, path))
    return section, keys, tuple(required)


_SECTIONS = {  # each section's dataclass -> the name its keys are reported under
    ExperimentConfig: "config", BlobsConfig: "dataset", CsvConfig: "dataset", PartitionSpec: "partition",
    TrainerSpec: "trainer", ModelSpec: "model", AggregationSpec: "aggregation", EvalSpec: "evaluation",
}
_SCHEMA = {cls: _schema(cls, section) for cls, section in _SECTIONS.items()}


def _read(cls, raw) -> dict[str, Any]:
    """One section's given keys, coerced; a missing or null key is left out."""
    section, schema, _ = _SCHEMA[cls]
    if not isinstance(raw, dict):
        raise ConfigError(f"{section}: expected an object")
    values = {}
    for key, value in raw.items():
        entry = schema.get(key)
        if entry is None:
            raise ConfigError(f"{section}: unknown key {key!r}")
        if value is not None:
            values[entry[0]] = entry[1](value, entry[2])
    return values


def _build(cls, values: dict[str, Any]):
    """The section's dataclass; its own checks fail as one ConfigError naming the section."""
    section, _, required = _SCHEMA[cls]
    for name, path in required:
        if name not in values:
            raise ConfigError(f"{path}: required key is missing")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _section(cls, top: dict[str, Any]):
    return _build(cls, _read(cls, top.get(_SCHEMA[cls][0], {})))


def _dataset(raw) -> BlobsConfig | CsvConfig:
    if not isinstance(raw, dict):
        raise ConfigError("dataset: expected an object")
    kind = raw.get("type")
    cls = DATASETS.get(kind) if type(kind) is str else None
    if cls is None:
        raise ConfigError(f"dataset.type: expected {' or '.join(map(repr, DATASETS))}, got {kind!r}")
    return _build(cls, _read(cls, {k: v for k, v in raw.items() if k != "type"}))


def parse_config(raw: dict[str, Any]) -> ExperimentConfig:
    """Validate a raw config dict and fill in defaults.

    Each section's dataclass checks that section; here are only the defaults
    derived from other sections and the checks that span sections.
    """
    top = _read(ExperimentConfig, raw)
    dataset = _dataset(top.get("dataset", {}))
    part = _section(PartitionSpec, top)
    trainer = _section(TrainerSpec, top)
    evaluation = _section(EvalSpec, top)

    if part.scheme == "single_class" and not part.allow_class_reuse and part.num_clients > dataset.num_classes:
        raise ConfigError(
            f"partition.num_clients ({part.num_clients}) exceeds dataset.num_classes "
            f"({dataset.num_classes}); set partition.allow_class_reuse"
        )

    model = _read(ModelSpec, top.get("model", {}))
    if isinstance(dataset, BlobsConfig):
        model.setdefault("encoder_dims", (dataset.dim, 64, 32))
    elif "encoder_dims" not in model:
        raise ConfigError("model.encoder_dims: required for csv datasets")
    if not trainer.is_ssl:
        model.setdefault("head_classes", dataset.num_classes)
    elif model["encoder_dims"]:
        model.setdefault("projector_dims", (model["encoder_dims"][-1], 32))
    model = _build(ModelSpec, model)
    try:
        validate_model_for_trainer(model, trainer)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    if not trainer.is_ssl and model.head_classes < dataset.num_classes:
        raise ConfigError(
            f"model.head_classes ({model.head_classes}) is smaller than "
            f"dataset.num_classes ({dataset.num_classes})"
        )

    raw_agg = top.get("aggregation", {})
    agg = _read(AggregationSpec, raw_agg)
    if agg.get("strategy") in WARMUP_DEFAULT_STRATEGIES:
        agg.setdefault("warmup_rounds", DEFAULT_WARMUP_ROUNDS)
    if agg.get("strategy") == "ldawa_fedu" and "fedu_threshold" not in raw_agg:
        agg["fedu_threshold"] = DEFAULT_FEDU_THRESHOLD  # an explicit null turns the policy off
    aggregation = _build(AggregationSpec, agg)

    cfg = _build(ExperimentConfig, {**top, "dataset": dataset, "partition": part, "trainer": trainer,
                                    "model": model, "aggregation": aggregation, "evaluation": evaluation})
    if not 1 <= cfg.clients_per_round <= part.num_clients:
        raise ConfigError(
            f"clients_per_round ({cfg.clients_per_round}) must lie in "
            f"[1, partition.num_clients ({part.num_clients})]"
        )
    return cfg


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo of the config (or of one section) with all defaults applied."""
    out = {"type": kind for kind, cls in DATASETS.items() if type(cfg) is cls}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            value = resolved_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[_ALIASES.get(f.name, f.name)] = value
    return out


def load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (ValueError, RecursionError) as exc:  # also an integer past Python's digit limit, bad UTF-8 or deep nesting
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
        except (ValueError, RecursionError) as exc:  # past Python's integer digit limit, or nested too deep
            raise ConfigError(f"override {dotted!r}: {exc}") from exc
        node = out
        for key in keys[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[keys[-1]] = value
    return out
