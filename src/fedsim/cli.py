"""Command-line entry point.

Subcommands: ``run`` (execute an experiment), ``validate`` (check a config
without touching the output directory), ``probe`` (linear-probe a saved
checkpoint), ``aggregate`` (offline aggregation of checkpoints), and
``compare`` (merge the telemetry of several runs into one long CSV).

Exit codes: 0 success, 1 validation or usage error, 2 runtime error. Every
error is one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .aggregation import METADATA_STRATEGIES, AggregationSpec, ClientUpdates, aggregate, effective_strategy
# The other commands import what they run in their bodies, so a cold ``aggregate`` loads no config or training.
from .divergence import distances
from .params import IncompatibleModelError, load_checkpoint, save_checkpoint
from .scalars import SCALARS, ConfigError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# ``aggregate`` reads its clients this many at a time into one buffer: memory flat in K, and no slower than one block.
CHUNK_ROWS = 4


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`ConfigError`: one ``error:`` line and exit 1, not a usage block."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedsim")
    parser.add_argument("-v", "--verbose", action="store_true", help="enable info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment from a config file")
    val_p = sub.add_parser("validate", help="validate a config and exit")
    probe_p = sub.add_parser("probe", help="linear-probe a saved checkpoint")
    for config_p in (run_p, val_p, probe_p):
        config_p.add_argument("--config", required=True)
        config_p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    run_p.add_argument("--output", help="override the config's output directory")
    probe_p.add_argument("--checkpoint", required=True)
    probe_p.add_argument(
        "--fraction", type=float, action="append", default=None,
        help="label fraction(s) to probe; defaults to the config's list",
    )

    agg_p = sub.add_parser("aggregate", help="aggregate client checkpoints offline")
    agg_p.add_argument("--global", dest="global_ckpt", required=True, metavar="CKPT")
    agg_p.add_argument("--client", dest="clients", action="append", required=True, metavar="CKPT")
    agg_p.add_argument("--strategy", required=True)
    agg_p.add_argument("--metadata", help="JSON file with per-client num_samples / train_loss")
    agg_p.add_argument("--round", type=int, default=0, dest="round_index")
    agg_p.add_argument("--warmup-rounds", type=int, default=0)
    agg_p.add_argument("--output", required=True)
    agg_p.add_argument("--report", help="divergence-report JSON path (default: <output>.divergence.json)")

    cmp_p = sub.add_parser("compare", help="merge several runs' rounds.csv files")
    cmp_p.add_argument("run_dirs", nargs="+")
    cmp_p.add_argument("--output", required=True)
    cmp_p.add_argument("--delta-mode", choices=("model", "layer"), default="model")
    return parser


def _load_cfg(args, output_dir: str | None = None):
    from .config import apply_overrides, load_config_file, parse_config
    raw = apply_overrides(load_config_file(args.config), args.overrides)
    if output_dir is not None:
        raw["output_dir"] = output_dir  # --output wins over any --set output_dir
    return parse_config(raw)


def _cmd_run(args) -> int:
    from .engine import run_experiment
    cfg = _load_cfg(args, args.output)
    result = run_experiment(cfg)
    print(f"run complete: {cfg.rounds} rounds -> {result.output_dir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    _load_cfg(args)
    print("config OK")
    return EXIT_OK


def _cmd_probe(args) -> int:
    from .engine import build_datasets
    from .evaluation import linear_probe
    cfg = _load_cfg(args)
    params = load_checkpoint(args.checkpoint)
    train_ds, test_ds = build_datasets(cfg)
    fractions = args.fraction if args.fraction else list(cfg.evaluation.label_fractions)
    accs = linear_probe(params, cfg.model, train_ds, test_ds, cfg.evaluation, fractions)
    print("fraction,accuracy")
    for fraction, acc in zip(fractions, accs):
        print(f"{fraction},{acc}")
    return EXIT_OK


def _count(value, path: str) -> int:
    n = SCALARS[int](value, path)
    if n < 1:
        raise ConfigError(f"{path}: expected a positive integer, got {n!r}")
    return n


# Metadata key -> (value when absent, coercer); values follow the config file's rules.
_METADATA = {"num_samples": (1, _count), "train_loss": (0.0, SCALARS[float])}


def _load_metadata(path, n_clients: int) -> list[tuple[int, float]]:
    """Per-client (num_samples, train_loss) pairs from the metadata JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(meta, list) or len(meta) != n_clients:
        raise ConfigError(
            f"{path}: expected a list of {n_clients} client entries "
            '(e.g. [{"num_samples": 10, "train_loss": 0.5}, ...])'
        )
    pairs = []
    for i, e in enumerate(meta):
        where = f"{path}: client entry {i}"
        if not isinstance(e, dict):
            raise ConfigError(f"{where}: expected an object with num_samples and train_loss, got {e!r}")
        unknown = [key for key in e if key not in _METADATA]
        if unknown:
            raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
        pairs.append(tuple(
            coerce(e[key], f"{where}: {key}") if key in e else default
            for key, (default, coerce) in _METADATA.items()
        ))
    return pairs


def _cmd_aggregate(args) -> int:
    if args.round_index < 0:
        raise ConfigError(f"--round must be >= 0, got {args.round_index}")
    if args.warmup_rounds < 0:
        raise ConfigError(f"--warmup-rounds must be >= 0, got {args.warmup_rounds}")
    report = args.report or f"{args.output}.divergence.json"
    target, output = Path(report).resolve(), Path(args.output).resolve()
    if target == output:
        raise ConfigError(f"--report and --output name the same file: {args.output}")
    inputs = [Path(p).resolve() for p in (*args.clients, args.metadata) if p]
    if target in inputs or target == Path(args.global_ckpt).resolve():
        raise ConfigError(f"--report names an input file: {report}")
    if output in inputs:
        raise ConfigError(f"--output names a --client or --metadata file: {args.output}")
    spec = AggregationSpec(strategy=args.strategy, warmup_rounds=args.warmup_rounds)
    rule = effective_strategy(spec, args.round_index)
    if rule in METADATA_STRATEGIES and not args.metadata:
        raise ConfigError(f"round {args.round_index} applies {rule!r}, which needs per-client --metadata")

    k = len(args.clients)
    num_samples, train_loss = zip(*(_load_metadata(args.metadata, k) if args.metadata else [(1, 0.0)] * k))
    global_params = load_checkpoint(args.global_ckpt)
    try:  # the rows come in chunks, not in ``updates``, so only the metadata can break a rule
        updates = ClientUpdates(tuple(range(k)), None, global_params.layout, num_samples, train_loss)
    except ValueError as exc:
        raise ConfigError(f"{args.metadata}: {exc}") from exc
    buffer, sq_distances = np.empty((min(k, CHUNK_ROWS), global_params.num_params)), []

    def chunks():  # each refills the buffer, which aggregate uses up before it draws the next
        for start in range(0, k, len(buffer)):
            rows = buffer[: k - start]
            for row, path in zip(rows, args.clients[start:]):
                load_checkpoint(path, like=global_params, out=row)
            sq_distances.append(distances(global_params, rows))
            yield rows

    new_global, div = aggregate(spec, args.round_index, global_params, updates, chunks())
    doc = div.to_json(np.concatenate(sq_distances))  # before any write: a distance that overflows leaves no file
    with open(report, "w", encoding="utf-8") as fh:  # and a report that cannot be opened leaves no checkpoint
        try:
            save_checkpoint(new_global, args.output)
        except BaseException:  # nor a checkpoint that cannot be written a report
            fh.close()
            if Path(report).is_file():  # a pipe or device the report named stays
                Path(report).unlink()
            raise
        fh.write(doc)
    print(f"aggregated {k} clients with {args.strategy} -> {args.output}")
    return EXIT_OK


def _read_rounds_csv(path: Path) -> list[dict]:
    """The data rows as dicts keyed by the header; a short row's missing cells read None, blank rows are skipped."""
    from .partition import ROUNDS_CSV_PREFIX, _csv_rows
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            fields, *rows = list(_csv_rows(csv.reader(fh), path)) or [[]]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc
    missing = [c for c in ROUNDS_CSV_PREFIX if c not in fields]
    if missing:
        raise ConfigError(
            f"{path}: missing column {missing[0]!r}; expected schema starts with " + ",".join(ROUNDS_CSV_PREFIX)
        )
    return [dict(zip_longest(fields, row)) for row in rows if row]


def _cmd_compare(args) -> int:
    delta_col = "mu_delta_model" if args.delta_mode == "model" else "mu_delta_layer"
    rows = []
    inputs = [Path(run_dir) / "rounds.csv" for run_dir in args.run_dirs]
    if any(path.resolve() == Path(args.output).resolve() for path in inputs):
        raise ConfigError(f"--output names an input's rounds.csv: {args.output}")
    for run_dir, path in zip(args.run_dirs, inputs):
        if not path.exists():
            raise ConfigError(f"{path}: no rounds.csv in {run_dir}")
        for rec in _read_rounds_csv(path):
            rows.append(
                [
                    Path(run_dir).name,
                    rec["round"],
                    rec["probe_acc"],
                    rec[delta_col],
                    rec["mean_local_loss"],
                    rec["agg_time_ms"],
                ]
            )
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_name", "round", "accuracy", "mu_delta", "mean_local_loss", "agg_time_ms"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows -> {args.output}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "probe": _cmd_probe,
    "aggregate": _cmd_aggregate,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.verbose:  # src/ logs nothing at WARNING or above, so without -v nothing is configured
            import logging
            logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
        # Every stage checks finiteness and names the cause; numpy's warnings would only precede that line.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](args)
    except IncompatibleModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, RuntimeError, MemoryError) as exc:  # numpy's MemoryError names the allocation it could not make
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
