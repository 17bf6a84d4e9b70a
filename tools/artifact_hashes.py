"""Print the sha256 of the byte-reproducible artifacts of a fixed set of small runs.

Usage (from the repository root):

    PYTHONPATH=src python tools/artifact_hashes.py > hashes.txt

The first line is ``# blas-core <name>``: the OpenBLAS kernel numpy runs on
(``unknown`` if it cannot be read), followed by `` OPENBLAS_CORETYPE=<value>``
when that variable is set: a forced kernel can report a name that is not its
own (``Prescott`` reads as ``Katmai``). Divergence reduces through BLAS dot
products, whose bits differ between kernels, and numpy's exp, log and tanh
loops give other bits under another SIMD dispatch, which the header does not
show: with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` 48 of
the 113 artifact lines differ (every ``rounds.csv`` and
``checkpoint_final.bin`` of the SimCLR, supervised and tanh variants) while
the header still reads ``SkylakeX`` (numpy 2.4.6, OpenBLAS 0.3.31, an
AVX-512 x86_64 host). So compare two outputs only when their first lines
match and they ran on the same numpy build with the same SIMD dispatch: the
same CPU features and ``NPY_DISABLE_CPU_FEATURES``. Each further line is
``<variant> seed=<n> <file> <sha256>`` for ``rounds.csv``,
``checkpoint_init.bin`` and ``checkpoint_final.bin`` of every run: the
desk-scale SimCLR runs (fedbench's ``desk_scale_raw``) under fedavg, ldawa,
mdawa and ldawa_fedu, a Barlow Twins run on a Dirichlet partition (uneven
clients, ragged and lone trailing batches), a small supervised cross-device
run from a generated CSV file, and deeper tanh versions of the SimCLR ldawa
and supervised runs (three encoder layers; the SimCLR one with a two-layer
projector and two local epochs), and the supervised run under ldawa_fedu (a
head model has no projector, so the FedU policy's "own projector" is empty),
each at seeds 1, 2 and 3. Then come lines ``offline <strategy> round=<r>
output <sha256>`` and ``offline <strategy> round=<r> report <sha256>`` for
the output checkpoint and the ``--report`` JSON of ``fedsim aggregate`` on
six hand-built client checkpoints, for every strategy at rounds 0 and 5 with
two warm-up rounds. A change that must not alter results leaves the output
of this script identical: run it on both trees and diff the files.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from fedsim import cli
from fedsim.aggregation import STRATEGIES
from fedsim.config import parse_config
from fedsim.engine import run_experiment
from fedsim.learners import ModelSpec, init_params
from fedsim.params import ParamSet, save_checkpoint

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "fedbench"))
from workloads import desk_scale_raw  # noqa: E402

SEEDS = (1, 2, 3)
ARTIFACTS = ("rounds.csv", "checkpoint_init.bin", "checkpoint_final.bin")


def barlow(seed: int) -> dict:
    """Barlow Twins, two local epochs, uneven Dirichlet clients sampled 6 of 12 per round."""
    raw = desk_scale_raw("ldawa", seed)
    raw["dataset"]["samples_per_class"] = 61
    raw["partition"] = {"scheme": "dirichlet", "num_clients": 12, "alpha": 0.5, "seed": seed}
    raw["clients_per_round"] = 6
    raw["rounds"] = 10
    raw["trainer"].update(method="barlow_twins", batch_size=8, local_epochs=2, lr=0.02, augment_mask_prob=0.1)
    raw["evaluation"]["probe_every"] = 5
    return raw


def supervised_csv(seed: int, path: Path) -> dict:
    """Supervised cross-device training from a CSV file on a Dirichlet partition."""
    rng = np.random.default_rng([seed, 7])
    classes, dim = 5, 8
    labels = rng.integers(0, classes, size=400)
    means = rng.normal(0.0, 2.0, size=(classes, dim))
    table = np.column_stack([means[labels] + rng.normal(size=(labels.size, dim)), labels])
    header = ",".join([f"f{j}" for j in range(dim)] + ["label"])
    np.savetxt(path, table, fmt=["%.5f"] * dim + ["%d"], delimiter=",", header=header, comments="")
    return {
        "dataset": {"type": "csv", "path": str(path), "num_classes": classes, "test_fraction": 0.2},
        "partition": {"scheme": "dirichlet", "num_clients": 20, "alpha": 0.1, "seed": seed},
        "clients_per_round": 8,
        "rounds": 10,
        "trainer": {"method": "supervised", "lr": 0.05, "batch_size": 8, "local_epochs": 1},
        "model": {"encoder_dims": [dim, 16, 8]},
        "aggregation": {"strategy": "ldawa_loss"},
        "evaluation": {"epochs": 10, "milestones": [6], "lr": 0.1, "probe_every": 5},
        "run_seed": seed,
    }


def variants(seed: int, work: Path):
    for strategy in ("fedavg", "ldawa", "mdawa"):
        yield strategy, desk_scale_raw(strategy, seed)
    fedu = desk_scale_raw("ldawa_fedu", seed)
    fedu["aggregation"]["fedu_threshold"] = 1.0  # about one client session in five keeps its projector
    yield "ldawa_fedu", fedu
    yield "barlow_twins", barlow(seed)
    yield "supervised_csv", supervised_csv(seed, work / f"train_{seed}.csv")
    deep = desk_scale_raw("ldawa", seed)
    deep["model"] = {"encoder_dims": [16, 32, 24, 16], "projector_dims": [16, 16, 8], "activation": "tanh"}
    deep["rounds"] = 8
    deep["trainer"]["local_epochs"] = 2
    yield "simclr_deep_tanh", deep
    deep = supervised_csv(seed, work / f"train_{seed}.csv")
    deep["model"] = {"encoder_dims": [8, 16, 12, 8], "activation": "tanh"}
    yield "supervised_deep_tanh", deep
    fedu = supervised_csv(seed, work / f"train_{seed}.csv")
    fedu["aggregation"] = {"strategy": "ldawa_fedu", "fedu_threshold": 1.0}  # 7 to 17 of 80 sessions keep
    yield "supervised_fedu", fedu


def blas_core() -> str:
    """The runtime core name of the OpenBLAS that numpy loaded, or ``unknown``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return "unknown"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def offline_clients(work: Path) -> tuple[Path, list[Path], Path]:
    """A global checkpoint, six client checkpoints and their metadata file.

    The clients cover the divergence edge cases: a noisy copy of the global,
    one with all-zero biases, the negated global, a positive multiple of it
    (cosine exactly 1), an unrelated model and a heavily perturbed one.
    """
    spec = ModelSpec(encoder_dims=(6, 5, 4), projector_dims=(4, 3))
    rng = np.random.default_rng(20231)
    glob = init_params(spec, rng)
    other = init_params(spec, np.random.default_rng(20232))

    def build(fn) -> ParamSet:
        return ParamSet.from_arrays({name: fn(name, glob[name]) for name in glob.names})

    clients = [
        build(lambda name, g: 0.9 * g + 0.05 * rng.normal(size=g.shape)),
        build(lambda name, g: 0.0 * g if name.endswith(".bias") else g + 0.1 * rng.normal(size=g.shape)),
        build(lambda name, g: -g),
        build(lambda name, g: 2.0 * g),
        build(lambda name, g: other[name]),
        build(lambda name, g: g + rng.normal(size=g.shape)),
    ]
    global_path = work / "global.bin"
    save_checkpoint(glob, global_path)
    paths = []
    for k, params in enumerate(clients):
        paths.append(work / f"client{k}.bin")
        save_checkpoint(params, paths[-1])
    counts, losses = rng.integers(3, 90, 6), rng.uniform(0.2, 3.0, 6)
    meta = [{"num_samples": int(n), "train_loss": float(x)} for n, x in zip(counts, losses)]
    meta_path = work / "meta.json"
    meta_path.write_text(json.dumps(meta))
    return global_path, paths, meta_path


def offline_lines(work: Path):
    """``fedsim aggregate`` over every strategy at rounds 0 and 5, with two warm-up rounds."""
    global_path, paths, meta_path = offline_clients(work)
    order = (3, 0, 5, 1, 4, 2)  # not in file order
    for strategy in STRATEGIES:
        for round_index in (0, 5):
            out = work / f"agg_{strategy}_{round_index}.bin"
            report = work / f"agg_{strategy}_{round_index}.json"
            argv = ["aggregate", "--global", str(global_path)]
            for k in order:
                argv += ["--client", str(paths[k])]
            argv += [
                "--strategy", strategy, "--metadata", str(meta_path),
                "--round", str(round_index), "--warmup-rounds", "2",
                "--output", str(out), "--report", str(report),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"aggregate {strategy} round {round_index} exited {code}")
            for path, label in ((out, "output"), (report, "report")):
                yield f"offline {strategy} round={round_index} {label} {sha256(path)}"


def main() -> int:
    forced = os.environ.get("OPENBLAS_CORETYPE")
    print(f"# blas-core {blas_core()}" + (f" OPENBLAS_CORETYPE={forced}" if forced is not None else ""))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for seed in SEEDS:
            for name, raw in variants(seed, work):
                out = work / f"{name}_{seed}"
                result = run_experiment(parse_config(dict(copy.deepcopy(raw), output_dir=str(out))))
                for artifact in ARTIFACTS:
                    print(f"{name} seed={seed} {artifact} {sha256(result.output_dir / artifact)}")
                sys.stdout.flush()
        for line in offline_lines(work):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
