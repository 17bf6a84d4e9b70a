"""The package namespace re-exports nothing; the names the benchmark reads and traces stay live."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim

ROOT = Path(__file__).resolve().parent.parent


def test_import_fedsim_loads_no_submodule():
    script = "import sys, fedsim; print(*sorted(m for m in sys.modules if m.startswith('fedsim')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["fedsim"]


def test_the_package_namespace_holds_only_submodules():
    public = {name: obj for name, obj in vars(fedsim).items() if not name.startswith("_")}
    assert all(inspect.ismodule(obj) and obj.__name__ == f"fedsim.{name}" for name, obj in public.items()), public


# The names the package namespace once re-exported, each at its one home: fedsim.<module>.<name>.
FORMER_EXPORTS = {
    "aggregation": ("AggregationSpec", "ClientUpdates", "STRATEGIES", "aggregate", "coefficient_matrix",
                    "coeffs_fedavg", "coeffs_loss"),
    "config": ("ExperimentConfig", "parse_config"),
    "divergence": ("Divergence",),
    "engine": ("FederatedRunner", "RunState", "fedu_start", "run_experiment", "sample_clients"),
    "evaluation": ("EvalSpec", "accuracy", "linear_probe"),
    "learners": ("ModelSpec", "TrainerSpec", "forward", "init_params", "loss_barlow", "loss_ntxent",
                 "make_views", "sgd_step", "train_clients"),
    "params": ("ParamSet", "load_checkpoint", "save_checkpoint", "weighted_sum"),
    "partition": ("Dataset", "PartitionSpec", "load_csv", "make_blobs"),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in FORMER_EXPORTS.items() for n in names])
def test_each_former_export_lives_only_in_its_submodule(module, name):
    home = importlib.import_module(f"fedsim.{module}")
    obj = getattr(home, name)
    assert getattr(obj, "__module__", home.__name__) == home.__name__  # defined there, not imported from elsewhere
    assert name not in vars(fedsim) and name not in dir(fedsim)
    with pytest.raises(AttributeError):
        getattr(fedsim, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'fedsim' has no attribute 'no_such_name'"):
        fedsim.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from fedsim import no_such_name", {})


# The benchmark harness reads fedsim by name; a name that stops resolving breaks it with no other test failing.
BENCH = ROOT / "fedbench"


def _fedsim_reads(path: Path) -> set[tuple[str, tuple[str, ...]]]:
    """(module, attribute chain) for each fedsim import of the file and each ``<module>.<name>...`` it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, tuple[str, tuple[str, ...]]] = {}  # local name -> (module, attribute chain)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fedsim":
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                is_module = importlib.util.find_spec(sub) is not None
                bound[alias.asname or alias.name] = (sub, ()) if is_module else (node.module, (alias.name,))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fedsim":
                    reads.add((alias.name, ()))
                    root = alias.name.split(".")[0]
                    bound[alias.asname or root] = (alias.name if alias.asname else root, ())
    reads |= set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            module, prefix = bound[node.id]
            reads.add((module, prefix + tuple(chain)))
    return reads


def _spans_layers() -> tuple[str, ...]:
    """fedbench/spans.py's ``LAYERS``, read from its source: importing it would write under fedbench/."""
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)]
    return ast.literal_eval(value)


@pytest.mark.parametrize("script", ["workloads.py", "run.py"])
def test_every_fedsim_name_the_benchmark_reads_resolves(script):
    reads = _fedsim_reads(BENCH / script)
    assert reads  # each script imports fedsim
    for module, _ in reads:  # every module first, as the script's imports load them before any name is read
        importlib.import_module(module)
    for module, chain in sorted(reads):
        obj = sys.modules[module]
        for i, attr in enumerate(chain):
            assert hasattr(obj, attr), f"{script} reads {'.'.join((module, *chain[: i + 1]))}, which does not resolve"
            obj = getattr(obj, attr)


def test_the_name_finder_sees_what_the_harness_reads():
    assert ("fedsim.engine", ("write_rounds_csv",)) in _fedsim_reads(BENCH / "workloads.py")
    assert ("fedsim.params", ("ParamSet", "from_arrays")) in _fedsim_reads(BENCH / "workloads.py")


def test_every_traced_layer_is_a_fedsim_module():
    layers = _spans_layers()
    assert layers
    for layer in layers:
        importlib.import_module(f"fedsim.{layer}")


def _span_table() -> set[str]:
    """fedbench/run.py's ``SPAN_METRICS`` keys, read from its source; ``**{f"<prefix>{tag}": ...}`` reads as ``<prefix>*``."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "SPAN_METRICS" for t in node.targets)]
    return {key.value if key else value.key.values[0].value + "*" for key, value in zip(table.keys, table.values)}


def _traced(layer: str, name: str) -> bool:
    """Whether the tracer wraps ``fedsim.<layer>.<name>``: a public function, or a public method of a public class."""
    if name.startswith("_"):
        return False
    module = importlib.import_module(f"fedsim.{layer}")
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and attr == name:
            return True
        member = vars(obj).get(name) if inspect.isclass(obj) else None
        if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
            return True
    return False


# Span names the benchmark reports that no fedsim function makes any more, so their metrics read 0.
STALE_SPANS = {"learners.train_local", "divergence.layer_divergence", "divergence.cosine.*",
               "params.weighted_sum_per_layer"}


def test_every_span_the_benchmark_reports_is_traced_but_the_pinned_stale_ones():
    layers = _spans_layers()
    spans = {name for name in _span_table() if name.split(".")[0] in layers}
    assert {"learners.sgd_step", "aggregation.aggregate", "params.from_arrays"} <= spans  # the reader sees the table
    assert {name for name in spans if not _traced(*name.split(".")[:2])} == STALE_SPANS
    learners = importlib.import_module("fedsim.learners")  # learners.loss.busy_s sums the learners.loss_* spans
    assert any(_traced("learners", name) for name in vars(learners) if name.startswith("loss_"))


def test_the_fields_the_benchmark_reads_stay():
    from fedsim.config import ExperimentConfig
    from fedsim.engine import RoundRecord, RunResult
    from fedsim.params import ParamSet

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {"agg_time_ms", "probe_acc"} <= fields(RoundRecord)
    assert "record_timings" in fields(ExperimentConfig)
    assert {"rounds_csv", "final_checkpoint"} <= fields(RunResult)
    layer = ParamSet.from_arrays({"w": [[1.0, 2.0], [3.0, 4.0]], "b": [5.0]}).layers[0]
    assert (layer.name, layer.shape, list(layer.values), layer.size) == ("w", (2, 2), [1.0, 2.0, 3.0, 4.0], 4)


def test_the_tools_import_under_the_path_ci_gives_them():
    # CI runs each tool as ``PYTHONPATH=src python tools/<tool>.py`` from the root, and the tools take their
    # fixtures from fedbench/workloads.py, so a rename under src/ or fedbench/ that breaks one fails here.
    script = f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import artifact_hashes, stage_cost"
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
