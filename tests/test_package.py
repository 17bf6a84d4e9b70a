"""The package namespace: one public surface, each re-export resolved on first access."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import re
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


@pytest.mark.parametrize("name", fedsim.__all__)
def test_each_export_is_its_submodule_object(name):
    obj = getattr(fedsim, name)
    home = f"fedsim.{fedsim._SOURCE[name]}"
    assert obj is getattr(importlib.import_module(home), name)
    assert getattr(obj, "__module__", home) == home  # the table names the module that defines it
    assert name in dir(fedsim)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'fedsim' has no attribute 'no_such_name'"):
        fedsim.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from fedsim import no_such_name", {})


def test_readme_lists_exactly_the_re_exports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"The package namespace re-exports.*?\n\n", readme, re.S).group(0)
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(fedsim.__all__)
    assert len(set(fedsim.__all__)) == len(fedsim.__all__)


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
