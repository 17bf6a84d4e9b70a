"""The package namespace: one public surface, each re-export resolved on first access."""

import importlib
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
