"""The package's public names and error classes: `__all__` lists exactly the names `__init__`
resolves lazily, and each SynthctlError subclass is one some code catches."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import synthctl
from synthctl import errors


def test_all_lists_every_imported_name_and_each_resolves():
    names = synthctl._MODULE_OF
    assert set(synthctl.__all__) == set(names)
    assert len(synthctl.__all__) == len(names)
    assert set(synthctl.__all__) <= set(dir(synthctl))
    for name, module in names.items():
        assert getattr(synthctl, name) is \
            getattr(importlib.import_module(f"synthctl.{module}"), name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        synthctl.nonexistent


def test_importing_the_package_loads_no_submodule():
    src = str(pathlib.Path(synthctl.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, synthctl; "
         "print(sorted(m for m in sys.modules if m.startswith('synthctl.')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_every_error_subclass_is_caught_by_name():
    # a subclass of SynthctlError earns its place only where an except clause
    # names it; any other failure raises SynthctlError with its message
    caught = set()
    for path in pathlib.Path(synthctl.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {t.id if isinstance(t, ast.Name) else t.attr for t in types}
    subclasses = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.SynthctlError)
                  and obj is not errors.SynthctlError}
    assert subclasses
    assert sorted(subclasses - caught) == []
