"""The package's public names: `__all__` lists exactly the names `__init__` resolves lazily."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import synthctl


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
