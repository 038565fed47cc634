"""The package's public names: `__all__` lists exactly what `__init__` imports."""

import ast
import pathlib

import synthctl


def test_all_lists_every_imported_name_and_each_resolves():
    tree = ast.parse(pathlib.Path(synthctl.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module != "__future__"
                for alias in node.names}
    assert set(synthctl.__all__) == imported
    assert len(synthctl.__all__) == len(imported)
    for name in synthctl.__all__:
        assert getattr(synthctl, name) is not None, name
