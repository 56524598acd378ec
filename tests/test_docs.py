"""README and docstring examples run, and README's imports match the public surface."""

import ast
import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import sptqmc

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["sptqmc"] + [
    f"sptqmc.{info.name}" for info in pkgutil.iter_modules(sptqmc.__path__) if info.name != "__main__"
]


def readme_python_blocks() -> list[str]:
    """Source of every ```python block in README, doctest prompts stripped."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    sources = []
    for block in blocks:
        if ">>> " in block:
            block = "\n".join(line[4:] for line in block.splitlines() if line.startswith((">>> ", "... ")))
        sources.append(block)
    return sources


def test_readme_ini_blocks_parse():
    """Each ```ini block of README parses with the reader README names last before it."""
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```ini\n(.*?)^```", text, re.S | re.M))
    readers = [re.findall(r"`sptqmc\.(\w+)\.(\w+)`", text[: block.start()])[-1] for block in blocks]
    assert readers == [("cli", "parse_config"), ("spectral", "parse_model_text"), ("spectral", "parse_model_text")]
    for (module, name), block in zip(readers, blocks):
        getattr(importlib.import_module(f"sptqmc.{module}"), name)(block.group(1))


def test_readme_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_readme_imports_are_public():
    imported = {
        alias.name
        for source in readme_python_blocks()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "sptqmc"
        for alias in node.names
    }
    assert imported
    assert imported <= set(sptqmc.__all__)


def test_all_is_what_init_binds():
    tree = ast.parse(Path(sptqmc.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert len(sptqmc.__all__) == len(set(sptqmc.__all__))
    assert set(sptqmc.__all__) == {name for name in bound if not name.startswith("_")}
