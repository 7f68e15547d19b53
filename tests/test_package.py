"""Package surface: exported names resolve and the README examples run."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import haclrt

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["haclrt"] + [
    f"haclrt.{m.name}" for m in pkgutil.iter_modules(haclrt.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                        flags=re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
