"""Static checks over the package source, and checks of its config classes."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import tweetcorpus

PACKAGE = Path(tweetcorpus.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# imported only so that bench/tracing.py can wrap them by name on this module
REEXPORTED = {("pipeline", "build_instances"), ("pipeline", "write_records")}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_used(path):
    unused = [name for name in _unused_imports(path.read_text(encoding="utf-8"))
              if (path.stem, name) not in REEXPORTED]
    assert unused == [], f"{path.name} imports but never uses {unused}"


def test_the_guard_sees_an_unused_import():
    assert _unused_imports("import os\nimport sys\nfrom a import b, c as d\n"
                           "os.sep\nd()\n") == ["b", "sys"]


def test_the_allowlist_is_not_stale():
    for module, name in REEXPORTED:
        assert name in _unused_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))



def _checked(cls) -> bool:
    """Whether dataclass ``cls`` is frozen and checks itself when built."""
    return cls.__dataclass_params__.frozen and "__post_init__" in vars(cls)


def test_every_config_is_frozen_and_checked_when_built():
    configs = {cls.__name__: cls for path in MODULES
               for cls in vars(importlib.import_module(f"tweetcorpus.{path.stem}")).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)
               and cls.__name__.endswith("Config")}
    assert {"FilterConfig", "PipelineConfig", "PretrainConfig"} <= set(configs)
    assert [name for name, cls in configs.items() if not _checked(cls)] == []


def test_the_guard_sees_a_config_that_is_mutable_or_unchecked():
    def check(self):
        pass

    mutable = dataclasses.make_dataclass("AConfig", [], namespace={"__post_init__": check})
    unchecked = dataclasses.make_dataclass("BConfig", [("x", int, 0)], frozen=True)
    checked = dataclasses.make_dataclass("CConfig", [], frozen=True,
                                         namespace={"__post_init__": check})
    assert [_checked(cls) for cls in (mutable, unchecked, checked)] == [False, False, True]
