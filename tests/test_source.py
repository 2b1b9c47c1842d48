"""Static checks over the package source, and checks of its config classes."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import tweetcorpus
from tweetcorpus import pipeline
from tweetcorpus.pipeline import CONFIG_KEYS, PIPELINE, STAGES

PACKAGE = Path(tweetcorpus.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# imported only so that bench/tracing.py can wrap them by name on this module
REEXPORTED = {("pipeline", "agreement_filter"), ("pipeline", "build_instances"),
              ("pipeline", "parse_record"), ("pipeline", "write_records")}


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


def _fields_read(tree: ast.Module, name: str) -> set[str]:
    """The ``PipelineConfig`` fields that module function ``name``, and every
    module function it names (called or handed on), read as ``cfg.<field>``.
    Reading ``cfg.pretrain`` reads ``seed`` too: the records take the global seed."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen, fields = [name], set(), set()
    while todo:
        if (name := todo.pop()) in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "cfg"):
                fields.add(node.attr)
    return fields | ({"seed"} if "pretrain" in fields else set())


_TREE = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
# what each stage subcommand's code reads; pipeline's are the stages' it runs
READS = {command: _fields_read(_TREE, stage.runner)
         for command, stage in STAGES.items() if command != "pipeline"}


def _misplaced_flags(keys, stages, reads) -> list[tuple[str, str]]:
    """(key, subcommand) for each flag that is missing or extra there:
    ``pipeline`` takes a key's flag exactly when it runs one of the key's
    stage subcommands, and a stage takes the flag of each key its code
    reads (``reads``), of each outside file it reads, and of
    ``io.output_dir``, which every stage writes into, and of no other key."""
    wrong = [(spec.key, "pipeline") for spec in keys.values() if spec.flag
             and ("pipeline" in spec.commands) == set(spec.commands).isdisjoint(PIPELINE)]
    for command, stage in stages.items():
        if command == "pipeline":
            continue
        read = reads[command] | set(stage.outside) | {"output_dir"}
        wrong += [(spec.key, command) for spec in keys.values()
                  if (spec.flag or spec.name in stage.outside)
                  and ((spec.section or spec.name) in read)
                  != bool(spec.flag and command in spec.commands)]
    return wrong


def test_pipeline_and_every_stage_take_the_flags_of_what_they_read():
    assert _misplaced_flags(CONFIG_KEYS, STAGES, READS) == []


def test_the_guard_sees_a_misplaced_flag():
    abbreviations, alpha = CONFIG_KEYS["segment.abbreviations"], CONFIG_KEYS["langid.alpha"]
    keys = {"segment.abbreviations": dataclasses.replace(abbreviations, commands=("segment",)),
            "langid.alpha": dataclasses.replace(alpha, commands=("langid-train", "pipeline"))}
    stages = {"segment": STAGES["segment"],
              "clean": STAGES["clean"]._replace(outside=("langid_alpha",))}
    assert _misplaced_flags(keys, stages, READS) == [
        ("segment.abbreviations", "pipeline"), ("langid.alpha", "pipeline"),
        ("langid.alpha", "clean")]
    # a flag on a stage whose code never reads the key
    seed = CONFIG_KEYS["seed"]
    keys = {"seed": dataclasses.replace(seed, commands=("ingest", *seed.commands))}
    assert _misplaced_flags(keys, STAGES, READS) == [("seed", "ingest")]


def test_the_scan_follows_every_function_a_stage_names():
    tree = ast.parse("def stage_x(cfg):\n    pool(_batch, cfg.workers)\n"
                     "def _batch(cfg):\n    return cfg.pretrain.dupe_factor\n"
                     "def stage_y(cfg):\n    return cfg.shards\n")
    assert _fields_read(tree, "stage_x") == {"workers", "pretrain", "seed"}
    assert _fields_read(tree, "stage_y") == {"shards"}


def _directory_params(functions) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter that places a stage's files
    apart from the layout under io.output_dir: one named ``*_dir`` or ``*_path``."""
    return [(fn.__name__, name) for fn in functions
            for name in inspect.signature(fn).parameters if name.endswith(("_dir", "_path"))]


def test_no_stage_takes_a_directory_but_the_one_the_benchmark_passes():
    # bench/harness.py passes the model directory to stage_langid_train
    runners = [getattr(pipeline, stage.runner) for stage in STAGES.values()]
    assert _directory_params(runners) == [("stage_langid_train", "out_dir")]


def test_the_guard_sees_a_directory_parameter():
    def stage_x(cfg, in_dir=None, vocab_path=None, corpus=None, debug_jsonl=False):
        pass

    assert _directory_params([stage_x]) == [("stage_x", "in_dir"), ("stage_x", "vocab_path")]


def _hash_sites(source: str) -> list[tuple[str, str, str]]:
    """(name, the function using it, the iterable of the comprehension around
    it or "") for each use of ``hashlib``, ``_Hashed`` or ``file_digest``."""
    sites = []

    def visit(node, scope, over):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            over = ast.unparse(node.generators[0].iter)
        elif isinstance(node, ast.Name) and node.id in ("hashlib", "_Hashed", "file_digest"):
            sites.append((node.id, scope, over))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, over)

    visit(ast.parse(source), "", "")
    return sites


def test_inputs_are_hashed_only_by_the_one_reader():
    # one way to hash an input: the reader _Outputs.read builds; file_digest is for outputs
    assert _hash_sites((PACKAGE / "pipeline.py").read_text(encoding="utf-8")) == [
        ("hashlib", "file_digest", ""),
        ("hashlib", "_Hashed.__init__", ""),
        ("_Hashed", "_Outputs.read", ""),
        ("file_digest", "_Outputs.commit", "self.partials.items()"),
    ]


def test_the_guard_sees_a_second_way_to_hash_an_input():
    source = ("class _Outputs:\n"
              "    def commit(self):\n"
              "        a = {n: file_digest(p) for n, p in self.partials.items()}\n"
              "        b = [file_digest(p) for p in self.outside]\n"
              "def stage_x(path):\n"
              "    raw = _Hashed(path)\n"
              "    return hashlib.sha256(raw.read()), map(file_digest, [path])\n")
    assert _hash_sites(source) == [
        ("file_digest", "_Outputs.commit", "self.partials.items()"),
        ("file_digest", "_Outputs.commit", "self.outside"),
        ("_Hashed", "stage_x", ""), ("hashlib", "stage_x", ""), ("file_digest", "stage_x", "")]
