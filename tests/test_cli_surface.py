"""Pins of the command-line surface and of the ``--print-config`` dump.

Every option of every subcommand is listed with its dest, type, default,
required flag and choices (help text is free to change), and the config
dump is compared byte for byte. A flag or key that is lost, added or
renamed fails here.
"""

import argparse

import pytest

from tweetcorpus.cli import build_parser, run

S = argparse.SUPPRESS

# option strings -> (dest, type, default, required, choices)
_HELP = {("-h", "--help"): ("help", None, S, False, None)}
# every subcommand that reads the config takes --config after it too
_CONFIG = {**_HELP, ("--config",): ("config", None, S, False, None)}
_SEED = {("--seed",): ("seed", "int", None, False, None)}
_SHARDS = {("--shards",): ("shards", "int", None, False, None)}
_WORKERS = {("--workers",): ("workers", "int", None, False, None)}
_OUTPUT_DIR = {("--output-dir",): ("output_dir", None, None, False, None)}
_IO = {("--input",): ("input", None, None, False, None), **_OUTPUT_DIR}
_LANGID = {
    ("--model-a",): ("model_a", None, None, False, None),
    ("--model-b",): ("model_b", None, None, False, None),
    ("--threshold",): ("threshold", "float", None, False, None),
    ("--target",): ("target", None, None, False, None),
    ("--emoji-map",): ("emoji_map", None, None, False, None),
}
_FILTERS = {
    (f"--{name.replace('_', '-')}",): (name, "int", None, False, None)
    for name in ("min_words", "max_words", "max_mentions", "max_hashtags",
                 "max_urls", "max_emojis")
}
_PRETRAIN = {
    ("--max-seq-length",): ("max_seq_length", "int", None, False, None),
    ("--dupe-factor",): ("dupe_factor", "int", None, False, None),
    ("--masked-lm-prob",): ("masked_lm_prob", "float", None, False, None),
    ("--max-predictions-per-seq",): ("max_predictions_per_seq", "int", None, False, None),
    ("--short-seq-prob",): ("short_seq_prob", "float", None, False, None),
    ("--nsp-random-prob",): ("nsp_random_prob", "float", None, False, None),
}
_SEGMENT = {("--abbreviations",): ("abbreviations", None, None, False, None)}
_VOCAB = {
    ("--base-vocab",): ("base_vocab", None, None, False, None),
    ("--emoji-fraction",): ("emoji_fraction", "float", None, False, None),
}
_TASKS = ("red_v2", "coroseof", "ner")

SURFACE = {
    "": {
        **_HELP,
        ("--version",): ("version", None, S, False, None),
        ("--config",): ("config", None, None, False, None),
        ("--print-config",): ("print_config", None, False, False, None),
    },
    "ingest": {**_CONFIG, **_IO, **_SHARDS},
    "langid-train": {
        **_CONFIG, **_OUTPUT_DIR,
        ("--corpus",): ("corpus", None, None, True, None),
        ("--alpha",): ("alpha", "float", None, False, None),
    },
    "clean": {**_CONFIG, **_OUTPUT_DIR, **_WORKERS, **_LANGID, **_FILTERS},
    "segment": {**_CONFIG, **_OUTPUT_DIR, **_SEGMENT},
    "vocab": {**_CONFIG, **_OUTPUT_DIR, **_VOCAB},
    "pretrain-data": {
        **_CONFIG, **_OUTPUT_DIR, **_SEED, **_WORKERS, **_PRETRAIN,
        ("--debug-jsonl",): ("debug_jsonl", None, False, False, None),
    },
    # they read no config, so they take no config flag
    "task-prep": {
        **_HELP,
        ("--task",): ("task", None, None, True, _TASKS),
        ("--input",): ("input", None, None, True, None),
        ("--output",): ("output", None, None, True, None),
        ("--vocab",): ("vocab", None, None, False, None),
        ("--repair-bio",): ("repair_bio", None, False, False, None),
    },
    "eval": {
        **_HELP,
        ("--task",): ("task", None, None, True, _TASKS),
        ("--gold",): ("gold", None, None, True, None),
        ("--pred",): ("pred", None, None, True, None),
        ("--averaging",): ("averaging", None, None, False, ("micro", "macro", "weighted")),
        ("--subtask",): ("subtask", None, "binary", False, ("binary", "threeway")),
        ("--regression",): ("regression", None, False, False, None),
        ("--decision-threshold",): ("decision_threshold", "float", 0.5, False, None),
        ("--mse-scale",): ("mse_scale", "float", 1.0, False, None),
        ("--repair-bio",): ("repair_bio", None, False, False, None),
        ("--output",): ("output", None, None, False, None),
    },
    "stats": {**_CONFIG, **_IO},
    # the flag of every stage it runs
    "pipeline": {**_CONFIG, **_IO, **_SEED, **_SHARDS, **_WORKERS, **_LANGID, **_FILTERS,
                 **_PRETRAIN, **_SEGMENT, **_VOCAB},
}


def _surface(parser: argparse.ArgumentParser) -> dict:
    return {
        tuple(action.option_strings): (
            action.dest, getattr(action.type, "__name__", action.type),
            action.default, action.required,
            tuple(action.choices) if action.choices else None)
        for action in parser._actions
        if not isinstance(action, argparse._SubParsersAction)
    }


def test_cli_surface_is_pinned():
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(SURFACE) - {""}
    assert _surface(parser) == SURFACE[""]
    for command, sub in subparsers.choices.items():
        assert _surface(sub) == SURFACE[command], command


DEFAULTS_DUMP = """\
filter.max_emojis = 3
filter.max_hashtags = 3
filter.max_mentions = 3
filter.max_urls = 3
filter.max_words = 256
filter.min_words = 5
io.input =
io.output_dir =
io.shards = 1
io.workers = 1
langid.alpha = 1.0
langid.model_a =
langid.model_b =
langid.ngram_max_a = 2
langid.ngram_max_b = 3
langid.ngram_min_a = 1
langid.ngram_min_b = 2
langid.target = ro
langid.threshold = 0.5
normalize.emoji_map =
pretrain.dupe_factor = 10
pretrain.keep_frac = 0.1
pretrain.mask_token_frac = 0.8
pretrain.masked_lm_prob = 0.15
pretrain.max_predictions_per_seq = 20
pretrain.max_seq_length = 128
pretrain.nsp_random_prob = 0.5
pretrain.random_frac = 0.1
pretrain.short_seq_prob = 0.1
seed = 0
segment.abbreviations =
vocab.base =
vocab.emoji_fraction = 0.25
"""

# Every key set away from its default, the unflagged ones included.
ALL_KEYS_FILE = """\
# every key, none at its default
io.input = a.jsonl,b.jsonl
io.output_dir = out
io.shards = 3
io.workers = 2
seed = 7
langid.model_a = ma.rlid
langid.model_b = mb.rlid
langid.threshold = 7e-1
langid.target = en
langid.alpha = 0.5
langid.ngram_min_a = 2
langid.ngram_max_a = 4
langid.ngram_min_b = 1
langid.ngram_max_b = 5
normalize.emoji_map = map.tsv
segment.abbreviations = abbr.txt
vocab.base = base.txt
vocab.emoji_fraction = 0.5
filter.min_words = 2
filter.max_words = 100
filter.max_mentions = 1
filter.max_hashtags = 2
filter.max_urls = 0
filter.max_emojis = 5
pretrain.max_seq_length = 64
pretrain.masked_lm_prob = 0.2
pretrain.mask_token_frac = 0.7
pretrain.keep_frac = 0.15
pretrain.random_frac = 0.15
pretrain.max_predictions_per_seq = 10
pretrain.dupe_factor = 3
pretrain.short_seq_prob = 0.2
pretrain.nsp_random_prob = 0.4
"""

ALL_KEYS_DUMP = """\
filter.max_emojis = 5
filter.max_hashtags = 2
filter.max_mentions = 1
filter.max_urls = 0
filter.max_words = 100
filter.min_words = 2
io.input = a.jsonl,b.jsonl
io.output_dir = out
io.shards = 3
io.workers = 2
langid.alpha = 0.5
langid.model_a = ma.rlid
langid.model_b = mb.rlid
langid.ngram_max_a = 4
langid.ngram_max_b = 5
langid.ngram_min_a = 2
langid.ngram_min_b = 1
langid.target = en
langid.threshold = 0.7
normalize.emoji_map = map.tsv
pretrain.dupe_factor = 3
pretrain.keep_frac = 0.15
pretrain.mask_token_frac = 0.7
pretrain.masked_lm_prob = 0.2
pretrain.max_predictions_per_seq = 10
pretrain.max_seq_length = 64
pretrain.nsp_random_prob = 0.4
pretrain.random_frac = 0.15
pretrain.short_seq_prob = 0.2
seed = 7
segment.abbreviations = abbr.txt
vocab.base = base.txt
vocab.emoji_fraction = 0.5
"""

MIXED_FILE = """\
filter.min_words = 7
filter.max_words = 100
seed = 4
langid.ngram_max_b = 4
pretrain.keep_frac = 0.05
pretrain.random_frac = 0.15
"""
MIXED_FLAGS = ("--print-config", "pipeline", "--seed", "9", "--min-words", "4",
               "--threshold", "0.6", "--input", "x.jsonl", "--workers", "3",
               "--dupe-factor", "2")

MIXED_DUMP = """\
filter.max_emojis = 3
filter.max_hashtags = 3
filter.max_mentions = 3
filter.max_urls = 3
filter.max_words = 100
filter.min_words = 4
io.input = x.jsonl
io.output_dir =
io.shards = 1
io.workers = 3
langid.alpha = 1.0
langid.model_a =
langid.model_b =
langid.ngram_max_a = 2
langid.ngram_max_b = 4
langid.ngram_min_a = 1
langid.ngram_min_b = 2
langid.target = ro
langid.threshold = 0.6
normalize.emoji_map =
pretrain.dupe_factor = 2
pretrain.keep_frac = 0.05
pretrain.mask_token_frac = 0.8
pretrain.masked_lm_prob = 0.15
pretrain.max_predictions_per_seq = 20
pretrain.max_seq_length = 128
pretrain.nsp_random_prob = 0.5
pretrain.random_frac = 0.15
pretrain.short_seq_prob = 0.1
seed = 9
segment.abbreviations =
vocab.base =
vocab.emoji_fraction = 0.25
"""


@pytest.mark.parametrize("config_text, argv, expected", [
    (None, ("--print-config",), DEFAULTS_DUMP),
    (ALL_KEYS_FILE, ("--print-config",), ALL_KEYS_DUMP),
    (MIXED_FILE, MIXED_FLAGS, MIXED_DUMP),
], ids=["defaults", "every-key-in-file", "file-and-flags"])
def test_print_config_is_pinned(tmp_path, capsys, config_text, argv, expected):
    if config_text is not None:
        path = tmp_path / "run.conf"
        path.write_text(config_text, encoding="utf-8")
        argv = ("--config", str(path), *argv)
    assert run(list(argv)) == 0
    out, err = capsys.readouterr()
    # an empty value prints as "key = " with a trailing space, which the
    # literals above leave out
    assert out == expected.replace(" =\n", " = \n")
    assert err == ""
