"""Command-line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 I/O error.
A subcommand takes the flag of each config key it reads and no other;
flags override the config file, which overrides the built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, pipeline, tasks
from .errors import ConfigInvalid, DataError, TweetCorpusError
from .normalize import read_text_lines
from .pipeline import CONFIG_KEYS, STAGES, PipelineConfig, build_config, parse_config_file
from .tasks import threshold_intensities
from .vocab import Vocabulary


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_config_flags(parser, command: str | None) -> None:
    """``--config`` and the flag of every config key that ``command`` reads;
    the main parser (``command`` None) takes ``--config`` alone, which a
    subparser's SUPPRESS default keeps from being clobbered."""
    parser.add_argument("--config", help="flat key=value config file",
                        **({"default": argparse.SUPPRESS} if command else {}))
    for spec in CONFIG_KEYS.values():
        if spec.flag and command in spec.commands:
            parser.add_argument(spec.flag, type=None if spec.type is str else spec.type,
                                help=f"{spec.help} [{spec.key}, default {spec.default!r}]".lstrip())


def build_parser() -> _Parser:
    parser = _Parser(prog="tweetcorpus",
                     description="tweet archives in, pretraining data out")
    parser.add_argument("--version", action="version", version=__version__)
    _add_config_flags(parser, None)
    parser.add_argument("--print-config", action="store_true",
                        help="print the effective configuration and exit")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_sub(name, help_text):
        sub = subs.add_parser(name, help=help_text)
        if name in STAGES:  # task-prep and eval read no config
            _add_config_flags(sub, name)
        return sub

    add_sub("ingest", "parse and dedup raw archives")

    sub = add_sub("langid-train", "train the two agreement models")
    sub.add_argument("--corpus", required=True, help="code<TAB>text training file")

    add_sub("clean", "normalize, filter, language filter, emojis")
    add_sub("segment", "split tweets into document files")
    add_sub("vocab", "extend the base vocabulary")

    sub = add_sub("pretrain-data", "generate MLM/NSP records")
    sub.add_argument("--debug-jsonl", action="store_true",
                     help="also write line-delimited JSON twins of the records")

    sub = add_sub("task-prep", "validate and prepare a task dataset")
    sub.add_argument("--task", required=True, choices=("red_v2", "coroseof", "ner"))
    sub.add_argument("--input", required=True)
    sub.add_argument("--output", required=True, help="output JSONL path")
    sub.add_argument("--vocab", help="vocabulary file (required for ner)")
    sub.add_argument("--repair-bio", action="store_true",
                     help="coerce orphan I- tags instead of rejecting")

    sub = add_sub("eval", "score predictions against gold labels")
    sub.add_argument("--task", required=True, choices=("red_v2", "coroseof", "ner"))
    sub.add_argument("--gold", required=True)
    sub.add_argument("--pred", required=True)
    sub.add_argument("--averaging", choices=("micro", "macro", "weighted"),
                     help="required for red_v2 and coroseof")
    sub.add_argument("--subtask", choices=("binary", "threeway"), default="binary",
                     help="coroseof view")
    sub.add_argument("--regression", action="store_true",
                     help="red_v2: predictions are real-valued intensities")
    sub.add_argument("--decision-threshold", type=float, default=0.5)
    sub.add_argument("--mse-scale", type=float, default=1.0)
    sub.add_argument("--repair-bio", action="store_true")
    sub.add_argument("--output", help="write the metric report here instead of stdout")

    add_sub("stats", "summarize an archive")
    add_sub("pipeline", "run every stage in order")
    return parser


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    # argparse's dest for "--min-words" is "min_words"
    overrides = {spec.key: getattr(args, spec.flag[2:].replace("-", "_"), None)
                 for spec in CONFIG_KEYS.values() if spec.flag}
    return build_config(file_values, overrides)


# options passed on to the stage function as keyword arguments of the same name
_STAGE_ARGS = ("corpus", "debug_jsonl")


def _parse_score(value: str, path: str, lineno: int) -> float:
    try:
        if math.isfinite(x := float(value)):
            return x
    except ValueError:
        pass
    raise DataError(f"{path}:{lineno}: expected a finite score, got {value!r}")


def _load_matrix(path: str, columns: int, as_float: bool) -> np.ndarray:
    """Prediction rows: ``columns`` finite scores, or 0/1 cells as gold labels are."""
    parse = _parse_score if as_float else tasks._parse_binary
    rows = []
    for lineno, cols in tasks.read_tsv(path):
        if len(cols) != columns:
            raise DataError(f"{path}:{lineno}: expected {columns} columns, got {len(cols)}")
        rows.append([parse(v, path, lineno) for v in cols])
    return _matrix(rows, columns, float if as_float else int)


def _matrix(rows: list, columns: int, dtype) -> np.ndarray:
    """``rows`` as a 2-D array, shape ``(0, columns)`` when there are none."""
    return np.asarray(rows, dtype=dtype).reshape(len(rows), columns)


def _read_label_lines(path: str) -> list[str]:
    return [line.strip() for line in read_text_lines(path) if line.strip()]


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.task != "ner" and not args.averaging:
        raise ConfigInvalid(f"--averaging is required for {args.task}")
    if not math.isfinite(args.decision_threshold):
        raise ConfigInvalid(f"--decision-threshold must be finite, got {args.decision_threshold}")
    if not 0 < args.mse_scale < math.inf:
        raise ConfigInvalid(f"--mse-scale must be finite and > 0, got {args.mse_scale}")
    if args.task == "red_v2":
        gold = tasks.load_emotion_dataset(args.gold)
        n = len(tasks.EMOTIONS)
        y_true = _matrix([ex.labels for ex in gold], n, int)
        if args.regression:
            scores = _load_matrix(args.pred, n, as_float=True)
            y_pred = threshold_intensities(scores, args.decision_threshold)
            gold_for_mse = _matrix([
                ex.intensities if ex.intensities is not None else ex.labels
                for ex in gold], n, float)
            mse_value = tasks.mse(gold_for_mse, scores, scale=args.mse_scale)
        else:
            y_pred = _load_matrix(args.pred, n, as_float=False)
            mse_value = tasks.mse(y_true, y_pred, scale=args.mse_scale)
        report = tasks.MetricReport(metrics={
            "hamming_loss": tasks.hamming_loss(y_true, y_pred),
            "accuracy": tasks.subset_accuracy(y_true, y_pred),
            "f1": tasks.f1_multilabel(y_true, y_pred, args.averaging),
            "mse": mse_value,
        })
    elif args.task == "coroseof":
        gold = tasks.load_sexism_dataset(args.gold)
        preds = _read_label_lines(args.pred)
        if args.subtask == "binary":
            y_true = [ex.binary_label for ex in gold]
        else:
            y_true = [ex.threeway_label for ex in gold if ex.threeway_label]
        if len(preds) != len(y_true):
            raise DataError(f"{len(preds)} predictions for {len(y_true)} gold rows")
        report = tasks.prf_singlelabel(y_true, preds, args.averaging)
    else:
        gold_tags = [tags for _, _, tags in tasks.read_conll(args.gold, args.repair_bio)]
        pred_tags = [tags for _, _, tags in tasks.read_conll(args.pred, args.repair_bio)]
        report = tasks.entity_f1(gold_tags, pred_tags, repair=args.repair_bio)

    text = report.to_json()
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _cmd_task_prep(args: argparse.Namespace) -> int:
    if args.task == "ner" and not args.vocab:
        raise ConfigInvalid("--vocab is required for ner")
    vocab = Vocabulary.load(args.vocab) if args.vocab else None
    examples = tasks.load_task_dataset(args.input, args.task, vocab,
                                       repair_bio=args.repair_bio)
    with open(args.output, "w", encoding="utf-8") as out:
        for ex in examples:
            row = dataclasses.asdict(ex)
            if args.task == "red_v2" and ex.intensities is None:
                del row["intensities"]
            out.write(json.dumps(row, ensure_ascii=False) + "\n")
    print(f"wrote {len(examples)} examples to {args.output}")
    return 0


def _misplaced_flag(parser: _Parser, argv: list[str]) -> str | None:
    """The usage error for a subcommand's flag given before the subcommand,
    which argparse would report as a bad subcommand name."""
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for arg in argv:
        if arg in subs.choices:
            return None
        flag = arg.partition("=")[0]
        if flag.startswith("--") and flag not in parser._option_string_actions:
            takers = [name for name, sub in subs.choices.items()
                      if flag in sub._option_string_actions]
            if takers:
                return (f"{flag} is a flag of the subcommand ({', '.join(takers)}): "
                        "give it after the subcommand name")
    return None


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if message := _misplaced_flag(parser, argv):
        parser.error(message)
    args = parser.parse_args(argv)

    if args.print_config:
        cfg = config_from_args(args)
        for key, value in sorted(cfg.flat().items()):
            print(f"{key} = {value}")
        return 0
    if not args.command:
        parser.error("a subcommand is required (see --help)")

    if args.command not in STAGES:
        if args.config is not None:
            parser.error(f"{args.command} reads no config: --config is not allowed")
        return _cmd_task_prep(args) if args.command == "task-prep" else _cmd_eval(args)

    cfg = config_from_args(args)
    kwargs = {dest: getattr(args, dest) for dest in _STAGE_ARGS if dest in args}
    manifest = pipeline.run_stage(args.command, cfg, **kwargs)
    print(json.dumps(manifest.counts, sort_keys=True))
    return 0


def main() -> None:
    try:
        sys.exit(run())
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(1)
    except TweetCorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except OSError as exc:  # task-prep, eval, --config: run_stage names a stage's own
        print(f"i/o error: {exc}", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
