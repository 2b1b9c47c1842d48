"""Compare two checkouts with alternating benchmark runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload emoji-dense --seed 0 \\
        --pairs 10 --seconds 35

Runs ``bench/run.py --trace 0`` of each checkout in turn, ``--pairs``
times, alternating which side goes first, and reads each run's last
line of standard output, the result JSON. For each end-to-end metric
that ``BENCHMARK.json`` (of CHANGE) declares it prints every pair, each
side's median and quartiles, how many pairs the change won, and whether
the claim rule holds: the change wins at least nine pairs in ten, and
its median is better than the parent's by more than the parent's
quartile spread. A run that fails its checks stops the comparison
(exit 1). Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's pairs (``parent[i]`` ran beside ``change[i]``), judged by
    the claim rule; ``better`` is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "parent": {"median": p_median, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_median, "q1": c_q1, "q3": c_q3},
        "ratio": c_median / p_median if p_median else float("nan"),
        "wins": wins,
        "pairs": len(parent),
        "claim_holds": (10 * wins >= 9 * len(parent)
                        and sign * (c_median - p_median) > p_q3 - p_q1),
    }


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one ``bench/run.py`` run of ``checkout``."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        raise RuntimeError(f"{checkout}: bench/run.py failed (exit {proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def report(name: str, unit: str, parent: list[float], change: list[float],
           summary: dict) -> str:
    p, c = summary["parent"], summary["change"]
    pairs = ", ".join(f"{a:.6g}/{b:.6g}" for a, b in zip(parent, change))
    return (f"{name} ({unit}): parent {p['median']:.6g} [{p['q1']:.6g}-{p['q3']:.6g}], "
            f"change {c['median']:.6g} [{c['q1']:.6g}-{c['q3']:.6g}], "
            f"x{summary['ratio']:.4f}, won {summary['wins']}/{summary['pairs']}, "
            f"claim {'holds' if summary['claim_holds'] else 'does not hold'}\n"
            f"  pairs parent/change: {pairs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(run_bench(getattr(args, side).resolve(), args.workload,
                                            args.seed, args.seconds))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    for name, metric in metrics.items():
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        print(report(name, metric["unit"], parent, change,
                     summarize(parent, change, metric["better"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
