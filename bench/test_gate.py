"""The benchmark's correctness gate must trip on damaged outputs.

    python3 -m pytest bench/test_gate.py

Each test runs the whole benchmark in-process on a shrunken archive
workload, at a seed without pinned digests, and damages one output
file between stages. The gate must count failed operations and the
result must carry no metrics.
"""

import dataclasses
import json

import pytest

import run
import workloads


@pytest.fixture(autouse=True)
def small_archive(monkeypatch):
    small = dataclasses.replace(workloads.WORKLOADS["archive"], tweets=300,
                                langid_samples=60)
    monkeypatch.setitem(workloads.WORKLOADS, "archive", small)


def flip_record_byte(stage, out_dir):
    if stage == "pretrain-data":
        path = out_dir / "pretrain" / "pretrain-00000.rbtw"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))


def drop_corpus_line(stage, out_dir):
    if stage == "segment":
        path = out_dir / "segment" / "corpus-00000.txt"
        lines = path.read_text("utf-8").splitlines(keepends=True)
        del lines[len(lines) // 2]
        path.write_text("".join(lines), "utf-8")


def bench(capsys, trace, tamper=None):
    code = run.main(["--workload", "archive", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)], tamper=tamper)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[0]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_undamaged_run_passes(capsys, trace):
    code, details, result = bench(capsys, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert details["failed_frac"] == 0
    assert result["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("tamper", [flip_record_byte, drop_corpus_line])
def test_damaged_output_fails_the_gate(capsys, trace, tamper):
    code, details, result = bench(capsys, trace, tamper)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] > 0
    assert details["failed_frac"] > 0
    assert result["metrics"] == {}
