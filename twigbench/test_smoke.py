"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest twigbench/test_smoke.py

Checks that every metric BENCHMARK.json names is reported with its
unit, that a correct run has no failed ops, and that the correctness
gate catches a corrupted reference answer and a broken index round
trip.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench_cli  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    frag_elements=3_000,
    schema_elements=3_000,
    ingest_elements=(500, 1_000),
    frag_copies=(1, 1, 1),
    schema_copies=(1, 1),
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == workloads.END_TO_END
    assert _declared("per_layer") == workloads.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "run", functools.partial(workloads.run, sizes=TINY))
    code = bench_cli.main(["--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    table = "\n".join(out[:-1])
    for name, unit in declared.items():
        assert f"{name} " in table and f" {unit}" in table
    assert "error_rate" in table
    assert "backend=" in table and "src_lines=" in table


def test_corrupted_reference_is_counted(monkeypatch):
    real = workloads.reference_lines

    def corrupted(pg, text):
        lines = real(pg, text)
        return lines + ["1.2.3"] if text == "//A//A" else lines

    monkeypatch.setattr(workloads, "reference_lines", corrupted)
    res = workloads.run("frag", 3, 0, False, TINY)
    assert res.failed == 1 and res.attempted > 1
    assert any("//A//A" in e for e in res.errors)


def test_broken_round_trip_is_counted(monkeypatch):
    monkeypatch.setattr(workloads, "_same_guide", lambda a, b: False)
    res = workloads.run("ingest", 3, 0, False, TINY)
    assert res.failed == 2 * len(TINY.ingest_elements)


def test_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "frag", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
