"""Self-test of the benchmark: smoke runs on the bridge fixtures.

    python3 -m pytest bench/test_bench.py

The bridge fixtures go through the same driver as the benchmark
workloads; they must reproduce 32/64/58 examined vectors and pass the
oracle gate in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args, "--record", str(record)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc, json.loads(record.read_text()) if record.exists() else {}


def last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(tmp_path: Path, trace: int) -> tuple[dict, dict]:
    proc, record = bench(
        tmp_path, "--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", str(trace)
    )
    return last_line(proc), record


def test_smoke_reproduces_bridge_counts_and_passes_gate(tmp_path):
    result, record = smoke(tmp_path, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert [s["examined"] for s in record["stages"]] == [32, 64, 58]
    assert abs(float.fromhex(record["stages"][0]["reliability"]) - 0.97848) < 1e-12


def test_traced_counts_repeat_exactly(tmp_path):
    first, record = smoke(tmp_path, 1)
    second, _ = smoke(tmp_path, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    counts = {
        k: v
        for k, v in first["metrics"].items()
        if v["unit"] == "count" or k == "cli.trace_bytes"
    }
    assert counts == {k: second["metrics"][k] for k in counts}
    assert counts["engine.examined"]["value"] == 154
    names = [s["name"] for s in record["spans"]]
    assert names.count("engine.run_expansion") == 2


def test_wrong_reliability_fails_the_gate():
    out = {"stages": [{"reliability": (0.5).hex()}]}
    run.check(out, [0.5 + 5e-13])
    with pytest.raises(run.Failure):
        run.check(out, [0.5 + 2e-12])
    with pytest.raises(run.Failure):
        run.check(out, [0.5, 0.6])


def test_generator_is_deterministic_and_fixed_in_topology():
    arcs = {"initial-grid": (17, 0), "growth-grid": (12, 3), "trace-ladder": (10, 3)}
    for name, (net_arcs, batches) in arcs.items():
        net, incs, _ = workloads.generate(name, 7, ROOT)
        assert (net, incs) == workloads.generate(name, 7, ROOT)[:2]
        assert net != workloads.generate(name, 8, ROOT)[0]
        assert len(net.splitlines()) - 1 == net_arcs and len(incs) == batches
        for text in [net, *incs]:
            for line in text.splitlines():
                if line.startswith("arc"):
                    assert workloads.P_LOW <= float(line.split()[3]) <= workloads.P_HIGH
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = bench(
        tmp_path, "--workload", "growth-grid", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
