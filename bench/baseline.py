"""Run every workload over several seeds and write one BENCH record.

    python3 bench/baseline.py --seeds 1-10 --out bench/BENCH_baseline.json [--note TEXT]

For each workload in `workloads.py` (the ones in BENCHMARK.json plus
initial-grid): one untraced run per seed and one traced run on the
first seed, each through `run.py` with the run length BENCHMARK.json
sets. Every run's metrics are printed as they finish. The record
keeps each run's result line and per-stage counts, and for every
end-to-end metric the median across seeds and the quartile spread
(third minus first quartile, over the median) that judges steadiness.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from run import largest_children

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        record_path = Path(tmp) / "record.json"
        proc = subprocess.run(
            [
                sys.executable,
                str(BENCH / "run.py"),
                *("--workload", workload, "--seed", str(seed)),
                *("--seconds", str(seconds), "--trace", str(trace)),
                *("--record", str(record_path)),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        record = json.loads(record_path.read_text())
    print(f"== {workload} seed {seed} trace {trace}")
    print(proc.stdout, end="", flush=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["stages"] = [
        {"examined": s["examined"], "retained": s["retained"]} for s in record.get("stages", [])
    ]
    if trace:
        result["children_s"] = {
            name: dict(largest_children(record["spans"], name))
            for name in ("engine.initial_stage", "engine.run_expansion")
        }
    return result


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "note": args.note,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    names = [w["name"] for w in spec["workloads"]]
    for workload in names + [w for w in workloads.WORKLOADS if w not in names]:
        runs = [bench_run(workload, seed, seconds, 0) for seed in args.seeds]
        traced = bench_run(workload, args.seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "error_rate": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": {
                m["name"]: dict(
                    spread([r["metrics"][m["name"]]["value"] for r in runs]),
                    unit=m["unit"],
                    bound=m["bound"],
                )
                for m in spec["end_to_end"]
            },
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
            "runs": runs,
            "traced_run": traced,
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, entry in record["workloads"].items():
        for name, stats in entry["end_to_end"].items():
            print(
                f"{workload:<14} {name:<12} median={stats['median']:.6g} {stats['unit']}"
                f" spread={stats['spread']:.4f} bound={stats['bound']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
