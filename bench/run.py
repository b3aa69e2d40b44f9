"""Staged-growth benchmark for increl.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

Run from the repository root. NAME is one of the workloads in
`workloads.py`, or `smoke` for the bridge fixtures. The seed fixes the
generated inputs; every repetition of the job runs in a fresh child
interpreter (`child.py`), one at a time, and the child's peak RSS is
read with `os.wait4`, so neither this process nor grandchildren count.

Before anything is timed, every stage's reliability is computed with
`brute_force_reliability` on the parsed cumulative network. A
repetition fails if it exits non-zero or any stage is off that
reference by more than 1e-12; failures count in `failed` and are never
dropped or retried.

`--trace 0` repeats the job for S seconds (at least three times) and
reports end-to-end medians. `--trace 1` repeats it untraced the same
way, with one run under the timing wrappers of `layers.py` after the
first, and reports per-layer numbers plus the tracing overhead. Human-readable lines come first; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--record FILE` also writes every sample, stage and span as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TOLERANCE = 1e-12
PROBES_PER_REP = 4
MIN_REPS = 3
# Stop starting children once a run has used this long, and kill one
# that would run past the hard limit; a run must end within 180 s.
SOFT_LIMIT_S = 150
HARD_LIMIT_S = 170
MAX_STAGES = 1 + max(len(batches) for _, batches, _ in workloads.WORKLOADS.values())

# The result object carries only metrics that are never zero and whose
# run-to-run spread fits their bound; initial_s (20-80 ms outside
# initial-grid, where it equals final_s) and update_s (zero without
# batches) are printed above it instead.
END_TO_END_UNITS = {"setup_s": "s", "final_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class Failure(Exception):
    """A repetition that crashed, timed out or gave a wrong answer."""


def load_references(net_text: str, inc_texts: list[str]) -> list[float]:
    """Brute-force reliability of the cumulative network after each stage."""
    if not (ROOT / "src" / "increl" / "__init__.py").is_file():
        raise SystemExit(f"error: no increl sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from increl import (
        Expansion,
        brute_force_reliability,
        extend_network,
        parse_expansion_specs,
        parse_network,
    )

    net = parse_network(net_text)
    refs = [brute_force_reliability(net)]
    for text in inc_texts:
        net = extend_network(net, Expansion.for_network(net, parse_expansion_specs(text)))
        refs.append(brute_force_reliability(net))
    return refs


class Runner:
    """Spawns child jobs one at a time in a scratch directory."""

    def __init__(self, workdir: Path, job_args: list[str], csv_trace: bool, started: float):
        self.workdir = workdir
        self.job_args = job_args
        self.csv_trace = csv_trace
        self.started = started
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, extra: list[str]) -> tuple[dict, float, float, int]:
        """Run one child; return its result, run_s, peak RSS in MB and CSV trace bytes."""
        self.count += 1
        tag = self.workdir / f"child{self.count}"
        result = tag.with_suffix(".json")
        trace_dir = tag.with_suffix(".trace") if self.csv_trace else None
        argv = [sys.executable, str(BENCH / "child.py"), str(result), *self.job_args, *extra]
        if trace_dir is not None:
            argv += ["--csv-trace", str(trace_dir)]
        stderr = tag.with_suffix(".err")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(tag.with_suffix(".out")), os.O_WRONLY | os.O_CREAT, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT, 0o644),
        ]
        budget = HARD_LIMIT_S - self.elapsed()
        if budget <= 0:
            raise Failure("no time left to run a child")
        spawned = time.monotonic_ns()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            exited = time.monotonic_ns()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise Failure(f"child exited with {code}: {stderr.read_text()[-2000:]}")
        try:
            out = json.loads(result.read_text())
        except (OSError, ValueError) as exc:
            raise Failure(f"child left no result: {exc}") from None
        out["setup_s"] = (out["parsed_ns"] - spawned) / 1e9
        trace_bytes = 0
        if trace_dir is not None and trace_dir.exists():
            trace_bytes = sum(f.stat().st_size for f in trace_dir.iterdir())
            shutil.rmtree(trace_dir)
        # ru_maxrss is in KiB on Linux.
        return out, (exited - spawned) / 1e9, usage.ru_maxrss / 1024, trace_bytes


def _on_alarm(signum, frame):
    raise Failure("child ran past the time limit")


def check(out: dict, refs: list[float]) -> None:
    stages = out["stages"]
    if len(stages) != len(refs):
        raise Failure(f"{len(stages)} stages reported, {len(refs)} expected")
    for k, (stage, ref) in enumerate(zip(stages, refs)):
        value = float.fromhex(stage["reliability"])
        if not abs(value - ref) <= TOLERANCE:
            raise Failure(f"stage {k}: reliability {value!r}, reference {ref!r}")


def job_sample(out: dict, run_s: float, rss_mb: float) -> dict:
    initial = out["stage_ns"][0] / 1e9
    update = (sum(out["stage_ns"][1:]) + out["bind_ns"]) / 1e9
    report = out["report_ns"] / 1e9
    return {
        "setup_s": out["setup_s"],
        "initial_s": initial,
        "update_s": update,
        "final_s": initial + update,
        "report_s": report,
        "run_s": run_s,
        "teardown_s": run_s - (out["setup_s"] + initial + update + report),
        "peak_rss_mb": rss_mb,
    }


def summary(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median={statistics.median(ordered):.6g}"
    if n > 10:
        text += f" p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.6g}"
    return text + f" n={n}"


def layer_metrics(traced: dict, trace_bytes: int, samples: list[dict], run_s: float) -> dict:
    """Per-layer numbers from one traced job and the untraced samples."""
    lay = traced["layers"]
    spans = lay["spans"]
    agg = lay["aggregates"]
    stages = traced["stages"]

    def span_s(*names: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] in names) / 1e9

    def self_s(name: str) -> float:
        return sum(s["self_ns"] for s in spans if s["name"] == name) / 1e9

    def calls(name: str) -> int:
        return agg[name]["calls"]

    def seconds(name: str) -> float:
        return agg[name]["ns"] / 1e9

    def us_per_call(name: str) -> float:
        return agg[name]["ns"] / 1e3 / calls(name) if calls(name) else 0.0

    stage_spans = [s for s in spans if s["name"] in ("engine.initial_stage", "engine.run_expansion")]
    examined = sum(s["examined"] for s in stages)
    feasible = sum(
        agg[name]["hits"]
        for name in (
            "connectivity.is_connected",
            "connectivity.extend_partition",
            "connectivity.extend_partition_detail",
        )
    )
    retained = [s["retained"] for s in stages]
    largest = max(range(len(stages)), key=lambda k: retained[k])
    rss0, rss1 = stage_spans[largest]["rss_kb"]
    untraced_run = statistics.median(s["run_s"] for s in samples)

    metrics = {
        "netfile.parse_s": (span_s("netfile.parse_network", "netfile.parse_expansion_specs"), "s"),
        "model.bind_s": (span_s("model.Expansion.for_network", "model.extend_network"), "s"),
        "model.vector_probability.calls": (calls("model.vector_probability"), "count"),
        "model.vector_probability.s": (seconds("model.vector_probability"), "s"),
        "enumeration.advance.calls": (calls("enumeration.advance"), "count"),
        "enumeration.advance.s": (seconds("enumeration.advance"), "s"),
    }
    for name in ("connectivity.partition_nodes", "connectivity.extend_partition"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.s"] = (seconds(name), "s")
        metrics[f"{name}.us_per_call"] = (us_per_call(name), "us")
    metrics.update(
        {
            "connectivity.extend_partition.merges": (
                agg["connectivity.extend_partition"]["hits"],
                "count",
            ),
            "connectivity.extend_partition_detail.calls": (
                calls("connectivity.extend_partition_detail"),
                "count",
            ),
            "connectivity.extend_partition_detail.s": (
                seconds("connectivity.extend_partition_detail"),
                "s",
            ),
            "connectivity.is_connected.calls": (calls("connectivity.is_connected"), "count"),
            "engine.initial_stage.s": (span_s("engine.initial_stage"), "s"),
            "engine.initial_stage.self_s": (self_s("engine.initial_stage"), "s"),
            "engine.run_expansion.s": (span_s("engine.run_expansion"), "s"),
            "engine.run_expansion.self_s": (self_s("engine.run_expansion"), "s"),
        }
    )
    for k in range(MAX_STAGES):
        seconds_k = (
            (stage_spans[k]["end_ns"] - stage_spans[k]["start_ns"]) / 1e9
            if k < len(stage_spans)
            else 0.0
        )
        metrics[f"engine.stage{k}.s"] = (seconds_k, "s")
    metrics.update(
        {
            "engine.examined": (examined, "count"),
            "engine.feasible": (feasible, "count"),
            "engine.feasible_ratio": (feasible / examined, "ratio"),
            "engine.retained_peak": (max(retained), "count"),
            "engine.us_per_examined": (
                statistics.median(s["final_s"] for s in samples) * 1e6 / examined,
                "us",
            ),
            "engine.bytes_per_retained": (
                (rss1 - rss0) * 1024 / retained[largest] if retained[largest] else 0.0,
                "B",
            ),
            "cli.report_s": (span_s("cli.build_run_report"), "s"),
            "cli.trace_rows": (calls("cli.trace_row"), "count"),
            "cli.trace_bytes": (trace_bytes, "B"),
            "cli.trace_write_s": (seconds("cli.trace_row") + seconds("cli.trace_close"), "s"),
            "runtime.gc_collections": (lay["gc"]["collections"], "count"),
            "runtime.gc_s": (lay["gc"]["ns"] / 1e9, "s"),
            "runtime.teardown_s": (statistics.median(s["teardown_s"] for s in samples), "s"),
            "trace.overhead_s": (run_s - untraced_run, "s"),
        }
    )
    return metrics


def largest_children(spans: list[dict], name: str) -> list[tuple[str, float]]:
    totals: dict[str, int] = {}
    for s in spans:
        if s["name"] == name:
            for child, ns in s["children_ns"].items():
                totals[child] = totals.get(child, 0) + ns
    return sorted(((c, ns / 1e9) for c, ns in totals.items()), key=lambda kv: -kv[1])


def main(argv: list[str]) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, workloads.SMOKE])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="also write every sample as JSON")
    args = parser.parse_args(argv)

    try:
        net_text, inc_texts, csv_trace = workloads.generate(args.workload, args.seed, ROOT)
    except OSError as exc:
        raise SystemExit(f"error: {exc}") from None
    refs = load_references(net_text, inc_texts)

    signal.signal(signal.SIGALRM, _on_alarm)
    # Unwind on SIGTERM too, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        net = workdir / "network.net"
        net.write_text(net_text, encoding="utf-8")
        job_args = [str(net)]
        for k, text in enumerate(inc_texts, start=1):
            inc = workdir / f"batch{k}.inc"
            inc.write_text(text, encoding="utf-8")
            job_args.append(str(inc))
        record = measure(Runner(workdir, job_args, csv_trace, started), args, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(workload=args.workload, seed=args.seed, references=refs)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if not record["metrics"]:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    for name, (value, unit) in record["metrics"].items():
        print(f"{name:<44} {value:>14.6g} {unit:<5} {record['summaries'].get(name, '')}")
    for name, value in record["extra"].items():
        print(f"{name:<44} {value:>14.6g} s     {record['summaries'][name]}")
    print(f"{'error_rate':<44} {record['failed'] / record['attempted']:>14.6g} ratio")
    for name in ("engine.initial_stage", "engine.run_expansion"):
        children = largest_children(record.get("spans", []), name)
        if children:
            print(f"children of {name}: " + ", ".join(f"{c}={s:.4g}s" for c, s in children))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()
                },
            }
        )
    )
    return 0


def measure(runner: Runner, args: argparse.Namespace, refs: list[float]) -> dict:
    record: dict = {
        "attempted": 0,
        "failed": 0,
        "failures": [],
        "metrics": {},
        "summaries": {},
        "extra": {},
    }

    def fail(exc: Failure) -> None:
        record["failed"] += 1
        record["failures"].append(str(exc))
        print(f"failed: {exc}", file=sys.stderr)

    def attempt(extra: list[str], expected: list[float] | None = refs):
        """One child; a wrong answer counts as failed but keeps its timings."""
        record["attempted"] += 1
        try:
            got = runner.spawn(extra)
        except Failure as exc:
            fail(exc)
            return None
        if expected is not None:
            try:
                check(got[0], expected)
            except Failure as exc:
                fail(exc)
        return got

    # Untimed warm-up: lets byte-code caches fill before anything is measured.
    attempt(["--stop-after", "parse"], None)
    measured_from = runner.elapsed()
    traced = None
    setups: list[float] = []
    initials: list[float] = []
    # Probes sample set-up alone, plus stage 0 where that is not the whole
    # job, so the short timings get enough samples; they are interleaved
    # with the full jobs so that both see the same stretch of machine time.
    probe = "initial" if len(refs) > 1 else "parse"
    samples: list[dict] = []
    reps = 0
    cycle = 0.0
    while reps < MIN_REPS or runner.elapsed() - measured_from + cycle <= args.seconds:
        if runner.elapsed() + cycle > SOFT_LIMIT_S:
            break
        cycle_start = runner.elapsed()
        for _ in range(0 if args.trace else PROBES_PER_REP):
            got = attempt(["--stop-after", probe], refs[:1] if probe == "initial" else None)
            if got is None:
                continue
            setups.append(got[0]["setup_s"])
            if probe == "initial":
                initials.append(got[0]["stage_ns"][0] / 1e9)
        reps += 1
        got = attempt([])
        if got is not None:
            out, run_s, rss_mb, _ = got
            samples.append(job_sample(out, run_s, rss_mb))
            setups.append(out["setup_s"])
            record["stages"] = out["stages"]
        if args.trace and reps == 1:
            # After the first untraced job, so that the overhead compares
            # jobs run close together in time.
            traced = attempt(["--layers"])
        cycle = runner.elapsed() - cycle_start

    record.update(samples=samples, setup_samples=setups)
    if not samples:
        return record
    if args.trace:
        if traced is not None:
            out, run_s, _, trace_bytes = traced
            record["metrics"] = layer_metrics(out, trace_bytes, samples, run_s)
            record["spans"] = out["layers"]["spans"]
        return record
    series = {name: [s[name] for s in samples] for name in END_TO_END_UNITS}
    series["setup_s"] = setups
    extra = ["initial_s", "update_s"] if len(refs) > 1 else ["initial_s"]
    for name in [*extra, "report_s", "teardown_s"]:
        series[name] = [s[name] for s in samples]
    series["initial_s"] += initials
    for name, values in series.items():
        if name in END_TO_END_UNITS:
            record["metrics"][name] = (statistics.median(values), END_TO_END_UNITS[name])
        else:
            record["extra"][name] = statistics.median(values)
    record["summaries"] = {name: summary(values) for name, values in series.items()}
    return record


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
