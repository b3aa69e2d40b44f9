"""Command-line behaviour: subcommands, exit codes, formats, traces."""

import functools
import json
import random
import re
from pathlib import Path

import pytest

from increl import cli, engine
from increl.cli import build_run_report, main
from increl.engine import StageResult
from helpers import (
    DATA_DIR,
    FIXTURE_DIR,
    GRID_STAGES,
    VALIDATION_CASES,
    grid_3x3,
    random_scenario,
)

BRIDGE = str(FIXTURE_DIR / "bridge.net")
GROW1 = str(FIXTURE_DIR / "bridge_grow1.inc")
GROW2 = str(FIXTURE_DIR / "bridge_grow2.inc")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_bridge(capsys):
    code, out, _ = run_cli(capsys, "compute", BRIDGE)
    assert code == 0
    assert "reliability: 0.97848" in out
    assert re.search(r"^\s*0\s+5\s+32\s+16\s+0\.97848", out, re.M)


def test_compute_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("nodes 4\narc 3 3 0.5\n")
    code, _, err = run_cli(capsys, "compute", str(bad))
    assert code == 1
    assert "self-loop" in err


def test_compute_missing_file(capsys):
    code, _, err = run_cli(capsys, "compute", "no-such-file.net")
    assert code == 1
    assert "error" in err


def test_compute_arcless_network_is_a_clean_error(tmp_path, capsys):
    empty = tmp_path / "empty.net"
    empty.write_text("nodes 3\n")
    code, _, err = run_cli(capsys, "compute", str(empty))
    assert code == 1
    assert "no arcs" in err


def test_compute_over_cap(tmp_path, capsys):
    pairs = [(u, v) for u in range(1, 10) for v in range(u + 1, 10)][:31]
    lines = ["nodes 9"] + [f"arc {u} {v} 0.5" for u, v in pairs]
    big = tmp_path / "big.net"
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "compute", str(big))
    assert code == 2
    assert "capped" in err


def test_compute_over_retained_cap(monkeypatch, capsys):
    # Stage 0 of the bridge retains 16 vectors; a cap of 3 must trip there.
    monkeypatch.setattr(cli, "run", functools.partial(engine.run, max_retained=3))
    code, out, err = run_cli(capsys, "compute", BRIDGE)
    assert code == 2
    assert out == ""
    assert "retained" in err


def test_run_bridge_counts(capsys):
    code, out, _ = run_cli(capsys, "run", BRIDGE, GROW1, GROW2)
    assert code == 0
    lines = out.splitlines()
    assert re.search(r"^\s*0\s+5\s+32\s+16\s", lines[1])
    assert re.search(r"^\s*1\s+7\s+64\s+58\s", lines[2])
    assert re.search(r"^\s*2\s+8\s+58\s+0\s", lines[3])
    assert re.search(r"^total\s+154$", lines[4].strip())
    assert "reliability: 0.98872974" in out


def test_run_naive_column(capsys):
    code, out, _ = run_cli(capsys, "run", BRIDGE, GROW1, GROW2, "--naive")
    assert code == 0
    assert re.search(r"^\s*0\s+5\s+32\s+32\s", out, re.M)
    assert re.search(r"^\s*1\s+7\s+64\s+128\s", out, re.M)
    assert re.search(r"^\s*2\s+8\s+58\s+256\s", out, re.M)
    assert re.search(r"total\s+154\s+416", out)


def test_run_invalid_increment_exit_code(tmp_path, capsys):
    dup = tmp_path / "dup.inc"
    dup.write_text("arc 1 2 0.5\n")  # already an arc of the bridge
    code, _, err = run_cli(capsys, "run", BRIDGE, str(dup))
    assert code == 3
    assert "parallel" in err


@pytest.mark.parametrize("net_text, inc_text, error, fragment, line, exit_code", VALIDATION_CASES)
def test_malformed_input_exit_codes(
    tmp_path, capsys, net_text, inc_text, error, fragment, line, exit_code
):
    net = tmp_path / "net.net"
    net.write_text(net_text)
    argv = ["run", str(net)]
    if inc_text is not None:
        inc = tmp_path / "grow.inc"
        inc.write_text(inc_text)
        argv.append(str(inc))
    code, _, err = run_cli(capsys, *argv)
    assert code == exit_code
    assert fragment in err
    assert (f"line {line}: " in err) if line is not None else ("line " not in err)


def test_run_trace_matches_goldens(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "run", BRIDGE, GROW1, GROW2, "--trace", str(tmp_path))
    assert code == 0
    for stage in (0, 1, 2):
        produced = (tmp_path / f"stage{stage}.csv").read_text()
        expected = (DATA_DIR / f"bridge_stage{stage}.csv").read_text()
        assert produced == expected


def test_trace_stage1_row_4(tmp_path, capsys):
    run_cli(capsys, "run", BRIDGE, GROW1, GROW2, "--trace", str(tmp_path))
    rows = (tmp_path / "stage1.csv").read_text().splitlines()
    assert rows[4] == "1,4,0000011,{1},{3},{2 4 5},"


def test_trace_directory_matches_the_plain_renderer(tmp_path, monkeypatch):
    rendered = 0
    plain = cli._format_sets

    def counted(part):
        nonlocal rendered
        rendered += 1
        return plain(part)

    monkeypatch.setattr(cli, "_format_sets", counted)
    # One directory for both runs: the second run must not see the first's cache.
    trace = cli.TraceDirectory(tmp_path)
    for net, stages in (random_scenario(random.Random(5)), (grid_3x3(), GRID_STAGES)):
        rows = []

        def collect(row):
            rows.append(row)
            trace(row)

        rendered = 0
        try:
            engine.run(net, stages, trace=collect)
        finally:
            trace.close()
        stage_ids = range(len(stages) + 1)
        distinct = sum(len({r.partition for r in rows if r.stage == k}) for k in stage_ids)
        assert rendered == distinct < len(rows)
        for k in stage_ids:
            lines = [cli.TRACE_HEADER] + [cli.format_trace_row(r) for r in rows if r.stage == k]
            assert (tmp_path / f"stage{k}.csv").read_text() == "\n".join(lines) + "\n"


def test_oracle_bridge(capsys):
    code, out, _ = run_cli(capsys, "oracle", BRIDGE)
    assert code == 0
    assert "vectors: 32" in out
    assert "reliability: 0.97848" in out


def test_oracle_single_arc(tmp_path, capsys):
    net = tmp_path / "one.net"
    net.write_text("nodes 2\narc 1 2 0.7\n")
    code, out, _ = run_cli(capsys, "oracle", str(net))
    assert code == 0
    assert "reliability: 0.7" in out


def test_oracle_over_cap(tmp_path, capsys):
    pairs = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)][:25]
    lines = ["nodes 8"] + [f"arc {u} {v} 0.5" for u, v in pairs]
    big = tmp_path / "big.net"
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "oracle", str(big))
    assert code == 2
    assert "capped" in err


def test_run_without_growth_files_matches_compute(capsys):
    code, run_out, _ = run_cli(capsys, "run", BRIDGE)
    assert code == 0
    code, compute_out, _ = run_cli(capsys, "compute", BRIDGE)
    assert code == 0
    strip_time = lambda text: re.sub(r"\d+\.\d{3}s", "T", text)
    assert strip_time(run_out) == strip_time(compute_out)


def test_run_agrees_with_oracle_on_merged_network(tmp_path, capsys):
    rng = random.Random(42)
    p = [rng.uniform(0.05, 0.95) for _ in range(8)]
    net = tmp_path / "net.net"
    net.write_text(
        "nodes 4\n"
        f"arc 1 2 {p[0]!r}\narc 1 3 {p[1]!r}\narc 2 3 {p[2]!r}\n"
        f"arc 2 4 {p[3]!r}\narc 3 4 {p[4]!r}\n"
    )
    inc1 = tmp_path / "g1.inc"
    inc1.write_text(f"arc 2 5 {p[5]!r}\narc 4 5 {p[6]!r}\n")
    inc2 = tmp_path / "g2.inc"
    inc2.write_text(f"arc 3 5 {p[7]!r}\n")
    # Same graph in one file, relabeled so the sink is the largest id
    # (old node 4 becomes 5 and vice versa).
    merged = tmp_path / "merged.net"
    merged.write_text(
        "nodes 5\n"
        f"arc 1 2 {p[0]!r}\narc 1 3 {p[1]!r}\narc 2 3 {p[2]!r}\n"
        f"arc 2 5 {p[3]!r}\narc 3 5 {p[4]!r}\n"
        f"arc 2 4 {p[5]!r}\narc 5 4 {p[6]!r}\narc 3 4 {p[7]!r}\n"
    )
    code, out_run, _ = run_cli(capsys, "run", str(net), str(inc1), str(inc2))
    assert code == 0
    code, out_oracle, _ = run_cli(capsys, "oracle", str(merged))
    assert code == 0
    r_run = float(out_run.rsplit("reliability:", 1)[1])
    r_oracle = float(out_oracle.rsplit("reliability:", 1)[1])
    assert r_run == pytest.approx(r_oracle, abs=1e-12)


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "run", BRIDGE, GROW1, GROW2, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stage,arcs,vectors,naive,retained,reliability,elapsed_s"
    assert lines[1].startswith("0,5,32,32,16,0.97848,")
    assert lines[3].startswith("2,8,58,256,0,0.98872974,")
    assert lines[4] == "total,,154,416,,,"


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "run", BRIDGE, GROW1, GROW2, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [s["vectors"] for s in payload["stages"]] == [32, 64, 58]
    # Distinct parent partitions among the 16 and 58 retained vectors.
    assert [s["partitions_extended"] for s in payload["stages"]] == [0, 10, 27]
    assert payload["totals"] == {"vectors": 154, "naive": 416}
    assert payload["reliability"] == pytest.approx(0.98872974, abs=1e-12)
    assert payload["stages"][0]["reliability"] == pytest.approx(0.97848, abs=1e-12)


@pytest.mark.parametrize("flags", [["--bogus"], ["--parallel", "2"]], ids=["bogus", "parallel"])
def test_usage_error_exits_1(capsys, flags):
    code, out, err = run_cli(capsys, "run", BRIDGE, *flags)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top", "run"])
def test_help_exits_0(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: increl")
    assert "--parallel" not in out


def test_output_stable_across_runs(capsys):
    _, first, _ = run_cli(capsys, "run", BRIDGE, GROW1, GROW2, "--format", "csv")
    _, second, _ = run_cli(capsys, "run", BRIDGE, GROW1, GROW2, "--format", "csv")
    strip_time = lambda text: re.sub(r",\d+\.\d{6}$", ",T", text, flags=re.M)
    assert strip_time(first) == strip_time(second)


def test_report_builder_bytes_are_pinned():
    results = [
        StageResult(0, 5, 0.97848, 16, 32),
        StageResult(1, 7, 0.9870822, 58, 64),
        StageResult(2, 8, 0.98872974, 0, 58),
    ]
    report = build_run_report(results, [32, 128, 256], [0.001, 0.002, 0.003], "human", True)
    assert report == (
        "stage  arcs   vectors       naive   retained  reliability           time\n"
        "    0     5        32          32         16  0.97848             0.001s\n"
        "    1     7        64         128         58  0.9870822           0.002s\n"
        "    2     8        58         256          0  0.98872974          0.003s\n"
        "total             154         416\n"
        "reliability: 0.98872974\n"
    )


def test_version(capsys):
    code, out, _ = run_cli(capsys, "version")
    assert code == 0
    assert out.startswith("increl ")


def test_module_entry_point_prints_the_version():
    import os
    import subprocess
    import sys

    import increl

    env = {**os.environ, "PYTHONPATH": str(Path(increl.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-m", "increl", "version"], capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, f"increl {increl.__version__}\n", "")


def test_module_and_script_entry_points():
    import os
    import subprocess
    import sys
    import tomllib

    import increl

    # Both entry points must load the package under test, wherever it lives.
    env = {**os.environ, "PYTHONPATH": str(Path(increl.__file__).resolve().parent.parent)}
    module_run = subprocess.run(
        [sys.executable, "-m", "increl", "compute", BRIDGE],
        capture_output=True,
        text=True,
        env=env,
    )
    assert module_run.returncode == 0
    assert "reliability: 0.97848" in module_run.stdout
    # Run the [project.scripts] target the way the installed wrapper does.
    pyproject = tomllib.loads((FIXTURE_DIR.parent / "pyproject.toml").read_text())
    module, func = pyproject["project"]["scripts"]["increl"].split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    script_run = subprocess.run(
        [sys.executable, "-c", wrapper, "version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert script_run.returncode == 0
    assert script_run.stdout.startswith("increl ")
