"""Command-line behaviour: subcommands, exit codes, formats, traces."""

import collections
import contextlib
import functools
import io
import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from increl import (
    Expansion,
    cli,
    connectivity,
    counting_vectors,
    engine,
    extend_partition_detail,
    partition_nodes,
)
from increl.cli import build_run_report, main
from increl.engine import StageResult
from helpers import (
    DATA_DIR,
    FIXTURE_DIR,
    GRID_STAGES,
    VALIDATION_CASES,
    bridge,
    bridge_stages,
    cumulative_networks,
    grid_3x3,
    random_scenario,
    renamed_scenario,
)

BRIDGE = str(FIXTURE_DIR / "bridge.net")
GROW1 = str(FIXTURE_DIR / "bridge_grow1.inc")
GROW2 = str(FIXTURE_DIR / "bridge_grow2.inc")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_bridge(tmp_path, capsys):
    # The same file saved with a UTF-8 byte-order mark reads the same.
    bom = tmp_path / "bom.net"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(BRIDGE).read_bytes())
    for path in (BRIDGE, str(bom)):
        code, out, _ = run_cli(capsys, "compute", path)
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


def test_compute_refuses_more_nodes_than_labels_hold(tmp_path, capsys):
    # One node past one `chr` per node: refused before any node is allocated.
    big = tmp_path / "big.net"
    big.write_text(f"nodes {0x110001}\narc 1 2 0.5\n")
    code, out, err = run_cli(capsys, "compute", str(big))
    assert code == 2
    assert out == ""
    assert f"{0x110001} nodes, capped at {0x110000}" in err


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


def test_run_refuses_a_batch_over_16_arcs(tmp_path, capsys):
    net = tmp_path / "one.net"
    net.write_text("nodes 2\narc 1 2 0.7\n")
    arcs = [(1, v) for v in range(3, 12)] + [(v, 2) for v in range(3, 11)]
    wide = tmp_path / "wide.inc"
    wide.write_text("".join(f"arc {u} {v} 0.5\n" for u, v in arcs))
    assert len(arcs) == 17
    code, out, err = run_cli(capsys, "run", str(net), str(wide))
    assert code == 2
    assert out == ""
    assert "split" in err


@pytest.mark.parametrize(
    "growth, node_limit, exit_code, fragment",
    [
        # 17 arcs from the bridge to nine new nodes.
        ([[(1, v) for v in range(5, 14)] + [(v, 4) for v in range(5, 13)]], None, 2, "split"),
        # The second INC file repeats an arc of the first.
        ([[(2, 5), (4, 5)], [(3, 5), (5, 2)]], None, 3, "parallel arc between 5 and 2"),
        # The second INC file grows the network to six nodes, past a limit of five.
        ([[(2, 5), (4, 5)], [(5, 6), (3, 6)]], 5, 2, "6 nodes, labels hold at most 5"),
    ],
    ids=["wide", "parallel", "nodes"],
)
def test_run_refuses_a_batch_before_stage_zero_writes_a_trace(
    tmp_path, capsys, monkeypatch, growth, node_limit, exit_code, fragment
):
    if node_limit is not None:
        monkeypatch.setattr(connectivity, "MAX_NODES", node_limit)
    files = []
    for k, arcs in enumerate(growth):
        files.append(tmp_path / f"grow{k}.inc")
        files[-1].write_text("".join(f"arc {u} {v} 0.9\n" for u, v in arcs))
    trace = tmp_path / "trace"
    code, out, err = run_cli(capsys, "run", BRIDGE, *map(str, files), "--trace", str(trace))
    assert code == exit_code
    assert out == ""
    assert fragment in err
    assert not (trace / "stage0.csv").exists()


def test_run_refuses_65_arcs_before_the_final_stage_as_the_library_does(tmp_path, capsys):
    # A 30-arc path grown by batches of 16, 16, 3 and 1 arcs: the third
    # batch makes 65 arcs with one stage to go.
    net = tmp_path / "path.net"
    net.write_text("nodes 31\n" + "".join(f"arc {v} {v + 1} 0.9\n" for v in range(1, 31)))
    files = []
    for k, width in enumerate((16, 16, 3, 1), start=1):
        files.append(tmp_path / f"grow{k}.inc")
        files[-1].write_text("".join(f"arc {k} {100 * k + j} 0.9\n" for j in range(width)))
    trace = tmp_path / "trace"
    code, out, err = run_cli(capsys, "run", str(net), *map(str, files), "--trace", str(trace))
    assert code == 2
    assert out == ""
    assert "65 arcs before the final stage; masks hold 64" in err
    assert list(trace.glob("stage*.csv")) == []


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
    net.write_text(net_text, encoding="utf-8")
    argv = ["run", str(net)]
    if inc_text is not None:
        inc = tmp_path / "grow.inc"
        inc.write_text(inc_text, encoding="utf-8")
        argv.append(str(inc))
    code, _, err = run_cli(capsys, *argv)
    assert code == exit_code
    assert fragment in err
    assert (f"line {line}: " in err) if line is not None else ("line " not in err)


_BRIDGE_FILES = {Path(path).name: Path(path).read_bytes() for path in (BRIDGE, GROW1, GROW2)}


# 1-4 bytes of the bridge's NET and INC files overwritten, each a
# (file, place, byte) drawn at random. Files go to a temporary directory
# and output to buffers: a property may not take function-scoped fixtures.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(_BRIDGE_FILES)), st.integers(0, 255), st.integers(0, 255)),
        min_size=1,
        max_size=4,
    )
)
def test_a_mutated_bridge_exits_with_a_documented_code(mutations):
    texts = {name: bytearray(text) for name, text in _BRIDGE_FILES.items()}
    for name, place, byte in mutations:
        texts[name][place % len(texts[name])] = byte
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        paths = [Path(directory) / name for name in _BRIDGE_FILES]
        for path in paths:
            path.write_bytes(texts[path.name])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", *map(str, paths)])
    assert code in (0, 1, 2, 3)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        assert out.getvalue() and err.getvalue() == ""


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


def test_a_traced_run_replaces_the_stage_files_an_earlier_run_left(tmp_path, capsys):
    trace = tmp_path / "trace"
    assert run_cli(capsys, "run", BRIDGE, GROW1, GROW2, "--trace", str(trace))[0] == 0
    # Names the writer never prints: no integer K, a K with a leading zero, another suffix.
    others = {"stage.csv": "a", "stageX.csv": "b", "stage01.csv": "c", "stage2.txt": "d"}
    for name, text in others.items():
        (trace / name).write_text(text)
    before = {path.name: path.read_bytes() for path in trace.iterdir()}
    # A run refused before stage 0 leaves the directory as it was, or absent.
    dup = tmp_path / "dup.inc"
    dup.write_text("arc 1 2 0.5\n")
    for directory in (trace, tmp_path / "absent"):
        assert run_cli(capsys, "run", BRIDGE, str(dup), "--trace", str(directory))[0] == 3
    assert {path.name: path.read_bytes() for path in trace.iterdir()} == before
    assert not (tmp_path / "absent").exists()
    # A shorter run: its own two stages, and not the first run's stage2.csv.
    assert run_cli(capsys, "run", BRIDGE, GROW1, "--trace", str(trace))[0] == 0
    assert {path.name for path in trace.iterdir()} == {"stage0.csv", "stage1.csv", *others}
    assert all((trace / name).read_text() == text for name, text in others.items())
    assert (trace / "stage0.csv").read_text() == (DATA_DIR / "bridge_stage0.csv").read_text()


def test_a_resumed_trace_keeps_the_earlier_stages_files(tmp_path):
    # Stages 0-1 through one writer, stage 2 through a second one on the same directory.
    (tmp_path / "stage3.csv").write_text("left by a longer run\n")
    first = cli.TraceDirectory(tmp_path)
    state = engine.initial_stage(bridge(), trace=first)
    grow1, grow2 = bridge_stages()
    state, _ = engine.run_expansion(
        state, Expansion.for_network(state.network, grow1), final=False, trace=first
    )
    first.close()
    second = cli.TraceDirectory(tmp_path)
    engine.run_expansion(
        state, Expansion.for_network(state.network, grow2), final=True, trace=second
    )
    second.close()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "stage0.csv", "stage1.csv", "stage2.csv"
    ]
    for stage in (0, 1, 2):
        expected = (DATA_DIR / f"bridge_stage{stage}.csv").read_bytes()
        assert (tmp_path / f"stage{stage}.csv").read_bytes() == expected


def test_trace_directory_matches_the_plain_renderer(tmp_path, monkeypatch):
    # Renderings made on a cache miss: one outcome label's set columns.
    rendered = collections.Counter()

    def counted(cache):
        plain = cache.__missing__

        def render(self, key):
            rendered[cache] += 1
            return plain(self, key)

        monkeypatch.setattr(cache, "__missing__", render)

    counted(cli._LabelColumns)
    # One directory for both runs: the second run must not see the first's cache.
    trace = cli.TraceDirectory(tmp_path)
    runs = []
    for net, stages in (random_scenario(random.Random(5)), (grid_3x3(), GRID_STAGES)):
        rows, blocks = [], []
        runs.append(blocks)

        def collect(block):
            rows.extend(block.rows())
            blocks.append(block)
            trace(block)

        rendered.clear()
        try:
            engine.run(net, stages, trace=collect)
        finally:
            trace.close()
        stage_ids = range(len(stages) + 1)
        distinct = sum(len({r.partition for r in rows if r.stage == k}) for k in stage_ids)
        assert rendered[cli._LabelColumns] == distinct < len(rows)
        for k in stage_ids:
            lines = [cli.TRACE_HEADER] + [cli.format_trace_row(r) for r in rows if r.stage == k]
            assert (tmp_path / f"stage{k}.csv").read_text() == "\n".join(lines) + "\n"
    # Without `close()` between them, the second run's stage-0 blocks follow the
    # first run's later stages into the open files, rendered over their own nodes.
    trace = cli.TraceDirectory(tmp_path / "both")
    try:
        for block in runs[0] + runs[1]:
            trace(block)
    finally:
        trace.close()
    for k in {block.stage for block in runs[0] + runs[1]}:
        _assert_plain_trace(tmp_path / "both" / f"stage{k}.csv", runs[0] + runs[1], k)


def test_a_traced_stage_holds_each_distinct_label_and_column_string_once():
    blocks = []
    engine.run(grid_3x3(), GRID_STAGES, trace=blocks.append)
    for stage in range(1, len(GRID_STAGES) + 1):
        traced = [block for block in blocks if block.stage == stage]
        labels = [label for block in traced for label in block.labels]
        # Equal outcome labels, across all of the stage's blocks, are one object.
        by_value = {}
        assert all(by_value.setdefault(label, label) is label for label in labels)
        assert len(by_value) < len(labels)
        # And the columns a trace directory renders for them, one per distinct string.
        columns = cli._LabelColumns(traced[0].partitions.order)
        by_text = {}
        texts = [columns[label] for label in labels]
        assert all(by_text.setdefault(text, text) is text for text in texts)
        assert len(by_text) < len(by_value)


def _assert_plain_trace(path, blocks, stage):
    """`path` holds, byte for byte, the stage's rows as `format_trace_row` renders them."""
    rows = [row for block in blocks if block.stage == stage for row in block.rows()]
    # Compared as lists of lines, so a failure reports its first differing row quickly.
    expected = [cli.TRACE_HEADER, *map(cli.format_trace_row, rows), ""]
    assert path.read_text().split("\n") == expected


# New node ids drawn at random up to 10**12, so new nodes may sort below old ones.
@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_trace_directory_matches_the_plain_renderer_under_any_node_ids(seed, data):
    net, stages = random_scenario(random.Random(seed))
    nodes = sorted(cumulative_networks(net, stages)[-1].nodes)
    drawn = data.draw(
        st.lists(st.integers(1, 10**12), min_size=len(nodes), max_size=len(nodes), unique=True)
    )
    net, stages = renamed_scenario(net, stages, dict(zip(nodes, drawn)))
    blocks = []
    with tempfile.TemporaryDirectory() as directory:
        trace = cli.TraceDirectory(Path(directory))

        def collect(block):
            blocks.append(block)
            trace(block)

        try:
            engine.run(net, stages, trace=collect)
        finally:
            trace.close()
        for k in range(len(stages) + 1):
            _assert_plain_trace(Path(directory) / f"stage{k}.csv", blocks, k)


def test_a_run_traced_to_a_directory_builds_no_partition(tmp_path, monkeypatch):
    def refused(*args):
        raise AssertionError("a NodePartition was built")

    # The one place a NodePartition is built from a label.
    monkeypatch.setattr(connectivity.LabelOrder, "partition", refused)
    net = grid_3x3()
    blocks = []
    trace = cli.TraceDirectory(tmp_path)

    def collect(block):
        blocks.append(block)
        trace(block)

    states, expansions = [engine.initial_stage(net, trace=collect)], []
    try:
        for k, specs in enumerate(GRID_STAGES):
            expansions.append(Expansion.for_network(states[-1].network, specs))
            final = k == len(GRID_STAGES) - 1
            states.append(engine.run_expansion(states[-1], expansions[-1], final, trace=collect)[0])
    finally:
        trace.close()
    monkeypatch.undo()
    for k in range(len(GRID_STAGES) + 1):
        _assert_plain_trace(tmp_path / f"stage{k}.csv", blocks, k)
    # The outcomes a caller reads are built on demand, and are the reference's.
    for block in blocks:
        if block.stage == 0:
            assert block.outcomes == (partition_nodes(net, block.head),)
    for k, expansion in enumerate(expansions):
        final = k == len(expansions) - 1
        combos = tuple(counting_vectors(expansion.arc_count))
        parents = [part for _, part, _, _ in states[k].infeasible.rows()]
        stage = [block for block in blocks if block.stage == k + 1]
        assert len(stage) == len(parents)
        # The first block of each distinct parent partition.
        first = {}
        for part, block in zip(parents, stage):
            first.setdefault(part, block)
        for part, block in first.items():
            expected = [extend_partition_detail(part, c, expansion)[1] for c in combos]
            assert block.outcomes == tuple(expected[final:])


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


def test_output_stable_across_runs(capsys, tmp_path):
    import os
    import subprocess
    import sys

    import increl

    _, first, _ = run_cli(capsys, "run", BRIDGE, GROW1, GROW2, "--format", "csv")
    _, second, _ = run_cli(capsys, "run", BRIDGE, GROW1, GROW2, "--format", "csv")
    strip_time = lambda text: re.sub(r",\d+\.\d{6}$", ",T", text, flags=re.M)
    assert strip_time(first) == strip_time(second)
    # Two interpreters that hash strings differently: no order may follow a hash.
    runs = []
    for seed in ("0", "1"):
        trace = tmp_path / f"trace{seed}"
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": str(Path(increl.__file__).resolve().parent.parent),
        }
        done = subprocess.run(
            [sys.executable, "-m", "increl", "run", BRIDGE, GROW1, GROW2, "--format", "csv",
             "--trace", str(trace)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        files = {path.name: path.read_bytes() for path in sorted(trace.iterdir())}
        runs.append((strip_time(done.stdout), files))
    assert runs[0] == runs[1]
    assert runs[0][0] == strip_time(first)
    assert sorted(runs[0][1]) == ["stage0.csv", "stage1.csv", "stage2.csv"]


_PINNED_REPORTS = {
    ("human", False): (
        "stage  arcs   vectors   retained  reliability           time\n"
        "    0     5        32         16  0.97848             0.001s\n"
        "    1     7        64         58  0.9870822           0.002s\n"
        "    2     8        58          0  0.98872974          0.003s\n"
        "total             154\n"
        "reliability: 0.98872974\n"
    ),
    ("human", True): (
        "stage  arcs   vectors       naive   retained  reliability           time\n"
        "    0     5        32          32         16  0.97848             0.001s\n"
        "    1     7        64         128         58  0.9870822           0.002s\n"
        "    2     8        58         256          0  0.98872974          0.003s\n"
        "total             154         416\n"
        "reliability: 0.98872974\n"
    ),
    # CSV prints the naive column with or without the flag.
    ("csv", False): (
        "stage,arcs,vectors,naive,retained,reliability,elapsed_s\n"
        "0,5,32,32,16,0.97848,0.001235\n"
        "1,7,64,128,58,0.9870822,0.002000\n"
        "2,8,58,256,0,0.98872974,0.003000\n"
        "total,,154,416,,,\n"
    ),
    ("json", False): (
        '{\n'
        '  "stages": [\n'
        '    {\n'
        '      "stage": 0,\n'
        '      "arcs": 5,\n'
        '      "vectors": 32,\n'
        '      "naive": 32,\n'
        '      "retained": 16,\n'
        '      "reliability": 0.97848,\n'
        '      "elapsed_s": 0.001235,\n'
        '      "partitions_extended": 0\n'
        '    },\n'
        '    {\n'
        '      "stage": 1,\n'
        '      "arcs": 7,\n'
        '      "vectors": 64,\n'
        '      "naive": 128,\n'
        '      "retained": 58,\n'
        '      "reliability": 0.9870822,\n'
        '      "elapsed_s": 0.002,\n'
        '      "partitions_extended": 10\n'
        '    },\n'
        '    {\n'
        '      "stage": 2,\n'
        '      "arcs": 8,\n'
        '      "vectors": 58,\n'
        '      "naive": 256,\n'
        '      "retained": 0,\n'
        '      "reliability": 0.98872974,\n'
        '      "elapsed_s": 0.003,\n'
        '      "partitions_extended": 27\n'
        '    }\n'
        '  ],\n'
        '  "totals": {\n'
        '    "vectors": 154,\n'
        '    "naive": 416\n'
        '  },\n'
        '  "reliability": 0.98872974\n'
        '}\n'
    ),
}


@pytest.mark.parametrize(
    "fmt, show_naive", list(_PINNED_REPORTS), ids=["human", "human-naive", "csv", "json"]
)
def test_report_builder_bytes_are_pinned(fmt, show_naive):
    results = [
        StageResult(0, 5, 0.97848, 16, 32),
        StageResult(1, 7, 0.9870822, 58, 64, partitions_extended=10),
        StageResult(2, 8, 0.98872974, 0, 58, partitions_extended=27),
    ]
    # Stage 0's time shows how each format rounds it.
    elapsed = [0.0012345678, 0.002, 0.003]
    report = build_run_report(results, [32, 128, 256], elapsed, fmt, show_naive)
    assert report == _PINNED_REPORTS[fmt, show_naive]


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
