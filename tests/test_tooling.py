"""The test suite's own configuration, the package's source, and the benchmark job it drives."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from increl import Expansion, cli, engine, initial_stage, run, run_expansion
from helpers import bridge, bridge_stages

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_SUITE = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 10


def test_a_stray_warning():
    warnings.warn("stray", DeprecationWarning)


def test_a_passing_test():
    pass
'''


def test_a_failing_property_is_reported_and_every_other_warning_still_fails(tmp_path):
    # Reporting a failed property imports libcst, which warns about
    # mypy_extensions.TypedDict; under a blanket "error" filter that aborts the run.
    (tmp_path / "test_suite.py").write_text(_SUITE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_suite.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "FAILED test_suite.py::test_a_failing_property" in done.stdout
    assert "FAILED test_suite.py::test_a_stray_warning" in done.stdout
    assert "2 failed, 1 passed" in done.stdout


def test_importing_the_package_and_its_cli_loads_neither_dataclasses_nor_inspect():
    # `dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`: about
    # 1 MB of resident memory and several milliseconds of every start-up.
    # `-S` leaves out what site hooks of the environment import.
    src = str(PYPROJECT.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import increl, increl.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_the_benchmark_job_writes_the_bridge_trace_goldens(tmp_path):
    root = PYPROJECT.parent
    trace = tmp_path / "trace"
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "child.py"), str(tmp_path / "result.json"),
         "fixtures/bridge.net", "fixtures/bridge_grow1.inc", "fixtures/bridge_grow2.inc",
         "--csv-trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    for stage in (0, 1, 2):
        expected = (root / "tests" / "data" / f"bridge_stage{stage}.csv").read_bytes()
        assert (trace / f"stage{stage}.csv").read_bytes() == expected


def test_run_reaches_both_stage_bodies_through_the_names_the_benchmark_can_span(monkeypatch):
    # `bench/layers.py` spans a stage by rebinding its function in `engine`:
    # `run`, `initial_stage` and `run_expansion` must call the stage bodies by those names.
    calls = []

    def counted(name):
        body = getattr(engine, name)

        def call(*args):
            calls.append(name)
            return body(*args)

        return call

    for name in ("_initial", "_run_bound"):
        monkeypatch.setattr(engine, name, counted(name))
    run(bridge(0.9), bridge_stages())
    assert calls == ["_initial", "_run_bound", "_run_bound"]
    calls.clear()
    state = initial_stage(bridge(0.9))
    assert calls == ["_initial"]
    run_expansion(state, Expansion.for_network(state.network, bridge_stages()[0]), final=False)
    assert calls == ["_initial", "_run_bound"]


def test_the_readme_library_examples_run_and_print_the_bridge():
    root = PYPROJECT.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 2
    # One script, so the second block reads the first one's `net`; a marker line between them.
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", "print('--')\n".join(blocks)],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    first, second = (part.splitlines() for part in done.stdout.split("--\n"))
    # Stage, reliability, vectors examined and elapsed seconds of each of the bridge's stages.
    assert [line.split()[0] for line in first] == ["0", "1", "2"]
    assert [line.split()[2] for line in first] == ["32", "64", "58"]
    assert abs(float(first[0].split()[1]) - 0.97848) < 1e-12
    # The first trace row: stage 0's first vector, as the CSV golden prints it.
    golden = (root / "tests" / "data" / "bridge_stage0.csv").read_text().splitlines()
    assert second[0] == golden[1]


def test_the_readme_command_lines_exit_0(monkeypatch, capsys, tmp_path):
    root = PYPROJECT.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("increl ")]
    assert len(lines) == 7
    bridge_files = ["fixtures/bridge.net", "fixtures/bridge_grow1.inc", "fixtures/bridge_grow2.inc"]
    # The fixture paths are relative to the checkout; the traces go to `tmp_path`.
    monkeypatch.chdir(root)
    for argv in lines:
        argv = [str(tmp_path / "out") if arg == "out/" else arg for arg in argv]
        if "..." in argv:
            at = argv.index("...")
            argv[at:at + 1] = bridge_files
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[-2:] == ["--format", "json"]:
            assert json.loads(out)["stages"][-1]["vectors"] == 58
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == [
        "stage0.csv", "stage1.csv", "stage2.csv"
    ]


PACKAGE = PYPROJECT.parent / "src" / "increl"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _referenced(tree):
    """Every name a module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _rebound_by_the_benchmark():
    """Each (module, name) that `bench/layers.py` assigns as `module.name`."""
    tree = ast.parse((PYPROJECT.parent / "bench" / "layers.py").read_text(encoding="utf-8"))
    return {
        (target.value.id, target.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
    }


def test_the_package_imports_nothing_it_does_not_use():
    # `__init__.py` imports to re-export, and a `# noqa: F401` import
    # keeps only names that the benchmark's instrumentation rebinds.
    rebound = _rebound_by_the_benchmark()
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        source = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        used = _referenced(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            kept = "# noqa: F401" in source[node.lineno - 1]
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and not (kept and (name[:-3], bound) in rebound):
                    unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_function_and_class_of_the_package_is_used():
    modules = _modules()
    used = set().union(*map(_referenced, modules.values()))
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defined = [
        f"{name} {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert defined == []


def test_every_public_function_and_class_is_exported_or_used_by_another_module():
    # `__init__.py` imports what `__all__` lists, so its imports do not count as a use.
    modules = _modules()
    exported = next(
        ast.literal_eval(node.value)
        for node in modules["__init__.py"].body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )
    used = {}
    for name, tree in modules.items():
        used[name] = _referenced(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used[name].update(alias.name for alias in node.names)
    unused = []
    for name in ("connectivity.py", "engine.py", "enumeration.py", "model.py", "netfile.py",
                 "oracle.py"):
        others = (u for other, u in used.items() if other not in (name, "__init__.py"))
        elsewhere = set().union(*others)
        unused += [
            f"{name} {node.name}"
            for node in modules[name].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in exported
            and node.name not in elsewhere
        ]
    assert unused == []


def test_the_parser_alone_knows_the_byte_order_mark_and_every_file_call_names_its_encoding():
    # `netfile._significant_lines` drops a leading mark for every caller; a
    # `utf-8-sig` read elsewhere would make one caller's input differ from another's.
    marks = ("\ufeff", "\\ufeff", "utf-8-sig", "utf_8_sig")
    mentions = [
        f"{path.name} {mark!r}"
        for path in PACKAGE.glob("*.py")
        if path.name != "netfile.py"
        for mark in marks
        if mark in path.read_text(encoding="utf-8").lower()
    ]
    assert mentions == []
    # The locale's encoding would decide the bytes otherwise.
    unnamed = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "open"
             or getattr(node.func, "attr", None) in ("open", "read_text", "write_text"))
        and not any(keyword.arg == "encoding" for keyword in node.keywords)
    ]
    assert unnamed == []
