"""Command-line front end.

Subcommands::

    increl compute <net>                      stage-0 reliability only
    increl run <net> <inc>... [options]       staged growth report
    increl oracle <net>                       brute-force cross-check
    increl version

Exit codes: 0 ok (also for ``--help``), 1 parse error, unreadable
file or command-line usage error, 2 size cap exceeded, 3 invalid
expansion.

``run --trace DIR`` replaces DIR's ``stageK.csv`` files with one per
stage, one row per examined vector. The engine hands the rows over as
one `TraceBlock` per parent vector, and `TraceDirectory` writes each
block at once, rendering the set columns by `LabelOrder.split`.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import count
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import increl
from increl.connectivity import LabelOrder, PartitionCache
from increl.engine import StageResult, TraceBlock, TraceRow, full_enumeration_counts, run
from increl.model import Bits, CapExceededError, ExpansionError, ParseError
from increl.netfile import parse_expansion_specs, parse_network
from increl.oracle import brute_force_reliability


def round12(value: float) -> float:
    """Round to the 12 significant digits every output format prints."""
    return float(f"{value:.12g}")


def format_nodes(nodes: Iterable[int]) -> str:
    """Render a node set for traces, e.g. ``{2 3 5}`` or ``{}``."""
    return "{" + " ".join(map(str, sorted(nodes))) + "}"


TRACE_HEADER = "i,j,vector,source_set,middle_set,sink_set,connected"


# Renders a 0/1 vector in one C-level pass: bytes((0, 1)) -> "01".
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bit_string(bits: Bits) -> str:
    return bytes(bits).translate(_BIT_CHARS).decode("ascii")


def format_trace_row(row: TraceRow) -> str:
    part, connected = row.partition, "Y" if row.connected else ""
    sets = ",".join(map(format_nodes, (part.source_side, part.middle_union(), part.sink_side)))
    return f"{row.parent_index},{row.index},{_bit_string(row.bits)},{sets},{connected}"


class _LabelColumns(dict):
    """Each outcome label's ``source_set,middle_set,sink_set,connected`` columns.

    One per stage, rendered on first use: the stage's `LabelOrder` places
    the nodes' names on the label's sides, sorted as `format_nodes` does.
    Labels that group the middle nodes differently render alike, since
    the middle set is their union, so equal columns are shared through
    `shared` and each is held once.
    """

    def __init__(self, order: LabelOrder) -> None:
        super().__init__()
        self.split, self.names = order.split, [str(v) for v in sorted(order.nodes)]
        self.shared: dict[str, str] = {}

    def __missing__(self, label: str) -> str:
        source, middle, sink = self.split(label, self.names)
        sets = "},{".join([" ".join(source), " ".join(middle), " ".join(sink)])
        columns = f"{{{sets}}},{'Y' if sink is source else ''}"
        columns = self[label] = self.shared.setdefault(columns, columns)
        return columns


class TraceDirectory:
    """Streams trace blocks into one CSV file per stage, one write per block.

    A run's first block makes the directory and removes the stage files
    (``stage<K>.csv``, K as the writer prints it) an earlier run left at
    or past that block's stage, so a run resumed at stage K keeps the
    files of stages 0..K-1.
    Every stage call brings its own label cache and combinations, so per
    cache each combination's bit string is rendered once, each label's
    set columns on first use, and a row joins the parent's bits to those.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self._files: dict[int, TextIO] = {}
        # The last block's label cache, held so its identity cannot pass to
        # another, with its labels' columns and its combinations' bit strings.
        self._partitions: PartitionCache | None = None
        self._columns: dict[str, str] = {}
        self._tails: tuple[str, ...] = ()

    def __call__(self, block: TraceBlock) -> None:
        handle = self._files.get(block.stage)
        if handle is None:
            if not self._files:
                self.directory.mkdir(parents=True, exist_ok=True)
                for path in self.directory.glob("stage*.csv"):
                    k = int(path.name[5:-4]) if path.name[5:-4].isdecimal() else -1
                    if k >= block.stage and path.name == f"stage{k}.csv":
                        path.unlink()
            handle = (self.directory / f"stage{block.stage}.csv").open("w", encoding="utf-8")
            handle.write(TRACE_HEADER + "\n")
            self._files[block.stage] = handle
        if block.partitions is not self._partitions:
            self._partitions = block.partitions
            self._columns = _LabelColumns(block.partitions.order)
            self._tails = tuple(map(_bit_string, block.combos))
        columns = self._columns
        parent, head = f"{block.parent_index},", f",{_bit_string(block.head)}"
        rows = zip(count(block.first_index), self._tails, block.labels)
        handle.write("".join([f"{parent}{j}{head}{tail},{columns[c]}\n" for j, tail, c in rows]))

    def close(self) -> None:
        for handle in self._files.values():
            handle.close()
        self._files.clear()
        self._partitions, self._columns, self._tails = None, {}, ()


# A report row's fields as JSON names them; CSV prints all but the last.
_REPORT_KEYS = "stage arcs vectors naive retained reliability elapsed_s partitions_extended".split()


def build_run_report(
    results: Sequence[StageResult],
    naive: Sequence[int],
    elapsed: Sequence[float],
    fmt: str = "human",
    show_naive: bool = False,
) -> str:
    """Render the per-stage report; pure so goldens can pin its bytes.

    Each stage is read once into a row of `_REPORT_KEYS` that every format renders.
    """
    rows = [
        (r.stage_index, r.arc_count, r.vectors_generated, n, r.infeasible_count,
         round12(r.reliability), e, r.partitions_extended)
        for r, n, e in zip(results, naive, elapsed)
    ]
    total_vectors, total_naive = sum(row[2] for row in rows), sum(naive)
    reliability = rows[-1][5]
    if fmt == "json":
        stages = [dict(zip(_REPORT_KEYS, row), elapsed_s=round(row[6], 6)) for row in rows]
        totals = {"vectors": total_vectors, "naive": total_naive}
        payload = {"stages": stages, "totals": totals, "reliability": reliability}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(_REPORT_KEYS[:7])]
        for k, arcs, vectors, n, kept, rel, e, _ in rows:
            lines.append(f"{k},{arcs},{vectors},{n},{kept},{rel:.12g},{e:.6f}")
        lines.append(f"total,,{total_vectors},{total_naive},,,")
    else:
        # The first four columns of a line; the naive one only with `show_naive`.
        def line(k: object, arcs: object, vectors: object, n: object, tail: str = "") -> str:
            return f"{k:>5}  {arcs:>4}  {vectors:>8}" + (f"  {n:>10}" if show_naive else "") + tail

        tail = f"  {'retained':>9}  {'reliability':<16}  {'time':>8}"
        lines = [line("stage", "arcs", "vectors", "naive", tail)]
        for k, arcs, vectors, n, kept, rel, e, _ in rows:
            lines.append(line(k, arcs, vectors, n, f"  {kept:>9}  {rel:<16.12g}  {e:>7.3f}s"))
        lines += [line("total", "", total_vectors, total_naive), f"reliability: {reliability:.12g}"]
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def cmd_run(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network))
    stage_specs = [parse_expansion_specs(_read(path)) for path in args.expansions]
    naive = full_enumeration_counts(net, stage_specs)
    trace = TraceDirectory(Path(args.trace)) if args.trace else None
    try:
        results = run(net, stage_specs, trace=trace)
    finally:
        if trace is not None:
            trace.close()
    elapsed = [r.elapsed_s for r in results]
    sys.stdout.write(
        build_run_report(results, naive, elapsed, fmt=args.format, show_naive=args.naive)
    )
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network))
    reliability = brute_force_reliability(net)
    sys.stdout.write(f"vectors: {1 << net.arc_count}\n")
    sys.stdout.write(f"reliability: {round12(reliability):.12g}\n")
    return 0


def cmd_version(_: argparse.Namespace) -> int:
    sys.stdout.write(f"increl {increl.__version__}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="increl",
        description="Exact two-terminal reliability for networks that grow in stages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="reliability of a network as-is")
    p_compute.add_argument("network", help="NET file")
    p_compute.set_defaults(func=cmd_run, expansions=[], trace=None, naive=False, format="human")

    p_run = sub.add_parser("run", help="staged reliability with growth batches")
    p_run.add_argument("network", help="NET file")
    p_run.add_argument("expansions", nargs="*", help="INC files, applied in order")
    p_run.add_argument("--trace", metavar="DIR", help="write per-stage CSV traces")
    p_run.add_argument("--naive", action="store_true", help="show from-scratch vector counts")
    p_run.add_argument(
        "--format", choices=("human", "csv", "json"), default="human", help="output format"
    )
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle", help="brute-force reliability (small networks)")
    p_oracle.add_argument("network", help="NET file")
    p_oracle.set_defaults(func=cmd_oracle)

    p_version = sub.add_parser("version", help="print the version")
    p_version.set_defaults(func=cmd_version)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "size cap exceeded" here.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExpansionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
