"""Command-line front end.

Subcommands::

    increl compute <net>                      stage-0 reliability only
    increl run <net> <inc>... [options]       staged growth report
    increl oracle <net>                       brute-force cross-check
    increl version

Exit codes: 0 ok (also for ``--help``), 1 parse error, unreadable
file or command-line usage error, 2 size cap exceeded, 3 invalid
expansion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence, TextIO

import increl
from increl.connectivity import NodePartition
from increl.engine import StageResult, TraceRow, full_enumeration_counts, run
from increl.model import CapExceededError, ExpansionError, ParseError
from increl.netfile import parse_expansion_specs, parse_network
from increl.oracle import brute_force_reliability


def round12(value: float) -> float:
    """Round to the 12 significant digits every output format prints."""
    return float(f"{value:.12g}")


def format_nodes(nodes: frozenset[int]) -> str:
    """Render a node set for traces, e.g. ``{2 3 5}`` or ``{}``."""
    return "{" + " ".join(map(str, sorted(nodes))) + "}"


TRACE_HEADER = "i,j,vector,source_set,middle_set,sink_set,connected"


def _format_sets(part: NodePartition) -> str:
    """The ``source_set,middle_set,sink_set`` columns of a trace row."""
    return ",".join(
        (
            format_nodes(part.source_side),
            format_nodes(part.middle_union()),
            format_nodes(part.sink_side),
        )
    )


# Renders a 0/1 vector in one C-level pass: bytes((0, 1)) -> "01".
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _format_row(row: TraceRow, sets: str) -> str:
    bits = bytes(row.bits).translate(_BIT_CHARS).decode("ascii")
    return f"{row.parent_index},{row.index},{bits},{sets},{'Y' if row.connected else ''}"


def format_trace_row(row: TraceRow) -> str:
    return _format_row(row, _format_sets(row.partition))


class TraceDirectory:
    """Streams trace rows into one CSV file per stage.

    Many rows of a stage share a partition, so its set columns are
    rendered once per stage and looked up by value for the rest.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self._files: dict[int, TextIO] = {}
        self._sets: dict[NodePartition, str] = {}

    def __call__(self, row: TraceRow) -> None:
        handle = self._files.get(row.stage)
        if handle is None:
            handle = (self.directory / f"stage{row.stage}.csv").open("w", encoding="utf-8")
            handle.write(TRACE_HEADER + "\n")
            self._files[row.stage] = handle
            self._sets.clear()
        sets = self._sets.get(row.partition)
        if sets is None:
            sets = self._sets[row.partition] = _format_sets(row.partition)
        handle.write(_format_row(row, sets) + "\n")

    def close(self) -> None:
        for handle in self._files.values():
            handle.close()
        self._files.clear()
        self._sets.clear()


def build_run_report(
    results: Sequence[StageResult],
    naive: Sequence[int],
    elapsed: Sequence[float],
    fmt: str = "human",
    show_naive: bool = False,
) -> str:
    """Render the per-stage report; pure so goldens can pin its bytes."""
    total_vectors = sum(r.vectors_generated for r in results)
    total_naive = sum(naive)
    final_reliability = round12(results[-1].reliability)

    if fmt == "json":
        payload = {
            "stages": [
                {
                    "stage": r.stage_index,
                    "arcs": r.arc_count,
                    "vectors": r.vectors_generated,
                    "naive": naive[k],
                    "retained": r.infeasible_count,
                    "reliability": round12(r.reliability),
                    "elapsed_s": round(elapsed[k], 6),
                    "partitions_extended": r.partitions_extended,
                }
                for k, r in enumerate(results)
            ],
            "totals": {"vectors": total_vectors, "naive": total_naive},
            "reliability": final_reliability,
        }
        return json.dumps(payload, indent=2) + "\n"

    if fmt == "csv":
        lines = ["stage,arcs,vectors,naive,retained,reliability,elapsed_s"]
        for k, r in enumerate(results):
            lines.append(
                f"{r.stage_index},{r.arc_count},{r.vectors_generated},{naive[k]},"
                f"{r.infeasible_count},{round12(r.reliability):.12g},{elapsed[k]:.6f}"
            )
        lines.append(f"total,,{total_vectors},{total_naive},,,")
        return "\n".join(lines) + "\n"

    lines = []
    header = f"{'stage':>5}  {'arcs':>4}  {'vectors':>8}"
    if show_naive:
        header += f"  {'naive':>10}"
    header += f"  {'retained':>9}  {'reliability':<16}  {'time':>8}"
    lines.append(header)
    for k, r in enumerate(results):
        line = f"{r.stage_index:>5}  {r.arc_count:>4}  {r.vectors_generated:>8}"
        if show_naive:
            line += f"  {naive[k]:>10}"
        line += f"  {r.infeasible_count:>9}  {round12(r.reliability):<16.12g}  {elapsed[k]:>7.3f}s"
        lines.append(line)
    total_line = f"{'total':>5}  {'':>4}  {total_vectors:>8}"
    if show_naive:
        total_line += f"  {total_naive:>10}"
    lines.append(total_line)
    lines.append(f"reliability: {final_reliability:.12g}")
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
