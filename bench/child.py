"""One `increl run` job in a fresh interpreter, timed from inside.

    python3 bench/child.py RESULT NET [INC ...] [--csv-trace DIR] [--layers]
        [--stop-after parse|initial]

Makes the same sequence of public calls as `increl run`: parse the NET
and INC files, run stage 0, bind and run each growth batch (the last
one final), render the report to stdout. `--stop-after` ends the job
early, for probes that sample set-up or stage 0 alone. Timestamps are
`time.monotonic_ns()`, a system-wide clock on Linux, so the parent can
subtract its own spawn time. The result goes to the JSON file RESULT;
reliabilities are written as float hex, at full precision.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("network")
    parser.add_argument("expansions", nargs="*")
    parser.add_argument("--csv-trace", metavar="DIR")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--stop-after", choices=("parse", "initial"))
    args = parser.parse_args(argv)

    recorder = None
    if args.layers:
        import layers

        recorder = layers.install()
    from increl import cli, engine, model, netfile

    def read(path: str) -> str:
        return Path(path).read_text(encoding="utf-8")

    net = netfile.parse_network(read(args.network))
    stage_specs = [netfile.parse_expansion_specs(read(p)) for p in args.expansions]
    now = time.monotonic_ns
    out: dict = {"parsed_ns": now()}
    if args.stop_after == "initial":
        stage_specs = []
    if args.stop_after != "parse":
        naive = engine.full_enumeration_counts(net, stage_specs)
        trace = cli.TraceDirectory(Path(args.csv_trace)) if args.csv_trace else None
        try:
            start = now()
            state = engine.initial_stage(net, trace=trace)
            stage_ns = [now() - start]
            results = [
                engine.StageResult(
                    stage_index=0,
                    arc_count=net.arc_count,
                    reliability=state.reliability,
                    infeasible_count=len(state.infeasible),
                    vectors_generated=1 << net.arc_count,
                )
            ]
            bind_ns = 0
            for k, specs in enumerate(stage_specs):
                start = now()
                expansion = model.Expansion.for_network(state.network, specs)
                bound = now()
                state, result = engine.run_expansion(
                    state, expansion, final=(k == len(stage_specs) - 1), trace=trace
                )
                stage_ns.append(now() - bound)
                bind_ns += bound - start
                results.append(result)
        finally:
            if trace is not None:
                trace.close()
        start = now()
        sys.stdout.write(
            cli.build_run_report(results, naive, [ns / 1e9 for ns in stage_ns])
        )
        out.update(
            stage_ns=stage_ns,
            bind_ns=bind_ns,
            report_ns=now() - start,
            stages=[
                {
                    "examined": r.vectors_generated,
                    "retained": r.infeasible_count,
                    "reliability": r.reliability.hex(),
                }
                for r in results
            ],
        )
    if recorder is not None:
        out["layers"] = recorder.export()
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
