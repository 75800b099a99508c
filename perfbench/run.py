"""EcoLife benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload bursty-pressure-replay --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from ``--seed``, replays them through the
program under ``src/``, serves them through ``/decide``, checks every
output, and prints a human-readable report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The full report (environment,
operation counts, spans) is written under ``perfbench/out/``. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description="EcoLife benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _use_program_sources() -> bool:
    """Import the program from ``src/`` and this package from the root."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path[:] = [str(SRC), str(ROOT)] + [
        p for p in sys.path if pathlib.Path(p or ".").resolve() != HERE
    ]
    return True


def _check_declared(declared: dict, end_to_end: dict, per_layer: dict) -> None:
    """BENCHMARK.json and this benchmark must name the same metrics."""
    for key, ours in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        theirs = {m["name"]: m["unit"] for m in declared.get(key, [])}
        if theirs != ours:
            raise SystemExit(f"BENCHMARK.json {key} does not match the benchmark")


def main(argv=None) -> int:
    args = _parse(argv)
    if not _use_program_sources():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    from perfbench import bench

    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        _check_declared(
            json.loads(declared.read_text()), bench.END_TO_END, bench.PER_LAYER
        )
    OUT.mkdir(exist_ok=True)
    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    bench.write_report(report, OUT)
    bench.print_report(report)
    print(
        json.dumps(
            {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
