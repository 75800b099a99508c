"""The 2-process sharded replay, driven through the program's public API.

The benchmark process runs the program's :class:`ShardCoordinator`; each
shard is a fresh interpreter (``python3 -m perfbench.shardrun REPORT
TRACED``) that joins it through :func:`run_shard_worker` -- the same path
as ``ecolife work --shard``. A worker is started before the replay's clock:
it imports the program, installs the tracer's wrappers if asked, prints
``ready`` and then waits for the coordinator's address on its standard
input, so interpreter start-up is never timed. A worker reports its own
peak resident set (``VmHWM`` of its exec'd image, unaffected by the
parent's size) and its spans in a small JSON file.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import resource
import select
import subprocess
import sys
import time

from repro.distributed.shard import ShardCoordinator, ShardJob, run_shard_worker
from repro.simulator.records import SimulationResult

from perfbench.tracer import Tracer, install_shard_worker_layers, kdm_counters
from perfbench.workloads import Inputs

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: How a worker finds the program and this package.
WORKER_PATH = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
#: A merged replay that takes longer than this fails the run.
REPLAY_TIMEOUT_S = 150.0
JOIN_TIMEOUT_S = 30.0
#: A worker that has not printed ``ready`` by then fails the run.
READY_TIMEOUT_S = 60.0


def peak_rss_kb() -> int:
    """This process's peak resident set in KiB (``VmHWM``)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def worker_main(report: str, traced: bool) -> None:
    """Entry point of one shard worker process."""
    # Import what the replay imports lazily, so none of it is timed.
    import repro.experiments.runner  # noqa: F401  (make_scheduler)
    import repro.workloads.tracefile  # noqa: F401  (ShardJob.resolve_trace)

    tracer = Tracer()
    if traced:
        install_shard_worker_layers(tracer)
    print("ready", flush=True)
    # The parent stops reading after "ready"; later output goes nowhere.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    address = sys.stdin.readline().strip()
    if not address:
        raise SystemExit("no coordinator address on stdin")
    run_shard_worker(address)
    payload = {
        "rss_kb": peak_rss_kb(),
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "kdm": kdm_counters(tracer.seen),
    }
    pathlib.Path(report).write_text(json.dumps(payload))


def _await_ready(procs: list[subprocess.Popen]) -> None:
    """Block until every worker has printed ``ready``."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    for proc in procs:
        left = deadline - time.monotonic()
        readable, _, _ = select.select([proc.stdout], [], [], max(left, 0.0))
        line = proc.stdout.readline() if readable else b""
        if line.strip() != b"ready":
            raise RuntimeError(f"shard worker {proc.pid} did not start: {line!r}")
        proc.stdout.close()


def shard_job(inputs: Inputs) -> ShardJob:
    return ShardJob(
        scheduler="ecolife",
        pair=inputs.pair,
        trace=None,
        trace_path=str(inputs.trace_path),
        ci_trace=inputs.ci_trace,
        n_shards=inputs.wdef.n_shards,
        config=inputs.config,
        sim_config=inputs.sim_config,
        foreign_fast_path=True,
    )


def run_sharded(
    job: ShardJob, workdir: pathlib.Path, traced: bool
) -> tuple[SimulationResult, float, list[dict]]:
    """One merged replay: (result, wall seconds, per-worker reports)."""
    reports = [workdir / f"shard-{i}.json" for i in range(job.n_shards)]
    for path in reports:
        path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=WORKER_PATH)
    procs: list[subprocess.Popen] = []

    async def drive() -> tuple[SimulationResult, float]:
        coordinator = ShardCoordinator(job)
        address = await coordinator.start()
        try:
            start = time.perf_counter()
            for proc in procs:
                proc.stdin.write(f"{address}\n".encode())
                proc.stdin.close()
            result = await asyncio.wait_for(coordinator.wait(), REPLAY_TIMEOUT_S)
            return result, time.perf_counter() - start
        finally:
            await coordinator.close()

    try:
        for path in reports:
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "perfbench.shardrun", str(path),
                     "1" if traced else "0"],
                    env=env,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
            )
        _await_ready(procs)
        result, wall = asyncio.run(drive())
    finally:
        for proc in procs:
            if proc.stdin and not proc.stdin.closed:
                proc.stdin.close()
            try:
                proc.wait(JOIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout and not proc.stdout.closed:
                proc.stdout.close()
    bad = [p.returncode for p in procs if p.returncode != 0]
    if bad:
        raise RuntimeError(f"shard workers exited with codes {bad}")
    return result, wall, [json.loads(p.read_text()) for p in reports]


if __name__ == "__main__":
    worker_main(sys.argv[1], sys.argv[2] == "1")
