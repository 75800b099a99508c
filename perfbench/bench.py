"""One benchmark run of one workload: set-up, warm-up, timed rounds of
replay and serving, output checks.

A run with tracing off reports the end-to-end metrics. A run with tracing
on sets up and warms up the same way, times two untraced replays and one
traced replay, serves the stream one arrival per request and then at a
fixed open-loop rate, and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core import EcoLifeScheduler
from repro.simulator import SimulationEngine
from repro.simulator.records import SimulationResult

from perfbench import checks, serving, shardrun
from perfbench.tracer import (
    LEDGER,
    Tracer,
    install_replay_layers,
    install_service_layer,
    kdm_counters,
    root_time,
    self_times,
)
from perfbench.workloads import WORKLOADS, Inputs, build_inputs

#: Metric name -> unit, as BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "replay_inv_per_s": "inv/s",
    "peak_rss_mb": "MiB",
    "carbon_mg_per_inv": "mg",
    "service_time_mean_s": "s",
    "decide_p50_ms": "ms",
    "decide_batch_per_s": "decisions/s",
}
PER_LAYER = {
    "workloads.trace_build_s": "s",
    "workloads.trace_open_s": "s",
    "simulator.self_s": "s",
    "simulator.evictions": "count",
    "simulator.dropped_keepalives": "count",
    "scheduler.place_s": "s",
    "scheduler.adjust_s": "s",
    "scheduler.adjust_calls": "count",
    "scheduler.decisions_per_batch": "count",
    "kdm.decide_s": "s",
    "kdm.decisions": "count",
    "kdm.retired": "count",
    "kdm.rehydrated": "count",
    "kdm.peak_live": "count",
    "objective.build_s": "s",
    "objective.eval_s": "s",
    "objective.eval_rows": "count",
    "arrival.batch_s": "s",
    "fleet.step_self_s": "s",
    "fleet.perceive_s": "s",
    "fleet.step_calls": "count",
    "carbon.account_s": "s",
    "carbon.integrate_s": "s",
    "carbon.integrate_calls": "count",
    "service.decide_s": "s",
    "service.http_overhead_ms": "ms",
    "service.decide_p99_ms": "ms",
    "service.open_loop_p50_ms": "ms",
    "service.open_loop_p99_ms": "ms",
    "service.generator_late_ms": "ms",
    "shard.barriers": "count",
    "shard.barrier_wait_s": "s",
    "shard.decisions_exchanged": "count",
    "shard.foreign_absorbed": "count",
    "shard.foreign_per_event": "count",
    "shard.absorb_s": "s",
    "shard.worker_open_s": "s",
    "shard.worker_rss_mb": "MiB",
    "trace.replay_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "ledger.remainder_s": "s",
}

#: Set-ups before the warm-up replay. A run with tracing off sets up once
#: more after each timed round, so the set-ups sample the whole run rather
#: than the host's speed in its first half-second; ``setup_s`` is the
#: median of them all.
SETUPS = 7
#: A timed round is one replay, then the next third of the stream through
#: each serving phase, so every metric samples the whole run. Rounds repeat
#: until ``--seconds`` have passed, at least ``MIN_ROUNDS`` of them.
CHUNKS = 3
MIN_ROUNDS = 3
#: Untraced replays a traced run times to measure tracing overhead.
TRACE_BASELINE_REPLAYS = 2
#: Arrivals per POST in the batched serving phase.
SERVE_BATCH = 64
#: Open-loop phase (traced runs): requests at one fixed rate far below
#: the one-client capacity (about 600 requests/s at the 1.5-1.8 ms median
#: round trip measured on a 2-core host).
OPEN_LOOP_REQUESTS = 1000
OPEN_LOOP_RATE = 100.0


@dataclass
class Ops:
    """What a run attempted and what failed."""

    replays: int = 0
    invocations_replayed: int = 0
    requests: dict[str, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.invocations_replayed + self.requests.get("sent", 0)

    @property
    def failed(self) -> int:
        return self.requests.get("refused", 0) + self.requests.get("errored", 0)


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


class Replayer:
    """Runs the workload's full replay: one process or merged shards."""

    def __init__(self, inputs: Inputs, workdir: pathlib.Path) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.sharded = inputs.wdef.n_shards > 1
        self.job = shardrun.shard_job(inputs) if self.sharded else None
        # The first replay's engine and scheduler are built here, so their
        # construction counts toward set-up.
        self._next = None if self.sharded else self._engine()
        #: Per-worker reports of the latest sharded replay.
        self.reports: list[dict] = []

    def _engine(self):
        inp = self.inputs
        return (
            SimulationEngine(
                pair=inp.pair, trace=inp.trace, ci_trace=inp.ci_trace, config=inp.sim_config
            ),
            EcoLifeScheduler(inp.config),
        )

    def replay(self, traced: bool = False) -> tuple[SimulationResult, float]:
        if self.sharded:
            result, wall, self.reports = shardrun.run_sharded(
                self.job, self.workdir, traced
            )
            return result, wall
        engine, scheduler = self._next or self._engine()
        self._next = None
        start = time.perf_counter()
        result = engine.run(scheduler)
        return result, time.perf_counter() - start

    def one_process(self) -> SimulationResult:
        engine, scheduler = self._engine()
        return engine.run(scheduler)


def _setup_once(name: str, seed: int, where: pathlib.Path, tracer: Tracer):
    """One timed set-up in ``where``: (replayer, wall, build, open)."""
    where.mkdir(parents=True)
    gc.collect()
    start = time.perf_counter()
    inputs = build_inputs(name, seed, where, tracer)
    replayer = Replayer(inputs, where)
    wall = time.perf_counter() - start
    spans, _ = tracer.take()
    build = sum(e - s for _i, n, s, e, _p in spans if n == "workloads.trace_build")
    opened = sum(e - s for _i, n, s, e, _p in spans if n == "workloads.trace_open")
    return replayer, wall, build, opened


def _setup(name: str, seed: int, workdir: pathlib.Path, tracer: Tracer):
    """Set up ``SETUPS`` times; returns the last set-up and the timings."""
    walls, builds, opens = [], [], []
    replayer = None
    for k in range(SETUPS):
        if replayer is not None:
            shutil.rmtree(replayer.workdir, ignore_errors=True)
        replayer, wall, build, opened = _setup_once(
            name, seed, workdir / f"setup-{k}", tracer
        )
        walls.append(wall)
        builds.append(build)
        opens.append(opened)
    return replayer, {
        "setup_walls_s": walls,
        "workloads.trace_build_s": statistics.median(builds),
        "workloads.trace_open_s": statistics.median(opens),
    }


def _setup_again(
    name: str, seed: int, workdir: pathlib.Path, tracer: Tracer, walls: list[float]
) -> None:
    """One more timed set-up of the same inputs, thrown away after."""
    where = workdir / "setup-again"
    _, wall, _, _ = _setup_once(name, seed, where, tracer)
    walls.append(wall)
    shutil.rmtree(where, ignore_errors=True)


def _replay(replayer: Replayer, ops: Ops, traced: bool = False):
    gc.collect()
    result, wall = replayer.replay(traced)
    ops.replays += 1
    ops.invocations_replayed += len(result)
    return result, wall


def _tally(ops: Ops, phase: serving.Requests, name: str, problems: list[str]):
    """Count a serving phase's requests and keep its errors."""
    phase.merge_into(ops.requests)
    for err in phase.errors:
        problems.append(f"{name}: {err}")
    return phase


def _check_all(
    inputs: Inputs,
    replayer: Replayer,
    result: SimulationResult,
    served: dict[str, serving.Requests],
    ops: Ops,
    problems: list[str],
) -> tuple[dict[str, int], int]:
    """Every output check: (violations per check, keep-alives that moved
    between generations more than once)."""
    found: list[checks.Violation] = checks.replay_checks(inputs, result.records)
    reference = result.records
    if replayer.sharded:
        one = replayer.one_process()
        ops.invocations_replayed += len(one)
        ops.replays += 1
        found += checks.check_same_records("shard_identity", result.records, one.records)
        reference = one.records
    for name, phase in served.items():
        decisions = checks.decisions_from_payload(phase.decisions)
        found += checks.serving_checks(inputs, decisions, len(decisions))
    whole = _tally(
        ops,
        serving.closed_loop(
            serving.new_service(inputs), inputs.arrivals, len(inputs.arrivals)
        ),
        "identity",
        problems,
    )
    identity = checks.decisions_from_payload(whole.decisions)
    found += checks.check_service_identity(identity, reference)
    for name in checks.self_test(inputs, result.records, identity):
        problems.append(f"check {name} did not reject a corrupted record")
    for v in found[:20]:
        problems.append(str(v))
    counts: dict[str, int] = {}
    for v in found:
        counts[v.check] = counts.get(v.check, 0) + 1
    return counts, len(checks.segments(inputs, result.records).moving)


def _environment(inputs: Inputs) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "invocations": len(inputs.arrivals),
        "functions": len(inputs.profiles),
        "n_shards": inputs.wdef.n_shards,
    }


def run(name: str, seed: int, seconds: float, traced: bool, outdir: pathlib.Path) -> dict:
    """One run of workload ``name``; returns the full report."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workdir = outdir / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(name, seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name: str, seed: int, seconds: float, traced: bool, workdir: pathlib.Path) -> dict:
    tracer = Tracer()
    ops = Ops()
    problems: list[str] = []

    # 1. Set-up.
    replayer, setup = _setup(name, seed, workdir, tracer)
    inputs = replayer.inputs

    # 2. One warm-up replay; every replay starts after a collection.
    _replay(replayer, ops)

    if traced:
        # 3. Untraced replays to compare with, one traced replay, serving.
        walls, worker_rss = [], []
        for _ in range(TRACE_BASELINE_REPLAYS):
            walls.append(_replay(replayer, ops)[1])
            worker_rss += [r["rss_kb"] for r in replayer.reports]
        result, metrics, served, spans = _per_layer(
            replayer, tracer, ops, problems, statistics.median(walls)
        )
        metrics["workloads.trace_build_s"] = setup["workloads.trace_build_s"]
        metrics["workloads.trace_open_s"] = setup["workloads.trace_open_s"]
        metrics["shard.worker_rss_mb"] = (
            max(worker_rss) / 1024.0 if replayer.sharded else 0.0
        )
    else:
        # 3-4. Timed rounds with tracing off, then replays to fill --seconds.
        result, walls, metrics, served = _end_to_end(
            replayer,
            ops,
            problems,
            seconds,
            lambda: _setup_again(name, seed, workdir, tracer, setup["setup_walls_s"]),
        )
        n = len(inputs.arrivals)
        metrics.update(
            {
                "setup_s": statistics.median(setup["setup_walls_s"]),
                "replay_inv_per_s": n / statistics.median(walls),
                "carbon_mg_per_inv": result.total_carbon_g / n * 1000.0,
                "service_time_mean_s": result.mean_service_s,
            }
        )
        spans = []

    # 5. Output checks (outside the timed phases).
    violations, moving = _check_all(inputs, replayer, result, served, ops, problems)
    if ops.failed:
        problems.append(f"{ops.failed} /decide requests were refused or failed")

    units = PER_LAYER if traced else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        "operations": {
            "replays": ops.replays,
            "invocations_replayed": ops.invocations_replayed,
            "decide_requests": ops.requests,
            "check_violations": violations,
            "multi_move_keepalives": moving,
        },
        "problems": problems,
        "replay_walls_s": walls,
        "setup_walls_s": setup["setup_walls_s"],
        "environment": _environment(inputs),
        "spans": spans,
    }


class _Phase:
    """One serving phase fed the stream a chunk at a time.

    A pass is one fresh service fed the whole stream in ``CHUNKS`` chunks,
    each through its own server and connection; a new pass starts when
    one ends.
    """

    def __init__(self, inputs: Inputs, name: str, batch: int) -> None:
        self.inputs, self.name, self.batch = inputs, name, batch
        self.passes: list[serving.Requests] = []
        self._chunk = 0

    def serve_chunk(self, ops: Ops, problems: list[str]) -> None:
        if self._chunk == 0:
            self._service = serving.new_service(self.inputs)
            self.passes.append(serving.Requests())
        arrivals = self.inputs.arrivals
        lo, hi = (len(arrivals) * k // CHUNKS for k in (self._chunk, self._chunk + 1))
        part = serving.closed_loop(self._service, arrivals[lo:hi], self.batch)
        self.passes[-1].absorb(_tally(ops, part, self.name, problems))
        self._chunk = (self._chunk + 1) % CHUNKS

    def total(self) -> serving.Requests:
        out = serving.Requests()
        for p in self.passes:
            out.absorb(p)
        return out

    def served(self) -> dict[str, serving.Requests]:
        return {f"{self.name} pass {i}": p for i, p in enumerate(self.passes)}


def _end_to_end(
    replayer: Replayer,
    ops: Ops,
    problems: list[str],
    seconds: float,
    setup_again: Callable[[], None],
):
    """Timed rounds with tracing off, each ending with ``setup_again()``.
    Returns (last result, replay walls, metrics, serving passes)."""
    inputs = replayer.inputs
    single = _Phase(inputs, "single", 1)
    batched = _Phase(inputs, "batch", SERVE_BATCH)
    walls: list[float] = []
    worker_rss: list[int] = []
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        result, wall = _replay(replayer, ops)
        walls.append(wall)
        worker_rss.extend(r["rss_kb"] for r in replayer.reports)
        if len(walls) == 1 and not replayer.sharded:
            # Read before any serving: the high-water mark of set-up and
            # replays only (it cannot be reset later).
            worker_rss.append(shardrun.peak_rss_kb())
        single.serve_chunk(ops, problems)
        batched.serve_chunk(ops, problems)
        setup_again()
    one, many = single.total(), batched.total()
    metrics = {
        "peak_rss_mb": max(worker_rss) / 1024.0,
        "decide_p50_ms": statistics.median(one.laps) * 1e3 if one.laps else 0.0,
        "decide_batch_per_s": len(many.decisions) / many.wall_s if many.wall_s else 0.0,
    }
    return result, walls, metrics, {**single.served(), **batched.served()}


def _per_layer(replayer, tracer, ops, problems, untraced_wall):
    """One traced replay, then serving with only the service span."""
    if not replayer.sharded:
        install_replay_layers(tracer)
    try:
        result, traced_wall = _replay(replayer, ops, traced=True)
    finally:
        tracer.restore()
    spans, counts = tracer.take()
    if replayer.sharded:
        # One span list per worker process (span ids are per process).
        per_process = [[tuple(s) for s in r["spans"]] for r in replayer.reports]
        counts = Counter()
        for report in replayer.reports:
            counts.update(report["counts"])
        kdm = _sum_kdm([r["kdm"] for r in replayer.reports])
    else:
        per_process = [spans]
        kdm = kdm_counters(tracer.seen)
    tracer.seen.clear()
    metrics = _layer_metrics(
        per_process, counts, kdm, result, traced_wall, untraced_wall, replayer.reports
    )

    inputs = replayer.inputs
    install_service_layer(tracer)
    try:
        single = _tally(
            ops,
            serving.closed_loop(serving.new_service(inputs), inputs.arrivals, 1),
            "single",
            problems,
        )
    finally:
        tracer.restore()
    decide = [e - s for _i, nm, s, e, _p in tracer.take()[0] if nm == "service.decide"]
    opened = _tally(
        ops,
        serving.open_loop(
            serving.new_service(inputs),
            inputs.arrivals[:OPEN_LOOP_REQUESTS],
            OPEN_LOOP_RATE,
        ),
        "open_loop",
        problems,
    )
    metrics.update(_service_metrics(single, decide, opened))
    return result, metrics, {"single": single, "open_loop": opened}, per_process


def _sum_kdm(parts: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in parts:
        for k, v in part.items():
            out[k] = max(out.get(k, 0.0), v) if k == "kdm.peak_live" else out.get(k, 0.0) + v
    return out


def _layer_metrics(
    per_process, counts, kdm, result, traced_wall, untraced_wall, reports
) -> dict[str, float]:
    out = dict.fromkeys(LEDGER.values(), 0.0)
    for spans in per_process:
        for k, v in self_times(spans).items():
            out[k] += v
    covered = sum(root_time(spans) for spans in per_process)
    decisions = kdm.get("kdm.decisions", 0.0)
    calls = counts.get("kdm.decide_calls", 0)
    out.update(kdm)
    out.update(
        {
            "simulator.evictions": float(result.evicted_count),
            "simulator.dropped_keepalives": float(result.dropped_count),
            "scheduler.adjust_calls": float(counts.get("scheduler.adjust_calls", 0)),
            "scheduler.decisions_per_batch": (
                counts.get("kdm.decisions_seen", 0) / calls if calls else 0.0
            ),
            "objective.eval_rows": (
                counts.get("objective.eval_rows", 0) / decisions if decisions else 0.0
            ),
            "fleet.step_calls": float(counts.get("fleet.step_calls", 0)),
            "carbon.integrate_calls": float(counts.get("carbon.integrate_calls", 0)),
            # Every worker crosses every barrier round.
            "shard.barriers": float(
                max((r["counts"].get("shard.barriers", 0) for r in reports), default=0)
            ),
            "shard.decisions_exchanged": float(counts.get("shard.decisions_exchanged", 0)),
            "shard.foreign_absorbed": float(counts.get("shard.foreign_absorbed", 0)),
            "shard.foreign_per_event": float(counts.get("shard.foreign_per_event", 0)),
            "trace.replay_wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            # Process-seconds of the traced replay not inside any layer
            # span (for shards: connecting, job hand-out and result hand-off).
            "ledger.remainder_s": traced_wall * len(per_process) - covered,
        }
    )
    return out


def _service_metrics(single, decide, opened) -> dict[str, float]:
    def ms(values, p):
        return nearest_rank(values, p) * 1e3 if values else 0.0

    overhead = [lap - d for lap, d in zip(single.laps, decide)]
    return {
        "service.decide_s": statistics.median(decide) if decide else 0.0,
        "service.http_overhead_ms": ms(overhead, 50.0),
        "service.decide_p99_ms": ms(single.laps, 99.0),
        "service.open_loop_p50_ms": ms(opened.laps, 50.0),
        "service.open_loop_p99_ms": ms(opened.laps, 99.0),
        "service.generator_late_ms": ms(opened.late, 99.0),
    }


def write_report(report: dict, outdir: pathlib.Path) -> pathlib.Path:
    path = outdir / f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    path.write_text(json.dumps(report))
    return path


def print_report(report: dict) -> None:
    env = report["environment"]
    ops = report["operations"]
    req = ops["decide_requests"]
    lines = [
        f"workload {report['workload']} seed {report['seed']} "
        f"({env['invocations']} invocations, {env['functions']} functions, "
        f"{env['n_shards']} shard(s); {env['cpus_usable']} usable CPUs of "
        f"{env['cpu_count']}; Python {env['python']}, NumPy {env['numpy']})",
    ]
    for k, m in report["metrics"].items():
        lines.append(f"  {k:32s} {m['value']:14.6g} {m['unit']}")
    lines.append(
        f"  operations: {ops['replays']} replays ({ops['invocations_replayed']} "
        f"invocations); /decide sent {req.get('sent', 0)}, 200 {req.get('ok', 0)}, "
        f"refused {req.get('refused', 0)}, errored {req.get('errored', 0)}; "
        f"check violations {sum(ops['check_violations'].values())}"
    )
    lines.append(f"  attempted {report['attempted']}, failed {report['failed']}")
    for p in report["problems"]:
        lines.append(f"  PROBLEM: {p}")
    print("\n".join(lines), file=sys.stdout)
