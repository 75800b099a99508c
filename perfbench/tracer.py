"""Span tracer that wraps the program's layer entry points from outside.

Spans are ``(id, name, start, end, parent)`` tuples kept in memory and
written out when the run ends. Nothing inside ``src/`` changes: the
tracer replaces public methods of the layer classes with timing wrappers
for the duration of one phase and restores the originals afterwards.
A span's self time is its duration minus the time its child spans cover
(children run nested in the same thread, so that is the sum of their
durations); every span name maps to one ledger entry, so the self times
add up to the root spans' wall time.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

#: Span name -> the per-layer self-time metric it feeds.
LEDGER = {
    "simulator.run": "simulator.self_s",
    "scheduler.place": "scheduler.place_s",
    "scheduler.adjust": "scheduler.adjust_s",
    "kdm.decide": "kdm.decide_s",
    "objective.build": "objective.build_s",
    "objective.eval": "objective.eval_s",
    "arrival.batch": "arrival.batch_s",
    "fleet.step": "fleet.step_self_s",
    "fleet.perceive": "fleet.perceive_s",
    "carbon.account": "carbon.account_s",
    "carbon.integrate": "carbon.integrate_s",
    "shard.exchange": "shard.barrier_wait_s",
    "shard.absorb": "shard.absorb_s",
    "shard.worker_open": "shard.worker_open_s",
}

Span = tuple[int, str, float, float, int]
CountFn = Callable[[tuple, dict], dict[str, int]]
_MISSING = object()


class Tracer:
    """In-memory spans and counters, plus the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: Objects a wrapper chose to remember (e.g. bound schedulers).
        self.seen: list[object] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the benchmark's own call into a layer."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def timed(self, fn: Callable, name: str, count: CountFn | None = None):
        """``fn`` wrapped to record a span (and counters) per call."""
        stack_of = self._stack
        ids = self._ids
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
                if count is not None:
                    counts.update(count(args, kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        original = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(
        self, owner: object, attr: str, name: str, count: CountFn | None = None
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        self.patch(owner, attr, self.timed(getattr(owner, attr), name, count))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def take(self) -> tuple[list[Span], Counter[str]]:
        """Return and clear the spans and counters recorded so far."""
        spans, counts = self.spans[:], Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-ledger-entry self time: span time minus child-span time."""
    child: dict[int, float] = {}
    for _sid, _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    ledger: dict[str, float] = {metric: 0.0 for metric in LEDGER.values()}
    for sid, name, start, end, _parent in spans:
        metric = LEDGER.get(name)
        if metric is not None:
            ledger[metric] += (end - start) - child.get(sid, 0.0)
    return ledger


def root_time(spans: list[Span]) -> float:
    """Total duration of the spans no other span contains."""
    return sum(end - start for _s, _n, start, end, parent in spans if parent < 0)


# ---------------------------------------------------------------------------
# The layer wrappers.
# ---------------------------------------------------------------------------


def _one(key: str) -> CountFn:
    return lambda args, kwargs: {key: 1}


def _batch_decisions(args, kwargs):
    return {"kdm.decide_calls": 1, "kdm.decisions_seen": len(args[1])}


def _absorbed(args, kwargs):
    return {"shard.foreign_absorbed": sum(len(times) for _f, times in args[1])}


def _exchanged(args, kwargs):
    return {"shard.barriers": 1, "shard.decisions_exchanged": len(args[3])}


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    rows = 1
    for extent in shape[:-1]:
        rows *= int(extent)
    return rows


def _traced_objective(tracer: Tracer, build: Callable) -> Callable:
    """Wrap an ObjectiveBuilder factory and the closure it returns."""
    timed_build = tracer.timed(build, "objective.build")

    def factory(*args, **kwargs):
        closure = timed_build(*args, **kwargs)
        return tracer.timed(
            closure,
            "objective.eval",
            lambda a, k: {"objective.eval_rows": _rows(a[0])},
        )

    factory.__wrapped__ = build
    return factory


def install_replay_layers(tracer: Tracer) -> None:
    """Wrap every layer a replay runs through (one process or a shard)."""
    from repro.carbon.footprint import CarbonModel
    from repro.carbon.intensity import CarbonIntensityTrace
    from repro.core.arrival import ArrivalBatch
    from repro.core.kdm import KeepAliveDecisionMaker
    from repro.core.objective import ObjectiveBuilder
    from repro.core.scheduler import EcoLifeScheduler
    from repro.optimizers.batch import SwarmFleet
    from repro.simulator.engine import SimulationEngine
    from repro.simulator.shard import ShardEngine

    tracer.wrap(SimulationEngine, "run", "simulator.run")
    tracer.wrap(ShardEngine, "run_shard", "simulator.run")

    bind = EcoLifeScheduler.bind

    def remember(self, env):
        tracer.seen.append(self)
        return bind(self, env)

    tracer.patch(EcoLifeScheduler, "bind", remember)
    tracer.wrap(EcoLifeScheduler, "place", "scheduler.place")
    tracer.wrap(
        EcoLifeScheduler,
        "place_foreign",
        "scheduler.place",
        _one("shard.foreign_per_event"),
    )
    tracer.wrap(EcoLifeScheduler, "observe_foreign_run", "shard.absorb", _absorbed)
    tracer.wrap(
        EcoLifeScheduler,
        "rank_keepalive_candidates",
        "scheduler.adjust",
        _one("scheduler.adjust_calls"),
    )
    tracer.wrap(
        EcoLifeScheduler,
        "keepalive",
        "kdm.decide",
        lambda a, k: {"kdm.decide_calls": 1, "kdm.decisions_seen": 1},
    )
    tracer.wrap(EcoLifeScheduler, "keepalive_batch", "kdm.decide", _batch_decisions)
    tracer.wrap(EcoLifeScheduler, "on_container_expired", "kdm.decide")
    # Rehydration and retirement sweeps run inside place and the decision
    # hooks; wrapping them moves their time from scheduler.place into the
    # KDM's ledger entry, next to the kdm.retired / kdm.rehydrated counts.
    for attr in ("on_arrival", "maybe_sweep"):
        tracer.wrap(KeepAliveDecisionMaker, attr, "kdm.decide")

    tracer.patch(
        ObjectiveBuilder, "fitness", _traced_objective(tracer, ObjectiveBuilder.fitness)
    )
    tracer.patch(
        ObjectiveBuilder,
        "batch_fitness",
        _traced_objective(tracer, ObjectiveBuilder.batch_fitness),
    )
    for attr in ("__init__", "p_warm", "expected_keepalive_s"):
        tracer.wrap(ArrivalBatch, attr, "arrival.batch")
    for attr in ("step", "step_one"):
        tracer.wrap(SwarmFleet, attr, "fleet.step", _one("fleet.step_calls"))
    for attr in ("perceive", "perceive_batch"):
        tracer.wrap(SwarmFleet, attr, "fleet.perceive")
    for attr in ("service", "keepalive", "service_energy_wh", "keepalive_energy_wh"):
        tracer.wrap(CarbonModel, attr, "carbon.account")
    tracer.wrap(
        CarbonIntensityTrace,
        "integrate",
        "carbon.integrate",
        _one("carbon.integrate_calls"),
    )


def install_shard_worker_layers(tracer: Tracer) -> None:
    """The replay layers plus the shard worker's barrier and trace open."""
    import repro.workloads.tracefile as tracefile
    from repro.distributed import shard as dshard

    install_replay_layers(tracer)
    # _WireBarrier is the process transport's implementation of the
    # public BarrierTransport.exchange protocol method.
    tracer.wrap(dshard._WireBarrier, "exchange", "shard.exchange", _exchanged)
    tracer.wrap(tracefile, "open_trace", "shard.worker_open")


def install_service_layer(tracer: Tracer) -> None:
    """Only ``DecisionService.decide``: the serving phase's one span."""
    from repro.service.online import DecisionService

    tracer.wrap(DecisionService, "decide", "service.decide")


def kdm_counters(schedulers: list[object]) -> dict[str, float]:
    """Decision-maker counters summed over the bound schedulers."""
    kdms = [s.kdm for s in schedulers if getattr(s, "kdm", None) is not None]
    return {
        "kdm.decisions": float(sum(k.decisions for k in kdms)),
        "kdm.retired": float(sum(k.retired for k in kdms)),
        "kdm.rehydrated": float(sum(k.rehydrated for k in kdms)),
        "kdm.peak_live": float(max((k.peak_live for k in kdms), default=0)),
    }
