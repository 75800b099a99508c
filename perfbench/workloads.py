"""Input synthesis and pinned configuration for the two workloads.

Each workload is a fixed function catalog (drawn once from a constant
catalog seed by the program's own generators) whose per-function arrival
streams are rotated by offsets drawn from ``--seed``: every seed replays
the same functions at the same rates, with a different interleaving and
a different phase against the carbon-intensity trace. Keeping the catalog
fixed is what lets the simulated carbon and service-time metrics repeat
across seeds; the arrival order, the decisions and the pool pressure still
change with every seed.

The benchmark keeps its own copy of what it generated -- the expected
arrival stream and the function profiles -- so the output checks compare
the program's records against the inputs, not against the program's own
view of them.
"""

from __future__ import annotations

import csv
import pathlib
from dataclasses import dataclass

import numpy as np

from repro import units
from repro.carbon.intensity import CarbonIntensityTrace
from repro.carbon.regions import region_trace_for
from repro.core import EcoLifeConfig
from repro.hardware.catalog import get_pair
from repro.hardware.specs import HardwarePair
from repro.simulator import SimulationConfig
from repro.workloads.functions import FunctionProfile
from repro.workloads.generators import WorkloadSpec, make_generator
from repro.workloads.trace import InvocationTrace
from repro.workloads.tracefile import compile_azure_csv, write_azure_sample_csv

from perfbench.tracer import Tracer

#: Region, pair and diurnal start of every workload's scenario (the
#: paper's default setting: CISO intensity, Pair A, 08:00 start).
REGION = "CAL"
PAIR = "A"
START_HOUR = 8.0


@dataclass(frozen=True)
class WorkloadDef:
    """The fixed make-up of one workload (everything but the seed)."""

    name: str
    generator: str
    n_functions: int
    hours: float
    catalog_seed: int
    pool_gb: float
    kmax_minutes: float
    config: EcoLifeConfig
    n_shards: int = 1
    #: Generator parameter overrides (``WorkloadSpec`` params).
    params: tuple[tuple[str, float], ...] = ()


def _config(**overrides) -> EcoLifeConfig:
    """An EcoLifeConfig with every environment-defaulted field pinned.

    ``batch_swarms`` and ``rng_mode`` default from ``ECOLIFE_BATCH_SWARMS``
    / ``ECOLIFE_RNG_MODE``; setting them here keeps the environment from
    changing what is measured.
    """
    fields = dict(
        batch_swarms=True,
        rng_mode="stream",
        decision_quantum_s=0.0,
        adaptive_decision_quantum=False,
        retire_after_s=None,
        max_live_swarms=None,
        spill_dir=None,
        seed=2024,
    )
    fields.update(overrides)
    return EcoLifeConfig(**fields)


WORKLOADS: dict[str, WorkloadDef] = {
    # MMPP bursts over 80 functions with small pools: batched-fleet
    # decisions through a 30 s decision quantum, warm-pool adjustment on
    # most activations, idle retirement under a live-swarm cap (no spill).
    "bursty-pressure-replay": WorkloadDef(
        name="bursty-pressure-replay",
        generator="mmpp",
        n_functions=80,
        hours=0.8,
        catalog_seed=11,
        pool_gb=2.0,
        kmax_minutes=30.0,
        config=_config(
            decision_quantum_s=30.0, retire_after_s=300.0, max_live_swarms=48
        ),
        params=(("median_interarrival_s", 120.0),),
    ),
    # The dense, exec-floored Azure-day sample: CSV -> compiled trace file
    # -> mmap, replayed on 2 process shards with the foreign fast path.
    "azure-day-sharded": WorkloadDef(
        name="azure-day-sharded",
        generator="azure-day-csv",
        n_functions=200,
        hours=0.1,
        catalog_seed=11,
        pool_gb=1.0,
        kmax_minutes=5.0,
        config=_config(seed=7),
        n_shards=2,
        params=(("median_interarrival_s", 100.0), ("exec_floor_s", 10.0)),
    ),
}


@dataclass
class Inputs:
    """Everything one run replays, plus the benchmark's own copy of it."""

    wdef: WorkloadDef
    pair: HardwarePair
    trace: InvocationTrace
    ci_trace: CarbonIntensityTrace
    sim_config: SimulationConfig
    #: The generated arrival stream, ``(t, function)`` in time order
    #: (ties in generation order), as the benchmark built it.
    arrivals: list[tuple[float, str]]
    #: Function profiles as generated (or as stored in the trace file).
    profiles: dict[str, FunctionProfile]
    #: Compiled trace file (sharded workload only).
    trace_path: pathlib.Path | None = None

    @property
    def config(self) -> EcoLifeConfig:
        return self.wdef.config


def _offsets(names: list[str], duration_s: float, seed: int) -> dict[str, float]:
    """Per-function rotation offsets drawn from the run's seed."""
    rng = np.random.default_rng([seed, len(names)])
    draws = rng.uniform(0.0, duration_s, size=len(names))
    return {name: float(off) for name, off in zip(sorted(names), draws)}


def _sim_config(wdef: WorkloadDef) -> SimulationConfig:
    # Every other engine field stays at the program's default (including
    # measure_decision_overhead, which users get by default).
    return SimulationConfig(
        pool_capacity_old_gb=wdef.pool_gb,
        pool_capacity_new_gb=wdef.pool_gb,
        kmax_minutes=wdef.kmax_minutes,
    )


def _ci(wdef: WorkloadDef, duration_s: float) -> CarbonIntensityTrace:
    return region_trace_for(
        REGION,
        duration_s + units.SECONDS_PER_HOUR,
        seed=wdef.catalog_seed,
        start_hour=START_HOUR,
    )


def _generated(wdef: WorkloadDef, seed: int, tracer: Tracer) -> Inputs:
    duration_s = wdef.hours * units.SECONDS_PER_HOUR
    with tracer.span("workloads.trace_build"):
        generator = make_generator(
            WorkloadSpec.make(wdef.generator, **dict(wdef.params))
        )
        catalog, _specs = generator.generate(
            wdef.n_functions, duration_s, wdef.catalog_seed
        )
        offsets = _offsets(catalog.names, duration_s, seed)
        events: list[tuple[float, FunctionProfile]] = []
        for name in catalog.names:
            profile = catalog.functions[name]
            rotated = np.sort((catalog.times_of(name) + offsets[name]) % duration_s)
            events.extend((float(t), profile) for t in rotated)
        profiles = [catalog.functions[n] for n in catalog.names]
        trace = InvocationTrace.from_events(events, functions=profiles)
    arrivals = sorted(((t, p.name) for t, p in events), key=lambda e: e[0])
    return Inputs(
        wdef=wdef,
        pair=get_pair(PAIR),
        trace=trace,
        ci_trace=_ci(wdef, duration_s),
        sim_config=_sim_config(wdef),
        arrivals=arrivals,
        profiles={p.name: p for p in profiles},
    )


def _rotate_csv(src: pathlib.Path, dst: pathlib.Path, duration_s: float, seed: int):
    """Rewrite an Azure-layout CSV with per-function rotated arrivals.

    Returns the arrival stream the rewritten file encodes (arrival =
    ``end_timestamp - duration``, the layout's definition), time-sorted
    with ties in row order.
    """
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    offsets = _offsets(sorted({f"{a}:{f}" for a, f, _, _ in body}), duration_s, seed)
    arrivals: list[tuple[float, str]] = []
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for app, func, end_ts, dur_text in body:
            name = f"{app}:{func}"
            dur = float(dur_text)
            start = (float(end_ts) - dur + offsets[name]) % duration_s
            end_text = f"{start + dur:.6f}"
            writer.writerow((app, func, end_text, dur_text))
            arrivals.append((float(end_text) - dur, name))
    arrivals.sort(key=lambda e: e[0])
    return arrivals


def _stored_profiles(path: pathlib.Path) -> dict[str, FunctionProfile]:
    """Function profiles read straight from the trace file's columns."""
    with np.load(path, allow_pickle=False) as npz:
        cols = {k: npz[k] for k in npz.files if k.startswith("prof_") or k == "names"}
    return {
        str(name): FunctionProfile(
            name=str(name),
            mem_gb=float(cols["prof_mem_gb"][i]),
            exec_ref_s=float(cols["prof_exec_ref_s"][i]),
            cold_ref_s=float(cols["prof_cold_ref_s"][i]),
            perf_sensitivity=float(cols["prof_perf_sensitivity"][i]),
            cold_sensitivity=float(cols["prof_cold_sensitivity"][i]),
        )
        for i, name in enumerate(cols["names"])
    }


def _trace_file(wdef: WorkloadDef, seed: int, workdir: pathlib.Path, tracer: Tracer):
    duration_s = wdef.hours * units.SECONDS_PER_HOUR
    params = dict(wdef.params)
    sample = workdir / "sample.csv"
    rotated = workdir / "rotated.csv"
    npz = workdir / "trace.npz"
    with tracer.span("workloads.trace_build"):
        write_azure_sample_csv(
            sample,
            n_functions=wdef.n_functions,
            duration_hours=wdef.hours,
            seed=wdef.catalog_seed,
            median_interarrival_s=params["median_interarrival_s"],
            exec_floor_s=params["exec_floor_s"],
        )
        arrivals = _rotate_csv(sample, rotated, duration_s, seed)
        compile_azure_csv(rotated, npz)
    with tracer.span("workloads.trace_open"):
        trace = InvocationTrace.open(npz, mmap=True)
    return Inputs(
        wdef=wdef,
        pair=get_pair(PAIR),
        trace=trace,
        ci_trace=_ci(wdef, duration_s),
        sim_config=_sim_config(wdef),
        arrivals=arrivals,
        profiles=_stored_profiles(npz),
        trace_path=npz,
    )


def build_inputs(
    name: str, seed: int, workdir: pathlib.Path, tracer: Tracer
) -> Inputs:
    """Synthesize one workload's inputs for ``seed`` (deterministic)."""
    wdef = WORKLOADS[name]
    if wdef.generator == "azure-day-csv":
        return _trace_file(wdef, seed, workdir, tracer)
    return _generated(wdef, seed, tracer)
