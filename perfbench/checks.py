"""Output checks computed from the inputs and the method's invariants.

None of these checks compares against a stored copy of earlier output.
Each one rebuilds what it needs from the benchmark's own copy of the
inputs (the generated arrival stream, the function profiles, the hardware
specs, the carbon-intensity knots) or from properties any correct replay
must have. ``decision_wall_s`` (wall-clock telemetry) is never read.

Every check returns a list of :class:`Violation`; :func:`self_test` shows
that each check rejects one deliberately corrupted record.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.hardware.specs import GENERATIONS, Generation
from repro.simulator.records import InvocationRecord, KeepAliveDecision

from perfbench.workloads import Inputs

#: Unit roundoff of float64 (half an ulp of 1.0).
U = 2.0**-53


@dataclass(frozen=True)
class Violation:
    check: str
    index: int
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: record {self.index}: {self.detail}"


@dataclass(frozen=True)
class Decision:
    """A ``/decide`` answer in the record fields the checks read."""

    index: int
    t: float
    func_name: str
    location: Generation
    cold: bool
    service_s: float
    keepalive_decision: KeepAliveDecision


def decisions_from_payload(payload: Sequence[dict]) -> list[Decision]:
    by_value = {g.value: g for g in GENERATIONS}
    return [
        Decision(
            index=int(d["index"]),
            t=float(d["t_s"]),
            func_name=str(d["function"]),
            location=by_value[d["location"]],
            cold=bool(d["cold"]),
            service_s=float(d["service_s"]),
            keepalive_decision=KeepAliveDecision(
                location=by_value[d["keepalive"]["location"]],
                duration_s=float(d["keepalive"]["duration_s"]),
            ),
        )
        for d in payload
    ]


# ---------------------------------------------------------------------------
# Checks that apply to replay records and /decide answers alike.
# ---------------------------------------------------------------------------


def check_stream(
    inputs: Inputs, rows: Sequence, arrivals: Sequence[tuple[float, str]] | None = None
) -> list[Violation]:
    """One row per generated arrival, in the same order, times and names."""
    expected = inputs.arrivals if arrivals is None else arrivals
    out = []
    if len(rows) != len(expected):
        out.append(
            Violation(
                "stream", -1, f"{len(rows)} rows for {len(expected)} arrivals"
            )
        )
    first = rows[0].index if rows else 0
    for i, (row, (t, name)) in enumerate(zip(rows, expected)):
        if row.index != first + i or row.t != t or row.func_name != name:
            out.append(
                Violation(
                    "stream",
                    row.index,
                    f"got ({row.index}, {row.t!r}, {row.func_name}), "
                    f"expected ({first + i}, {t!r}, {name})",
                )
            )
    return out


def check_service_time(inputs: Inputs, rows: Sequence) -> list[Violation]:
    """Service time equals the profile's warm or cold time on the generation."""
    setup = inputs.sim_config.setup_delay_s
    out = []
    for row in rows:
        profile = inputs.profiles.get(row.func_name)
        if profile is None:
            out.append(Violation("service_time", row.index, "unknown function"))
            continue
        server = inputs.pair.server(row.location)
        cold = profile.cold_overhead_s(server) if row.cold else 0.0
        expected = cold + setup + profile.exec_time_s(server)
        # Three additions in a possibly different order: a few roundings.
        if not math.isclose(row.service_s, expected, rel_tol=8 * U, abs_tol=0.0):
            out.append(
                Violation(
                    "service_time",
                    row.index,
                    f"{row.service_s!r} s, profile gives {expected!r} s "
                    f"({'cold' if row.cold else 'warm'} on {row.location.value})",
                )
            )
        mem = getattr(row, "mem_gb", profile.mem_gb)
        if mem != profile.mem_gb:
            out.append(
                Violation(
                    "service_time",
                    row.index,
                    f"mem_gb {mem!r} differs from the profile's {profile.mem_gb!r}",
                )
            )
    return out


def check_keepalive_grid(inputs: Inputs, rows: Sequence) -> list[Violation]:
    """Each keep-alive is 0 or a minute-grid point up to kmax, on a valid
    generation."""
    step = inputs.sim_config.k_step_s
    kmax = inputs.sim_config.kmax_s
    allowed = set(inputs.config.locations)
    out = []
    for row in rows:
        d = row.keepalive_decision
        if d is None:
            out.append(Violation("keepalive_grid", row.index, "no decision"))
            continue
        k = d.duration_s / step
        if (
            d.location not in allowed
            or not 0.0 <= d.duration_s <= kmax
            or k != math.floor(k)
            or math.floor(k) * step != d.duration_s
        ):
            out.append(
                Violation(
                    "keepalive_grid",
                    row.index,
                    f"({d.location.value}, {d.duration_s!r} s) is off the "
                    f"{step:g} s grid up to {kmax:g} s",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Keep-alive segments rebuilt from the records.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One stretch a record's container stayed warm on one generation."""

    index: int
    func_name: str
    generation: Generation
    start: float
    end: float
    mem_gb: float
    power_w: float


@dataclass(frozen=True)
class Moving:
    """A keep-alive that moved between generations more than once.

    Its record gives the window and the time spent on each generation
    (through its energy), but not where the moves fell, so the checks
    hold it to what any placement of the moves satisfies.
    """

    index: int
    func_name: str
    start: float
    end: float
    mem_gb: float


@dataclass
class Segments:
    placed: list[Segment]
    moving: list[Moving]
    violations: list[Violation]


def keepalive_power_w(inputs: Inputs, mem_gb: float, gen: Generation) -> float:
    """One core of idle package power plus the memory share of DRAM power."""
    server = inputs.pair.server(gen)
    return (
        server.cpu.idle_power_w / server.cpu.cores
        + mem_gb / server.dram.capacity_gb * server.dram.total_power_w
    )


#: Slack when matching a rebuilt move instant to an activation instant.
MOVE_MATCH_S = 1e-6


def segments(inputs: Inputs, records: Sequence[InvocationRecord]) -> Segments:
    """Per-record keep-alive segments rebuilt from the records.

    A record's keep-alive starts when its execution ends. Without a spill
    it is one segment on the decided generation. A spill moves the
    container to the other generation during a pool adjustment, which
    runs when a container activates in a full pool -- its own activation
    (the keep-alive then never sits on the decided generation) or another
    keep-alive's activation in the pool the container occupies. A spilled
    record whose energy fits one such move (with either generation first,
    the move instant being an activation instant in the first one) is
    placed as two segments; any other spilled record moved more than once
    and becomes a :class:`Moving`.
    """
    activations: dict[Generation, list[float]] = {g: [] for g in GENERATIONS}
    for r in records:
        d = r.keepalive_decision
        if d is not None and d.duration_s > 0.0:
            activations[d.location].append(r.t + r.service_s)
    for times in activations.values():
        times.sort()
    out = Segments([], [], [])
    for r in records:
        d = r.keepalive_decision
        length = r.keepalive_s
        if d is None or length == 0.0:
            continue
        start = r.t + r.service_s
        p_here = keepalive_power_w(inputs, r.mem_gb, d.location)
        if not r.spilled:
            out.placed.append(
                Segment(r.index, r.func_name, d.location, start, start + length,
                        r.mem_gb, p_here)
            )
            continue
        joules = r.keepalive_energy_wh * 3600.0
        placed = None
        for first in (d.location, d.location.other):
            p_first = keepalive_power_w(inputs, r.mem_gb, first)
            p_then = keepalive_power_w(inputs, r.mem_gb, first.other)
            stay = (joules - p_then * length) / (p_first - p_then)
            slack = 64 * U * (joules + max(p_first, p_then) * length) / abs(
                p_first - p_then
            )
            if not -slack <= stay <= length + slack:
                continue
            stay = min(max(stay, 0.0), length)
            move = start + stay
            if first is d.location and stay <= slack:
                # Spilled at its own activation: one segment, other side.
                placed = [(first.other, start, p_then)]
                break
            times = activations[first]
            k = bisect.bisect_left(times, move - MOVE_MATCH_S - slack)
            if k < len(times) and times[k] <= move + MOVE_MATCH_S + slack:
                # The move happened exactly at that activation instant.
                placed = [(first, start, p_first), (first.other, times[k], p_then)]
                break
        if placed is None:
            out.moving.append(
                Moving(r.index, r.func_name, start, start + length, r.mem_gb)
            )
            continue
        for k, (gen, seg_start, power) in enumerate(placed):
            seg_end = placed[k + 1][1] if k + 1 < len(placed) else start + length
            out.placed.append(
                Segment(r.index, r.func_name, gen, seg_start, seg_end, r.mem_gb, power)
            )
    return out


def _time_tol(t: float) -> float:
    # Segment ends are rebuilt as start + accrued length: a few roundings
    # at the magnitude of the timestamp.
    return 8 * U * max(abs(t), 1.0)


def check_warm_starts(inputs: Inputs, records: Sequence[InvocationRecord]):
    """Every warm start consumes an earlier keep-alive of the same function
    on the same generation that was open at the arrival and ends there.

    A keep-alive that moved more than once may end on either generation.
    """
    segs = segments(inputs, records)
    out = list(segs.violations)
    ends: dict[tuple[str, Generation | None], list[tuple[float, float, int]]] = {}
    for s in segs.placed:
        ends.setdefault((s.func_name, s.generation), []).append(
            (s.end, s.start, s.index)
        )
    for m in segs.moving:
        ends.setdefault((m.func_name, None), []).append((m.end, m.start, m.index))
    for lst in ends.values():
        lst.sort()
    used: set[tuple[int, float]] = set()
    for r in records:
        if r.cold:
            continue
        tol = _time_tol(r.t)
        match = None
        for key in ((r.func_name, r.location), (r.func_name, None)):
            cands = ends.get(key, [])
            lo = bisect.bisect_left(cands, (r.t - tol,))
            for end, start, index in cands[lo:]:
                if end > r.t + tol:
                    break
                if index < r.index and start <= r.t + tol and (index, end) not in used:
                    match = (index, end)
                    break
            if match is not None:
                break
        if match is None:
            out.append(
                Violation(
                    "warm_start",
                    r.index,
                    f"warm on {r.location.value} at t={r.t!r} with no earlier "
                    f"keep-alive of {r.func_name} open there",
                )
            )
        else:
            used.add(match)
    return out


def _overflows(name, items, capacity, where) -> list[Violation]:
    """Sweep ``(start, end, mem, key)`` items; flag sums over capacity.

    An item ending within the timestamps' rounding of another's start
    has left before the other arrives (rebuilt ends are start + length).
    """
    live: list[tuple[float, object]] = []
    mems: dict[object, float] = {}
    out = []
    for start, end, mem, key in sorted(
        (i for i in items if i[1] > i[0]), key=lambda i: i[0]
    ):
        while live and live[0][0] <= start + _time_tol(start):
            mems.pop(heapq.heappop(live)[1], None)
        heapq.heappush(live, (end, key))
        mems[key] = mem
        used = math.fsum(mems.values())
        if used > capacity + 1e-9:
            out.append(
                Violation(
                    name,
                    key if isinstance(key, int) else key[0],
                    f"{used:.6f} GB kept alive {where} at t={start!r} exceeds "
                    f"{capacity:g} GB",
                )
            )
    return out


def check_pool_memory(inputs: Inputs, records: Sequence[InvocationRecord]):
    """Kept-alive memory per generation never exceeds the pool capacity.

    Keep-alives that moved more than once count toward the two pools'
    joint capacity only.
    """
    segs = segments(inputs, records)
    out = list(segs.violations)
    for gen in GENERATIONS:
        out += _overflows(
            "pool_memory",
            [(s.start, s.end, s.mem_gb, s.index) for s in segs.placed
             if s.generation is gen],
            inputs.sim_config.capacity(gen),
            f"on {gen.value}",
        )
    out += _overflows(
        "pool_memory",
        [(s.start, s.end, s.mem_gb, (s.index, s.generation.value)) for s in segs.placed]
        + [(m.start, m.end, m.mem_gb, (m.index, "moving")) for m in segs.moving],
        sum(inputs.sim_config.capacity(g) for g in GENERATIONS),
        "on both generations",
    )
    return out


# ---------------------------------------------------------------------------
# Operational carbon, recomputed from energy and the intensity knots.
# ---------------------------------------------------------------------------


class Intensity:
    """Piecewise-constant intensity integrated piece by piece."""

    def __init__(self, inputs: Inputs) -> None:
        ci = inputs.ci_trace
        self.times = [float(t) for t in ci.times_s]
        self.values = [float(v) for v in ci.values]
        self.peak = max(self.values)

    def _span(self, a: float, b: float) -> tuple[int, int]:
        i = max(bisect.bisect_right(self.times, a) - 1, 0)
        j = max(bisect.bisect_right(self.times, b) - 1, 0)
        return i, j

    def integral(self, a: float, b: float) -> tuple[float, int]:
        """(integral of CI over [a, b] in (g/kWh)*s, knots crossed)."""
        times, values = self.times, self.values
        i, j = self._span(a, b)
        if i == j:
            return (b - a) * values[i], 0
        pieces = [(times[i + 1] - a) * values[i]]
        pieces.extend(
            (times[k + 1] - times[k]) * values[k] for k in range(i + 1, j)
        )
        pieces.append((b - times[j]) * values[j])
        return math.fsum(pieces), j - i

    def extremes(self, a: float, b: float) -> tuple[float, float, int]:
        """(lowest, highest intensity over [a, b], knots crossed)."""
        i, j = self._span(a, b)
        window = self.values[i : j + 1]
        return min(window), max(window), j - i

    def magnitude(self, b: float) -> float:
        """Upper bound of the running integral's size at ``b``."""
        return abs(b - self.times[0]) * self.peak


def _window_tol(ci: Intensity, power_w: float, b: float, knots: int, n: int) -> float:
    """Float64 error bound of the program's carbon over one window.

    The program integrates each window as the difference of two running
    sums of the whole trace, so each of its ``n`` integrals over the
    window carries up to ``(knots + 6) * U`` of the running sum's size at
    the window end; ``power_w / 3.6e6`` turns (g/kWh)*s into grams.
    """
    return power_w / 3.6e6 * n * (knots + 6) * U * ci.magnitude(b)


def check_carbon(inputs: Inputs, records: Sequence[InvocationRecord], ci=None):
    """Operational carbon equals energy times the mean intensity over each
    window, within the float64 error bound of the accounting.

    A keep-alive that moved more than once is held to the bounds that
    its energy at the window's lowest and highest intensity give.
    """
    ci = ci or Intensity(inputs)
    segs = segments(inputs, records)
    out = list(segs.violations)
    placed: dict[int, list[Segment]] = {}
    for s in segs.placed:
        placed.setdefault(s.index, []).append(s)
    moving = {m.index: m for m in segs.moving}
    for r in records:
        a, b = r.t, r.t + r.service_s
        integral, knots = ci.integral(a, b)
        terms = [r.service_energy_wh / 1000.0 * integral / (b - a)]
        server = inputs.pair.server(r.location)
        p_service = server.cpu.full_power_w + r.mem_gb / server.dram.capacity_gb * (
            server.dram.total_power_w
        )
        tol = _window_tol(ci, p_service, b, knots, 3)
        mine = placed.get(r.index, [])
        for s in mine:
            integral, knots = ci.integral(s.start, s.end)
            if len(mine) == 1:
                kwh = r.keepalive_energy_wh / 1000.0
            else:
                kwh = s.power_w * (s.end - s.start) / 3.6e6
            if s.end > s.start:
                terms.append(kwh * integral / (s.end - s.start))
            tol += _window_tol(ci, s.power_w, s.end, knots, 2)
        got = r.service_carbon.operational + r.keepalive_carbon.operational
        if r.index in moving:
            m = moving[r.index]
            lo, hi, knots = ci.extremes(m.start, m.end)
            kwh = r.keepalive_energy_wh / 1000.0
            power = max(keepalive_power_w(inputs, r.mem_gb, g) for g in GENERATIONS)
            # Two integrals per segment; at most one segment per knot or move.
            tol += _window_tol(ci, power, m.end, knots, 2 * (knots + 8))
            service = math.fsum(terms)
            tol += 32 * U * (service + kwh * hi)
            if not service + kwh * lo - tol <= got <= service + kwh * hi + tol:
                out.append(
                    Violation(
                        "carbon",
                        r.index,
                        f"operational {got!r} g outside "
                        f"[{service + kwh * lo!r}, {service + kwh * hi!r}] g",
                    )
                )
            continue
        expected = math.fsum(terms)
        tol += 32 * U * abs(expected)
        if abs(got - expected) > tol:
            out.append(
                Violation(
                    "carbon",
                    r.index,
                    f"operational {got!r} g, energy x intensity gives "
                    f"{expected!r} g (bound {tol:.3g} g)",
                )
            )
    return out


# ---------------------------------------------------------------------------
# The two documented identities.
# ---------------------------------------------------------------------------

#: Every record field but the wall-clock telemetry.
_COMPARED = tuple(
    f.name for f in dataclasses.fields(InvocationRecord) if f.name != "decision_wall_s"
)


def check_same_records(
    name: str, got: Sequence[InvocationRecord], want: Sequence[InvocationRecord]
) -> list[Violation]:
    """Field-by-field equality (``decision_wall_s`` excluded)."""
    out = []
    if len(got) != len(want):
        out.append(Violation(name, -1, f"{len(got)} records, expected {len(want)}"))
    for g, w in zip(got, want):
        for field in _COMPARED:
            if getattr(g, field) != getattr(w, field):
                out.append(
                    Violation(
                        name,
                        w.index,
                        f"{field} {getattr(g, field)!r} != {getattr(w, field)!r}",
                    )
                )
                break
    return out


def check_service_identity(
    decisions: Sequence[Decision], records: Sequence[InvocationRecord]
) -> list[Violation]:
    """``/decide`` on the whole stream answers exactly what the replay did."""
    out = []
    if len(decisions) != len(records):
        out.append(
            Violation(
                "service_identity",
                -1,
                f"{len(decisions)} decisions for {len(records)} records",
            )
        )
    for d, r in zip(decisions, records):
        same = (
            d.index == r.index
            and d.t == r.t
            and d.func_name == r.func_name
            and d.location is r.location
            and d.cold == r.cold
            and d.service_s == r.service_s
            and d.keepalive_decision == r.keepalive_decision
        )
        if not same:
            out.append(
                Violation(
                    "service_identity",
                    r.index,
                    f"/decide gave {d}, replay recorded "
                    f"({r.location.value}, cold={r.cold}, {r.keepalive_decision})",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Running the checks, and showing that each rejects a corrupted record.
# ---------------------------------------------------------------------------


def replay_checks(inputs: Inputs, records: Sequence[InvocationRecord]):
    """All record checks of one replay result."""
    ci = Intensity(inputs)
    return (
        check_stream(inputs, records)
        + check_service_time(inputs, records)
        + check_keepalive_grid(inputs, records)
        + check_warm_starts(inputs, records)
        + check_pool_memory(inputs, records)
        + check_carbon(inputs, records, ci)
    )


def serving_checks(
    inputs: Inputs, decisions: Sequence[Decision], n_arrivals: int
) -> list[Violation]:
    """The checks a ``/decide`` answer stream supports."""
    return (
        check_stream(inputs, decisions, inputs.arrivals[:n_arrivals])
        + check_service_time(inputs, decisions)
        + check_keepalive_grid(inputs, decisions)
    )


def _first(records, pred) -> int:
    return next(i for i, r in enumerate(records) if pred(r))


def _corrupt(records, i, **changes):
    copy = list(records)
    copy[i] = dataclasses.replace(records[i], **changes)
    return copy


def _scaled(breakdown, factor):
    return dataclasses.replace(breakdown, op_cpu=breakdown.op_cpu * factor)


def self_test(
    inputs: Inputs,
    records: Sequence[InvocationRecord],
    decisions: Sequence[Decision],
) -> list[str]:
    """Corrupt one record per check; return the checks that did not flag it."""
    big = max(inputs.sim_config.capacity(g) for g in GENERATIONS) + 1.0
    kept = _first(records, lambda r: r.keepalive_s > 0.0 and not r.spilled)
    off_grid = KeepAliveDecision(
        location=records[3].keepalive_decision.location, duration_s=61.0
    )
    # (check, position of the corrupted record, the check on the copy)
    cases: list[tuple[str, int, Callable[[], list[Violation]]]] = [
        ("stream", 1, lambda: check_stream(
            inputs, _corrupt(records, 1, t=records[1].t + 1.0))),
        ("service_time", 2, lambda: check_service_time(
            inputs, _corrupt(records, 2, exec_s=records[2].exec_s * 1.001))),
        ("keepalive_grid", 3, lambda: check_keepalive_grid(
            inputs, _corrupt(records, 3, keepalive_decision=off_grid))),
        # The very first invocation cannot have been warm.
        ("warm_start", 0, lambda: check_warm_starts(
            inputs, _corrupt(records, 0, cold=False, cold_overhead_s=0.0))),
        ("pool_memory", kept, lambda: check_pool_memory(
            inputs, _corrupt(records, kept, mem_gb=big))),
        ("carbon", 4, lambda: check_carbon(
            inputs, _corrupt(records, 4, service_carbon=_scaled(
                records[4].service_carbon, 1.0 + 1e-6)))),
        ("records_identity", kept, lambda: check_same_records(
            "records_identity",
            _corrupt(records, kept, keepalive_s=records[kept].keepalive_s + 1.0),
            records)),
    ]
    if decisions:
        first = decisions[0].keepalive_decision
        flipped = [dataclasses.replace(
            decisions[0],
            keepalive_decision=KeepAliveDecision(
                location=first.location.other, duration_s=first.duration_s),
        )] + list(decisions[1:])
        cases.append(
            ("service_identity", 0,
             lambda: check_service_identity(flipped, records[: len(flipped)]))
        )
    return [
        name
        for name, pos, run in cases
        if not any(v.index == records[pos].index for v in run())
    ]
