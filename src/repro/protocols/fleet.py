"""Fleet execution of resilient sessions across a loss-rate sweep.

The availability experiment the session layer exists for: run
thousands of independently-seeded sessions at each point of a
frame-loss sweep and report, per loss rate,

* availability — the fraction of sessions that eventually identified,
* the retry bill — epochs, frames and retransmissions consumed,
* the energy bill — mean initiator µJ per identification and what the
  overhead does to the pacemaker's security-budget lifetime.

Sessions are embarrassingly parallel (every session derives its keys,
nonces and channel behaviour from ``(seed, session_index)`` alone), so
the fleet, the power soak and the amortized soak fan out over one
:class:`~concurrent.futures.ProcessPoolExecutor` helper, ``_fan_out``.
The aggregate is order-independent: results are keyed and sorted, so
worker scheduling cannot change a single reported digit.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import os
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from ..channel import LossProfile
from ..obs import runtime as _obs_runtime

if TYPE_CHECKING:  # lazy at runtime to avoid the energy <-> protocols
    # import cycle (repro.energy.comparison imports repro.protocols.ops)
    from ..energy.budget import DeviceBudget
from .session import (
    PROTOCOL_NAMES,
    RetransmissionPolicy,
    make_adapter,
    run_resilient_session,
)

__all__ = ["FleetSpec", "SessionRecord", "SweepPoint", "FleetReport",
           "run_fleet", "DEFAULT_SWEEP", "PowerSoakSpec",
           "PowerSessionRecord", "PowerSoakReport", "run_power_soak"]

#: Frame-loss points of the default sweep (0–20%, the ISSUE's range).
DEFAULT_SWEEP: Tuple[float, ...] = (0.0, 0.05, 0.10, 0.20)


@dataclass(frozen=True)
class FleetSpec:
    """Everything a fleet run depends on (and nothing else).

    The spec is the unit of reproducibility: two runs of the same spec
    produce identical reports, whatever the worker count.
    """

    protocol: str = "peeters-hermans"
    curve: str = "TOY-B17"
    sessions: int = 200
    seed: int = 2013
    sweep: Tuple[float, ...] = DEFAULT_SWEEP
    duplicate_rate: float = 0.02
    reorder_rate: float = 0.02
    distance_m: float = 0.5
    max_epochs: int = 12
    round_deadline_s: float = 0.08
    operations_per_day: float = 24.0

    def __post_init__(self):
        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {self.protocol!r} "
                             f"(know {', '.join(PROTOCOL_NAMES)})")
        if self.sessions < 1:
            raise ValueError("need at least one session")
        if not self.sweep:
            raise ValueError("sweep needs at least one loss rate")
        for loss in self.sweep:
            if not 0.0 <= loss < 1.0:
                raise ValueError(f"loss rate {loss} outside [0, 1)")
        if len(set(self.sweep)) != len(self.sweep):
            raise ValueError(f"duplicate loss rate in sweep {self.sweep}")

    def profile(self, frame_loss: float) -> LossProfile:
        """The channel at one sweep point, BER tied to the distance."""
        from ..energy.radio import RadioModel

        return LossProfile.from_radio(
            RadioModel(), self.distance_m, frame_loss=frame_loss,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
        )

    def policy(self) -> RetransmissionPolicy:
        return RetransmissionPolicy(max_epochs=self.max_epochs,
                                    round_deadline_s=self.round_deadline_s)


@dataclass(frozen=True)
class SessionRecord:
    """The light per-session record a worker ships back."""

    session_index: int
    accepted: bool
    completed: bool
    aborted_phase: Optional[str]
    rounds_completed: int
    epochs_used: int
    frames_sent: int
    retransmissions: int
    corrupt_rejections: int
    stale_rejections: int
    replay_rejections: int
    elapsed_s: float
    initiator_uj: float
    responder_uj: float
    transcript_digest: str


@dataclass
class SweepPoint:
    """Aggregated outcome of every session at one loss rate."""

    frame_loss: float
    profile: LossProfile
    records: List[SessionRecord] = dataclass_field(default_factory=list)

    @property
    def sessions(self) -> int:
        return len(self.records)

    @property
    def successes(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def availability(self) -> float:
        return self.successes / self.sessions if self.records else 0.0

    @property
    def mean_epochs(self) -> float:
        return sum(r.epochs_used for r in self.records) / self.sessions

    @property
    def mean_frames(self) -> float:
        return sum(r.frames_sent for r in self.records) / self.sessions

    @property
    def total_retransmissions(self) -> int:
        return sum(r.retransmissions for r in self.records)

    @property
    def mean_initiator_uj(self) -> float:
        return sum(r.initiator_uj for r in self.records) / self.sessions

    @property
    def worst_elapsed_s(self) -> float:
        return max(r.elapsed_s for r in self.records)

    def lifetime_years(self, spec: FleetSpec,
                       budget: "Optional[DeviceBudget]" = None) -> float:
        """Security-budget lifetime at this loss rate's mean session cost."""
        from ..energy.budget import PACEMAKER_BUDGET

        budget = budget or PACEMAKER_BUDGET
        mean_j = self.mean_initiator_uj * 1e-6
        if mean_j <= 0:
            return float("inf")
        return budget.lifetime_years_at(spec.operations_per_day, mean_j)

    def digest(self) -> str:
        """Order-independent digest over every session transcript."""
        h = hashlib.sha256()
        for record in sorted(self.records, key=lambda r: r.session_index):
            h.update(f"{record.session_index}:".encode())
            h.update(record.transcript_digest.encode())
        return h.hexdigest()


@dataclass
class FleetReport:
    """The full sweep, plus the derived verdict."""

    spec: FleetSpec
    points: List[SweepPoint]

    @property
    def total_sessions(self) -> int:
        return sum(p.sessions for p in self.points)

    @property
    def fully_available(self) -> bool:
        """Did every session at every loss rate eventually identify?"""
        return all(p.availability == 1.0 for p in self.points)

    @property
    def energy_monotone(self) -> bool:
        """Does mean initiator energy rise with the loss rate?"""
        means = [p.mean_initiator_uj
                 for p in sorted(self.points, key=lambda p: p.frame_loss)]
        return all(b > a for a, b in zip(means, means[1:]))

    def summary(self) -> str:
        """Render the sweep table from the sweep points' properties,
        the figures the verdicts and the ``soak.point`` events read."""
        spec = self.spec
        lines = [
            f"protocol {spec.protocol} on {spec.curve}, "
            f"{spec.sessions} sessions per point, seed {spec.seed}, "
            f"distance {spec.distance_m} m",
            f"{'loss':>6} {'avail':>8} {'epochs':>7} {'frames':>7} "
            f"{'retx':>6} {'uJ/session':>11} {'life(y)':>8}",
        ]
        degraded = []
        for point in sorted(self.points, key=lambda p: p.frame_loss):
            lines.append(
                f"{point.frame_loss:>6.0%} "
                f"{point.availability:>8.2%} "
                f"{point.mean_epochs:>7.2f} "
                f"{point.mean_frames:>7.2f} "
                f"{point.total_retransmissions:>6d} "
                f"{point.mean_initiator_uj:>11.2f} "
                f"{point.lifetime_years(spec):>8.1f}"
            )
            if point.availability < 1.0:
                degraded.append(f"{point.successes}/{point.sessions} "
                                f"at {point.frame_loss:.0%}")
        verdict = []
        verdict.append("availability: " + (
            "100% at every loss rate" if not degraded else
            "DEGRADED — " + ", ".join(degraded)))
        verdict.append("energy vs loss: " + (
            "strictly increasing (reliability is paid in uJ)"
            if self.energy_monotone else "NOT monotone"))
        return "\n".join(lines + verdict)


def record_fleet_report(registry, report: FleetReport) -> None:
    """Fold every sweep point's session records into ``registry``."""
    sessions = registry.counter("repro_fleet_sessions_total",
                                "sessions by sweep point and outcome")
    epochs = registry.counter("repro_fleet_epochs_total",
                              "protocol epochs consumed")
    frames = registry.counter("repro_fleet_frames_total",
                              "frames transmitted")
    retx = registry.counter("repro_fleet_retransmissions_total",
                            "frames beyond the lossless three")
    rejections = registry.counter("repro_fleet_rejections_total",
                                  "receiver-side frame rejections")
    energy = registry.counter("repro_fleet_energy_uj_total",
                              "microjoules spent, by role")
    availability = registry.gauge("repro_fleet_availability",
                                  "fraction of sessions that identified")
    for point in sorted(report.points, key=lambda p: p.frame_loss):
        loss = f"{point.frame_loss:g}"
        for record in point.records:
            if record.accepted:
                outcome = "accepted"
            elif record.completed:
                outcome = "rejected"
            else:
                outcome = "aborted"
            sessions.inc(loss=loss, outcome=outcome)
            epochs.inc(record.epochs_used, loss=loss)
            frames.inc(record.frames_sent, loss=loss)
            retx.inc(record.retransmissions, loss=loss)
            for kind, count in (("corrupt", record.corrupt_rejections),
                                ("stale", record.stale_rejections),
                                ("replay", record.replay_rejections)):
                if count:
                    rejections.inc(count, loss=loss, kind=kind)
            energy.inc(record.initiator_uj, loss=loss, role="initiator")
            energy.inc(record.responder_uj, loss=loss, role="responder")
        availability.set(point.availability, loss=loss)


def _run_slice(spec: FleetSpec, frame_loss: float,
               indices: Sequence[int]) -> List[SessionRecord]:
    """Worker entry: run a slice of sessions at one sweep point.

    Top-level so it pickles; builds everything it needs from the spec
    (workers share no state).
    """
    from ..ec.curves import get_curve
    from ..energy.comparison import ComputeEnergyTable

    domain = None if spec.protocol == "mutual-auth" \
        else get_curve(spec.curve)
    profile = spec.profile(frame_loss)
    policy = spec.policy()
    records = []
    for index in indices:
        adapter = make_adapter(spec.protocol, domain, seed=spec.seed,
                               session_index=index)
        result = run_resilient_session(
            adapter, profile, policy, seed=spec.seed ^ _loss_salt(frame_loss),
            session_index=index, distance_m=spec.distance_m,
            table=ComputeEnergyTable(),
        )
        records.append(SessionRecord(
            session_index=index,
            accepted=result.accepted,
            completed=result.completed,
            aborted_phase=result.aborted_phase,
            rounds_completed=result.rounds_completed,
            epochs_used=result.epochs_used,
            frames_sent=result.frames_sent,
            retransmissions=result.retransmissions,
            corrupt_rejections=result.corrupt_rejections,
            stale_rejections=result.stale_rejections,
            replay_rejections=result.replay_rejections,
            elapsed_s=result.elapsed_s,
            initiator_uj=result.initiator_energy.total_j * 1e6,
            responder_uj=result.responder_energy.total_j * 1e6,
            transcript_digest=result.transcript_digest,
        ))
    return records


def _loss_salt(frame_loss: float) -> int:
    """A stable per-sweep-point salt so points are independent streams."""
    digest = hashlib.sha256(f"fleet-loss/{frame_loss!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# the power soak: a fleet of sessions under seeded power-cut schedules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSoakSpec:
    """A fleet of intermittent-power sessions, each under its own
    seeded cut schedule.

    ``seed`` drives the protocol (keys, nonces, Z randomization);
    ``cut_seed`` drives the cut placements — two independent streams,
    so the same fleet can be soaked under many different outage
    patterns and the *outcomes* compared byte for byte.
    """

    curve: str = "TOY-B17"
    sessions: int = 50
    seed: int = 2013
    cut_seed: int = 1
    cuts: int = 3
    mean_on_cycles: int = 8_000
    checkpoint_interval: int = 8
    randomize_z: bool = True
    max_power_cycles: int = 64

    def __post_init__(self):
        if self.sessions < 1:
            raise ValueError("need at least one session")
        if self.cuts < 0:
            raise ValueError("cut count must be non-negative")
        if self.mean_on_cycles < 1:
            raise ValueError("mean on-window must be at least one cycle")

    def intermittent_spec(self):
        from ..intermittent import IntermittentSpec

        return IntermittentSpec(
            curve=self.curve, seed=self.seed,
            checkpoint_interval=self.checkpoint_interval,
            randomize_z=self.randomize_z,
            max_power_cycles=self.max_power_cycles,
        )

    def schedule(self, session_index: int):
        from ..intermittent import PowerCutSchedule

        if self.cuts == 0:
            return PowerCutSchedule()
        return PowerCutSchedule.seeded(
            self.cut_seed, session_index, self.cuts,
            mean_on_cycles=self.mean_on_cycles)


@dataclass(frozen=True)
class PowerSessionRecord:
    """The light per-session record a power-soak worker ships back.

    Field names match :class:`~repro.intermittent.IntermittentResult`
    where they overlap, so
    :func:`~repro.intermittent.engine.record_intermittent_result`
    folds either shape into the registry.
    """

    session_index: int
    completed: bool
    accepted: bool
    identity: Optional[int]
    abort_reason: Optional[str]
    power_cycles: int
    checkpoints_committed: int
    torn_discards: int
    steps_executed: int
    steps_wasted: int
    checkpoint_uj: float
    compute_uj: float
    radio_uj: float
    outcome_digest: str
    #: on-the-wire nonce reuses (see
    #: :func:`repro.intermittent.count_nonce_reuse`) —
    #: placement-invariant, zero while the vault invariant holds.
    nonce_reuse: int = 0

    @property
    def total_uj(self) -> float:
        return self.checkpoint_uj + self.compute_uj + self.radio_uj


@dataclass
class PowerSoakReport:
    """Every session's outcome under its cut schedule."""

    spec: PowerSoakSpec
    records: List[PowerSessionRecord]

    @property
    def sessions(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def all_clean(self) -> bool:
        """Every session completed, or aborted with a typed reason —
        nothing crashed, nothing corrupted."""
        return all(r.completed or r.abort_reason for r in self.records)

    @property
    def total_power_cycles(self) -> int:
        return sum(r.power_cycles for r in self.records)

    @property
    def total_torn_discards(self) -> int:
        return sum(r.torn_discards for r in self.records)

    @property
    def total_nonce_reuse(self) -> int:
        return sum(r.nonce_reuse for r in self.records)

    @property
    def total_steps_executed(self) -> int:
        return sum(r.steps_executed for r in self.records)

    @property
    def total_steps_wasted(self) -> int:
        return sum(r.steps_wasted for r in self.records)

    @property
    def total_uj(self) -> float:
        return sum(r.total_uj for r in self.records)

    @property
    def total_checkpoint_uj(self) -> float:
        return sum(r.checkpoint_uj for r in self.records)

    def telemetry_events(self) -> List[dict]:
        """Ordered telemetry: one event per session on the ordinal
        virtual clock (sessions are independent simulations, so the
        session ordinal is the fleet's only shared timeline)."""
        from ..obs.stream import make_event

        return [make_event(float(r.session_index), "power",
                           r.session_index,
                           session_uj=r.total_uj,
                           nonce_reuse=r.nonce_reuse)
                for r in sorted(self.records,
                                key=lambda r: r.session_index)]

    def alert_records(self) -> List[dict]:
        """The stock *invariant* rules evaluated over the soak stream.

        Only placement-invariant series participate in the verdict
        (``nonce_reuse``; energy figures legitimately vary with where
        the cuts land), so the log — like :meth:`summary_payload` — is
        byte-identical across cut seeds and worker counts.
        """
        from ..obs.alerts import AlertEngine, default_rulebook

        rules = tuple(rule for rule in default_rulebook()
                      if rule.kind == "invariant")
        engine = AlertEngine(rules)
        for event in self.telemetry_events():
            engine.observe(event)
        return engine.finalize()

    def outcome_digest(self) -> str:
        """Order-independent digest over every session's outcome."""
        h = hashlib.sha256()
        for record in sorted(self.records, key=lambda r: r.session_index):
            h.update(f"{record.session_index}:".encode())
            h.update(record.outcome_digest.encode())
        return h.hexdigest()

    def summary_payload(self) -> dict:
        """The ``summary.json`` body: *placement-invariant* facts only.

        Per-session outcome digests and their combination — never
        energy, cycle or power-cut figures, which legitimately vary
        with where the cuts land.  CI asserts this payload is
        byte-identical across worker counts *and* across cut seeds
        whose schedules allow every session to complete.
        """
        return {
            "curve": self.spec.curve,
            "protocol_seed": self.spec.seed,
            "sessions": self.sessions,
            "completed": self.completed,
            "accepted": self.accepted,
            "identities": [r.identity
                           for r in sorted(self.records,
                                           key=lambda r: r.session_index)],
            "outcomes": {str(r.session_index): r.outcome_digest
                         for r in sorted(self.records,
                                         key=lambda r: r.session_index)},
            "outcome_digest": self.outcome_digest(),
            "nonce_reuse": self.total_nonce_reuse,
            "alert_firings": len([r for r in self.alert_records()
                                  if r["state"] == "firing"]),
        }

    def summary(self) -> str:
        """Render the soak table from the report's properties."""
        sessions = self.sessions
        lines = [
            f"power soak on {self.spec.curve}: {sessions} sessions, "
            f"seed {self.spec.seed}, cut seed {self.spec.cut_seed}, "
            f"{self.spec.cuts} cuts/session around "
            f"{self.spec.mean_on_cycles} cycles",
            f"  completed {self.completed}/{sessions}, "
            f"accepted {self.accepted}/{sessions}",
            f"  power cycles survived: {self.total_power_cycles} "
            f"(torn staged records discarded: {self.total_torn_discards})",
            f"  nonce reuse on the wire: {self.total_nonce_reuse} "
            + ("(invariant held)" if self.total_nonce_reuse == 0
               else "(INVARIANT BROKEN — alert fired)"),
            f"  ladder steps: "
            f"{self.total_steps_executed - self.total_steps_wasted} "
            f"productive, {self.total_steps_wasted} re-executed after cuts",
            f"  energy: {self.total_uj:.1f} uJ total "
            f"({self.total_checkpoint_uj:.1f} uJ on checkpoints), "
            f"worst session {max(r.total_uj for r in self.records):.1f} uJ"
            if self.records else "  energy: none recorded",
            f"  outcome digest: {self.outcome_digest()[:16]}",
        ]
        verdict = ("every session completed or aborted typed-clean"
                   if self.all_clean else
                   "UNCLEAN — a session died without a typed reason")
        return "\n".join(lines + ["  verdict: " + verdict])


def _fan_out(task, spec, points: Sequence[tuple], workers: Optional[int],
             progress) -> Dict[tuple, list]:
    """Run ``task(spec, *point, indices)`` over every point and chunk of
    ``spec.sessions`` indices, in-process or on a process pool.

    ``workers=None`` means ``min(cpu, 8)``; ``0`` or ``1`` (or a single
    job) runs in-process.  ``progress`` is an optional ``(done, total)``
    callable.  Returns each point's records in completion order; the
    callers sort them, so scheduling cannot change a reported digit.
    """
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    chunk = max(1, spec.sessions // max(1, workers * 4))
    jobs = [(point, list(range(start, min(start + chunk, spec.sessions))))
            for point in points
            for start in range(0, spec.sessions, chunk)]
    results: Dict[tuple, list] = {point: [] for point in points}
    if workers <= 1 or len(jobs) == 1:
        for done, (point, indices) in enumerate(jobs, 1):
            results[point].extend(task(spec, *point, indices))
            if progress:
                progress(done, len(jobs))
    else:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            futures = {pool.submit(task, spec, *point, indices): point
                       for point, indices in jobs}
            for done, future in enumerate(
                    concurrent.futures.as_completed(futures), 1):
                results[futures[future]].extend(future.result())
                if progress:
                    progress(done, len(jobs))
    return results


def _run_power_slice(spec: PowerSoakSpec,
                     indices: Sequence[int]) -> List[PowerSessionRecord]:
    """Worker entry: run a slice of intermittent sessions.

    Builds sessions directly (not through
    :func:`~repro.intermittent.run_intermittent_session`) so workers
    never emit spans — the coordinator is the only aggregation path,
    keeping the registry independent of worker count.
    """
    from ..intermittent import IntermittentSession, count_nonce_reuse

    ispec = spec.intermittent_spec()
    records = []
    for index in indices:
        supply = spec.schedule(index).supply()
        result = IntermittentSession(ispec, index, supply=supply).run()
        records.append(PowerSessionRecord(
            session_index=index,
            completed=result.completed,
            accepted=result.accepted,
            identity=result.identity,
            abort_reason=result.abort_reason,
            power_cycles=result.power_cycles,
            checkpoints_committed=result.checkpoints_committed,
            torn_discards=result.torn_discards,
            steps_executed=result.steps_executed,
            steps_wasted=result.steps_wasted,
            checkpoint_uj=result.checkpoint_uj,
            compute_uj=result.compute_uj,
            radio_uj=result.radio_uj,
            outcome_digest=result.outcome_digest,
            nonce_reuse=count_nonce_reuse(result.wire),
        ))
    return records


def run_power_soak(spec: PowerSoakSpec, workers: Optional[int] = None,
                   progress=None) -> PowerSoakReport:
    """Soak a fleet of sessions under seeded power-cut schedules.

    Same fan-out discipline as :func:`run_fleet`: sessions are
    embarrassingly parallel, records are keyed and sorted, and the
    report cannot depend on worker count or scheduling.
    """
    from ..intermittent.engine import record_intermittent_result

    rt = _obs_runtime.current()
    with contextlib.ExitStack() as stack:
        soak_span = None
        if rt is not None:
            soak_span = stack.enter_context(rt.span(
                "power.soak", key=0, curve=spec.curve,
                sessions=spec.sessions, cuts=spec.cuts,
                interval=spec.checkpoint_interval,
            ))
        records = _fan_out(_run_power_slice, spec, [()], workers,
                           progress)[()]
        records.sort(key=lambda r: r.session_index)
        report = PowerSoakReport(spec=spec, records=records)
        if rt is not None:
            for record in records:
                record_intermittent_result(rt.registry, record)
            soak_span.set(completed=report.completed,
                          accepted=report.accepted,
                          clean=report.all_clean,
                          digest=report.outcome_digest()[:16])
    return report


def run_fleet(spec: FleetSpec, workers: Optional[int] = None,
              progress=None) -> FleetReport:
    """Run the whole sweep, optionally across worker processes.

    ``workers=0`` forces in-process execution (tests, small runs);
    otherwise defaults to ``min(cpu, 8)`` like the campaign runner.
    ``progress`` is an optional callable ``(done, total)``.
    """
    from ..obs.integration import fleet_spec_digest

    rt = _obs_runtime.current()
    with contextlib.ExitStack() as stack:
        soak_span = None
        if rt is not None:
            # Deterministic attrs only — no worker count, so two runs
            # of the same spec produce byte-identical span trees
            # whatever the parallelism.
            soak_span = stack.enter_context(rt.span(
                "protocol.soak", key=0,
                protocol=spec.protocol, spec=fleet_spec_digest(spec),
                sessions=spec.sessions, points=len(spec.sweep),
            ))
        by_loss = _fan_out(_run_slice, spec,
                           [(loss,) for loss in spec.sweep], workers,
                           progress)
        points = []
        for key, loss in enumerate(sorted(spec.sweep)):
            records = sorted(by_loss[(loss,)],
                             key=lambda r: r.session_index)
            point = SweepPoint(frame_loss=loss,
                               profile=spec.profile(loss),
                               records=records)
            points.append(point)
            if rt is not None:
                rt.tracer.event(
                    "soak.point", key=key,
                    loss=f"{loss:g}", sessions=point.sessions,
                    accepted=point.successes,
                    retransmissions=point.total_retransmissions,
                    digest=point.digest(),
                )
        report = FleetReport(spec=spec, points=points)
        if rt is not None:
            record_fleet_report(rt.registry, report)
            if soak_span is not None:
                soak_span.set(available=report.fully_available,
                              monotone=report.energy_monotone)
    return report
