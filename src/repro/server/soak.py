"""Fleet-scale soak runs: cohorts of identification sessions.

A soak drives many thousands of sessions against one enrolled fleet.
Each cohort is one independent simulation on its own virtual-time loop
with its own :class:`~.reader.IdentificationServer`; supervision,
chaos, the ordered merge, telemetry and the summary are the shared
cohort-soak driver's (:mod:`repro.campaign.cohort`).  This module
supplies the fleet-specific part: the spec, the cohort simulation, the
alert rulebook and the fold into :class:`SoakReport`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

from ..campaign.chaos import ChaosConfig
from ..campaign.cohort import (SUMMARY_NAME, arrival_gap,
                               chaos_kill_point, run_cohort_soak)
from ..channel import LossProfile, derive_channel_seed
from ..obs.alerts import default_rulebook
from ..obs.metrics import MetricRegistry, strip_wall_metrics
from ..obs.stream import make_event, spread_drain_events
from .enrollment import EnrollmentStore
from .errors import (AdmissionRejectedError, ReplayQuarantinedError,
                     ServerError, SourceThrottledError)
from .reader import IdentificationServer, ServerConfig
from .simloop import SimLoop

__all__ = ["SoakSpec", "SoakReport", "run_soak", "simulate_cohort",
           "soak_rulebook", "SUMMARY_NAME", "SESSION_OUTCOMES"]

_SCHEMA_VERSION = 1

#: The full enumeration of session outcomes a soak can observe.  The
#: summary zero-fills every bucket so "no attacks seen" and "attacks
#: not counted" are distinguishable at a glance.
SESSION_OUTCOMES = ("accepted", "rejected", "aborted", "deadline",
                    "adversarial", "budget_exhausted")


@dataclass(frozen=True)
class SoakSpec:
    """Everything that determines a soak's results.

    ``store_dir`` is where the fleet lives — an environment fact, not
    an identity fact — so it is *excluded* from :meth:`digest`; the
    fleet itself is bound by ``enrollment_digest``.  Two soaks of the
    same spec against copies of the same fleet in different
    directories produce byte-identical summaries.
    """

    enrollment_digest: str
    store_dir: str
    sessions: int = 200            # per cohort
    cohorts: int = 4
    arrival_rate: float = 2000.0   # arrivals per virtual second
    frame_loss: float = 0.1
    seed: int = 0
    capacity: int = 256
    admission_queue: int = 64
    session_deadline_s: float = 2.0
    search_mode: str = "cached"
    distance_m: float = 0.5
    adversarial_fraction: float = 0.0
    throttle_limit: int = 0
    replay_quarantine: bool = False
    tag_budget_uj: float = 0.0
    schema_version: int = _SCHEMA_VERSION

    def __post_init__(self):
        if self.sessions < 1 or self.cohorts < 1:
            raise ValueError("need at least one session and one cohort")
        if self.arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 <= self.adversarial_fraction <= 1.0:
            raise ValueError("adversarial fraction must be in [0, 1]")
        if self.throttle_limit < 0:
            raise ValueError("throttle limit must be non-negative")
        if self.tag_budget_uj < 0:
            raise ValueError("tag budget must be non-negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SoakSpec":
        d = dict(d)
        d.setdefault("schema_version", _SCHEMA_VERSION)
        return cls(**d)

    def identity_dict(self) -> dict:
        """The digest's view: the spec minus environment facts."""
        identity = self.to_dict()
        del identity["store_dir"]
        return identity

    def digest(self) -> str:
        payload = json.dumps(self.identity_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def server_config(self) -> ServerConfig:
        return ServerConfig(
            capacity=self.capacity,
            admission_queue=self.admission_queue,
            session_deadline_s=self.session_deadline_s,
            search_mode=self.search_mode,
            distance_m=self.distance_m,
            source_session_limit=self.throttle_limit,
            replay_quarantine=self.replay_quarantine,
            tag_budget_uj=self.tag_budget_uj,
        )

    def is_adversarial(self, index: int) -> bool:
        """Ground truth for global session ``index`` — a pure function
        of (seed, index), so cohort splits cannot move it."""
        if self.adversarial_fraction <= 0.0:
            return False
        draw = derive_channel_seed(self.seed, "server/adversarial",
                                   index, 0, 0) / 2.0 ** 64
        return draw < self.adversarial_fraction

    def source_for(self, index: int) -> str:
        """Arrival source identity: malicious readers cluster behind a
        handful of identities (what throttling and quarantine key on);
        honest tags arrive from distinct ones."""
        if self.is_adversarial(index):
            return f"adv-{index % 4}"
        return f"tag-{index}"


# ----------------------------------------------------------------------
# one cohort = one independent simulation
# ----------------------------------------------------------------------

def _open_fleet(spec: SoakSpec, verify: bool) -> EnrollmentStore:
    store = EnrollmentStore(spec.store_dir, verify=verify)
    if store.spec.digest() != spec.enrollment_digest:
        raise ServerError(
            f"store at {spec.store_dir} holds fleet "
            f"{store.spec.digest()[:12]}..., soak spec wants "
            f"{spec.enrollment_digest[:12]}..."
        )
    return store


#: The shed reason each admission refusal counts under.
_SHED_REASONS = {AdmissionRejectedError: "overload",
                 SourceThrottledError: "throttled",
                 ReplayQuarantinedError: "quarantined"}


def simulate_cohort(spec: SoakSpec, cohort_index: int, *,
                    crash_after: Optional[int] = None,
                    crash_tmp_path: Optional[str] = None,
                    registry: Optional[MetricRegistry] = None) -> dict:
    """Run one cohort on a fresh loop; returns its aggregates+metrics.

    ``crash_after`` is the chaos hook: after that many sessions have
    concluded the worker dies hard (``os._exit``) with the simulation
    mid-flight — the supervised retry must reproduce the cohort
    byte-identically.  ``registry`` lets a caller watch the metrics
    live (the CLI's ``server run`` serves it over HTTP mid-flight).
    """
    store = _open_fleet(spec, verify=False)
    loop = SimLoop()
    registry = registry if registry is not None else MetricRegistry()
    server = IdentificationServer(
        loop, store, spec.server_config(), seed=spec.seed,
        profile=LossProfile(frame_loss=spec.frame_loss),
        registry=registry)
    base = cohort_index * spec.sessions
    source = f"cohort-{cohort_index:05d}"

    async def drive() -> List:
        server.start()
        futures = []
        submit_vts = {}
        shed_events = []
        shed_reasons = {reason: 0 for reason in _SHED_REASONS.values()}
        for i in range(spec.sessions):
            index = base + i
            if i:
                await loop.sleep(arrival_gap(spec.seed, index,
                                             spec.arrival_rate,
                                             "server/arrival"))
            try:
                submit_vts[index] = loop.now
                futures.append(server.submit(
                    index, source=spec.source_for(index),
                    adversarial=spec.is_adversarial(index)))
            except tuple(_SHED_REASONS) as exc:
                shed_reasons[_SHED_REASONS[type(exc)]] += 1
                shed_events.append(make_event(loop.now, source, index,
                                              shed=1))
        outcomes = []
        for future in futures:
            outcomes.append(await future)
            chaos_kill_point(len(outcomes), crash_after, crash_tmp_path,
                             cohort_index)
        await server.close()
        return outcomes, submit_vts, shed_events, shed_reasons

    outcomes, submit_vts, shed_events, shed_reasons = \
        loop.run_until_complete(drive())

    # One telemetry event per concluded session (plus the battery's
    # pro-rated per-window drain view) and one per shed arrival;
    # events are pure functions of (spec, cohort_index).
    telemetry = list(shed_events)
    for outcome in outcomes:
        vt = submit_vts[outcome.index]
        telemetry.append(make_event(
            vt, source, outcome.index,
            session_uj=outcome.tag_energy_uj))
        telemetry.extend(spread_drain_events(
            vt, source, outcome.index, outcome.tag_energy_uj,
            outcome.elapsed_s))

    by_outcome: Dict[str, int] = {k: 0 for k in SESSION_OUTCOMES}
    totals = {
        "epochs": 0, "frames": 0, "retransmissions": 0,
        "records_scanned": 0, "correct": 0,
    }
    tag_uj = reader_uj = 0.0
    for outcome in outcomes:
        if outcome.outcome not in by_outcome:
            raise ServerError(
                f"outcome {outcome.outcome!r} missing from "
                f"SESSION_OUTCOMES — every bucket must be enumerated",
                session_index=outcome.index)
        by_outcome[outcome.outcome] += 1
        totals["epochs"] += outcome.epochs_used
        totals["frames"] += outcome.frames_sent
        totals["retransmissions"] += outcome.retransmissions
        totals["records_scanned"] += outcome.records_scanned
        if outcome.identified_correctly:
            totals["correct"] += 1
        tag_uj += outcome.tag_energy_uj
        reader_uj += outcome.reader_energy_uj

    return {
        "cohort": cohort_index,
        "sessions": spec.sessions,
        "first_index": base,
        "outcomes": {k: by_outcome[k] for k in sorted(by_outcome)},
        "shed": sum(shed_reasons.values()),
        "shed_reasons": {k: shed_reasons[k]
                         for k in sorted(shed_reasons)},
        "quarantined_sources": sorted(server.quarantined_sources),
        "admitted": server.admitted,
        "peak_in_flight": server.peak_in_flight,
        "epochs": totals["epochs"],
        "frames": totals["frames"],
        "retransmissions": totals["retransmissions"],
        "records_scanned": totals["records_scanned"],
        "correct": totals["correct"],
        "tag_energy_uj": round(tag_uj, 6),
        "reader_energy_uj": round(reader_uj, 6),
        "scheduler": {
            "requests": server.scheduler.requests_total,
            "batches": server.scheduler.batches_total,
        },
        "telemetry": telemetry,
        "metrics": strip_wall_metrics(registry.snapshot()),
    }


#: The fleet soak's p99 alert line, in µJ.  A private-identification
#: session costs more than the attack lab's handshake — the tag walks
#: the full response ladder while the reader scans records — and the
#: soak's configured ``frame_loss`` stretches honest retransmission
#: tails further: measured honest p99 runs 111–230 µJ across seeds at
#: 10–25 % loss, against the ~324 µJ median an amplification-class
#: flood drags per session.  260 sits above every measured honest
#: tail and below flood drag; lossier channels than 25 % are outside
#: the calibrated envelope.
FLEET_P99_UJ = 260.0


def soak_rulebook(spec: SoakSpec):
    """The fleet soak's alert rulebook: the stock book with the p99
    line resized for the identification workload (see
    :data:`FLEET_P99_UJ`); everything else keeps the lab calibration
    from :func:`repro.obs.alerts.default_rulebook`."""
    return default_rulebook(p99_uj=FLEET_P99_UJ)


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------

@dataclass
class SoakReport:
    """What one soak accomplished, plus where the summary lives."""

    outcome: str                   # clean | degraded
    spec_digest: str
    directory: str
    cohorts_total: int
    cohorts_completed: int
    quarantined: List[int] = dataclass_field(default_factory=list)
    retried_attempts: int = 0
    sessions: int = 0
    accepted: int = 0
    shed: int = 0
    deadline: int = 0
    adversarial: int = 0
    budget_exhausted: int = 0
    throttled: int = 0
    shed_quarantined: int = 0
    correct: int = 0
    peak_in_flight: int = 0
    tag_energy_uj: float = 0.0
    reader_energy_uj: float = 0.0
    alert_firings: int = 0
    session_uj_p99: Optional[float] = None
    summary_path: str = ""
    wall_s: float = 0.0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.sessions if self.sessions else 0.0

    def text(self) -> str:
        lines = [
            f"soak {self.spec_digest[:12]}: {self.outcome}",
            f"  cohorts   {self.cohorts_completed}/{self.cohorts_total}"
            + (f"  (quarantined: "
               f"{', '.join(map(str, self.quarantined))})"
               if self.quarantined else ""),
            f"  sessions  {self.sessions}  accepted {self.accepted} "
            f"({self.acceptance_rate:.1%})  shed {self.shed}  "
            f"deadline {self.deadline}",
            f"  attacked  adversarial {self.adversarial}  "
            f"budget_exhausted {self.budget_exhausted}  "
            f"throttled {self.throttled}  "
            f"quarantined-arrivals {self.shed_quarantined}",
            f"  correct   {self.correct}/{self.accepted} accepted "
            f"identifications named the canonical tag",
            f"  peak      {self.peak_in_flight} concurrent sessions "
            f"(per cohort)",
            f"  energy    tag {self.tag_energy_uj:.1f} uJ, "
            f"reader {self.reader_energy_uj:.1f} uJ",
            f"  telemetry {self.alert_firings} alert firing(s), "
            f"session p99 "
            + (f"{self.session_uj_p99:.1f} uJ"
               if self.session_uj_p99 is not None else "-"),
            f"  retries   {self.retried_attempts} worker attempts "
            f"beyond the first",
            f"  wall      {self.wall_s:.1f} s",
            f"  summary   {self.summary_path}",
        ]
        return "\n".join(lines)


#: The summary's ``totals`` block: these report fields, summed over
#: cohorts (``peak_in_flight`` is the per-cohort maximum).
_TOTALS = ("sessions", "accepted", "shed", "deadline", "adversarial",
           "budget_exhausted", "throttled", "shed_quarantined",
           "correct", "peak_in_flight", "tag_energy_uj",
           "reader_energy_uj")


def _fold(spec: SoakSpec, common: dict, cohorts: List[dict]):
    report = SoakReport(**common)
    for payload in cohorts:
        outcomes = payload["outcomes"]
        reasons = payload.get("shed_reasons", {})
        report.sessions += payload["sessions"]
        report.accepted += outcomes.get("accepted", 0)
        report.deadline += outcomes.get("deadline", 0)
        report.adversarial += outcomes.get("adversarial", 0)
        report.budget_exhausted += outcomes.get("budget_exhausted", 0)
        report.shed += payload["shed"]
        report.throttled += reasons.get("throttled", 0)
        report.shed_quarantined += reasons.get("quarantined", 0)
        report.correct += payload["correct"]
        report.peak_in_flight = max(report.peak_in_flight,
                                    payload["peak_in_flight"])
        report.tag_energy_uj = round(
            report.tag_energy_uj + payload["tag_energy_uj"], 6)
        report.reader_energy_uj = round(
            report.reader_energy_uj + payload["reader_energy_uj"], 6)
    return report, {name: getattr(report, name) for name in _TOTALS}


def run_soak(directory: str, spec: SoakSpec, *,
             workers: Optional[int] = None,
             chaos: Optional[ChaosConfig] = None,
             policy=None,
             on_event=None) -> SoakReport:
    """Drive every cohort under supervision and write ``summary.json``
    (plus ``telemetry.json`` and ``alerts.json``), byte-identical across
    worker counts: see :func:`repro.campaign.cohort.run_cohort_soak`.
    """
    # Fail fast on a wrong or corrupt fleet before spawning workers.
    _open_fleet(spec, verify=True)
    return run_cohort_soak(directory, spec, simulate=simulate_cohort,
                           fold=_fold, rulebook=soak_rulebook,
                           workers=workers, chaos=chaos, policy=policy,
                           on_event=on_event)
