"""The supervised cohort-soak driver shared by the server and attack soaks.

A soak drives many sessions and must write the same ``summary.json``,
``telemetry.json`` and ``alerts.json`` — byte for byte — whether it ran
on one worker or eight, with or without chaos faults killing workers
mid-session.  The unit of parallelism is a **cohort**: a block of
consecutive session indices simulated *whole* by one worker on its own
virtual timeline.  Cohort results are pure functions of
``(spec, cohort_index)``, workers never share a simulation, and every
output is assembled in cohort order, so scheduling, worker count and
crash/retry history are invisible in the bytes.

A soak supplies only its domain part:

* a spec with ``sessions``, ``cohorts``, ``to_dict``/``from_dict``,
  ``digest`` and ``identity_dict``;
* ``simulate(spec, cohort_index, *, crash_after, crash_tmp_path)``,
  returning the cohort's aggregates plus its ``telemetry`` events and
  wall-stripped ``metrics`` snapshot, and calling
  :func:`chaos_kill_point` after each session;
* a rulebook for the telemetry alerts;
* ``fold(spec, common, cohorts)``, turning the ordered cohort
  aggregates into its report (built from the shared ``common`` fields)
  and the summary's ``totals`` block.

Supervision is :class:`~repro.campaign.supervisor.ShardSupervisor`: a
chaos-killed worker is a transient failure, the cohort is retried from
scratch (determinism makes the retry byte-identical), and a cohort that
keeps failing is quarantined — the soak reports ``degraded`` instead
of hanging.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from typing import Callable, Dict, Optional

from ..channel import derive_channel_seed
from ..obs import runtime as _obs_runtime
from ..obs.alerts import ALERTS_NAME, write_alert_log
from ..obs.metrics import MetricRegistry, atomic_write_bytes, \
    strip_wall_metrics
from ..obs.stream import TELEMETRY_NAME, run_pipeline, write_telemetry
from .acquire import default_workers
from .chaos import (ChaosConfig, apply_execution_fault,
                    corrupt_after_digest, crash_worker)
from .store import file_digest
from .supervisor import ShardSupervisor

__all__ = ["run_cohort_soak", "run_cohort", "arrival_gap",
           "chaos_kill_point", "SUMMARY_NAME"]

SUMMARY_NAME = "summary.json"
_SUMMARY_SCHEMA = 1


def arrival_gap(seed: int, index: int, rate: float, label: str) -> float:
    """Deterministic exponential-ish inter-arrival gap; ``label`` keeps
    each soak's arrival stream independent of the others'."""
    unit = derive_channel_seed(seed, label, index, 0, 0) / 2.0 ** 64
    return -math.log(max(unit, 1e-12)) / rate


def chaos_kill_point(done: int, crash_after: Optional[int],
                     crash_tmp_path: Optional[str],
                     cohort_index: int) -> None:
    """The chaos ``crash`` fault's kill site inside a cohort.

    Once ``done`` sessions have concluded the worker dies the way a
    killed one does: torn temp file, no result, simulation abandoned
    mid-flight.  The flight recorder dumps first — the black box is
    the only telemetry that survives the kill.
    """
    if crash_after is None or done < crash_after:
        return
    _obs_runtime.flight_dump("chaos-kill", cohort=cohort_index,
                             sessions_done=done)
    crash_worker(crash_tmp_path)


def run_cohort(spec_cls, simulate: Callable, spec_dict: dict,
               directory: str, cohort_index: int, attempt: int,
               chaos_dict: Optional[dict]) -> dict:
    """The supervised worker task: simulate, write, report.

    Bound to a soak with :func:`functools.partial` (which pickles across
    the ``spawn`` boundary).  Chaos ``crash`` kills the worker after
    half the cohort's sessions conclude; ``corrupt`` flips a byte after
    the digest was computed.
    """
    spec = spec_cls.from_dict(spec_dict)
    chaos = None if chaos_dict is None else ChaosConfig.from_dict(chaos_dict)
    crash = apply_execution_fault(chaos, cohort_index, attempt)
    name = f"cohort-{cohort_index:05d}.json"
    path = os.path.join(directory, name)
    with _obs_runtime.shard_scope(cohort_index) as rt:
        payload = simulate(
            spec, cohort_index,
            crash_after=max(1, spec.sessions // 2) if crash else None,
            crash_tmp_path=path + ".tmp")
        if rt is not None:
            rt.registry.merge_snapshot(payload["metrics"])
    atomic_write_bytes(
        path, json.dumps(payload, indent=1, sort_keys=True).encode())
    digest = file_digest(path)
    corrupt_after_digest(chaos, cohort_index, attempt, path, 16)
    return {
        "shard": cohort_index,
        "file": name,
        "sha256": digest,
        "artifacts": [(name, digest)],
    }


def run_cohort_soak(directory: str, spec, *, simulate: Callable,
                    fold: Callable, rulebook: Callable,
                    workers: Optional[int] = None,
                    chaos: Optional[ChaosConfig] = None,
                    policy=None, on_event=None):
    """Drive every cohort under supervision and write the soak's outputs.

    The summary is a pure function of the spec: cohort aggregates in
    cohort order, metric snapshots merged in cohort order, wall-clock
    families stripped.  Telemetry events are pure functions of
    ``(spec, cohort)`` and the fold order is total, so
    ``telemetry.json`` and ``alerts.json`` are byte-identical across
    worker counts too.  Returns the report ``fold`` built.
    """
    started = time.monotonic()
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        if name.endswith(".tmp"):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass

    records: Dict[int, dict] = {}
    outcome = ShardSupervisor(
        spec, directory,
        workers=default_workers(workers),
        policy=policy,
        chaos=chaos,
        task=functools.partial(run_cohort, type(spec), simulate),
        on_success=lambda record, attempt: records.__setitem__(
            record["shard"], record),
        on_event=on_event,
    ).run(list(range(spec.cohorts)))
    quarantined = sorted(outcome.quarantined)

    merged = MetricRegistry()
    events, cohorts = [], []
    for index in sorted(records):
        path = os.path.join(directory, records[index]["file"])
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
        merged.merge_snapshot(payload.pop("metrics"))
        events.extend(payload.pop("telemetry", ()))
        cohorts.append(payload)
    report, totals = fold(spec, {
        "outcome": "degraded" if quarantined else "clean",
        "spec_digest": spec.digest(),
        "directory": str(directory),
        "cohorts_total": spec.cohorts,
        "cohorts_completed": len(records),
        "quarantined": quarantined,
        "retried_attempts": outcome.retried_attempts,
    }, cohorts)

    rules = rulebook(spec)
    live, alert_records = run_pipeline(events, rules,
                                       window_s=rules[0].window_s)
    write_telemetry(os.path.join(directory, TELEMETRY_NAME), live)
    alert_log = write_alert_log(
        os.path.join(directory, ALERTS_NAME), rules, alert_records)
    session_uj = live["series"].get("session_uj", {})
    report.alert_firings = alert_log["firings"]
    report.session_uj_p99 = session_uj.get("p99")

    summary = {
        "schema_version": _SUMMARY_SCHEMA,
        "spec": spec.identity_dict(),
        "spec_digest": spec.digest(),
        "outcome": report.outcome,
        "quarantined": quarantined,
        "cohorts": cohorts,
        "totals": totals,
        "telemetry": {
            "events": live["events"],
            "session_uj": {key: session_uj.get(key)
                           for key in ("count", "p50", "p95", "p99",
                                       "max")},
            "alerts": {
                "firings": alert_log["firings"],
                "by_rule": alert_log["firings_by_rule"],
            },
        },
        "metrics": strip_wall_metrics(merged.snapshot()),
    }
    report.summary_path = os.path.join(directory, SUMMARY_NAME)
    atomic_write_bytes(
        report.summary_path,
        json.dumps(summary, indent=1, sort_keys=True).encode())
    report.wall_s = time.monotonic() - started

    rt = _obs_runtime.current()
    if rt is not None:
        _obs_runtime.merge_shard_metrics(rt, sorted(records))
    return report
