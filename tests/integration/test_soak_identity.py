"""Golden output digests for every soak driver.

Each soak promises output that is a pure function of its spec.  These
tests pin that output as sha256 digests, so a refactor of the shared
supervision, fan-out or telemetry plumbing that moves a single byte of
``summary.json``, ``telemetry.json``, ``alerts.json`` or a report's
summary payload, or a line of a soak report's or ``campaign status``'s
text, fails here, whatever the worker count.
"""

import hashlib
import json

import pytest

from repro.adversary import AttackSpec, run_attack_soak
from repro.campaign import (TRANSIENT, AcquisitionEngine, CampaignSpec,
                            ChaosConfig)
from repro.campaign.supervisor import FailureEvent, FailureLog, RetryPolicy
from repro.cli import cmd_campaign_status
from repro.obs.alerts import ALERTS_NAME
from repro.obs.stream import TELEMETRY_NAME
from repro.protocols import AmortizedSpec, run_amortized_soak
from repro.protocols.fleet import (FleetSpec, PowerSoakSpec, run_fleet,
                                   run_power_soak)
from repro.server import EnrollmentSpec, SoakSpec, enroll_fleet, run_soak
from repro.server.soak import SUMMARY_NAME

SOAK_FILES = (SUMMARY_NAME, TELEMETRY_NAME, ALERTS_NAME)

SERVER_SOAK_DIGESTS = {
    SUMMARY_NAME:
        "a7df482f7f3a3fa46f5ecb879f6ca3dc1541996df5d02ceb000869e5d8853b0c",
    TELEMETRY_NAME:
        "6475f9b48bf1c30e0035573b0679b1839c8c6a9e0649c803094b0f606eeba7ce",
    ALERTS_NAME:
        "cf121187a60fd44a2bbd50a89119d6fa08a72b3a94ebc0b5006ead7478d065ed",
}

ATTACK_SOAK_DIGESTS = {
    SUMMARY_NAME:
        "8da0c0ae6c661e53a1ab4ff6aee47895c0b4dba6f5ba87c620eccb8edd545129",
    TELEMETRY_NAME:
        "487cb5de92041441e984600bf49632e0e785d915c70fc49128a9492abb40b79a",
    ALERTS_NAME:
        "45f199123aea6e05e0df87309bfb082d67dec78f328fbcb760145b7f671b72f5",
}

SERVER_TEXT_DIGEST = \
    "71f2803b1f7de2c59e594306132153953accebb49418b118f76292c462490dc3"
ATTACK_TEXT_DIGEST = \
    "18237adb08d2198e584ac23ac871c53bafb5ea42a32f1ebbcd0850c8dc5ecb91"
POWER_SOAK_DIGEST = \
    "662689f3303a19e75549e6a7a844da4e933469dcb5968fbc3d9703b56737150a"
FLEET_DIGEST = \
    "ba5afdf24e02740e55a2dd3ff6075024897bb010e38607751c97a385a0d87fbf"
AMORTIZED_DIGEST = \
    "0989cf0fcc5e7412f53ea2b0f18637becd3987b22490e087b0695b90f57cead8"
AMORTIZED_TEXT_DIGEST = \
    "7bdb21e5c63e993e9bf14502339d7cc9a2fb403abe68a92359419f53a40c1d15"
POWER_TEXT_DIGEST = \
    "19a7850a7d407de28e572f7ba6e8e5c4fa811057cca08b6aaa79074cb74bf3b7"
CAMPAIGN_STATUS_DIGEST = \
    "5ad9c4ca2536dd4aacf4e9605514250cfaae0ec37da1b7fce444868b26f46a5c"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(payload) -> str:
    return _sha256(json.dumps(payload, sort_keys=True).encode())


def _text_digest(report) -> str:
    """The report text minus its two run-specific lines (wall-clock
    and the summary path)."""
    lines = [line for line in report.text().splitlines()
             if not line.startswith(("  wall ", "  summary "))]
    return _sha256("\n".join(lines).encode())


def _file_digests(directory) -> dict:
    return {name: _sha256((directory / name).read_bytes())
            for name in SOAK_FILES}


def test_server_soak_outputs_are_pinned(tmp_path):
    fleet = EnrollmentSpec(tags=96, shard_size=32, seed=9)
    enroll_fleet(tmp_path / "fleet", fleet, workers=1)
    spec = SoakSpec(
        enrollment_digest=fleet.digest(),
        store_dir=str(tmp_path / "fleet"),
        sessions=24,
        cohorts=2,
        frame_loss=0.15,
        seed=17,
        session_deadline_s=1.0,
        adversarial_fraction=0.3,
        throttle_limit=2,
        replay_quarantine=True,
        tag_budget_uj=80.0,
    )
    report = run_soak(tmp_path / "soak", spec, workers=1)
    assert _file_digests(tmp_path / "soak") == SERVER_SOAK_DIGESTS
    assert _text_digest(report) == SERVER_TEXT_DIGEST


def test_attack_soak_outputs_are_pinned(tmp_path):
    spec = AttackSpec(adversary="mixed", defense="full", sessions=8,
                      cohorts=2, legit_fraction=0.3, frame_loss=0.1,
                      seed=17)
    report = run_attack_soak(tmp_path / "attack", spec, workers=1)
    assert _file_digests(tmp_path / "attack") == ATTACK_SOAK_DIGESTS
    assert _text_digest(report) == ATTACK_TEXT_DIGEST


@pytest.mark.parametrize("workers", [0, 2])
def test_power_soak_payload_is_pinned(workers):
    report = run_power_soak(PowerSoakSpec(sessions=4, seed=17),
                            workers=workers)
    assert _json_digest(report.summary_payload()) == POWER_SOAK_DIGEST


@pytest.mark.parametrize("workers", [0, 2])
def test_fleet_report_is_pinned(workers):
    report = run_fleet(FleetSpec(sessions=6, seed=17, sweep=(0.0, 0.2)),
                       workers=workers)
    payload = {"points": [p.digest() for p in report.points],
               "summary": report.summary()}
    assert _json_digest(payload) == FLEET_DIGEST


@pytest.mark.parametrize("workers", [0, 2])
def test_amortized_report_is_pinned(workers):
    spec = AmortizedSpec(curve="TOY-B17", seed=17, epoch_messages=4,
                         messages=8, sessions=2, sweep=(0.0, 0.2))
    report = run_amortized_soak(spec, workers=workers)
    payload = {"points": [p.digest() for p in report.points],
               "summary": report.summary_payload()}
    assert _json_digest(payload) == AMORTIZED_DIGEST


def test_amortized_summary_text_is_pinned():
    spec = AmortizedSpec(curve="TOY-B17", seed=17, epoch_messages=4,
                         messages=16, sessions=3, sweep=(0.0, 0.1, 0.2))
    report = run_amortized_soak(spec, workers=0)
    assert _sha256(report.summary().encode()) == AMORTIZED_TEXT_DIGEST


def test_power_soak_summary_text_is_pinned():
    report = run_power_soak(PowerSoakSpec(sessions=4, seed=17), workers=0)
    assert _sha256(report.summary().encode()) == POWER_TEXT_DIGEST


def test_campaign_status_text_is_pinned(tmp_path):
    """``campaign status`` on a degraded store: one shard quarantined
    by a permanent injected error, plus a logged transient retry.  The
    directory and the wall-clock line are masked."""
    directory = str(tmp_path / "campaign")
    spec = CampaignSpec(n_traces=6, shard_size=2, scenario="unprotected",
                        max_iterations=2, seed=7)
    policy = RetryPolicy(max_attempts=2, deterministic_attempts=2,
                         base_delay=0.0, jitter=0.0)
    chaos = ChaosConfig(seed=1, error_rate=1.0, only_shards=(1,))
    AcquisitionEngine(directory, spec, workers=1, retry_policy=policy,
                      chaos=chaos).run()
    FailureLog(directory).append(FailureEvent(
        shard_index=2, attempt=0, kind=TRANSIENT, reason="synthetic",
        action="retry"))
    text = cmd_campaign_status(directory).replace(directory, "<dir>")
    lines = [line for line in text.splitlines()
             if not line.startswith("  acquisition wall: ")]
    assert _sha256("\n".join(lines).encode()) == CAMPAIGN_STATUS_DIGEST
