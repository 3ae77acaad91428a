"""Two small helpers shared across the obs consumers.

Each subsystem folds its own results into the metric registry next to
the type it folds (``protocols.fleet.record_fleet_report``,
``protocols.amortized.record_amortized_report``,
``intermittent.engine.record_intermittent_result``), and each report
renders its table from its own properties, so a figure is computed in
one place.  What stays here is the fleet-spec fingerprint and the
snapshot lookup tests use to read exported metrics.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["fleet_spec_digest", "snapshot_value"]


def snapshot_value(snapshot: dict, name: str, **labels) -> float:
    """A counter/gauge value out of a snapshot (0.0 when absent)."""
    entry = snapshot.get("metrics", {}).get(name)
    if entry is None:
        return 0.0
    wanted = {k: str(v) for k, v in labels.items()}
    for item in entry["values"]:
        if item["labels"] == wanted:
            return float(item["value"])
    return 0.0


def fleet_spec_digest(spec) -> str:
    """Stable fingerprint of a FleetSpec (manifests, trace ids)."""
    from dataclasses import asdict

    payload = json.dumps(asdict(spec), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]
