"""The four batch workloads of the benchmark and their correctness gates.

Each workload is a fixed-size batch job built from the benchmark seed;
the program only ever receives the generated specs.  ``setup`` imports
what the workload needs and builds its specs (it is what the set-up
time measures), ``run_batch`` runs one batch in a fresh directory and
times its phases, and ``final_problems`` runs the untimed reference
checks once per run.

Why these four: ``dpa_unprotected`` is the attack side (hypothesis
replay in ``sca.predict`` dominates), ``acquire_full`` the scalar hot
path at full ladder length with no attack at all, ``protocol_soak`` the
session/channel stack that never calls the coprocessor, and
``dse_paper_space`` the same field/MALU layers at every digit size
(d = 16 takes the wide-digit path the others never take) plus the DSE
layer itself.  An optimisation of one layer is exercised by one of them
and bypassed by another.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field as dataclass_field

__all__ = ["Batch", "SIZES", "WORKLOADS", "WORKERS"]

#: Worker processes of an untraced batch; the batches are sized for a
#: two-core host.
WORKERS = 2


@dataclass
class Batch:
    """What one batch did: its ops, timed phases, work and output digest."""

    attempted: int
    failed: int = 0
    phases: dict = dataclass_field(default_factory=dict)
    work: dict = dataclass_field(default_factory=dict)
    digest: str = ""
    facts: dict = dataclass_field(default_factory=dict)
    problems: list = dataclass_field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.phases.values())


class Workload:
    """Defaults shared by the workloads: a spec with a ``digest()`` and
    no run-level reference check."""

    def spec_digest(self, ctx) -> str:
        return ctx["spec"].digest()

    def final_problems(self, ctx, batches) -> list:
        return []


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _store_digest(store) -> str:
    return _sha256(f"{r.index}:{r.samples_sha256}:{r.aux_sha256}"
                   for r in store.shard_records)


def _acquire(spec, directory: str, workers: int, batch: Batch):
    """Acquire a campaign into ``directory``, timed as the ``acquire``
    phase; fills the shard ops and the acquired-trace counts."""
    from repro.campaign import AcquisitionEngine

    engine = AcquisitionEngine(directory, spec, workers=workers)
    started = time.perf_counter()
    store = engine.run()
    batch.phases["acquire"] = time.perf_counter() - started
    metrics = engine.metrics
    quarantined = len(metrics.quarantined_shards)
    batch.failed += quarantined
    if metrics.acquired_traces != spec.n_traces:
        batch.problems.append(
            f"acquired {metrics.acquired_traces} of {spec.n_traces} traces "
            "(a resumed store or a cache hit is never timed)")
    if quarantined:
        batch.problems.append(f"{quarantined} shards quarantined")
    widths = {store.open_samples(r.index).shape[1]
              for r in store.shard_records}
    batch.work["traces"] = metrics.acquired_traces
    batch.work["sim_cycles"] = metrics.acquired_traces * max(widths,
                                                             default=0)
    batch.facts["trace_lengths"] = sorted(widths)
    return store


def _key_bits(spec, n_bits: int) -> list:
    """The spec key's ladder bits after the implicit leading one."""
    coprocessor = spec.build_coprocessor()
    padded = coprocessor.recode_scalar(spec.resolve_key())
    length = padded.bit_length()
    return [(padded >> (length - 2 - i)) & 1 for i in range(n_bits)]


class DpaUnprotected(Workload):
    """Acquire a truncated unprotected K-163 campaign (Z = 1), then run
    the streaming DPA over its leading key bits."""

    name = "dpa_unprotected"
    ops = "shards acquired + key bits attacked"

    def setup(self, seed: int, size: dict):
        from repro.campaign import CampaignSpec

        spec = CampaignSpec(
            n_traces=size["traces"], shard_size=size["shard_size"],
            scenario="unprotected", seed=seed,
            max_iterations=size["bits"] + 1,
        )
        return {"spec": spec, "bits": size["bits"],
                "key_bits": _key_bits(spec, size["bits"])}

    def describe(self, ctx) -> str:
        spec = ctx["spec"]
        return (f"{spec.n_traces} unprotected "
                f"traces x {spec.max_iterations} ladder iterations in "
                f"{spec.n_shards} shards, {ctx['bits']} bits attacked")

    def planned_ops(self, ctx) -> int:
        return ctx["spec"].n_shards + ctx["bits"]

    def run_batch(self, ctx, directory: str, workers: int) -> Batch:
        from repro.campaign import StreamingDpa

        spec, bits = ctx["spec"], ctx["bits"]
        batch = Batch(attempted=self.planned_ops(ctx))
        store = _acquire(spec, directory, workers, batch)
        started = time.perf_counter()
        result = StreamingDpa(store).recover_bits(bits)
        batch.phases["attack"] = time.perf_counter() - started
        recovered = [d.chosen for d in result.decisions]
        wrong = sum(1 for got, want in zip(recovered, ctx["key_bits"])
                    if got != want)
        batch.failed += wrong
        if wrong:
            batch.problems.append(
                f"recovered bits {recovered} != key bits {ctx['key_bits']}")
        batch.work["trace_bits"] = batch.work["traces"] * bits
        batch.digest = _store_digest(store)
        return batch


class AcquireFull(Workload):
    """Acquire a protected (random Z) K-163 campaign at full ladder
    length; no attack."""

    name = "acquire_full"
    ops = "shards acquired"

    def setup(self, seed: int, size: dict):
        from repro.campaign import CampaignSpec

        spec = CampaignSpec(
            n_traces=size["traces"], shard_size=size["shard_size"],
            scenario="protected", seed=seed,
        )
        return {"spec": spec, "coprocessor": spec.build_coprocessor()}

    def describe(self, ctx) -> str:
        spec = ctx["spec"]
        return (f"{spec.n_traces} protected "
                f"full-length traces in {spec.n_shards} shards")

    def planned_ops(self, ctx) -> int:
        return ctx["spec"].n_shards

    def run_batch(self, ctx, directory: str, workers: int) -> Batch:
        from repro.campaign import CorruptShardError

        spec = ctx["spec"]
        batch = Batch(attempted=self.planned_ops(ctx))
        store = _acquire(spec, directory, workers, batch)
        if not store.is_complete:
            batch.problems.append("store is incomplete")
            batch.failed = batch.attempted
        try:
            store.verify_all()
        except CorruptShardError as exc:
            batch.problems.append(f"verify_all: {exc}")
            batch.failed = batch.attempted
        batch.digest = _store_digest(store)
        batch.facts["first_point"] = store.read_aux(0)[0][0]
        return batch

    def final_problems(self, ctx, batches) -> list:
        """One untimed scalar point multiplication is the reference:
        85 698 cycles and 2 162 instructions with y-recovery, a result
        equal to the functional curve's, and an x-only ladder exactly as
        long as every acquired trace."""
        spec, coprocessor = ctx["spec"], ctx["coprocessor"]
        key = spec.resolve_key()
        point = batches[0].facts["first_point"]
        problems = []
        full = coprocessor.point_multiply(key, point, initial_z=1)
        if (full.cycles, len(full.instructions)) != (85698, 2162):
            problems.append(
                f"point multiplication took {full.cycles} cycles and "
                f"{len(full.instructions)} instructions, not 85698 and 2162")
        if full.result != coprocessor.domain.curve.multiply_naive(key, point):
            problems.append("coprocessor result differs from the curve's")
        ladder = coprocessor.point_multiply(key, point, initial_z=1,
                                            recover_y=False)
        for batch in batches:
            if batch.facts["trace_lengths"] != [ladder.cycles]:
                problems.append(
                    f"trace lengths {batch.facts['trace_lengths']} != "
                    f"the simulator's {ladder.cycles} cycles")
                break
        return problems


class ProtocolSoak(Workload):
    """Peeters-Hermans sessions on TOY-B17 over a 0/10/20 % frame-loss
    sweep (``protocols.fleet.run_fleet``)."""

    name = "protocol_soak"
    ops = "sessions"

    def setup(self, seed: int, size: dict):
        from repro.obs.integration import fleet_spec_digest
        from repro.protocols.fleet import FleetSpec

        spec = FleetSpec(protocol="peeters-hermans", curve="TOY-B17",
                         sessions=size["sessions"], seed=seed,
                         sweep=(0.0, 0.1, 0.2))
        for loss in spec.sweep:
            spec.profile(loss)
        return {"spec": spec, "digest": fleet_spec_digest(spec)}

    def describe(self, ctx) -> str:
        spec = ctx["spec"]
        return (f"{spec.protocol} on {spec.curve}, "
                f"{spec.sessions} sessions at each loss rate of "
                f"{list(spec.sweep)}")

    def spec_digest(self, ctx) -> str:
        return ctx["digest"]

    def planned_ops(self, ctx) -> int:
        return ctx["spec"].sessions * len(ctx["spec"].sweep)

    def run_batch(self, ctx, directory: str, workers: int) -> Batch:
        from repro.protocols.fleet import run_fleet

        spec = ctx["spec"]
        batch = Batch(attempted=self.planned_ops(ctx))
        started = time.perf_counter()
        report = run_fleet(spec, workers=workers)
        batch.phases["soak"] = time.perf_counter() - started
        batch.work["sessions"] = report.total_sessions
        if report.total_sessions != batch.attempted:
            batch.problems.append(
                f"{report.total_sessions} of {batch.attempted} sessions ran")
            batch.failed += batch.attempted - report.total_sessions
        lossless = [p for p in report.points if p.frame_loss == 0.0]
        refused = sum(p.sessions - p.successes for p in lossless)
        if refused:
            batch.problems.append(
                f"{refused} sessions at 0% loss did not accept")
            batch.failed += refused
        batch.digest = _sha256(f"{p.frame_loss!r}:{p.digest()}"
                               for p in report.points)
        return batch


class DsePaperSpace(Workload):
    """A cold ``dse.ExplorationEngine`` run over the default design
    space: digit sizes 1-16 x {full, none}, priced on a 90-point grid."""

    name = "dse_paper_space"
    ops = "design cells measured"

    def setup(self, seed: int, size: dict):
        from repro.dse import DesignSpaceSpec

        spec = DesignSpaceSpec(seed=seed, **size)
        return {"spec": spec, "cells": len(spec.measurement_jobs())}

    def describe(self, ctx) -> str:
        spec = ctx["spec"]
        return (f"{ctx['cells']} design cells "
                f"(digits {list(spec.digit_sizes)} x "
                f"{list(spec.countermeasures)}), {spec.grid_size} "
                "operating points")

    def planned_ops(self, ctx) -> int:
        return ctx["cells"]

    def run_batch(self, ctx, directory: str, workers: int) -> Batch:
        from repro.dse import engine, evaluate

        spec, cells = ctx["spec"], ctx["cells"]
        batch = Batch(attempted=cells)
        # the engine binds its task when constructed; looked up here so a
        # traced run measures each cell through the wrapped function
        explorer = engine.ExplorationEngine(
            directory, spec, workers=workers,
            task=evaluate.run_measurement_attempt)
        started = time.perf_counter()
        result = explorer.run()
        batch.phases["explore"] = time.perf_counter() - started
        batch.failed += len(result.quarantined)
        if result.cached != 0 or result.evaluated != cells:
            batch.problems.append(
                f"{result.evaluated} cells simulated and {result.cached} "
                f"cached; a timed run simulates all {cells}")
            batch.failed = cells
        cell_cycles = {(row["digit_size"], row["countermeasures"]):
                       row["cycles"] for row in result.rows}
        batch.work["cells"] = result.evaluated
        batch.work["sim_cycles"] = sum(cell_cycles.values())
        optimum = min((row for row in result.front),
                      key=lambda row: row["area_energy"], default=None)
        found = None if optimum is None else (
            optimum["digit_size"], optimum["vdd"], optimum["frequency_hz"],
            round(optimum["energy_uj"], 1), optimum["cycles"])
        if found != (4, 1.0, 847.5e3, 5.1, 85698):
            batch.problems.append(
                f"optimum (digit, Vdd, Hz, uJ, cycles) is {found}, not "
                "(4, 1.0, 847500.0, 5.1, 85698)")
            batch.failed = cells
        with open(os.path.join(directory, engine.PARETO_NAME), "rb") as f:
            batch.digest = hashlib.sha256(f.read()).hexdigest()
        return batch


WORKLOADS = {w.name: w for w in (DpaUnprotected(), AcquireFull(),
                                 ProtocolSoak(), DsePaperSpace())}

#: Batch sizes: ``full`` is what the benchmark measures, ``tiny`` what
#: its own smoke tests run.
SIZES = {
    "dpa_unprotected": {
        "full": {"traces": 48, "shard_size": 24, "bits": 3},
        "tiny": {"traces": 24, "shard_size": 12, "bits": 1},
    },
    "acquire_full": {
        "full": {"traces": 4, "shard_size": 2},
        "tiny": {"traces": 2, "shard_size": 1},
    },
    "protocol_soak": {
        "full": {"sessions": 240},
        "tiny": {"sessions": 4},
    },
    "dse_paper_space": {
        "full": {},
        "tiny": {"digit_sizes": (4, 8), "countermeasures": ("full",)},
    },
}
