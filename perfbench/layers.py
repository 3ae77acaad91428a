"""Outside-in per-layer tracing: wrap the program's public functions.

The traced run measures each layer of the stack without touching the
program: :class:`Tracer` replaces a module or class attribute with a
timing wrapper for the length of a ``with`` block and puts the original
back on exit.  Each wrapped call records its calls and *self* time (its
duration minus the time spent in wrapped calls nested inside it) and,
for the coarse layers, a span ``(name, start, end, parent)``.  The hot
leaf layers (field reduce, digit-serial multiply, MALU operations) run
hundreds of thousands of times per point multiplication, so they keep
totals only; a span per call would cost more memory than the run.

Spans stay in memory and are written once, by :meth:`Tracer.write`,
when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["COUNTS", "LAYERS", "Layer", "Tracer", "resolve"]


def _max_iterations(counts, args, kwargs, result):
    # the hypothesis replay runs ``max_iterations`` ladder iterations
    counts["sca.predict.replayed_iterations"] += kwargs["max_iterations"]


def _sim_cycles(counts, args, kwargs, result):
    counts["arch.coprocessor.point_multiply.sim_cycles"] += result.cycles


def _written_bytes(counts, args, kwargs, result):
    store = args[0]
    for name in (result["samples_file"], result["aux_file"]):
        counts["campaign.store.write_shard.bytes"] += os.path.getsize(
            os.path.join(store.directory, name))


def _read_bytes(counts, view):
    counts["campaign.store.iter_shards.bytes"] += view.samples.nbytes


def _supervisor_outcome(counts, args, kwargs, result):
    counts["campaign.supervisor.retries"] += result.retried_attempts
    counts["campaign.supervisor.quarantined"] += len(result.quarantined)


def _session_result(counts, args, kwargs, result):
    counts["protocols.session.retransmissions"] += result.retransmissions
    counts["protocols.session.epochs"] += result.epochs_used


def _exploration_result(counts, args, kwargs, result):
    counts["dse.cache_hits"] += result.cached


@dataclass(frozen=True)
class Layer:
    """One wrap point: ``target`` is ``module:attribute`` or
    ``module:Class.method``; the attribute is replaced where the program
    looks it up (a module that imported a function by name holds its
    own reference, so that module is the target)."""

    name: str
    target: str
    span: bool = True
    on_result: Optional[Callable] = None
    generator_item: Optional[Callable] = None


#: Every layer the traced run measures, outermost first.
LAYERS = (
    Layer("dse.explore", "repro.dse.engine:ExplorationEngine.run",
          on_result=_exploration_result),
    Layer("dse.measure", "repro.dse.evaluate:run_measurement_attempt"),
    Layer("dse.analyze", "repro.dse.engine:analyze_space"),
    Layer("campaign.supervisor", "repro.campaign.supervisor:"
          "ShardSupervisor.run", on_result=_supervisor_outcome),
    Layer("campaign.acquire_shard", "repro.campaign.acquire:acquire_shard"),
    Layer("campaign.store.write_shard",
          "repro.campaign.store:TraceStore.write_shard",
          on_result=_written_bytes),
    Layer("campaign.store.iter_shards",
          "repro.campaign.store:TraceStore.iter_shards",
          generator_item=_read_bytes),
    Layer("campaign.attack_bit",
          "repro.campaign.streaming:StreamingDpa.attack_bit"),
    Layer("campaign.moments.update",
          "repro.campaign.streaming:OnlineMoments.update"),
    Layer("sca.predict_iteration",
          "repro.sca.predict:ActivityPredictor.predict_iteration"),
    Layer("arch.coprocessor.replay_padded",
          "repro.arch.coprocessor:EccCoprocessor.replay_padded",
          on_result=_max_iterations),
    Layer("arch.coprocessor.point_multiply",
          "repro.arch.coprocessor:EccCoprocessor.point_multiply",
          on_result=_sim_cycles),
    Layer("power.simulator.measure",
          "repro.power.simulator:PowerTraceSimulator.measure"),
    Layer("protocols.session", "repro.protocols.fleet:run_resilient_session",
          on_result=_session_result),
    Layer("protocols.energy", "repro.energy.comparison:protocol_energy"),
    Layer("channel.transmit", "repro.channel.model:BodyAreaChannel.transmit"),
    Layer("channel.frame.encode", "repro.protocols.session:encode_frame",
          span=False),
    Layer("channel.frame.decode", "repro.protocols.session:decode_frame",
          span=False),
    Layer("ec.curve.multiply",
          "repro.ec.curve:BinaryEllipticCurve.multiply_naive"),
    Layer("arch.malu.multiply", "repro.arch.malu:Malu.multiply", span=False),
    Layer("arch.malu.square", "repro.arch.malu:Malu.square", span=False),
    Layer("arch.malu.add", "repro.arch.malu:Malu.add", span=False),
    Layer("gf2m.digit_serial.multiply",
          "repro.gf2m.digit_serial:DigitSerialMultiplier.multiply",
          span=False),
    Layer("gf2m.mul_raw", "repro.gf2m.field:BinaryField.mul_raw", span=False),
    Layer("gf2m.reduce", "repro.gf2m.field:BinaryField.reduce", span=False),
)


#: The counts the result hooks record (zero when a workload bypasses them).
COUNTS = (
    "arch.coprocessor.point_multiply.sim_cycles",
    "sca.predict.replayed_iterations",
    "campaign.store.write_shard.bytes",
    "campaign.store.iter_shards.bytes",
    "campaign.supervisor.retries",
    "campaign.supervisor.quarantined",
    "protocols.session.retransmissions",
    "protocols.session.epochs",
    "dse.cache_hits",
)


def resolve(target: str) -> tuple:
    """(owner, attribute name) of a ``module:attr`` or
    ``module:Class.attr`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{target} is not defined on its owner")
    return owner, attr


class Tracer:
    """Per-layer calls, self time, counts and spans of one traced run.

    Use as a context manager: entering wraps every layer, leaving
    restores every original attribute, whatever happened inside.
    """

    def __init__(self):
        self.stats = {layer.name: [0, 0.0] for layer in LAYERS}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans: list = []
        # each frame is [child seconds, index of the enclosing span]
        self._stack = [[0.0, -1]]
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        try:
            for layer in LAYERS:
                owner, attr = resolve(layer.target)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(layer, original))
                self._patched.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def restore(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: Layer, fn):
        stats = self.stats[layer.name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        name = layer.name
        keep_span = layer.span

        def timed(call, *args, **kwargs):
            start = clock()
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if keep_span:
                frame[1] = len(spans)
                spans.append([name, start, start, parent[1]])
            stack.append(frame)
            try:
                return call(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                parent[0] += elapsed
                if keep_span:
                    spans[frame[1]][2] = end

        counts = self.counts
        if layer.generator_item is not None:
            item_hook = layer.generator_item

            def generator_wrapper(*args, **kwargs):
                # one span per next(): the time spent producing an item
                # (or finding there is none left)
                iterator = fn(*args, **kwargs)
                while True:
                    try:
                        item = timed(next, iterator)
                    except StopIteration:
                        return
                    item_hook(counts, item)
                    yield item

            return generator_wrapper

        hook = layer.on_result
        if hook is None:
            def wrapper(*args, **kwargs):
                return timed(fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = timed(fn, *args, **kwargs)
                hook(counts, args, kwargs, result)
                return result
        return wrapper

    # ------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """``<layer>.calls`` and ``<layer>.self_s`` for every layer, plus
        the counts the hooks recorded."""
        metrics = {}
        for name, (calls, self_s) in self.stats.items():
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self_s
        metrics.update(self.counts)
        return metrics

    def write(self, path: str, stamp: dict) -> None:
        """Write the spans (and the totals) once, at the end of a run."""
        payload = {
            "stamp": stamp,
            "span_fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "layers": self.layer_metrics(),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)

