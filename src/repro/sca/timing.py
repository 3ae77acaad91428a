"""Timing attacks (Kocher [7]) and constant-time verification.

Section 7: "The prototype co-processor is intrinsically resistant to
timing attacks ... the computation time of a point multiplication is
the same for different key values", achieved at the algorithm level
(the ladder runs a fixed number of iterations) and the architecture
level (every instruction takes a constant number of cycles).

This module provides both sides: a timing attack that succeeds against
a key-dependent-time baseline (double-and-add, whose cycle count
reveals the scalar's Hamming weight), and the verification harness
that demonstrates the coprocessor's timing channel is flat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.coprocessor import EccCoprocessor
from ..ec.curve import BinaryEllipticCurve
from ..ec.point import AffinePoint
from ..ec.scalar_mult import double_and_add

__all__ = [
    "TimingReport",
    "coprocessor_timing_report",
    "double_and_add_cycle_model",
    "timing_attack_hamming_weight",
]


@dataclass(frozen=True)
class TimingReport:
    """Cycle-count statistics over a set of secret scalars."""

    cycle_counts: tuple
    hamming_weights: tuple

    @property
    def is_constant_time(self) -> bool:
        """True iff every scalar took exactly the same cycle count."""
        return len(set(self.cycle_counts)) == 1

    @property
    def correlation_with_weight(self) -> float:
        """Pearson correlation between cycles and key Hamming weight.

        The timing attack's distinguisher: significantly non-zero means
        execution time leaks the key weight.  Zero-variance inputs
        (the constant-time case) yield 0.0 by convention.
        """
        cycles = np.asarray(self.cycle_counts, dtype=np.float64)
        weights = np.asarray(self.hamming_weights, dtype=np.float64)
        if cycles.std() == 0 or weights.std() == 0:
            return 0.0
        return float(np.corrcoef(cycles, weights)[0, 1])


def coprocessor_timing_report(
    coprocessor: EccCoprocessor, keys: list
) -> TimingReport:
    """Measure coprocessor point-multiplication cycles for many keys.

    Avoids k = n - 1 (the flagged kP = -P edge path) in callers' key
    lists if exact constancy is asserted.
    """
    cycles = []
    weights = []
    generator = coprocessor.domain.generator
    for k in keys:
        trace = coprocessor.point_multiply(k, generator, initial_z=1)
        cycles.append(trace.cycles)
        weights.append(k.bit_count())
    return TimingReport(tuple(cycles), tuple(weights))


def double_and_add_cycle_model(
    curve: BinaryEllipticCurve,
    k: int,
    point: AffinePoint,
    double_cycles: int = 400,
    add_cycles: int = 450,
) -> int:
    """Cycle count of a naive double-and-add implementation.

    The software baseline the coprocessor replaces: each doubling and
    each addition has a fixed cost, but *how many* additions run
    depends on the key's Hamming weight — the timing leak.
    """
    operations = []
    double_and_add(curve, k, point, operations=operations)
    return (
        operations.count("D") * double_cycles
        + operations.count("A") * add_cycles
    )


def timing_attack_hamming_weight(
    cycle_count: int,
    bit_length: int,
    double_cycles: int = 400,
    add_cycles: int = 450,
) -> int:
    """Invert the double-and-add cycle model: recover the key weight.

    Given one timing observation of the leaky baseline, solve for the
    number of additions — i.e. the secret scalar's Hamming weight, a
    real reduction of the key-search space.
    """
    doubles = bit_length - 1
    additions = round((cycle_count - doubles * double_cycles) / add_cycles)
    return int(additions) + 1  # +1 for the implicit leading one-bit
