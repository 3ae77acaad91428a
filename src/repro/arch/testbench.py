"""Random-stimulus equivalence testbench for the coprocessor.

The RTL-verification idiom applied to the architectural model: drive
the device under test with constrained-random stimulus, compare every
result against the golden reference (the affine group law), and track
functional coverage — which opcodes, key-bit patterns and corner
scalars the campaign actually exercised.  The library's own test suite
uses it, and it is the harness a downstream user would extend when
modifying the microcode.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from ..ec.point import AffinePoint
from .coprocessor import CoprocessorConfig, EccCoprocessor

__all__ = ["CoverageReport", "EquivalenceTestbench"]


@dataclass
class CoverageReport:
    """Functional coverage accumulated over a campaign."""

    runs: int = 0
    mismatches: list = dataclass_field(default_factory=list)
    opcodes_seen: set = dataclass_field(default_factory=set)
    saw_bit_zero: bool = False
    saw_bit_one: bool = False
    saw_min_scalar: bool = False
    saw_max_scalar: bool = False
    saw_dense_key: bool = False
    saw_sparse_key: bool = False

    @property
    def all_passed(self) -> bool:
        """No mismatches against the golden model."""
        return not self.mismatches

    @property
    def coverage_points(self) -> dict:
        """Name -> hit for each coverage goal."""
        return {
            "bit_zero": self.saw_bit_zero,
            "bit_one": self.saw_bit_one,
            "min_scalar": self.saw_min_scalar,
            "max_scalar": self.saw_max_scalar,
            "dense_key": self.saw_dense_key,
            "sparse_key": self.saw_sparse_key,
        }

    @property
    def coverage(self) -> float:
        """Fraction of coverage goals hit."""
        points = self.coverage_points
        return sum(points.values()) / len(points)

    def __str__(self) -> str:
        verdict = "PASS" if self.all_passed else \
            f"FAIL ({len(self.mismatches)} mismatches)"
        hit = ", ".join(k for k, v in self.coverage_points.items() if v)
        return (
            f"equivalence: {verdict} over {self.runs} runs; "
            f"coverage {self.coverage:.0%} ({hit})"
        )


class EquivalenceTestbench:
    """Drives a coprocessor configuration against the golden model.

    Parameters
    ----------
    config:
        Device under test configuration.
    """

    def __init__(self, config: Optional[CoprocessorConfig] = None):
        self.dut = EccCoprocessor(config or CoprocessorConfig())
        self.report = CoverageReport()

    def _golden(self, k: int, point: AffinePoint) -> AffinePoint:
        return self.dut.domain.curve.multiply_naive(k, point)

    def _random_subgroup_point(self, rng) -> AffinePoint:
        curve = self.dut.domain.curve
        while True:
            p = curve.double(curve.random_point(rng))
            if not p.is_infinity and p.x != 0:
                return p

    def check(self, k: int, point: AffinePoint, rng) -> bool:
        """One directed check; records coverage and any mismatch."""
        trace = self.dut.point_multiply(k, point, rng=rng)
        expected = self._golden(k, point)
        self.report.runs += 1
        self.report.opcodes_seen.update(
            instr.opcode for instr in trace.instructions
        )
        bits = trace.key_bits
        if 0 in bits:
            self.report.saw_bit_zero = True
        if 1 in bits:
            self.report.saw_bit_one = True
        order = self.dut.domain.order
        if k == 1:
            self.report.saw_min_scalar = True
        if k == order - 1:
            self.report.saw_max_scalar = True
        weight = k.bit_count()
        if weight >= (order.bit_length() * 2) // 3:
            self.report.saw_dense_key = True
        if 0 < weight <= 4:
            self.report.saw_sparse_key = True
        if trace.result != expected:
            self.report.mismatches.append((k, point))
            return False
        return True

    def run_campaign(self, runs: int, rng,
                     include_corners: bool = True) -> CoverageReport:
        """Constrained-random campaign plus the corner scalars."""
        order = self.dut.domain.order
        generator = self.dut.domain.generator
        if include_corners:
            dense = order - 2  # near-max weight after recoding
            for k in (1, 2, 3, order - 1, dense, 1 << 100):
                self.check(k, generator, rng)
        ring = self.dut.domain.scalar_ring
        for __ in range(runs):
            k = ring.random_scalar(rng)
            point = self._random_subgroup_point(rng)
            self.check(k, point, rng)
        return self.report
