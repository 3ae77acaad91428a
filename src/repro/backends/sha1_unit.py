"""A cycle-accurate SHA-1 compression unit (the paper's 5 527 GE).

Section 4 anchors the secret-key side of the gate-count argument on
the smallest published SHA-1 implementation — 5 527 gates [O'Neill
2008].  :mod:`repro.primitives.sha1` made the digest functional; this
module makes the *engine* observable: the same FIPS 180 compression,
but tracking what the hardware registers do —

* 16 cycles to load the message block, 80 round cycles (the W
  schedule runs in parallel with the rounds, as the compact cores do),
  5 cycles to fold the working variables back into the chaining
  state: 101 cycles per block;
* switching activity = Hamming distance between consecutive values of
  the 160-bit working register (a, b, c, d, e) plus the 16-word
  schedule window — the common toggle unit of the energy model.

The digests are bit-identical to :func:`repro.primitives.sha1.sha1`
(the FIPS 180 known-answer tests gate both).
"""

from __future__ import annotations

import struct
from typing import Tuple

from .base import EngineTrace

__all__ = ["BLOCK_CYCLES", "Sha1Engine", "hmac_sha1_trace"]

_H0 = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
_MASK = 0xFFFFFFFF

#: Load (16) + rounds (80, schedule in parallel) + state fold (5).
BLOCK_CYCLES = 101


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK


class Sha1Engine:
    """Metered SHA-1: hash bytes, get the digest and the engine bill."""

    digest_size = 20
    block_size = 64

    def _compress(self, h: list, block: bytes) -> Tuple[list, float]:
        w = list(struct.unpack(">16I", block))
        consumed = float(sum(word.bit_count() for word in w))  # load
        a, b, c, d, e = h
        for t in range(80):
            if t >= 16:
                scheduled = _rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14]
                                  ^ w[t - 16], 1)
                # 16-word window shifts: w[t-16] leaves, scheduled enters
                consumed += (w[t - 16] ^ scheduled).bit_count()
                w.append(scheduled)
            if t < 20:
                f = (b & c) | (~b & d)
                k = 0x5A827999
            elif t < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif t < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_rotl(a, 5) + f + e + k + w[t]) & _MASK
            ne, nd, nc, nb, na = d, c, _rotl(b, 30), a, temp
            consumed += ((a ^ na).bit_count() + (b ^ nb).bit_count()
                         + (c ^ nc).bit_count() + (d ^ nd).bit_count()
                         + (e ^ ne).bit_count())
            a, b, c, d, e = na, nb, nc, nd, ne
        out = [(x + y) & _MASK for x, y in zip(h, (a, b, c, d, e))]
        consumed += sum((x ^ y).bit_count() for x, y in zip(h, out))
        return out, consumed

    def hash(self, message: bytes) -> Tuple[bytes, EngineTrace]:
        """FIPS 180 digest of ``message`` plus the engine bill."""
        h = list(_H0)
        padded = message + b"\x80"
        padded += b"\x00" * ((56 - len(padded) % 64) % 64)
        padded += struct.pack(">Q", len(message) * 8)
        cycles = 0
        consumed = 0.0
        for start in range(0, len(padded), 64):
            h, block_consumed = self._compress(h, padded[start:start + 64])
            cycles += BLOCK_CYCLES
            consumed += block_consumed
        return struct.pack(">5I", *h), EngineTrace(cycles, consumed)


def hmac_sha1_trace(key: bytes, message: bytes) -> Tuple[bytes, EngineTrace]:
    """HMAC-SHA1 through the metered engine (RFC 2104)."""
    engine = Sha1Engine()
    trace = EngineTrace.zero()
    if len(key) > 64:
        key, key_trace = engine.hash(key)
        trace = trace + key_trace
    key = key.ljust(64, b"\x00")
    inner, inner_trace = engine.hash(
        bytes(b ^ 0x36 for b in key) + message)
    outer, outer_trace = engine.hash(
        bytes(b ^ 0x5C for b in key) + inner)
    return outer, trace + inner_trace + outer_trace
