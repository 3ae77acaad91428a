"""Simon 32/64: the round function as a cycle-accurate engine.

Simon 32/64 (Beaulieu et al., *The SIMON and SPECK Families of
Lightweight Block Ciphers*, 2013) is the smallest published block
cipher in hardware — the serialized ASIC implementation is 523 GE,
an order of magnitude under the paper's 5 527-GE SHA-1 unit and two
under the ~12 k-GE ECC core.  The crypto-engine literature followed
up with sub-pJ/bit Simon datapaths in 40 nm, which is exactly the
secret-key end of the paper's secret-key vs. public-key trade-off.

The model here is the bit-serial-friendly round engine:

* one round per cycle (the AND/rotate/XOR round function is
  combinational), plus a 4-cycle load/unload overhead per block;
* the key schedule runs *on the fly*, one scheduled word per round
  cycle, so a block costs ``ROUNDS + 4`` cycles;
* switching activity is the Hamming distance between consecutive
  state-register values — the (x, y) text registers and the 64-bit
  key register window — the same leakage currency
  :class:`~repro.power.models.CmosLeakageModel` uses for the ECC
  datapath.

>>> key = bytes.fromhex("1918111009080100")
>>> simon32_encrypt(key, bytes.fromhex("65656877")).hex()
'c69be9bb'
>>> simon32_decrypt(key, bytes.fromhex("c69be9bb")).hex()
'65656877'
"""

from __future__ import annotations

from typing import List, Tuple

from .base import EngineTrace

__all__ = ["ROUNDS", "SIMON32_64_GATES", "Simon32Engine",
           "simon32_decrypt", "simon32_encrypt"]

#: Serialized ASIC gate count of Simon 32/64 (Beaulieu et al. 2013).
SIMON32_64_GATES = 523.0

#: Rounds of the 32/64 parameter set.
ROUNDS = 32

#: Load plaintext + unload ciphertext around the round loop.
_IO_CYCLES = 4

_MASK = 0xFFFF

#: The z0 constant sequence (62 bits, repeating); bit ``j`` of the
#: schedule is bit ``j`` of this integer counted from the LSB.
_Z0 = 0b01100111000011010100100010111110110011100001101010010001011111


def _rol(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (16 - amount))) & _MASK


def _ror(value: int, amount: int) -> int:
    return ((value >> amount) | (value << (16 - amount))) & _MASK


def _z_bit(j: int) -> int:
    return (_Z0 >> (j % 62)) & 1


def _load_key(key: bytes) -> List[int]:
    """Round keys k[0..3] from the 8-byte key (k[3] printed first in
    the spec's test vectors, k[0] used in round 0)."""
    if len(key) != 8:
        raise ValueError(f"Simon 32/64 key must be 8 bytes, "
                         f"got {len(key)}")
    words = [int.from_bytes(key[i:i + 2], "big") for i in (0, 2, 4, 6)]
    return [words[3], words[2], words[1], words[0]]


def _expand_key(key: bytes) -> Tuple[List[int], float]:
    """All 32 round keys plus the key-register switching activity.

    The engine holds a 4-word (64-bit) key window; each schedule step
    shifts one new word in, so its activity is the Hamming distance
    between consecutive window states.
    """
    k = _load_key(key)
    consumed = 0.0
    for i in range(4, ROUNDS):
        tmp = _ror(k[i - 1], 3) ^ k[i - 3]
        tmp ^= _ror(tmp, 1)
        new = (~k[i - 4] & _MASK) ^ tmp ^ _z_bit(i - 4) ^ 3
        k.append(new)
        # window (k[i-4..i-1]) -> (k[i-3..i]): k[i-4] leaves, new enters
        consumed += (k[i - 4] ^ new).bit_count()
    return k, consumed


def _block_words(block: bytes) -> Tuple[int, int]:
    if len(block) != 4:
        raise ValueError(f"Simon 32/64 block must be 4 bytes, "
                         f"got {len(block)}")
    return (int.from_bytes(block[:2], "big"),
            int.from_bytes(block[2:], "big"))


class Simon32Engine:
    """A metered Simon 32/64 block engine (one key, many blocks).

    The key schedule is modeled on the fly — every block pays its
    schedule activity again, as a 523-GE serialized core with a
    4-word key register really does.
    """

    block_bytes = 4
    key_bytes = 8

    def __init__(self, key: bytes):
        self._round_keys, self._schedule_consumed = _expand_key(key)

    def encrypt_block(self, block: bytes) -> Tuple[bytes, EngineTrace]:
        x, y = _block_words(block)
        consumed = self._schedule_consumed
        for i in range(ROUNDS):
            nx = (y ^ (_rol(x, 1) & _rol(x, 8)) ^ _rol(x, 2)
                  ^ self._round_keys[i])
            consumed += (x ^ nx).bit_count() + (y ^ x).bit_count()
            x, y = nx, x
        data = x.to_bytes(2, "big") + y.to_bytes(2, "big")
        return data, EngineTrace(ROUNDS + _IO_CYCLES, float(consumed))

    def decrypt_block(self, block: bytes) -> Tuple[bytes, EngineTrace]:
        x, y = _block_words(block)
        consumed = self._schedule_consumed
        for i in reversed(range(ROUNDS)):
            ny = (x ^ (_rol(y, 1) & _rol(y, 8)) ^ _rol(y, 2)
                  ^ self._round_keys[i])
            consumed += (y ^ ny).bit_count() + (x ^ y).bit_count()
            x, y = y, ny
        data = x.to_bytes(2, "big") + y.to_bytes(2, "big")
        return data, EngineTrace(ROUNDS + _IO_CYCLES, float(consumed))


def simon32_encrypt(key: bytes, block: bytes) -> bytes:
    """One-shot ECB encryption of a single 4-byte block."""
    return Simon32Engine(key).encrypt_block(block)[0]


def simon32_decrypt(key: bytes, block: bytes) -> bytes:
    """One-shot ECB decryption of a single 4-byte block."""
    return Simon32Engine(key).decrypt_block(block)[0]
