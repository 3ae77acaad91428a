"""Golden trace identity: the simulator's output, pinned byte for byte.

Simulated cycles, switching activity and microjoules are the paper's
physics, so a change to the simulator's implementation must leave every
byte of its output alone.  Each case below runs seeded scalars and Z
values on one design point and hashes everything the run produces: the
four activity channels (as little-endian float64), the executed
instructions, the ladder iteration spans, the register-write log and
the result.  The digests were recorded from the reference simulator;
a mismatch means the simulator's observable behaviour changed.

Run this file directly to print the digests of the current simulator.
"""

import hashlib
import random
import struct

import pytest

from repro.arch import (
    BalancedEncoding,
    ClockGatingPolicy,
    CoprocessorConfig,
    EccCoprocessor,
    UnbalancedEncoding,
)
from repro.ec import NIST_B163, NIST_K163
from repro.ec.curves import TOY_B17

_GATED = ClockGatingPolicy.DATA_DEPENDENT

#: name -> (config overrides, runs); a run is (seed, max_iterations,
#: recover_y).  ``max_iterations=None`` is a full point multiplication.
CASES = {
    "k163-d4-paper": ({}, [(1, None, True), (2, 3, False)]),
    "k163-d1": ({"digit_size": 1}, [(3, 2, False)]),
    "k163-d2": ({"digit_size": 2}, [(4, 3, False)]),
    "k163-d8": ({"digit_size": 8}, [(5, 3, False)]),
    "k163-d16": ({"digit_size": 16}, [(6, None, False), (7, 3, False)]),
    "k163-unbalanced": ({"mux_encoding": UnbalancedEncoding()},
                        [(8, 4, False)]),
    "k163-gated-clock": ({"clock_gating": _GATED}, [(9, 4, False)]),
    "k163-no-isolation": ({"input_isolation": False}, [(10, 4, False)]),
    "k163-glitch": ({"glitch_factor": 0.3}, [(11, 4, False)]),
    "k163-no-isolation-glitch": (
        {"input_isolation": False, "glitch_factor": 0.3}, [(12, 4, False)]),
    "k163-squarer": ({"dedicated_squarer": True}, [(13, 4, False)]),
    "k163-no-fetch": ({"fetch_overhead": 0}, [(14, 4, False)]),
    "k163-squarer-no-fetch": (
        {"dedicated_squarer": True, "fetch_overhead": 0},
        [(15, None, True)]),
    "k163-d8-leaky": (
        {"digit_size": 8, "mux_encoding": UnbalancedEncoding(),
         "clock_gating": _GATED, "input_isolation": False,
         "glitch_factor": 0.3, "randomize_z": False},
        [(16, 4, False)]),
    "k163-d1-squarer-gated": (
        {"digit_size": 1, "dedicated_squarer": True, "fetch_overhead": 0,
         "clock_gating": _GATED, "mux_encoding": BalancedEncoding()},
        [(17, 2, False)]),
    "b163-d4": ({"domain": NIST_B163}, [(18, 3, False)]),
    "toy-d16-leaky": (
        {"domain": TOY_B17, "digit_size": 16,
         "mux_encoding": UnbalancedEncoding(), "clock_gating": _GATED,
         "input_isolation": False, "glitch_factor": 0.3},
        [(19, None, True)]),
    "toy-d2-squarer-no-fetch": (
        {"domain": TOY_B17, "digit_size": 2, "dedicated_squarer": True,
         "fetch_overhead": 0}, [(20, None, True), (21, None, False)]),
}

GOLDEN = {
    'b163-d4': 'faa115cc01f043cc506d9969746f2b8664494908d8add4ab319b0a101001aa11',
    'k163-d1': '7ab8bb8fc17f4f8dde407cda985eb9a558c338072da0cc18e98c31c2a591a2ad',
    'k163-d1-squarer-gated': '4e3f17647ac8dfe671a5f15764bd9129b406eeac853908a27e6e3ccbda86ea9f',
    'k163-d16': 'ca672c2e8534b59534f7ea77f629eeb44be7e684c453632fb349b8c9778ae39f',
    'k163-d2': 'e11034128741effe051e28f0980558be9c64e7dedca1d5e75822018b28249096',
    'k163-d4-paper': '8c58dcd7c373e894a65280c5dad4ed460b8ccacc28fdaa6e414a24f3e9a574da',
    'k163-d8': '647723bfdf65f87d25c7a2ee02d17d22e749f6521904f8b576ecb09434c8d590',
    'k163-d8-leaky': '4e574822a696ec4cc33a77f98d7eb46f59a36a5581911c679d3edc35a35a6738',
    'k163-gated-clock': 'cb5f2b6172cc3077f744e29cc308cf1fda5ecbe9f2841fc35c47a5a84b46aa22',
    'k163-glitch': 'cbab3332c47b41ef226cbacc47f1c5b5305a713b411a856e4bb7e45b43ebb2a0',
    'k163-no-fetch': '560f6af7bae0cb2bfe069c9ba9c89a4dfddbb47e981754cefd47eda9db1043ce',
    'k163-no-isolation': '55f1f750fa945ee715706d957dc920135cd320850f3265b87f985204246c4c61',
    'k163-no-isolation-glitch': 'ecf4c45cb26a60f4b2042f6ae875aaf76b7435b503a0cdd3591578f6d2242ca0',
    'k163-squarer': '1f962f28b3afb0b8156f66616aadd797a7886386389f4907a29213364e216d15',
    'k163-squarer-no-fetch': '83cc912164609e7de72f653b94ab8781814598c68dfa8d06bdf22c6dedffea51',
    'k163-unbalanced': '7cb5900ef867763df7b45e44a350e23eebdad3bc91011f6f29ddf43dd34793fd',
    'toy-d16-leaky': 'efe5fb9cfe3eb6738cec533b3fbe67cd3186d7c8f4f054862bbbadf235078e1b',
    'toy-d2-squarer-no-fetch': '193f484bb3bd83a70ffdade57cd8169cbfe9c26e90e9e7965c7783cce393ebe8',
}


def _floats(channel) -> bytes:
    return struct.pack(f"<{len(channel)}d", *channel)


def run_digest(overrides: dict, runs: list) -> str:
    """sha256 over everything the case's runs produce, in run order."""
    config = CoprocessorConfig(**{"domain": NIST_K163, **overrides})
    cop = EccCoprocessor(config)
    h = hashlib.sha256()
    for seed, max_iterations, recover_y in runs:
        rng = random.Random(seed)
        k = rng.randrange(1, cop.domain.order)
        trace = cop.point_multiply(
            k, cop.domain.generator, rng=rng,
            max_iterations=max_iterations, recover_y=recover_y)
        for channel in (trace.datapath, trace.register, trace.control,
                        trace.clock):
            h.update(_floats(channel))
        h.update(repr([
            (i.opcode.value, i.rd, i.ra, i.rb, i.cycles, i.start_cycle)
            for i in trace.instructions]).encode())
        h.update(repr([(s.start, s.end, s.key_bit)
                       for s in trace.iterations]).encode())
        h.update(repr([(w.cycle, w.register, w.old_value, w.new_value)
                       for w in cop.registers.writes]).encode())
        result = trace.result
        h.update(repr((
            None if result is None else (result.x, result.y),
            trace.result_x_only)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden_digest(name):
    assert run_digest(*CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {run_digest(*CASES[case])!r},")
